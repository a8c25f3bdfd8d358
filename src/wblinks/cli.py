"""Command-line front end: check, link, classify, report.

`check`, `link` and `classify` emit a JSON document with a stable schema
(version "1") and deterministic key order; `classify` can also emit CSV or a
plain table.  `report` is `classify` written as a Markdown table.
Exit codes: 0 success (a rejected link is a valid answer), 2 input error,
3 when --expect is given and the classification count differs, and 120
(``CLOSED_STDOUT``) when stdout or stderr is a pipe whose reader has gone.
An input error is any ValueError: the CLI raises one for its own limits
(``MAX_WEIGHTS``, ``MAX_INDEX``, ``--out``, ``--expect``) and passes on the
library's.

Both routes into the CLI, ``python -m wblinks.cli`` and the ``wblinks``
script, enter through ``run``, which leaves by ``os._exit`` once the answer
is flushed and so skips the interpreter's teardown.  Since ``atexit``
handlers do not run, a coverage run of the script or of ``-m`` loses its
data; call ``main`` in-process to measure coverage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from .classify import (
    DEFAULT_BOUNDS,
    MAX_BOUNDS,
    SCAN_TABLES_BUDGET,
    classify,
    classify_stable,
)
from .link import DivContraction, Fibration, Link, build_link, display_orientation
from .singularity import (
    is_terminal_blowup,
    is_terminal_cqs,
    is_terminal_wps,
    singularity_indices,
)
from .toric import BlowupVariety, antik_degree, is_weak_fano

SCHEMA_VERSION = "1"

# End-map names the computation does not produce; published only for the
# four dimension-3 links, keyed by the trailing weight pair.
DIM3_END_ANNOTATIONS = {
    (1, 1): ("Fibration", "P^1-bundle over P^2"),
    (1, 2): ("Divisorial Contraction to P^1", None),
    (2, 3): ("(1,1,2)-Weighted blowup of a smooth point", None),
    (2, 5): ("Kawamata blowup of 1/3(1,1,2)", None),
}


# `check` and `link` run the pure-Python residue-sum loop over k <= R/2 at
# each index R they test, which takes seconds at R = 10**7; larger indices
# are refused before any work.
MAX_INDEX = 10**7

# The exit code of a command whose stdout or stderr is a pipe whose reader
# has gone, however much of the answer was written: the code that Python's
# own exit gives when it cannot flush a standard stream.
CLOSED_STDOUT = 120

# `check -w` and `link -w` take at most this many weights, refused before any
# work: their cost grows quadratically with the length, and the lists of the
# paper have at most 6 entries.
MAX_WEIGHTS = 20


def _check_index(index: int, what: str) -> None:
    if index > MAX_INDEX:
        raise ValueError(f"{what} must be at most {MAX_INDEX}, got {index}")


def _parse_weights(text: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) > MAX_WEIGHTS:
        raise ValueError(f"at most {MAX_WEIGHTS} weights, got {len(parts)}")
    out = []
    for p in parts:
        try:
            out.append(int(p))
        except ValueError:
            raise ValueError(f"bad weight token: {p!r}") from None
    return tuple(out)


def _record(command: str, inputs: dict, result: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "timing_ms": int((time.perf_counter() - started) * 1000),
    }


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _wformat(ws) -> str:
    return ":".join(str(w) for w in ws)


def cmd_check(args, out) -> int:
    started = time.perf_counter()
    weights = _parse_weights(args.weights)
    inputs = {"weights": list(weights)}
    if args.index is not None:
        _check_index(args.index, "index")
        inputs["index"] = args.index
        result = {"terminal_cqs": is_terminal_cqs(weights, args.index)}
    else:
        # Singularity indices are gcds of entries > 1, so at most the largest.
        _check_index(max(weights), "largest weight")
        blowup = all(w >= 1 for w in weights) and len(weights) >= 2
        if blowup:
            _check_index(sum(weights) - 1, "blowup index sum(weights) - 1")
        result = {
            "weights_sorted": sorted(weights),
            "singularity_indices": list(singularity_indices(weights)),
            "wps_terminal": is_terminal_wps(weights),
            "blowup_terminal": None,
            "weak_fano": None,
            "antik_degree": None,
        }
        if blowup:
            T = BlowupVariety(len(weights), weights)
            result["blowup_terminal"] = is_terminal_blowup(weights)
            result["weak_fano"] = is_weak_fano(T)
            result["antik_degree"] = str(antik_degree(T))
    out.write(_json(_record("check", inputs, result, started)))
    return 0


def end_summary(end: Fibration | DivContraction) -> tuple[str, tuple[int, ...]]:
    """(end kind, end-model weight multiset) of a built link's end."""
    if isinstance(end, DivContraction):
        return "divisorial_contraction", end.target_weights
    return "fibration", end.fiber_weights


def _serialize_link(result) -> dict:
    """The link or rejection as JSON: the record field names are the keys."""
    if not isinstance(result, Link):
        return {"accepted": False, "rejection": result._asdict()}
    return {
        "accepted": True,
        "steps": [
            {**s._asdict(), "flip_weights_display": display_orientation(s.flip_weights)}
            for s in result.steps
        ],
        "end": {"kind": end_summary(result.end)[0], **result.end._asdict()},
    }


def cmd_link(args, out) -> int:
    started = time.perf_counter()
    weights = _parse_weights(args.weights)
    _check_index(sum(weights) - 1, "blowup index sum(weights) - 1")
    inputs = {"weights": list(weights), "dim": args.dim}
    result = _serialize_link(build_link(weights, args.dim))
    result["weights_sorted"] = sorted(weights)
    out.write(_json(_record("link", inputs, result, started)))
    return 0


def _out_path(path: str) -> str:
    """The --out path, checked before any scan.

    Raises ValueError, which ``main`` reports with exit code 2, unless the
    path is not empty, its directory exists and is writable and the path
    is not a directory, so that a scan never runs for an output it cannot
    write.  The file itself is created only once the scan is done.
    """
    if not path:
        raise ValueError("--out must name a file, not an empty path")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out directory does not exist: {parent}")
    if os.path.isdir(path) or not os.access(parent, os.W_OK):
        raise ValueError(f"--out is not a writable file path: {path}")
    return path


def _classify_payload(run, stabilized) -> dict:
    return {
        "dim": run.dim,
        "bound": run.bound,
        "total": len(run.links),
        "accepted": [list(ws) for ws in run.accepted],
        "shape_counts": dict(sorted(run.shape_counts.items())),
        "stabilized": stabilized,
    }


def _classify_csv(run) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["weights", "end_kind", "target"])
    for ws, link in run.links.items():
        kind, target = end_summary(link.end)
        writer.writerow([_wformat(ws), kind, _wformat(target)])
    return buf.getvalue()


def _classify_table(run, stabilized) -> str:
    lines = [f"dim={run.dim} bound={run.bound} total={len(run.links)}"]
    if stabilized is not None:
        lines.append(f"stabilized={stabilized}")
    lines.append("")
    for ws, link in run.links.items():
        kind, target = end_summary(link.end)
        lines.append(f"({','.join(map(str, ws))})  {kind}  P({','.join(map(str, target))})")
    lines.append("")
    lines.append("shape counts:")
    for key, n in sorted(run.shape_counts.items()):
        lines.append(f"  {key}: {n}")
    return "\n".join(lines) + "\n"


def render_report(run) -> str:
    """Markdown table of the run's accepted links, then a blank line."""
    lines = [
        f"# Sarkisov links from weighted blowups of P^{run.dim} (bound {run.bound})",
        "",
        "| weights | flip steps | end map | model |",
        "| --- | --- | --- | --- |",
    ]
    for ws, link in run.links.items():
        steps = "; ".join(
            "(" + ",".join(str(x) for x in display_orientation(s.flip_weights)) + ")"
            for s in link.steps
        )
        kind, target = end_summary(link.end)
        model = f"P({','.join(map(str, target))})"
        if run.dim == 3:
            end_map, model_override = DIM3_END_ANNOTATIONS.get(
                ws[-2:], (kind, None)
            )
            if model_override is not None:
                model = model_override
        else:
            end_map = (
                "Divisorial Contraction" if kind == "divisorial_contraction"
                else "Fibration"
            )
            if kind == "fibration":
                base = link.end.base_dim
                model = f"{model}-fibration over P^{base}"
        lines.append(
            f"| ({','.join(map(str, ws))}) | {steps} | {end_map} | {model} |"
        )
    return "\n".join(lines) + "\n\n"


def cmd_classify(args, out) -> int:
    started = time.perf_counter()
    bound = args.bound if args.bound is not None else DEFAULT_BOUNDS[args.dim]
    path = _out_path(args.out) if args.out is not None else None
    if args.expect is not None and args.expect < 0:
        raise ValueError(f"--expect must be a count >= 0, got {args.expect}")
    if args.stabilize:
        run, stabilized = classify_stable(args.dim, bound, jobs=args.jobs)
    else:
        run, stabilized = classify(args.dim, bound, jobs=args.jobs), None
    inputs = {"dim": args.dim, "bound": bound, "jobs": run.jobs}
    if args.format == "json":
        text = _json(
            _record("classify", inputs, _classify_payload(run, stabilized), started)
        )
    elif args.format == "csv":
        text = _classify_csv(run)
    elif args.format == "table":
        text = _classify_table(run, stabilized)
    else:
        text = render_report(run)
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {path}: {exc.strerror}") from None
        out.write(_json(_record(
            "classify", inputs, {"written": args.out, "total": len(run.links)}, started
        )))
    else:
        out.write(text)
    if args.expect is not None and len(run.links) != args.expect:
        sys.stderr.write(
            f"expected {args.expect} tuples, found {len(run.links)}\n"
        )
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wblinks",
        description="Terminality checks and Sarkisov links for weighted "
        "blowups of a point in projective space.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--dim", type=int, choices=(3, 4), required=True)
    scan.add_argument("--bound", type=int, default=None, help=(
        f"default: {DEFAULT_BOUNDS[3]} in dim 3, {DEFAULT_BOUNDS[4]} in dim 4; "
        f"at most {MAX_BOUNDS[3]} and {MAX_BOUNDS[4]} ({MAX_BOUNDS[3] // 2} and "
        f"{MAX_BOUNDS[4] // 2} with classify --stabilize, which scans at twice the bound)"
    ))
    scan.add_argument("--jobs", type=int, default=1, help=(
        "processes that scan (default: 1), capped by the usable CPUs, by the "
        f"number of heads and by a {SCAN_TABLES_BUDGET // 2**20} MiB budget for "
        "the tables of them all, and 1 where the platform has no fork; on Linux "
        "each starts on its own CPU of the affinity mask"
    ))

    p = sub.add_parser("check", help="terminality checks on one weight list")
    p.add_argument("-w", "--weights", required=True, help="comma-separated integers (use --weights=-1,2,3 for negatives)")
    p.add_argument("-r", "--index", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("link", help="build the link for one blowup")
    p.add_argument("-w", "--weights", required=True, help="comma-separated integers (use --weights=-1,2,3 for negatives)")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser(
        "classify", parents=[scan], help="bounded exhaustive classification"
    )
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument("--expect", type=int, default=None)
    p.add_argument("--stabilize", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", parents=[scan], help="markdown summary table")
    p.set_defaults(
        func=cmd_classify, format="report", out=None, expect=None, stabilize=False
    )

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> int:
    """Run ``main`` on ``sys.argv``, flush stdout and stderr, and leave by ``os._exit``.

    When ``main`` returns, every file it opened is closed and every scan
    process is reaped, and the package registers no ``atexit`` handler, so
    the interpreter's teardown has nothing left to do for the answer.

    A ``BrokenPipeError``, from ``main``'s writes or from a flush, means
    that the reader of an output pipe has gone: the code is
    ``CLOSED_STDOUT``, with nothing more on stderr, whether the answer
    fitted stdout's buffer or not.  What stdout holds is flushed once
    more, so an answer still reaches an open stdout when only stderr's
    reader has gone.  If that flush fails too, stdout is pointed at
    ``os.devnull``, as the ``signal`` module's "Note on SIGPIPE" advises,
    so that no later flush meets the pipe.  If another ``OSError`` stops a
    flush, the code is returned instead, and the caller's normal exit
    reports the unflushed stream.  Other exceptions from ``main``,
    argparse's ``SystemExit`` included, propagate.
    """
    code = None
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = CLOSED_STDOUT
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError:
        if code is None:
            raise
        return code
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
