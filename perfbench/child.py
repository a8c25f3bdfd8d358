"""Child-process side of the benchmark: a traced CLI run, or a query stream.

Usage (the package must be importable, e.g. PYTHONPATH=src):

    python3 perfbench/child.py cli <spans.json> <absent> -- <wblinks args...>
    python3 perfbench/child.py queries <queries.json> <answers.json> <spans.json|->

``cli`` runs ``wblinks.cli.main`` with spans recorded around the calls one
module makes into the next.  ``<absent>`` is a comma-separated list of
``module.attribute`` targets to leave unwrapped, as if the program no longer
had them (``-`` for none); a target the program really lacks is skipped the
same way.  ``queries`` calls the public ``build_link``, ``is_terminal_cqs``
and ``is_terminal_wps`` once per query, one call at a time, and writes each
answer with its latency; with a spans path it traces those calls too.

Spans are kept in memory as ``[name, start, end, parent index, attribute]``
and written when the run ends.  The layer of a span is the part of its name
before the first dot.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter, perf_counter_ns


def _stage(args, kwargs, out):
    return getattr(out, "stage", "accepted")


def _index(args, kwargs, out):
    return int(args[1] if len(args) > 1 else kwargs["index"])


def _survivors(args, kwargs, out):
    return [int(args[0]), int(args[1]), len(out)]


def _length(args, kwargs, out):
    return len(out)


# (module, attribute, span name, attribute recorder) for a traced CLI run.
CLI_TARGETS = [
    ("wblinks.cli", "main", "cli.main", None),
    ("wblinks.cli", "classify", "classify.classify", None),
    ("wblinks.classify", "classify", "classify.classify", None),
    ("wblinks.classify", "_partitions", "classify._partitions", _length),
    ("wblinks.classify", "_survivors", "kernels._survivors", _survivors),
    ("wblinks.classify", "build_link", "link.build_link", _stage),
    ("wblinks.singularity", "is_terminal_cqs", "singularity.is_terminal_cqs", _index),
    ("wblinks.cli", "end_summary", "cli.end_summary", None),
    ("wblinks.cli", "_classify_payload", "cli._classify_payload", None),
    ("wblinks.cli", "_classify_csv", "cli._classify_csv", None),
    ("wblinks.cli", "_classify_table", "cli._classify_table", None),
    ("wblinks.cli", "_record", "cli._record", None),
    ("wblinks.cli", "_emit_json", "cli._emit_json", None),
]

# The query stream calls the package-level names; the module-level
# is_terminal_cqs is wrapped too so calls from inside the package are seen.
QUERY_TARGETS = [
    ("wblinks", "build_link", "link.build_link", _stage),
    ("wblinks", "is_terminal_cqs", "singularity.is_terminal_cqs", _index),
    ("wblinks", "is_terminal_wps", "singularity.is_terminal_wps", None),
    ("wblinks.singularity", "is_terminal_cqs", "singularity.is_terminal_cqs", _index),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def _wrap(self, fn, name, recorder):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            i = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
            if recorder is not None:
                rec[4] = recorder(args, kwargs, out)
            return out

        return traced

    def patch(self, targets, absent=()):
        for modname, attr, name, recorder in targets:
            target = f"{modname}.{attr}"
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None or target in absent:
                self.absent.append(target)
                continue
            setattr(module, attr, self._wrap(fn, name, recorder))

    def root(self, name):
        self.spans.append([name, perf_counter(), 0.0, -1, None])
        self.stack.append(len(self.spans) - 1)

    def close_root(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def run_cli(spans_path, absent, argv) -> int:
    tracer = Tracer()
    tracer.patch(CLI_TARGETS, set(absent.split(",")) if absent != "-" else set())
    import wblinks.cli

    try:
        return wblinks.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


def _answer(kind, out) -> str:
    if kind != "link":
        return "T" if out else "F"
    stage = getattr(out, "stage", None)
    if stage is not None:
        return "R:" + stage
    end = out.end
    if hasattr(end, "target_weights"):
        return "A:divisorial_contraction:" + ":".join(map(str, end.target_weights))
    return "A:fibration:" + ":".join(map(str, end.fiber_weights))


def run_queries(queries_path, answers_path, spans_path) -> int:
    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.patch(QUERY_TARGETS)
    import wblinks

    calls = {
        "link": wblinks.build_link,
        "cqs": wblinks.is_terminal_cqs,
        "wps": wblinks.is_terminal_wps,
    }
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)
    results = []
    latency_ns = []
    if tracer:
        tracer.root("bench.stream")
    start = perf_counter()
    for kind, *args in queries:
        fn = calls[kind]
        t0 = perf_counter_ns()
        out = fn(*args)
        latency_ns.append(perf_counter_ns() - t0)
        results.append(out)
    stream_s = perf_counter() - start
    if tracer:
        tracer.close_root()
    answers = [_answer(q[0], out) for q, out in zip(queries, results)]
    with open(answers_path, "w", encoding="utf-8") as fh:
        json.dump({"answers": answers, "latency_ns": latency_ns, "stream_s": stream_s}, fh)
    if tracer:
        tracer.dump(spans_path)
    return 0


def main(argv) -> int:
    if len(argv) >= 4 and argv[0] == "cli" and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    if len(argv) == 4 and argv[0] == "queries":
        return run_queries(*argv[1:])
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
