#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wblinks package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Every workload is a closed loop
with one caller: one ``wblinks classify`` process (or one query-stream
process) at a time, each started after the previous one ended.  A run
repeats its workload until ``--seconds`` is spent (at least three times) and
reports medians.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name, the machine, and the error rate.  Outputs are
checked on every repetition: a wrong answer or exit code is counted in
``failed`` and never skipped.

``--trace 0`` reports the end-to-end metrics, from untraced runs only.
``--trace 1`` alternates untraced runs with traced ones (``child.py``,
which wraps the calls one module makes into the next) and reports the
per-layer metrics; tracing overhead is the traced minus the untraced median
wall time.  Counts must repeat exactly across the traced runs of one
benchmark run and across benchmark runs of the same code, seed and size
(remembered in ``perfbench/out/counts.json``); otherwise the run fails.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks it against a naive enumeration (``oracle.py``), in a few seconds.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from math import ceil, gcd
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
ANSWERS = BENCH / "p4_answers.csv"
PY = sys.executable

sys.path.insert(0, str(BENCH))
import oracle  # noqa: E402

# The 421 dimension-4 links (weights, end kind, target), as in the source
# classification; every expected classify output is derived from this file.
ANSWERS_SHA256 = "b4590008c3b2ad124f6f73ad2c8ea37e8cb01b8c2968ffc0f81eb20d78475e5f"
P4_TOTAL = 421
P4_SHAPES = {
    "(1,1,1,d)": 2,
    "(1,1,c,d)": 5,
    "one-equality-with-1": 6,
    "(a,b,c,c)-fibration": 1,
    "one-equality-no-1": 8,
    "strictly-increasing": 399,
}
P3_ANSWER = {(1, 1, 1), (1, 1, 2), (1, 2, 3), (1, 2, 5)}
STAGES = (
    "blowup_not_terminal",
    "antik_not_interior",
    "wall_not_terminal",
    "end_model_not_terminal",
)

MIN_REPS = 3
MIN_TRACE_CYCLES = 2
HARD_LIMIT_S = 170.0
# Calibration loop (see calibrate): r over [CAL_R, CAL_R + CAL_N).  CAL_REF_S
# is the loop's time at the reference speed, about the fastest it ran on the
# 2-vCPU Xeon host the bounds were tuned on (0.09-0.21 s there).
CAL_R, CAL_N = 3000, 400
CAL_REF_S = 0.1


@dataclass(frozen=True)
class Size:
    label: str
    p4_bound: int  # p4_scan and p4_scan_jobs2; the scan doubles this for stabilize
    stab_bound: int
    n_answers: int  # build_link queries on known links (at most 421)
    n_mov: int  # build_link queries per dimension 3, 4, 5 on interior-Mov tuples
    n_cqs: int  # is_terminal_cqs queries on 1/r(a,-a,b,c)
    r_min: int
    r_max: int
    setup_reps: int  # interpreter starts timed for setup_s


FULL = Size("full", 40, 16, 421, 200, 200, 2000, 20000, 11)
SMOKE = Size("smoke", 10, 5, 60, 30, 20, 200, 2000, 1)

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("queries_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
]

PER_LAYER = {
    "kernels": [
        ("kernels.busy_s", "s"),
        ("kernels.self_s", "s"),
        ("kernels.candidates", "count"),
        ("kernels.survivors", "count"),
        ("kernels.survivor_ratio", "ratio"),
        ("kernels.candidates_per_s", "1/s"),
    ],
    "link": [
        ("link.calls", "count"),
        ("link.busy_s", "s"),
        ("link.self_s", "s"),
        ("link.us_per_call", "us"),
        *[(f"link.rejected.{s}", "count") for s in STAGES],
        ("link.accepted", "count"),
        ("link.accept_ratio", "ratio"),
    ],
    "singularity": [
        ("singularity.cqs_calls", "count"),
        ("singularity.cqs_index_sum", "count"),
        ("singularity.busy_s", "s"),
        ("singularity.self_s", "s"),
    ],
    "classify": [
        ("classify.scans", "count"),
        ("classify.partitions", "count"),
        ("classify.self_s", "s"),
        ("classify.parallel_efficiency", "ratio"),
    ],
    "cli": [
        ("cli.output_s", "s"),
        ("cli.end_summary_calls", "count"),
        ("cli.bytes_out", "B"),
        ("cli.self_s", "s"),
    ],
    "trace": [
        ("bench.self_s", "s"),
        ("process.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ],
}
UNITS = {name: unit for group in PER_LAYER.values() for name, unit in group}
# cli.bytes_out is left out: the JSON output carries its own timing_ms.
COUNTS = [name for name, unit in UNITS.items() if unit == "count"]
RENDERERS = {
    "cli._classify_payload",
    "cli._classify_csv",
    "cli._classify_table",
    "cli._record",
    "cli._emit_json",
}
# The wrap targets (see child.py) each layer's metrics rest on.
LAYER_TARGETS = {
    "kernels": ["wblinks.classify._survivors"],
    "link": ["wblinks.classify.build_link", "wblinks.build_link"],
    "singularity": ["wblinks.singularity.is_terminal_cqs"],
    "classify": [
        "wblinks.cli.classify",
        "wblinks.classify.classify",
        "wblinks.classify._partitions",
    ],
    "cli": ["wblinks.cli.end_summary", "wblinks.cli._classify_csv"],
}


# ---------------------------------------------------------------- helpers


def env() -> dict:
    e = {k: v for k, v in os.environ.items() if not k.startswith(("WBLINKS_", "PYTHON"))}
    e["PYTHONPATH"] = str(SRC)
    return e


def _kill_group(pid) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: bytes
    cal: int = -1  # index in Runner.cals of the calibration just after the run, if any


def _calibration_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for r in range(CAL_R, CAL_R + CAL_N):
        for k in range(1, r):
            acc += k * 7 % r
    if acc <= 0:
        raise AssertionError("calibration loop")
    return perf_counter() - t0


def calibrate() -> float:
    """Mean seconds a fixed pure-Python loop takes on each CPU this process may use.

    One forked copy of the loop runs pinned to each CPU, all at once, as the
    workload's processes do.  The loop is integer residue sums, like the scan
    kernel, and does not involve the program.  Its time tracks how fast the
    shared host runs Python right now, which swings by up to 2x for tens of
    seconds at a time.
    """
    children = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(r)
                    os.sched_setaffinity(0, {cpu})
                    os.write(w, repr(_calibration_loop()).encode())
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        return statistics.mean(float(fh.read()) for _, fh in children)
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)


class Runner:
    """Starts one child at a time and reaps it with its resource usage.

    A run with ``scaled=True`` is bracketed by calibrations; the one after it
    serves as the one before the next scaled run.
    """

    def __init__(self):
        self.start = perf_counter()
        self.cals: list[float] = []
        self.cal_fresh = False  # no child has run since the last calibration

    def _calibrate(self) -> None:
        self.cals.append(calibrate())
        self.cal_fresh = True

    def run(self, argv, scaled=False) -> Proc:
        if scaled and not self.cal_fresh:
            self._calibrate()
        self.cal_fresh = False
        timeout = max(5.0, HARD_LIMIT_S - (perf_counter() - self.start))
        out_path = OUT / f"stdout-{os.getpid()}.txt"
        with open(out_path, "wb") as out, open(OUT / f"stderr-{os.getpid()}.txt", "wb") as err:
            t0 = perf_counter()
            p = subprocess.Popen(argv, stdout=out, stderr=err, env=env(), cwd=ROOT,
                                 start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (p.pid,))
            timer.start()
            try:
                _, status, ru = os.wait4(p.pid, 0)
            except BaseException:
                _kill_group(p.pid)
                p.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = perf_counter() - t0
            p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            tail = (OUT / f"stderr-{os.getpid()}.txt").read_bytes()[-2000:]
            sys.stderr.write(f"{argv[1:]} exited with {p.returncode}:\n{tail.decode(errors='replace')}\n")
        if scaled:
            self._calibrate()
        return Proc(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                    p.returncode, out_path.read_bytes(), len(self.cals) - 1 if scaled else -1)

    def scale(self, proc) -> float:
        """CAL_REF_S over the median of the six calibrations nearest a scaled run.

        Those are the ones just before and after it and two more on each
        side.  The median follows the host's slow swings and damps the
        jitter of single calibrations.
        """
        i = proc.cal
        return CAL_REF_S / statistics.median(self.cals[max(0, i - 3):i + 3])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def nearest_rank(sorted_xs, q):
    """Smallest sample with at least a share q of the samples at or below it."""
    if not sorted_xs:
        return 0.0
    return sorted_xs[max(1, ceil(len(sorted_xs) * q)) - 1]


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def source_digest() -> str:
    return file_digest((SRC / "wblinks").glob("*.py"))


def bench_digest() -> str:
    return file_digest([p for p in BENCH.iterdir() if p.is_file()])


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine(usable) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(usable),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def jobs_for_parallel() -> int:
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------- answers


def shape_of(ws) -> str:
    """Equality-pattern bucket of an ascending dimension-4 tuple, as in the paper."""
    a, b, c, d = ws
    if a == b == c == 1:
        return "(1,1,1,d)"
    if a == b == 1:
        return "(1,1,c,d)"
    if a < b < c < d:
        return "strictly-increasing"
    if a == 1:
        return "one-equality-with-1"
    if c == d:
        return "(a,b,c,c)-fibration"
    return "one-equality-no-1"


def load_answers() -> list[tuple[tuple[int, ...], str, str]]:
    data = ANSWERS.read_bytes()
    if hashlib.sha256(data).hexdigest() != ANSWERS_SHA256:
        raise SystemExit(f"{ANSWERS} does not match its pinned digest")
    rows = [line.split(",") for line in data.decode().splitlines()[1:]]
    table = [(tuple(int(x) for x in w.split(":")), kind, target) for w, kind, target in rows]
    if len(table) != P4_TOTAL or Counter(shape_of(ws) for ws, _, _ in table) != P4_SHAPES:
        raise SystemExit(f"{ANSWERS} is not the 421-tuple answer")
    return table


def expected_accepted(table, bound):
    return [ws for ws, _, _ in table if ws[-1] <= bound]


def expected_csv(table, bound) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["weights", "end_kind", "target"])
    for ws, kind, target in table:
        if ws[-1] <= bound:
            writer.writerow([oracle.fmt(ws), kind, target])
    return buf.getvalue().encode()


def count_interior(dim: int, bound: int) -> int:
    """Ascending tuples with top weight <= bound and -K interior to Mov."""
    total = 0

    def walk(prefix, lo, depth):
        nonlocal total
        if depth == dim - 1:
            second = prefix[-1]
            hi = min(bound, dim * second - sum(prefix[:-1]))
            total += max(0, hi - second + 1)
            return
        for x in range(lo, bound + 1):
            walk(prefix + [x], x, depth + 1)

    walk([], 1, 0)
    return total


# ---------------------------------------------------------------- checks


def check_scan_json(table, bound, proc) -> bool:
    if proc.rc != 0:
        return False
    try:
        result = json.loads(proc.stdout)["result"]
    except (ValueError, KeyError):
        return False
    accepted = [tuple(ws) for ws in result.get("accepted", [])]
    expected = expected_accepted(table, bound)
    return (
        result.get("dim") == 4
        and result.get("bound") == bound
        and result.get("total") == len(expected)
        and accepted == expected
        and result.get("shape_counts") == Counter(shape_of(ws) for ws in expected)
    )


def check_stabilized_json(table, bound, proc) -> bool:
    if not check_scan_json(table, bound, proc):
        return False
    stable = not any(bound < ws[-1] <= 2 * bound for ws, _, _ in table)
    return json.loads(proc.stdout)["result"].get("stabilized") is stable


# ---------------------------------------------------------------- workloads


class ClassifyWorkload:
    """One ``wblinks classify`` command per repetition."""

    def __init__(self, name, size, table):
        self.name, self.table = name, table
        b = size.p4_bound
        if name == "p4_scan":
            self.bound, self.args = b, ["--bound", str(b)]
        elif name == "p4_scan_jobs2":
            self.bound = b
            self.args = ["--bound", str(b), "--jobs", str(jobs_for_parallel())]
        else:
            self.bound = size.stab_bound
            self.args = ["--bound", str(self.bound), "--stabilize", "--format", "csv"]
        self.args = ["classify", "--dim", "4"] + self.args

    def prepare(self, runner) -> tuple[int, int]:
        """Untimed checks made once per run: (attempted, failed)."""
        if self.name != "p4_stabilize_csv":
            return 0, 0
        # CSV carries no stabilized flag, so check it on the JSON form once.
        proc = runner.run([PY, "-m", "wblinks.cli", "classify", "--dim", "4", "--bound",
                           str(self.bound), "--stabilize"])
        return 1, int(not check_stabilized_json(self.table, self.bound, proc))

    def check(self, proc) -> bool:
        if self.name == "p4_stabilize_csv":
            return proc.rc == 0 and proc.stdout == expected_csv(self.table, self.bound)
        return check_scan_json(self.table, self.bound, proc)

    def rep(self, runner) -> dict:
        proc = runner.run([PY, "-m", "wblinks.cli", *self.args], scaled=True)
        return {"proc": proc, "attempted": 1, "failed": int(not self.check(proc)),
                "latencies_us": [proc.wall * 1e6], "stream_s": proc.wall, "ops": 1}

    def traced_rep(self, runner, absent="-") -> dict:
        spans = OUT / f"spans-{self.name}.json"
        spans.unlink(missing_ok=True)
        proc = runner.run([PY, str(CHILD), "cli", str(spans), absent, "--", *self.args])
        rep = {"proc": proc, "attempted": 1, "failed": int(not self.check(proc))}
        rep["trace"] = json.loads(spans.read_text()) if proc.rc == 0 else None
        return rep


def _unit(rng, r) -> int:
    while True:
        x = rng.randint(1, r - 1)
        if gcd(x, r) == 1:
            return x


class QueryWorkload:
    """One process per repetition answering a seeded stream of single queries."""

    name = "queries"

    def __init__(self, seed, size, table):
        rng = random.Random(seed)
        queries, expected = [], []
        answers = {ws: f"A:{kind}:{target}" for ws, kind, target in table}
        for ws, kind, target in rng.sample(table, min(size.n_answers, len(table))):
            queries.append(["link", list(ws), 4])
            expected.append(answers[ws])
            if kind == "divisorial_contraction":
                # An accepted divisorial link has a terminal target.
                queries.append(["wps", [int(x) for x in target.split(":")]])
                expected.append("T")
        for dim in (3, 4, 5):
            for _ in range(size.n_mov):
                while True:
                    ws = [rng.randint(1, 64) for _ in range(dim)]
                    if oracle.is_interior(ws):
                        break
                answer = oracle.link_answer(ws)
                known = P3_ANSWER if dim == 3 else answers if dim == 4 else None
                if known is not None and answer.startswith("A:") != (tuple(sorted(ws)) in known):
                    raise SystemExit(f"oracle disagrees with the known answer on {ws}")
                queries.append(["link", ws, dim])
                expected.append(answer)
        step = (size.r_max - size.r_min) / size.n_cqs
        for i in range(size.n_cqs):
            # 1/r(a,-a,b,c) with a, b units mod r: k*a and -k*a pair up to r, and
            # k*b is never 0 mod r, so every residue sum exceeds r: terminal.
            # One r per stratum of [r_min, r_max], so the total work barely varies
            # with the seed.
            r = rng.randint(size.r_min + int(i * step), size.r_min + int((i + 1) * step))
            a, b = (_unit(rng, r) for _ in range(2))
            queries.append(["cqs", [a, -a, b, rng.randint(0, r - 1)], r])
            expected.append("T")
        order = list(range(len(queries)))
        rng.shuffle(order)
        self.queries = [queries[i] for i in order]
        self.expected = [expected[i] for i in order]
        self.digest = hashlib.sha256("\n".join(self.expected).encode()).hexdigest()
        self.path = OUT / f"queries-{seed}-{size.label}.json"
        self.path.write_text(json.dumps(self.queries))

    def prepare(self, runner):
        return 0, 0

    def _run(self, runner, spans):
        answers_path = OUT / f"answers-{os.getpid()}.json"
        answers_path.unlink(missing_ok=True)
        proc = runner.run([PY, str(CHILD), "queries", str(self.path), str(answers_path),
                           str(spans) if spans else "-"], scaled=spans is None)
        n = len(self.queries)
        rep = {"proc": proc, "attempted": n, "failed": n, "latencies_us": [],
               "stream_s": proc.wall, "ops": n}
        if proc.rc != 0 or not answers_path.exists():
            return rep
        got = json.loads(answers_path.read_text())
        answers = got["answers"]
        rep["failed"] = sum(a != b for a, b in zip(answers, self.expected))
        rep["failed"] += abs(len(answers) - n)
        rep["digest"] = hashlib.sha256("\n".join(answers).encode()).hexdigest()
        rep["latencies_us"] = [x / 1000.0 for x in got["latency_ns"]]
        rep["stream_s"] = got["stream_s"]
        return rep

    def rep(self, runner):
        return self._run(runner, None)

    def traced_rep(self, runner, absent="-"):
        spans = OUT / "spans-queries.json"
        spans.unlink(missing_ok=True)
        rep = self._run(runner, spans)
        rep["trace"] = json.loads(spans.read_text()) if rep["proc"].rc == 0 else None
        return rep


def make_workload(name, seed, size, table):
    if name == "queries":
        return QueryWorkload(seed, size, table)
    if name in ("p4_scan", "p4_stabilize_csv", "p4_scan_jobs2"):
        return ClassifyWorkload(name, size, table)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------- metrics


def end_to_end(reps, setup, runner) -> dict:
    """Times are scaled to the reference speed by the calibrations around each process."""
    procs = [r["proc"] for r in reps]
    scales = [runner.scale(p) for p in procs]
    lat = sorted(x * k for r, k in zip(reps, scales) for x in r["latencies_us"])
    return {
        "wall_s": median([p.wall * k for p, k in zip(procs, scales)]),
        "cpu_s": median([p.cpu * k for p, k in zip(procs, scales)]),
        "setup_s": median([p.wall * runner.scale(p) for p in setup]),
        "peak_rss_mb": median([p.rss_mb for p in procs]),
        "queries_per_s": median([r["ops"] / (r["stream_s"] * k) for r, k in zip(reps, scales)]),
        "query_p50_us": nearest_rank(lat, 0.50),
        "query_p99_us": nearest_rank(lat, 0.99),
    }


def layer_metrics(trace, wall, bytes_out) -> dict:
    """Per-layer counts and times of one traced run from its spans."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    layer_of = [name.split(".", 1)[0] for name, *_ in spans]
    self_s: dict[str, float] = {}
    busy: dict[str, float] = {}
    n: dict[str, int] = {}
    attrs: dict[str, list] = {}
    output_s = roots = 0.0
    for i, (name, t0, t1, parent, attr) in enumerate(spans):
        layer, d = layer_of[i], t1 - t0
        self_s[layer] = self_s.get(layer, 0.0) + d - child[i]
        if parent < 0 or layer_of[parent] != layer:
            busy[layer] = busy.get(layer, 0.0) + d
        n[name] = n.get(name, 0) + 1
        attrs.setdefault(name, []).append(attr)
        if parent < 0:
            roots += d
        if name in RENDERERS and (parent < 0 or spans[parent][0] not in RENDERERS):
            output_s += d
    scans = attrs.get("kernels._survivors", [])
    candidates = sum(count_interior(dim, bound) for dim, bound, _ in scans)
    survivors = sum(s for _, _, s in scans)
    stages = attrs.get("link.build_link", [])
    calls = len(stages)
    accepted = stages.count("accepted")
    kernels_busy = busy.get("kernels", 0.0)
    link_busy = busy.get("link", 0.0)
    m = {
        "kernels.busy_s": kernels_busy,
        "kernels.self_s": self_s.get("kernels", 0.0),
        "kernels.candidates": candidates,
        "kernels.survivors": survivors,
        "kernels.survivor_ratio": survivors / candidates if candidates else 0.0,
        "kernels.candidates_per_s": candidates / kernels_busy if kernels_busy else 0.0,
        "link.calls": calls,
        "link.busy_s": link_busy,
        "link.self_s": self_s.get("link", 0.0),
        "link.us_per_call": link_busy / calls * 1e6 if calls else 0.0,
        **{f"link.rejected.{s}": stages.count(s) for s in STAGES},
        "link.accepted": accepted,
        "link.accept_ratio": accepted / calls if calls else 0.0,
        "singularity.cqs_calls": n.get("singularity.is_terminal_cqs", 0),
        "singularity.cqs_index_sum": sum(attrs.get("singularity.is_terminal_cqs", [])),
        "singularity.busy_s": busy.get("singularity", 0.0),
        "singularity.self_s": self_s.get("singularity", 0.0),
        "classify.scans": n.get("classify.classify", 0),
        "classify.partitions": sum(attrs.get("classify._partitions", [])),
        "classify.self_s": self_s.get("classify", 0.0),
        "cli.output_s": output_s,
        "cli.end_summary_calls": n.get("cli.end_summary", 0),
        "cli.bytes_out": bytes_out if "cli.main" in n else 0,
        "cli.self_s": self_s.get("cli", 0.0),
        "bench.self_s": self_s.get("bench", 0.0),
        "process.self_s": wall - roots,
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    unknown = set(stages) - set(STAGES) - {"accepted"}
    if unknown:
        sys.stderr.write(f"warning: unknown rejection stages {sorted(unknown)}\n")
    return m


def absent_layers(trace) -> set[str]:
    return {layer for layer, targets in LAYER_TARGETS.items()
            if any(t in trace["absent"] for t in targets)}


def per_layer(traced, untraced_walls, efficiency) -> tuple[dict, list[str], set[str]]:
    """Metrics of the traced repetition with the median wall time.

    One repetition's self times add up exactly to its wall time, which
    per-metric medians would not.  Returns the metrics, the counts that
    differ between traced repetitions, and the absent layers.
    """
    runs = [layer_metrics(r["trace"], r["proc"].wall, len(r["proc"].stdout)) for r in traced]
    problems = []
    for name in COUNTS:
        values = {m[name] for m in runs if name in m}
        if len(values) > 1:
            problems.append(f"{name} differs between traced runs: {sorted(values)}")
    out = sorted(runs, key=lambda m: m["trace.wall_s"])[(len(runs) - 1) // 2]
    out["trace.untraced_wall_s"] = median(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["classify.parallel_efficiency"] = efficiency if out["classify.scans"] else 0.0
    absent = set().union(*(absent_layers(r["trace"]) for r in traced))
    for layer in absent:
        for name, _ in PER_LAYER[layer]:
            out.pop(name, None)
    return out, problems, absent


def check_counts_repeat(key, counts) -> list[str]:
    """Compare with the counts an earlier run of the same code and seed recorded."""
    path = OUT / "counts.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    before = store.get(key)
    if before is not None and before != counts:
        return [f"counts differ from an earlier run of the same code and seed: {key}"]
    store[key] = counts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------- runs


def measure_setup(runner, reps) -> tuple[list[Proc], int]:
    procs = [runner.run([PY, "-c", "import wblinks.cli"], scaled=True) for _ in range(reps)]
    return procs, sum(p.rc != 0 for p in procs)


def run(name, seed, seconds, trace, size=FULL, absent="-") -> dict:
    cpus = os.sched_getaffinity(0)
    # The benchmark, and so every child, keeps to the CPUs the workload uses,
    # which are the CPUs calibrate() measures.
    n = jobs_for_parallel() if name == "p4_scan_jobs2" else 1
    os.sched_setaffinity(0, set(sorted(cpus)[:n]))
    try:
        return _run(name, seed, seconds, trace, size, absent, cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def _run(name, seed, seconds, trace, size, absent, cpus) -> dict:
    runner = Runner()
    deadline = runner.start + seconds
    table = load_answers()
    load_start = os.getloadavg()[0]
    work = make_workload(name, seed, size, table)
    setup, failed = measure_setup(runner, size.setup_reps)
    attempted = len(setup)
    a, f = work.prepare(runner)
    # One checked but untimed repetition, so the timed ones find warm caches.
    warm = work.rep(runner)
    attempted, failed = attempted + a + warm["attempted"], failed + f + warm["failed"]
    reps, traced, serial = [], [], []
    problems = []
    serial_work = ClassifyWorkload("p4_scan", size, table) if name == "p4_scan_jobs2" else None

    while True:
        t0 = perf_counter()
        reps.append(work.rep(runner))
        if trace:
            if serial_work is not None:
                serial.append(serial_work.rep(runner))
            traced.append(work.traced_rep(runner, absent))
        done = len(traced) if trace else len(reps)
        now = perf_counter()
        # Stop when the minimum is met and another cycle would pass the deadline.
        if done >= (MIN_TRACE_CYCLES if trace else MIN_REPS) and now + (now - t0) > deadline:
            break
    for r in reps + traced + serial:
        attempted += r["attempted"]
        failed += r["failed"]
    digests = {r.get("digest") for r in reps + traced}
    if name == "queries" and digests != {work.digest}:
        problems.append("query answer digest differs from the expected one")
    if trace:
        if any(r["trace"] is None for r in traced):
            problems.append("a traced run failed")
            metrics = {}
        else:
            walls = [r["proc"].wall for r in reps]
            efficiency = 1.0
            if serial_work is not None:
                jobs = jobs_for_parallel()
                efficiency = median([r["proc"].wall for r in serial]) / (jobs * median(walls))
            metrics, unrepeated, absent_set = per_layer(traced, walls, efficiency)
            problems += unrepeated
            for layer in sorted(absent_set):
                sys.stderr.write(f"warning: layer {layer} is absent; its metrics are left out\n")
            counts = {k: metrics[k] for k in COUNTS if k in metrics}
            key = f"{name}:{seed}:{size.label}:{absent}:{source_digest()}:{bench_digest()}"
            problems += check_counts_repeat(key, counts)
        units = UNITS
    else:
        metrics = end_to_end(reps, setup, runner)
        units = dict(END_TO_END)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "machine": {**machine(cpus), "loadavg_1m_start": load_start,
                    "loadavg_1m_end": os.getloadavg()[0]},
        "repetitions": len(reps),
        "rep_walls_s": [round(r["proc"].wall, 4) for r in reps],
        "rep_scales": [round(runner.scale(r["proc"]), 4) for r in reps],
        "unscaled_wall_s": median([r["proc"].wall for r in reps]),
        "calibration_reference_s": CAL_REF_S,
        "calibrations_s": [round(c, 5) for c in runner.cals],
        "rep_cal_index": [r["proc"].cal for r in reps],
        "traced_repetitions": len(traced),
        "latency_samples": sum(len(r.get("latencies_us", [])) for r in reps),
        "answer_digest": getattr(work, "digest", None),
        "problems": problems,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def report(result) -> None:
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate = {rate:.6g} ({result['failed']} of {result['attempted']})")
    info = {k: v for k, v in result.items() if k not in ("metrics", "correct", "attempted", "failed")}
    print("info " + json.dumps(info, sort_keys=True))
    name = f"result-{result['workload']}-{result['seed']}-trace{result['trace']}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------- smoke


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced, against the oracle."""
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print(f"FAIL {what}")

    table = load_answers()
    b = SMOKE.p4_bound
    interior, accepted = oracle.enumerate_links(4, b)
    restricted = {ws: f"A:{kind}:{target}" for ws, kind, target in table if ws[-1] <= b}
    expect(accepted == restricted, f"naive dim-4 links at bound {b} match the answer table")
    expect(interior == count_interior(4, b), "interior candidate count matches enumeration")
    expect(count_interior(4, 64) == 732648, "interior candidates at bound 64 is 732,648")
    _, accepted3 = oracle.enumerate_links(3, 12)
    expect(set(accepted3) == P3_ANSWER, "naive dim-3 links at bound 12 are the four triples")
    stab = SMOKE.stab_bound
    rows = sum(1 for ws in accepted if ws[-1] <= stab)

    for name in ("p4_scan", "p4_stabilize_csv", "p4_scan_jobs2", "queries"):
        for trace in (0, 1):
            res = run(name, 1, 0, trace, SMOKE)
            m = {k: v["value"] for k, v in res["metrics"].items()}
            expect(res["correct"], f"{name} trace={trace} correct {res['problems']}")
            if not trace:
                expect(all(m[k] > 0 for k, _ in END_TO_END), f"{name} end-to-end metrics > 0")
                continue
            layers = sum(m[f"{layer}.self_s"]
                         for layer in ("kernels", "link", "singularity", "classify", "cli",
                                       "bench", "process"))
            expect(abs(layers - m["trace.wall_s"]) < 1e-6,
                   f"{name} self times add up to the traced wall time")
            if name == "queries":
                expect(m["kernels.candidates"] == 0 and m["classify.scans"] == 0,
                       "queries bypasses the scan")
                expect(m["link.calls"] > 0 and m["singularity.cqs_calls"] > 0,
                       "queries reaches link and singularity")
                continue
            if name == "p4_stabilize_csv":
                expect(m["classify.scans"] == 3, "stabilize scans at B, B and 2B")
                expect(m["kernels.candidates"] == 2 * count_interior(4, stab)
                       + count_interior(4, 2 * stab), "stabilize candidate count")
                expect(m["cli.end_summary_calls"] == rows, "one end_summary per CSV row")
                continue
            expect(m["classify.scans"] == 1, f"{name} scans once")
            expect(m["kernels.candidates"] == interior, f"{name} candidate count")
            expect(m["kernels.survivors"] >= len(accepted), f"{name} survivors")
            expect(m["link.calls"] == m["kernels.survivors"], "one build_link per survivor")
            expect(m["link.accepted"] == len(accepted), "accepted links counted")
    # Same code and seed again: the recorded counts must repeat.
    res = run("p4_stabilize_csv", 1, 0, 1, SMOKE)
    expect(res["correct"], f"counts repeat on a second traced run {res['problems']}")
    check_counts_repeat("smoke-self-test", {"x": 1})
    expect(check_counts_repeat("smoke-self-test", {"x": 2}), "changed counts are caught")
    # A wrap target the program lacks makes that layer absent, not a crash.
    res = run("p4_scan", 2, 0, 1, SMOKE, absent="wblinks.classify._survivors")
    expect(res["correct"], f"run with a missing wrap target succeeds {res['problems']}")
    expect("kernels.busy_s" not in res["metrics"] and "link.calls" in res["metrics"],
           "missing wrap target drops only its layer")
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running child's process group is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "wblinks" / "cli.py").is_file():
        sys.stderr.write(f"no wblinks package under {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    report(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
