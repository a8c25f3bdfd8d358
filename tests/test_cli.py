import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wblinks.classify import classify
from wblinks.cli import CLOSED_STDOUT, main, render_report
from conftest import SCAN, assert_no_process_left

PINNED_P4 = Path(__file__).parent / "data" / "p4_bound39.csv"
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def scans(monkeypatch):
    """Record each scan as (dim, bound, jobs, cut) and run it serially."""
    real = SCAN._survivors
    calls = []

    def record(dim, bound, jobs, cut):
        calls.append((dim, bound, jobs, cut))
        return real(dim, bound, 1, cut)

    monkeypatch.setattr(SCAN, "_survivors", record)
    return calls


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


class TestCheck:
    def test_cqs_with_index(self):
        code, doc = run_json(["check", "-w", "1,14,13,10", "-r", "7"])
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["result"]["terminal_cqs"] is True

    def test_weak_fano_verdict(self):
        code, doc = run_json(["check", "-w", "1,1,3"])
        assert code == 0
        assert doc["result"]["weak_fano"] == "weak_not_fano"

    def test_blowup_terminality(self):
        code, doc = run_json(["check", "-w", "2,3,5"])
        assert code == 0
        assert doc["result"]["blowup_terminal"] is False

    def test_signed_list_skips_blowup_fields(self):
        code, doc = run_json(["check", "--weights=-1,-1,2,3"])
        assert code == 0
        assert doc["result"]["wps_terminal"] is False
        assert doc["result"]["blowup_terminal"] is None
        assert doc["result"]["weak_fano"] is None
        assert doc["result"]["antik_degree"] is None

    def test_index_not_an_entry(self):
        code, doc = run_json(["check", "--weights=-1,-2,4,6,10"])
        assert code == 0
        assert doc["result"]["singularity_indices"] == [2, 4, 6, 10]
        assert doc["result"]["wps_terminal"] is False


class TestLink:
    def test_unsorted_input_echoed_and_canonicalized(self):
        code, doc = run_json(["link", "-w", "5,1,2", "--dim", "3"])
        assert code == 0
        assert doc["inputs"]["weights"] == [5, 1, 2]
        assert doc["result"]["weights_sorted"] == [1, 2, 5]

    # The whole `result` of `wblinks link`: one divisorial link, one flop
    # then fibration, and one rejection at each of the wall and blowup stages.
    @pytest.mark.parametrize(
        "dim, weights, result",
        [
            (3, "1,2,5", {
                "accepted": True,
                "steps": [{"wall": 1, "flip_weights": [-1, -1, 1, 4],
                           "flip_weights_display": [1, 1, -1, -4]}],
                "end": {"kind": "divisorial_contraction", "target_weights": [1, 3, 4, 5],
                        "center_dim": 0, "center_index": 3},
                "weights_sorted": [1, 2, 5],
            }),
            (4, "1,1,2,2", {
                "accepted": True,
                "steps": [{"wall": 1, "flip_weights": [-1, -1, 0, 1, 1],
                           "flip_weights_display": [1, 1, 0, -1, -1]}],
                "end": {"kind": "fibration", "base_dim": 1, "fiber_weights": [1, 1, 1, 2]},
                "weights_sorted": [1, 1, 2, 2],
            }),
            (3, "1,3,4", {
                "accepted": False,
                "rejection": {"stage": "wall_not_terminal", "wall": 1,
                              "detail": "flip_weights=(-1, -1, 2, 3)"},
                "weights_sorted": [1, 3, 4],
            }),
            (3, "2,3,5", {
                "accepted": False,
                "rejection": {"stage": "blowup_not_terminal", "wall": None,
                              "detail": "weights=(2, 3, 5)"},
                "weights_sorted": [2, 3, 5],
            }),
        ],
    )
    def test_full_result_is_pinned(self, dim, weights, result):
        code, doc = run_json(["link", "--dim", str(dim), "-w", weights])
        assert code == 0
        assert doc["result"] == result

    def test_byte_identical_result(self):
        docs = [run_json(["link", "-w", "1,2,5", "--dim", "3"])[1] for _ in range(2)]
        assert json.dumps(docs[0]["result"], sort_keys=True) == json.dumps(
            docs[1]["result"], sort_keys=True
        )


class TestClassify:
    def test_expect_pass(self):
        code, doc = run_json(
            ["classify", "--dim", "3", "--bound", "64", "--expect", "4"]
        )
        assert code == 0
        assert doc["result"]["total"] == 4
        assert doc["result"]["accepted"] == [
            [1, 1, 1],
            [1, 1, 2],
            [1, 2, 3],
            [1, 2, 5],
        ]

    def test_expect_mismatch_exits_3(self, capsys):
        code, _ = run_cli(["classify", "--dim", "3", "--bound", "64", "--expect", "5"])
        assert code == 3
        capsys.readouterr()

    def test_csv_format(self):
        code, text = run_cli(["classify", "--dim", "3", "--bound", "64", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["weights", "end_kind", "target"]
        assert ["1:2:5", "divisorial_contraction", "1:3:4:5"] in rows

    def test_csv_json_same_accepted_set(self):
        _, text = run_cli(["classify", "--dim", "3", "--bound", "64", "--format", "csv"])
        csv_set = {
            tuple(int(x) for x in row[0].split(":"))
            for row in list(csv.reader(io.StringIO(text)))[1:]
        }
        _, doc = run_json(["classify", "--dim", "3", "--bound", "64"])
        json_set = {tuple(ws) for ws in doc["result"]["accepted"]}
        assert csv_set == json_set

    def test_out_file(self, tmp_path):
        target = tmp_path / "p3.csv"
        code, doc = run_json(
            ["classify", "--dim", "3", "--bound", "64", "--format", "csv",
             "--out", str(target)]
        )
        assert code == 0
        with target.open() as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["weights", "end_kind", "target"]
        assert doc["result"]["total"] == 4

    def test_stabilize_flag(self):
        code, doc = run_json(
            ["classify", "--dim", "3", "--bound", "16", "--stabilize"]
        )
        assert code == 0
        assert doc["result"]["stabilized"] is True

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stabilize_scans_once_at_twice_the_bound(self, scans, fmt):
        code, _ = run_cli(
            ["classify", "--dim", "3", "--bound", "16", "--stabilize", "--format", fmt]
        )
        assert code == 0
        assert scans == [(3, 32, 1, 16)]

    def test_stabilize_echoes_the_workers_of_its_scan(self, scans, monkeypatch):
        # 2 partitions at bound 2 but 4 at bound 4, where the scan runs
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(8)))
        code, doc = run_json(
            ["classify", "--dim", "3", "--bound", "2", "--jobs", "8", "--stabilize"]
        )
        assert code == 0
        assert scans == [(3, 4, 4, 2)]
        assert doc["inputs"]["jobs"] == 4

    def test_stabilize_small_bound_keeps_the_answer_at_the_bound(self):
        argv = ["classify", "--dim", "3", "--bound", "2"]
        _, plain = run_json(argv)
        code, stab = run_json(argv + ["--stabilize"])
        assert code == 0
        assert stab["result"]["stabilized"] is False
        assert plain["result"]["stabilized"] is None
        assert stab["result"]["accepted"] == plain["result"]["accepted"]
        assert stab["result"]["shape_counts"] == plain["result"]["shape_counts"]

    def test_dim4_bound16_stabilize_csv_matches_pinned_rows(self):
        code, text = run_cli(
            ["classify", "--dim", "4", "--bound", "16", "--stabilize", "--format", "csv"]
        )
        assert code == 0
        with PINNED_P4.open(newline="") as fh:
            header, *pinned = csv.reader(fh)
        expected = [row for row in pinned if int(row[0].split(":")[-1]) <= 16]
        assert len(expected) == 228
        assert list(csv.reader(io.StringIO(text))) == [header] + expected

    def test_dim4_bound39_matches_pinned_csv(self):
        # The full 421-tuple answer with end kinds and targets, as written by
        # `wblinks classify --dim 4 --bound 39 --format csv`.
        code, text = run_cli(["classify", "--dim", "4", "--bound", "39", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(text)))
        with PINNED_P4.open(newline="") as fh:
            expected = list(csv.reader(fh))
        assert len(expected) == 1 + 421
        assert rows == expected

    @pytest.mark.parametrize("dim, bound, total", [(3, 64, 4), (4, 39, 421)])
    def test_default_bound_is_per_dimension(self, scans, dim, bound, total):
        code, doc = run_json(["classify", "--dim", str(dim)])
        assert code == 0
        assert scans == [(dim, bound, 1, bound)]
        assert doc["inputs"]["bound"] == bound
        assert doc["result"]["total"] == total

    def test_jobs_echoes_workers_started(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0})
        code, doc = run_json(["classify", "--dim", "3", "--bound", "8", "--jobs", "64"])
        assert code == 0
        assert doc["inputs"]["jobs"] == 1

    def test_table_format(self):
        code, text = run_cli(["classify", "--dim", "3", "--bound", "64", "--format", "table"])
        assert code == 0
        assert "total=4" in text
        assert "(1,2,5)" in text


# `wblinks report --dim 3 --bound 64`, byte for byte.
DIM3_REPORT = """\
# Sarkisov links from weighted blowups of P^3 (bound 64)

| weights | flip steps | end map | model |
| --- | --- | --- | --- |
| (1,1,1) |  | Fibration | P^1-bundle over P^2 |
| (1,1,2) |  | Divisorial Contraction to P^1 | P(1,1,1,2) |
| (1,2,3) | (1,1,-1,-2) | (1,1,2)-Weighted blowup of a smooth point | P(1,1,2,3) |
| (1,2,5) | (1,1,-1,-4) | Kawamata blowup of 1/3(1,1,2) | P(1,3,4,5) |

"""

# SHA-256 of `wblinks report --dim 4 --bound 39`, at any --jobs.
DIM4_REPORT_SHA256 = "7365882f6db872c3787293c6f863a54db70f192581cbb3224e37fd58b96a99ed"


class TestReport:
    def test_dim3_summary_table(self):
        code, text = run_cli(["report", "--dim", "3", "--bound", "64"])
        assert code == 0
        assert text == DIM3_REPORT

    def test_dim4_bound39_models_match_pinned_csv(self):
        with PINNED_P4.open(newline="") as fh:
            expected = list(csv.reader(fh))[1:]
        rows = [
            line for line in render_report(classify(4, 39)).splitlines()
            if line.startswith("| (")
        ]
        assert len(rows) == len(expected) == 421
        for line, (ws, kind, target) in zip(rows, expected):
            weights, _, end_map, model = (c.strip() for c in line.strip("|").split("|"))
            assert weights == "(" + ws.replace(":", ",") + ")"
            target = "P(" + target.replace(":", ",") + ")"
            if kind == "fibration":
                assert end_map == "Fibration"
                assert model.startswith(target + "-fibration over P^")
            else:
                assert (end_map, model) == ("Divisorial Contraction", target)

    @pytest.mark.parametrize("dim, bound", [(3, 64), (4, 39)])
    def test_default_bound_is_per_dimension(self, scans, dim, bound):
        code, _ = run_cli(["report", "--dim", str(dim)])
        assert code == 0
        assert scans == [(dim, bound, 1, bound)]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_dim4_bound39_report_is_pinned(self, two_cpus, jobs):
        code, text = run_cli(["report", "--dim", "4", "--bound", "39", "--jobs", jobs])
        assert_no_process_left()
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == DIM4_REPORT_SHA256

    def test_dim4_rows_carry_weights_only(self):
        code, text = run_cli(["report", "--dim", "4", "--bound", "6"])
        assert code == 0
        assert "Kawamata" not in text
        assert "| (2,3,5,5) |" in text
        assert "P(1,2,3,5)-fibration over P^1" in text


# Every input the CLI refuses: (id, argv split at spaces, its stderr line after "error: ").
# TMP in an argument or a message stands for the test's tmp_path.
TMP = "<tmp>"
OVER = "a dim-{} scan at bound {} is over budget: the largest bound is {}"
STABILIZE = (
    "; --stabilize scans at twice the bound it is given ({}), "
    "so its largest bound is 65 in dimension 4 and 85 in dimension 3"
)
CAP = "must be at most 10000000, got 10000001"
REFUSED = [
    ("link-count", "link --dim 3 -w 1,2", "expected 3 weights, got 2"),
    ("link-count-above", "link --dim 3 -w 1,2,3,4", "expected 3 weights, got 4"),
    ("link-positive", "link --dim 3 -w 0,1,2", "blowup weights must be positive, got [0, 1, 2]"),
    ("link-dim", "link --dim 0 -w 1", "dim must be >= 2, got 0"),
    ("link-index-cap", "link --dim 3 -w 1,1,10000000", f"blowup index sum(weights) - 1 {CAP}"),
    ("link-weights-cap", "link --dim 21 -w " + ",".join(["1"] * 21), "at most 20 weights, got 21"),
    ("check-index", "check -w 1,2 -r 0", "index must be positive, got 0"),
    ("check-index-negative", "check -w 1,2 -r -1", "index must be positive, got -1"),
    ("check-index-cap", "check --weights=1,-1,2,3 -r 10000001", f"index {CAP}"),
    ("check-token", "check -w ,", "bad weight token: ''"),
    ("check-token-x", "check -w 1,x,3", "bad weight token: 'x'"),
    ("check-largest-signed", "check --weights=-1,10000001", f"largest weight {CAP}"),
    ("check-largest", "check --weights=1,1,10000001", f"largest weight {CAP}"),
    ("check-blowup-index", "check --weights=2,10000000", f"blowup index sum(weights) - 1 {CAP}"),
    ("check-weights-cap-signed", "check --weights=-1" + ",2" * 20, "at most 20 weights, got 21"),
    ("check-weights-cap", "check -w " + ",".join(["1"] * 3000), "at most 20 weights, got 3000"),
    ("out-missing-dir", "classify --dim 3 --bound 8 --format csv --out <tmp>/missing/x.csv",
     "--out directory does not exist: <tmp>/missing"),
    ("out-missing-dir-stabilize", "classify --dim 3 --bound 8 --out <tmp>/missing/x.csv --stabilize",
     "--out directory does not exist: <tmp>/missing"),
    ("out-is-dir", "classify --dim 3 --bound 8 --out <tmp>",
     "--out is not a writable file path: <tmp>"),
    ("out-empty", "classify --dim 3 --bound 8 --out=", "--out must name a file, not an empty path"),
    ("out-over-budget", "classify --dim 4 --bound 131 --format csv --out <tmp>/x.csv",
     OVER.format(4, 131, 130)),
    ("expect-negative", "classify --dim 3 --bound 8 --expect -1",
     "--expect must be a count >= 0, got -1"),
    ("over-budget", "classify --dim 4 --bound 256", OVER.format(4, 256, 130)),
    ("stabilize-bound-1", "classify --dim 3 --bound 1 --stabilize", "bound must be >= 2, got 1"),
    ("stabilize-over-budget", "classify --dim 4 --bound 128 --stabilize",
     OVER.format(4, 256, 130) + STABILIZE.format(128)),
    ("stabilize-over-budget-dim4", "classify --dim 4 --bound 66 --stabilize",
     OVER.format(4, 132, 130) + STABILIZE.format(66)),
    ("stabilize-over-budget-dim3", "classify --dim 3 --bound 86 --stabilize",
     OVER.format(3, 172, 170) + STABILIZE.format(86)),
    ("classify-jobs", "classify --dim 3 --bound 8 --jobs -3",
     "jobs must be an integer >= 1, got -3"),
    ("report-jobs", "report --dim 3 --bound 8 --jobs -3", "jobs must be an integer >= 1, got -3"),
    ("report-over-budget", "report --dim 4 --bound 256", OVER.format(4, 256, 130)),
]


@pytest.mark.parametrize("argv, message", [pytest.param(a, m, id=i) for i, a, m in REFUSED])
def test_refused_input_exits_2_before_any_work(argv, message, scans, capsys, monkeypatch, tmp_path):
    """Exit 2 with one error line and nothing on stdout, in under 1 s.

    No scan starts, the residue-sum criterion never runs and no file or
    directory is made.
    """
    sums = []
    monkeypatch.setattr("wblinks.singularity._residue_sums_exceed", lambda *a: sums.append(a))
    started = time.perf_counter()
    code, text = run_cli([arg.replace(TMP, str(tmp_path)) for arg in argv.split()])
    assert time.perf_counter() - started < 1.0
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == f"error: {message.replace(TMP, str(tmp_path))}\n"
    assert scans == [] and sums == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["classify", "report"])
def test_bound_help_shows_default_and_largest_bounds(command, capsys, monkeypatch):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "default: 64 in dim 3, 39 in dim 4; at most 170 and 130 (85 and 65 with "
        "classify --stabilize, which scans at twice the bound)"
    ) in text
    # built from the tables, not written out
    monkeypatch.setattr("wblinks.cli.DEFAULT_BOUNDS", {3: 11, 4: 12})
    monkeypatch.setattr("wblinks.cli.MAX_BOUNDS", {3: 13, 4: 14})
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "default: 11 in dim 3, 12 in dim 4; at most 13 and 14 (6 and 7 with" in text


@pytest.mark.parametrize("command", ["classify", "report"])
def test_jobs_help_shows_default_and_caps(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert (
        "--jobs JOBS processes that scan (default: 1), capped by the usable CPUs, "
        "by the number of heads and by a 256 MiB budget for the tables of them all, "
        "and 1 where the platform has no fork; on Linux each starts on its own CPU "
        "of the affinity mask"
    ) in text


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--dim", "3", "--frobnicate"])
    assert exc.value.code == 2


# Runs in a fresh interpreter; prints the modules of LAZY loaded so far,
# once after the import and once after each command.  The parallel scan
# forks its own processes, so it loads no pool either.
COLD_START = """
import io, json, os, sys
LAZY = ("concurrent.futures", "multiprocessing", "fractions", "dataclasses", "inspect")
import wblinks
loaded = [[m for m in LAZY if m in sys.modules]]
from wblinks.cli import main
loaded.append([m for m in LAZY if m in sys.modules])

os.sched_getaffinity = lambda pid: {0, 1}
for argv in (["classify", "--dim", "3", "--bound", "8"],
             ["classify", "--dim", "3", "--bound", "8", "--jobs", "2"],
             ["link", "--dim", "4", "-w", "1,2,3,5"],
             ["report", "--dim", "3", "--bound", "8"]):
    assert main(argv, out=io.StringIO()) == 0
    loaded.append([m for m in LAZY if m in sys.modules])
print(json.dumps(loaded))
"""


def test_commands_do_not_load_the_pool_fractions_or_dataclasses():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert json.loads(proc.stdout) == [[]] * 6


# The `python -m wblinks.cli` route, which leaves through `cli.run` without the
# interpreter's teardown.  A row is (id, argv with <tmp> for tmp_path, exit
# code, stdout, a pattern of all of stderr); argv may start with NAME=value
# settings of the environment.  stdout is the pinned CSV's bytes or fields of
# the JSON document's "result"; stdout or stderr may be CLOSED: a pipe whose
# read end is closed before the command starts.
CLOSED = "closed"
PINNED_CSV = PINNED_P4.read_bytes()
ROUTE = [
    ("csv", "classify --dim 4 --bound 39 --format csv", 0, PINNED_CSV, ""),
    ("csv-jobs2", "classify --dim 4 --bound 39 --format csv --jobs 2", 0, PINNED_CSV, ""),
    ("out", "classify --dim 4 --bound 39 --format csv --out <tmp>/p4.csv", 0,
     {"written": "<tmp>/p4.csv", "total": 421}, ""),
    ("expect-mismatch", "classify --dim 3 --bound 64 --expect 5", 3, {"total": 4},
     re.escape("expected 5 tuples, found 4\n")),
    ("refused-bound", "classify --dim 4 --bound 131", 2, b"",
     re.escape(f"error: {OVER.format(4, 131, 130)}\n")),
    # A closed stdout exits CLOSED_STDOUT quietly, however the write meets it:
    # the answer fits stdout's buffer, so only run's flush meets the pipe;
    ("closed-stdout", "classify --dim 3 --bound 8", CLOSED_STDOUT, CLOSED, ""),
    # the 19 kB CSV overflows the buffer, so main's write meets it;
    ("closed-stdout-csv", "classify --dim 4 --bound 39 --format csv", CLOSED_STDOUT, CLOSED, ""),
    # unbuffered, every write meets it.
    ("closed-stdout-unbuffered", "PYTHONUNBUFFERED=1 classify --dim 3 --bound 8",
     CLOSED_STDOUT, CLOSED, ""),
    # A closed stderr exits the same, and the answer still reaches stdout.
    ("closed-stderr", "classify --dim 3 --bound 8 --expect 5", CLOSED_STDOUT, {"total": 4}, CLOSED),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", [pytest.param(*r, id=i) for i, *r in ROUTE])
def test_the_module_route_exits_with_its_answer_written(argv, code, stdout, stderr, tmp_path):
    """A fresh interpreter: no PYTHON* variable but PYTHONPATH and the row's own.

    No row prints a traceback, and the only file written is the pinned CSV,
    by the ``--out`` row.
    """
    argv = [arg.replace(TMP, str(tmp_path)) for arg in argv.split()]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    while re.fullmatch(r"[A-Z_]+=\S*", argv[0]):
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    targets = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    for name, expected in (("stdout", stdout), ("stderr", stderr)):
        if expected is CLOSED:
            read_end, targets[name] = os.pipe()
            os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "wblinks.cli", *argv], **targets,
                              env=env, timeout=60)
    finally:
        for target in targets.values():
            if target != subprocess.PIPE:
                os.close(target)
    err = (proc.stderr or b"").decode()
    assert proc.returncode == code, err
    assert stderr is CLOSED or re.fullmatch(stderr, err) and "Traceback" not in err, err
    if isinstance(stdout, dict):
        expected = json.loads(json.dumps(stdout).replace(TMP, str(tmp_path)))
        assert json.loads(proc.stdout)["result"].items() >= expected.items()
    elif stdout is not CLOSED:
        assert proc.stdout == stdout
    written = [PINNED_CSV] if "--out" in argv else []
    assert [path.read_bytes() for path in tmp_path.iterdir()] == written
