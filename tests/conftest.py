import importlib
import importlib.util
import os
import re
import signal
from pathlib import Path

import pytest

# the package's `classify` attribute is the function, so look the module up
SCAN = importlib.import_module("wblinks.classify")


def _load_oracle():
    """``perfbench/oracle.py`` of this checkout, as it stands.

    The tests' one oracle: the residue-sum criterion over the full range
    of k, the criterion at every subset gcd, the flip written out, and
    the end-model check, from the definitions and with no code of the
    package.  It is read from the checkout, so an installed package is
    tested against it too.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter):
    """Print one pass/fail line per acceptance criterion."""
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            n = int(match.group(1))
            label = match.group(2).replace("_", " ")
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines[n] = f"criterion {n} ({label}): {verdict}"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for n in sorted(lines):
            terminalreporter.write_line(lines[n])


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that jobs=2 forks one child, and a 60 s deadline.

    The CPUs are faked, so the scan's placement must not reach the kernel:
    writing {0, 1} would narrow a larger runner's real mask for the rest of
    the session, and moving onto CPU 1 fails on a one-CPU runner.  So
    ``os.sched_setaffinity`` only records its calls, and the fixture yields
    that list of (pid, CPUs) pairs.  A forked child records into its own
    copy, so the list holds the calling process's calls alone.

    The deadline turns a hung scan into a failure; a forked child does not
    inherit the alarm.
    """
    placed = []
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr("os.sched_setaffinity", lambda pid, cpus: placed.append((pid, set(cpus))))

    def expire(signum, frame):
        raise TimeoutError("the scan did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield placed
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_process_left():
    """The scan reaped every child it forked."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class PidLog:
    """A file that every process of a scan appends to, each line tagged with its pid.

    A forked child's calls stay in the child, so a test that counts calls
    across processes writes them here and reads them back by pid.
    """

    def __init__(self, path):
        self.path = path

    def write(self, text):
        with self.path.open("a") as fh:
            fh.write(f"{os.getpid()} {text}\n")

    def read(self, parse=str):
        """{pid: [parse(text), ...]} in the order each process wrote them."""
        by_pid = {}
        for line in self.path.read_text().splitlines():
            pid, text = line.split(" ", 1)
            by_pid.setdefault(int(pid), []).append(parse(text))
        return by_pid


@pytest.fixture
def pid_log(tmp_path):
    return PidLog(tmp_path / "pids.log")
