import os
import re
import signal

import pytest

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

    The deadline turns a hung scan into a failure; a forked child does not
    inherit the alarm.
    """
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})

    def expire(signum, frame):
        raise TimeoutError("the scan did not finish within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_process_left():
    """The scan reaped every child it forked."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
