import os
import sys

import numpy as np
import pytest

from avereg.filters import residual_norm


def pytest_terminal_summary(terminalreporter):
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def forks(monkeypatch):
    """The pids forked during the test; each must have been reaped by its end."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def row_residual(op, spec, alpha, y):
    """The residual of the lone vector y, the one row of ``residual_norm`` of
    ``[y]``: a float for a float alpha, one value per alpha of a 1-D block."""
    row = residual_norm(op, spec, alpha, [y])[0]
    return float(row[0]) if np.ndim(alpha) == 0 else row


def _rate_fit(ns, medians) -> dict:
    """Ordinary least squares of ln(median) on ln(n): {slope, intercept, r_squared}."""
    ns = np.asarray(ns, dtype=float)
    medians = np.asarray(medians, dtype=float)
    if ns.size < 3 or medians.size != ns.size:
        raise ValueError("rate fit needs at least 3 (n, median) pairs")
    if np.any(ns <= 0) or np.any(medians <= 0):
        raise ValueError("sample sizes and medians must be positive")
    x = np.log(ns)
    y = np.log(medians)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r_squared}


@pytest.fixture
def rate_fit():
    """The log-log convergence-rate fit of a study's medians."""
    return _rate_fit
