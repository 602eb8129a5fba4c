from functools import cached_property

import pytest

from qbcommit.protocol import KrausFamily

ACCEPTANCE_LINES = []


@pytest.fixture
def criterion_log():
    """Collector for one-line acceptance verdicts, replayed after the run."""

    def record(line: str) -> None:
        ACCEPTANCE_LINES.append(line)

    return record


@pytest.fixture
def residual_calls(monkeypatch):
    """Log of completeness-residual computations; cached reads are not logged."""
    calls = []
    compute = KrausFamily._residual.func

    def counting(family):
        calls.append(family)
        return compute(family)

    counted = cached_property(counting)
    counted.__set_name__(KrausFamily, "_residual")
    monkeypatch.setattr(KrausFamily, "_residual", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
