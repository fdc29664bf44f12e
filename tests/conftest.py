"""Collects acceptance gate lines so they appear in the run summary, and
loads a derandomized hypothesis profile so property tests repeat their
examples from run to run."""

from hypothesis import settings

GATE_LINES: list[str] = []

settings.register_profile(
    "dintervals", derandomize=True, database=None, deadline=None, max_examples=120
)
settings.load_profile("dintervals")


def pytest_terminal_summary(terminalreporter):
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.line(line)
