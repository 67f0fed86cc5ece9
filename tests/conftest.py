import numpy as np
import pytest

_acceptance_lines = []


@pytest.fixture
def acceptance_recorder():
    """Collect one PASS/FAIL line per criterion for the terminal summary."""

    def record(num: int, name: str, ok: bool, detail: str = "") -> None:
        line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}"
        _acceptance_lines.append((num, line))
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_acceptance_lines):
            terminalreporter.write_line(line)


@pytest.fixture
def second_order():
    """The N-doubling check: errors on grids of N, 2N, 4N, ... intervals
    should fall by a factor in (3.5, 4.5) per doubling.  Returns the ratios
    of successive errors and whether every one of them is in range."""

    def check(errors):
        ratios = [np.asarray(a) / np.asarray(b) for a, b in zip(errors, errors[1:])]
        return ratios, all(np.all((3.5 < r) & (r < 4.5)) for r in ratios)

    return check
