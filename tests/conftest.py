import numpy as np
import pytest

from manibo import Grassmann, Spd, Sphere

ALL_KINDS = [Sphere(2), Sphere(4), Grassmann(1, 2), Grassmann(2, 3), Spd(2), Spd(3)]

# One canonical kind per family, used by the cross-manifold suites.
FAMILY_KINDS = [Sphere(2), Grassmann(2, 3), Spd(3)]

# The kinds the stacked (batched) operations are checked on: Gr(2, 5) adds
# a retraction whose eigh is larger than the benchmark's Gr(2, 3).
BATCH_KINDS = [Sphere(2), Grassmann(2, 3), Grassmann(2, 5), Spd(3)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per end-to-end acceptance check."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" not in getattr(report, "nodeid", ""):
                continue
            if getattr(report, "when", "call") != "call" and outcome == "passed":
                continue
            name = report.nodeid.split("::")[-1]
            lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance checks")
    for name, status in sorted(set(lines)):
        terminalreporter.write_line(f"{status}: {name}")
