from __future__ import annotations

import warnings

from hypothesis import HealthCheck, settings

# Hypothesis imports this module to report a failing example, and its libcst
# import warns about mypy_extensions.TypedDict.  Under ``-W error`` that
# warning would end the run without the example; once imported here, with
# the warning ignored for this import alone, it is not imported again.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass  # libcst is missing: Hypothesis reports without it

# Property tests exercise sleep-free code, but the sandbox machine can stall
# arbitrarily; wall-clock deadlines would only add flakes.
settings.register_profile(
    "package",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    verdicts: dict[str, str] = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL")):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" not in report.nodeid:
                continue
            if getattr(report, "when", "call") != "call":
                continue
            verdicts[report.nodeid.split("::")[-1]] = label
    for report in terminalreporter.stats.get("error", []):
        if "test_acceptance.py" in report.nodeid:
            verdicts[report.nodeid.split("::")[-1]] = "FAIL"
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(verdicts):
        terminalreporter.write_line(f"{name}: {verdicts[name]}")
