"""Shared pytest wiring.

The acceptance tests in ``test_acceptance.py`` each cover one numbered
criterion; the hooks below print a one-line PASS/FAIL verdict per criterion
at the end of the run so the checklist survives in plain ``pytest`` output.

Hypothesis writes a failing example as a patch through libcst, imported
lazily while pytest reports the failure.  Under ``-W error`` a
DeprecationWarning raised by that one third-party import would end the run
in INTERNALERROR and hide the example, so it is imported here once with
that warning ignored.
"""

import re
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is absent, and Hypothesis writes no patch
        pass

_CRITERIA = {
    1: "two-qubit singlet through U1 gives ports (0, 1/2, 1/2, 0)",
    2: "joint analyzer: flat 1/4 distribution and same row set as U2",
    3: "theta sweep follows the sin^2/cos^2 port law",
    4: "two-qutrit singlet distribution and printed amplitudes",
    5: "printed matrices rebuilt entrywise with zero deviation",
    6: "seeded round trips within 1e-10 and the factor-count bound",
    7: "netlists prepare both singlet states from port 1",
    8: "device bridges and gate identities",
    9: "single-sided observables commute pairwise",
    10: "determinant identity for u(x)u and u(x)u(x)u",
    11: "link detection and rejection of the six-label configuration",
    12: "analyzers diagonalize their observables with stated eigenvalues",
}

_NUM_RE = re.compile(r"test_c(\d{2})")
_outcomes: dict = {}
_elapsed: dict = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    m = _NUM_RE.search(report.nodeid)
    if not m:
        return
    num = int(m.group(1))
    if report.when == "call":
        _elapsed[num] = _elapsed.get(num, 0.0) + report.duration
    if report.failed:
        _outcomes[num] = "FAIL"
    elif report.skipped:
        _outcomes.setdefault(num, "SKIP")
    elif report.when == "call":
        _outcomes.setdefault(num, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for num in sorted(_outcomes):
        verdict = _outcomes[num]
        label = _CRITERIA.get(num, "?")
        tr.write_line(f"criterion {num:2d}: {verdict}  -- {label}")
    total = sum(_elapsed.values())
    tr.write_line(f"acceptance suite runtime: {total:.2f}s (budget 30s)")
