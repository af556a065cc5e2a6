import math
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import fisher_exact

from fragility.cases import CaseFrame, frame_from_table, table_from_frame
from fragility.errors import UnconvergedFitError
from fragility.stats import Table2x2, TestSpec, fisher_test, logistic_fit, wald_p

# one verdict line per acceptance criterion, printed after the test lines
# (fd-level capture would swallow them mid-run)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

# the worked summary table (quit-smoking arm first) and the motivating
# insignificant one
TABLE3 = (102, 326, 216, 985)
TABLE2 = (20, 380, 15, 385)

ALPHA = 0.05
ORACLE_KMAX = 30


@pytest.fixture(scope="session")
def table3():
    return Table2x2(*TABLE3)


@pytest.fixture(scope="session")
def table2():
    return Table2x2(*TABLE2)


@pytest.fixture(scope="session")
def frame3(table3):
    return frame_from_table(table3)


@pytest.fixture(scope="session")
def frame2(table2):
    return frame_from_table(table2)


@pytest.fixture(scope="session")
def fisher05():
    return fisher_test(alpha=0.05)


@pytest.fixture(scope="session")
def evict_contexts():
    """evict(cells) drops every cached reversal context of the table, so the
    next lookup on it starts from a cold grid."""
    from fragility.core import _CTX_CACHE

    def evict(cells):
        for key in [key for key in _CTX_CACHE if key[0] == tuple(cells)]:
            del _CTX_CACHE[key]

    return evict


# --- the exact subset-reversal oracle --------------------------------------------
#
# P[a uniform k-subset admits a permitted reversal], rebuilt from first
# principles: scipy's Fisher test decides which net shifts reverse,
# compositions are weighted by multivariate hypergeometric masses computed
# with exact integer binomials, and everything is summed as Fractions.


@lru_cache(maxsize=None)
def scipy_p(a, b, c, d):
    return float(fisher_exact([[a, b], [c, d]])[1])


def scipy_fisher_test(alpha=ALPHA):
    """Fisher's test as a custom TestSpec: scipy's p-values, so the same
    decisions, but a table_p that is not fisher_test's."""

    def p_value(frame):
        return scipy_p(*table_from_frame(frame).as_tuple())

    return TestSpec("scipy_fisher", alpha, p_value, table_p=scipy_p)


def reversing_shifts(cells, kmax, alpha=ALPHA):
    a, b, c, d = cells
    sig0 = scipy_p(*cells) < alpha
    out = []
    for i in range(-min(kmax, a), min(kmax, b) + 1):
        for j in range(-min(kmax, c), min(kmax, d) + 1):
            if i == 0 and j == 0:
                continue
            if (scipy_p(a + i, b - i, c + j, d - j) < alpha) != sig0:
                out.append((i, j))
    return out


def oracle_probabilities(cells, kmax, alpha=ALPHA):
    """P[E_k] for k = 1..kmax as exact Fractions."""
    a, b, c, d = cells
    shifts = reversing_shifts(cells, kmax, alpha)

    def comp_reverses(ca, cb, cc, cd):
        for i, j in shifts:
            if -ca <= i <= cb and -cc <= j <= cd:
                return True
        return False

    out = {}
    for k in range(1, kmax + 1):
        num = 0
        for ca in range(0, min(k, a) + 1):
            for cb in range(0, min(k - ca, b) + 1):
                for cc in range(0, min(k - ca - cb, c) + 1):
                    cd = k - ca - cb - cc
                    if cd > d or not comp_reverses(ca, cb, cc, cd):
                        continue
                    num += (
                        math.comb(a, ca)
                        * math.comb(b, cb)
                        * math.comb(c, cc)
                        * math.comb(d, cd)
                    )
        out[k] = Fraction(num, math.comb(a + b + c + d, k))
    return out


def oracle_crossing(probs, r):
    """Smallest k with P[E_k] > r, or None when the curve stays at or below r."""
    for k in sorted(probs):
        if probs[k] > r:
            return k
    return None


@pytest.fixture(scope="session")
def oracle():
    """Exact P[E_k], k = 1..ORACLE_KMAX, for the worked table at q = 0."""
    return oracle_probabilities(TABLE3, ORACLE_KMAX)


# --- small logistic frames with one covariate x ---------------------------------

# 16 cases on which Newton refits warm started from the current fit run
# away (|eta| ~ 1e12) for some single flips whose cold fits converge in a
# few steps
NEAR_SEPARATED = {
    "arm": (1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1),
    "outcome": (0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    "x": (0.713, 0.545, 0.498, 0.014, -0.755, 0.212, -0.657, -0.051,
          0.469, -0.335, -0.348, -0.675, -0.403, -0.608, 0.241, 0.407),
}


def covariate_frame(arm, outcome, x):
    return CaseFrame.from_columns(
        [f"arm{a}" for a in arm],
        ["event" if v else "none" for v in outcome],
        {"x": np.asarray(x, dtype=np.float64)},
    )


def random_covariate_frame(seed, lo, hi):
    """A frame of lo to hi cases with random arms, a N(0, 1) covariate and
    logistic outcomes, redrawn until its own fit converges."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(lo, hi + 1))
    while True:
        arm = rng.integers(0, 2, n)
        x = np.round(rng.normal(size=n), 6)
        eta = -1.0 + 2.0 * rng.normal() * arm + 0.8 * x
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
        if not (0 < arm.sum() < n and 0 < y.sum() < n):
            continue
        X = np.column_stack([np.ones(n), arm, x])
        if logistic_fit(X, y.astype(np.float64)).converged:
            return covariate_frame(arm, y, x)


def cold_wald_p(X, y):
    """Arm p-value of a fresh logistic fit; NaN where the fit is unusable."""
    try:
        return wald_p(logistic_fit(X, y), 1)
    except UnconvergedFitError:
        return math.nan


def nhefs_path():
    """Follow-up study extract: env override, then tests/data/nhefs.csv."""
    env = os.environ.get("FRAGILITY_NHEFS")
    if env and Path(env).is_file():
        return Path(env)
    bundled = Path(__file__).parent / "data" / "nhefs.csv"
    if bundled.is_file():
        return bundled
    return None


@pytest.fixture(scope="session")
def nhefs_frame():
    path = nhefs_path()
    if path is None:
        pytest.skip("follow-up study extract not supplied "
                    "(set FRAGILITY_NHEFS or drop tests/data/nhefs.csv)")
    from fragility.cases import load_csv

    return load_csv(str(path), arm="qsmk", outcome="death", covariates=("smokeyrs",))


# --- CSV files the readers must refuse or accept --------------------------------

# (header, data rows) of a case file and of a tally file
CSV_LAYOUTS = {
    "cases": ("arm,outcome", ["t,e", "c,n"]),
    "tally": ("state,votes_a,votes_b,nonvoters,electors", ["x,1,2,3,4", "y,5,6,7,8"]),
}


def write_csv(path, layout, fault=None, copies=1):
    """A file of the layout with `copies` copies of its two data rows, then
    the fault: "undecodable" appends the byte 0xFF, "long-field" a row
    whose first field holds 140,000 characters (past the csv module's
    field limit) and "bom" writes a UTF-8 byte-order mark first."""
    header, rows = CSV_LAYOUTS[layout]
    body = "\n".join([header] + rows * copies) + "\n"
    if fault == "long-field":
        body += "y" * 140_000 + rows[0][rows[0].index(","):] + "\n"
    data = body.encode("utf-8-sig" if fault == "bom" else "utf-8")
    path.write_bytes(data + (b"\xff\n" if fault == "undecodable" else b""))
    return str(path)
