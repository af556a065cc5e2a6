"""Distribution and test-statistic layer, checked against independent
oracles: exact rational enumeration for the hypergeometric family and
scipy for Fisher/normal tails."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from conftest import NEAR_SEPARATED, cold_wald_p, covariate_frame, random_covariate_frame
from fragility import stats
from fragility._kernels import log_factorials
from fragility.errors import (
    InvalidParameterError,
    SingularDesignError,
    UnconvergedFitError,
)
from fragility.stats import (
    LogisticFit,
    Table2x2,
    fisher_exact_two_sided,
    fisher_test,
    hypergeom_sf,
    is_significant,
    logistic_fit,
    logistic_wald_test,
    wald_p,
)


# --- independent oracles ----------------------------------------------------


def hg_pmf_exact(population, successes, draws, t) -> Fraction:
    if t < max(0, draws - (population - successes)) or t > min(successes, draws):
        return Fraction(0)
    return (
        Fraction(math.comb(successes, t))
        * math.comb(population - successes, draws - t)
        / math.comb(population, draws)
    )


def hg_sf_exact(population, successes, draws, threshold) -> Fraction:
    hi = min(successes, draws)
    return sum(
        (hg_pmf_exact(population, successes, draws, t) for t in range(threshold, hi + 1)),
        Fraction(0),
    )


# --- Table2x2 ----------------------------------------------------------------


def test_table_properties(table3):
    assert table3.n == 1629
    assert (table3.row1, table3.row2) == (428, 1201)
    assert (table3.col1, table3.col2) == (318, 1311)
    assert table3.as_tuple() == (102, 326, 216, 985)
    assert table3.shifted(-6, 0).as_tuple() == (96, 332, 216, 985)


def test_table_odds_ratio(table3):
    exact = Fraction(102 * 985, 326 * 216)
    assert table3.odds_ratio() == pytest.approx(float(exact), rel=1e-15)
    assert abs(table3.odds_ratio() - 1.43) <= 0.005
    assert math.isinf(Table2x2(1, 0, 0, 1).odds_ratio())
    assert math.isnan(Table2x2(0, 1, 0, 1).odds_ratio())


@pytest.mark.parametrize("bad", [(-1, 2, 3, 4), (0, 0, 0, 0), (1.5, 2, 3, 4)])
def test_table_validation(bad):
    with pytest.raises(InvalidParameterError):
        Table2x2(*bad)


# --- hypergeometric ----------------------------------------------------------


@pytest.mark.parametrize(
    "population,successes,draws,threshold",
    [(20, 7, 5, 3), (50, 25, 12, 0), (50, 25, 12, 13), (100, 40, 60, 22)],
)
def test_hypergeom_sf_matches_enumeration(population, successes, draws, threshold):
    exact = float(hg_sf_exact(population, successes, draws, threshold))
    got = hypergeom_sf(population, successes, draws, threshold)
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


def test_hypergeom_sf_election_bracket():
    N, K, g = 194331526, 2693686, 538
    assert hypergeom_sf(N, K, 38789, g) > 0.5 >= hypergeom_sf(N, K, 38788, g)


def test_hypergeom_validation():
    with pytest.raises(InvalidParameterError):
        hypergeom_sf(10, 11, 5, 2)
    with pytest.raises(InvalidParameterError):
        hypergeom_sf(10, 5, 11, 2)


# --- Fisher ------------------------------------------------------------------


def test_fisher_table3_value(table3):
    p = fisher_exact_two_sided(table3)
    assert abs(p - 0.01) <= 0.005
    _, sp = st.fisher_exact(np.array([[102, 326], [216, 985]]))
    assert p == pytest.approx(sp, rel=1e-10)


def test_fisher_table2_value(table2):
    p = fisher_exact_two_sided(table2)
    _, sp = st.fisher_exact(np.array([[20, 380], [15, 385]]))
    assert p == pytest.approx(sp, rel=1e-10)
    assert p > 0.05  # the motivating table starts out insignificant


def test_fisher_degenerate():
    assert fisher_exact_two_sided(Table2x2(0, 1, 0, 1)) == pytest.approx(1.0)
    assert fisher_exact_two_sided(Table2x2(3, 0, 0, 0)) == pytest.approx(1.0)


@settings(max_examples=120, deadline=None)
@given(
    a=hst.integers(0, 35),
    b=hst.integers(0, 35),
    c=hst.integers(0, 35),
    d=hst.integers(0, 35),
)
def test_fisher_matches_scipy(a, b, c, d):
    if a + b + c + d == 0:
        return
    p = fisher_exact_two_sided(Table2x2(a, b, c, d))
    _, sp = st.fisher_exact(np.array([[a, b], [c, d]]))
    assert 0.0 < p <= 1.0
    assert p == pytest.approx(sp, rel=1e-9, abs=1e-12)


@hst.composite
def symmetric_margin_tables(draw):
    """Large tables whose conditional pmf is symmetric, so it has exact
    ties: equal arms (x <-> a + c - x) or equal column totals (x <-> row 1
    - x). The observed cell lands near its mean, where decisions sit."""
    delta = draw(hst.integers(-80, 80))
    if draw(hst.booleans()):
        m = draw(hst.integers(500, 5000))
        a = draw(hst.integers(0, m))
        c = min(max(a + delta, 0), m)
        return a, m - a, c, m - c
    half = draw(hst.integers(500, 5000))  # each column total
    r1 = draw(hst.integers(1, 2 * half - 1))
    r2 = 2 * half - r1
    a = min(max(r1 // 2 + delta, max(0, half - r2)), min(r1, half))
    c = half - a
    return a, r1 - a, c, r2 - c


@settings(max_examples=80, deadline=None)
@given(cells=symmetric_margin_tables())
# the mirror table ties the observed one, 1.8e-12 apart in log-pmf (p
# 0.0472 against 0.0512 without it)
@example(cells=(490, 1510, 545, 1455))
def test_fisher_keeps_exact_ties_on_large_tables(cells):
    a, b, c, d = cells
    p = fisher_exact_two_sided(Table2x2(a, b, c, d))
    _, sp = st.fisher_exact(np.array([[a, b], [c, d]]))
    assert p == pytest.approx(sp, rel=1e-9, abs=1e-300)


# --- significance ------------------------------------------------------------


def test_is_significant_strict():
    assert is_significant(0.049, 0.05)
    assert not is_significant(0.05, 0.05)
    with pytest.raises(InvalidParameterError):
        is_significant(1.2, 0.05)
    with pytest.raises(InvalidParameterError):
        is_significant(0.5, 0.0)


# --- logistic ----------------------------------------------------------------


def _two_group_design():
    z = np.r_[np.zeros(428), np.ones(1201)]
    y = np.r_[np.ones(102), np.zeros(326), np.ones(216), np.zeros(985)]
    return np.column_stack([np.ones(z.size), z]), y


def test_logistic_two_group_closed_form():
    X, y = _two_group_design()
    fit = logistic_fit(X, y)
    assert fit.converged and not fit.separated
    slope = math.log((216 * 326) / (985 * 102))  # log odds, group 1 vs 0
    assert fit.coefficients[1] == pytest.approx(slope, abs=1e-8)
    se = math.sqrt(1 / 102 + 1 / 326 + 1 / 216 + 1 / 985)
    assert fit.standard_errors[1] == pytest.approx(se, rel=1e-6)
    p = wald_p(fit, 1)
    assert p == pytest.approx(2 * st.norm.sf(abs(slope) / se), rel=1e-9)


def test_logistic_separation_flagged():
    X = np.column_stack([np.ones(12), np.arange(12.0)])
    same = logistic_fit(X, np.ones(12))
    assert same.separated and not same.converged
    split = logistic_fit(X, (np.arange(12) >= 6).astype(float))
    assert split.separated and not split.converged
    with pytest.raises(UnconvergedFitError):
        wald_p(same, 1)


def test_logistic_singular_design():
    X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0) * 2])
    y = (np.arange(10) % 2).astype(float)
    with pytest.raises(SingularDesignError):
        logistic_fit(X, y)


def test_logistic_input_validation():
    X = np.ones((3, 4))
    with pytest.raises(InvalidParameterError):
        logistic_fit(X, np.zeros(3))  # fewer rows than columns
    with pytest.raises(InvalidParameterError):
        logistic_fit(np.ones((5, 1)), np.array([0, 1, 2, 0, 1.0]))  # not binary
    X, y = _two_group_design()
    for bad in (math.nan, math.inf, -math.inf):
        X[5, 1] = bad  # checked before LAPACK sees it
        with pytest.raises(InvalidParameterError, match="finite"):
            logistic_fit(X, y)


def test_wald_edge_value():
    fit = LogisticFit(
        coefficients=np.array([0.0, 1.959964]),
        standard_errors=np.array([1.0, 1.0]),
        converged=True,
        separated=False,
        iterations=3,
        deviance=1.0,
    )
    assert wald_p(fit, 1) == pytest.approx(0.05, abs=1e-6)


# --- numpy-only special functions against scipy.special -------------------------


def test_log_factorials_match_gammaln():
    from scipy.special import gammaln

    lf = log_factorials(20000)
    want = gammaln(np.arange(20002, dtype=np.float64) + 1.0)
    assert lf.shape == want.shape and lf[0] == lf[1] == 0.0
    # a few ulps of log n!, far inside fisher_p's 32-ulp tie slack
    assert np.max(np.abs(lf - want)) <= 4 * np.spacing(want[-1])


@pytest.mark.parametrize("z", [0.0, 1e-9, 0.3, 1.0, 1.959964, 3.7, 8.0, 19.5, 37.0, math.nan])
def test_wald_p_matches_ndtr(z):
    from scipy.special import ndtr

    fit = LogisticFit(
        coefficients=np.array([0.0, -z]),
        standard_errors=np.array([1.0, 1.0]),
        converged=True,
        separated=False,
        iterations=3,
        deviance=1.0,
    )
    want = float(2.0 * ndtr(-z))
    got = wald_p(fit, 1)
    assert (math.isnan(got) and math.isnan(want)) or got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("seed", [None, 0, 30])
def test_batched_flips_match_ndtr_tail(seed, monkeypatch):
    """Batched refit p-values against the same refits with scipy's 2 * ndtr(-z):
    the tail is the only change, NaN z stays NaN and goes to the cold refit."""
    from scipy.special import ndtr

    frame = covariate_frame(**NEAR_SEPARATED) if seed is None else random_covariate_frame(seed, 8, 24)
    y = frame.outcome_codes.astype(np.float64)
    rows = np.arange(frame.n)

    def flip_ps():
        ev = logistic_wald_test(("x",)).make_fast_eval(frame)
        ev.refit(y)
        return ev.p_after_flips(y, rows)

    assert math.isnan(stats._wald_tail(math.nan))
    got = flip_ps()
    monkeypatch.setattr(stats, "_wald_tail", lambda z: float(2.0 * ndtr(-z)))
    want = flip_ps()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    np.testing.assert_allclose(got[ok], want[ok], rtol=1e-13, atol=0)


# --- test specs ---------------------------------------------------------------


def test_fisher_spec_on_frame(frame3, table3, fisher05):
    assert fisher05.alpha == 0.05
    assert fisher05.p_value(frame3) == pytest.approx(
        fisher_exact_two_sided(table3), rel=1e-14
    )
    with pytest.raises(InvalidParameterError):
        fisher_test(alpha=1.0)


def test_logistic_spec_on_frame(frame3):
    spec = logistic_wald_test(alpha=0.05)
    X, y = _two_group_design()
    fit = logistic_fit(X, y)
    # the frame's arm coding may flip the slope's sign; the p-value cannot
    assert spec.p_value(frame3) == pytest.approx(wald_p(fit, 1), rel=1e-9)
    # unadjusted Wald agrees with Fisher to well under the usual cutoffs
    assert abs(spec.p_value(frame3) - fisher_exact_two_sided(Table2x2(102, 326, 216, 985))) < 0.01


@pytest.mark.parametrize("seed", [None, *range(32)])
def test_batched_flips_match_cold_fits(seed):
    """The greedy search's batched single-flip refits against a cold fit of
    each flipped outcome vector: NaN exactly where that fit is unusable, and
    1e-6 relative where its log odds stay within 15 (nearer separation the
    likelihood is too flat for two solvers to agree that closely). seed
    None is NEAR_SEPARATED, whose warm-started refits of some flips run
    away while their cold fits converge; seed 30 has a flip whose cold fit
    runs just past |eta| = 30 while a warm-started refit stops short."""
    if seed is None:
        frame = covariate_frame(**NEAR_SEPARATED)
    else:
        frame = random_covariate_frame(seed, 8, 24)
    ev = logistic_wald_test(("x",)).make_fast_eval(frame)
    y = frame.outcome_codes.astype(np.float64)
    ev.refit(y)
    got = ev.p_after_flips(y, np.arange(frame.n))
    for r in range(frame.n):
        y2 = y.copy()
        y2[r] = 1.0 - y2[r]
        want = cold_wald_p(ev.X, y2)
        assert np.isnan(got[r]) == np.isnan(want), r
        eta = ev.X @ logistic_fit(ev.X, y2).coefficients
        if not np.isnan(want) and np.max(np.abs(eta)) <= 15.0:
            assert got[r] == pytest.approx(want, rel=1e-6), r
