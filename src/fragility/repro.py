"""Pinned reference checks: the paper's worked examples, one function each.

Every check returns ``(name, ok, detail)``. ``fragility repro`` prints them
as a pass/fail table and the acceptance tests assert the same functions,
so each pinned table, expected index and tolerance is written only here.
The exact composition oracle the checks compare against lives here too.
"""

from __future__ import annotations

import math

import numpy as np

from .cases import apply_plan, empirical_modifier, frame_from_table, load_csv, table_from_frame
from .core import fi_2x2_exact, gfi_greedy, is_unbounded, reversible_2x2_exact
from .election import election_gfi, load_us2000, sgfi_half_closed_form
from .stats import (
    Table2x2,
    _design_matrix,
    fisher_exact_two_sided,
    fisher_test,
    logistic_fit,
    logistic_wald_test,
    wald_p,
)
from .stochastic import SgfiConfig, exact_sfi_2x2, probability_reversal, sgfi

Check = tuple[str, bool, str]

# the worked summary table (quit-smoking arm first) and the motivating
# insignificant one
WORKED = Table2x2(102, 326, 216, 985)
MOTIVATING = Table2x2(20, 380, 15, 385)
ALPHA = 0.05
# the worked table's fragility index, and its greedy index up to the
# incidence boundary b/(a+b) = 326/428
WORKED_INDEX = 6

# the exact crossing of P[E_k] over 1/2 on the worked table at q=0; the
# published figure is 22, which the package does not reproduce (see README)
HALF_INDEX = 21
# agreement required between the exact index's probabilities and an oracle
PROB_TOL = 1e-10


def _mvhg_logpmf(cells, comp):
    n = sum(cells)
    k = sum(comp)
    out = -(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))
    for c, ki in zip(cells, comp):
        out += math.lgamma(c + 1) - math.lgamma(ki + 1) - math.lgamma(c - ki + 1)
    return out


def _exact_prob_reversal(table, modifier, test, k):
    """P[a uniform k-subset admits a permitted reversal], summed over
    compositions of k across the four cells weighted by the multivariate
    hypergeometric pmf."""
    cells = table.as_tuple()
    total = 0.0
    for k1 in range(min(k, cells[0]) + 1):
        for k2 in range(min(k - k1, cells[1]) + 1):
            for k3 in range(min(k - k1 - k2, cells[2]) + 1):
                k4 = k - k1 - k2 - k3
                if k4 > cells[3]:
                    continue
                comp = (k1, k2, k3, k4)
                if reversible_2x2_exact(table, comp, modifier, test):
                    total += math.exp(_mvhg_logpmf(cells, comp))
    return total


def _worked():
    """The worked table's frame, its q=0 modifier and the Fisher test."""
    frame = frame_from_table(WORKED)
    return frame, empirical_modifier(frame, q=0.0), fisher_test(alpha=ALPHA)


def fisher_p_and_odds_ratio() -> Check:
    p = fisher_exact_two_sided(WORKED)
    orat = WORKED.odds_ratio()
    return ("fisher p and odds ratio",
            abs(p - 0.01) <= 0.005 and abs(orat - 1.43) <= 0.005,
            f"p={p:.6g} or={orat:.6g}")


def fragility_index_plus_6() -> Check:
    frame, mod0, test = _worked()
    exact = fi_2x2_exact(WORKED, test)
    greedy = gfi_greedy(frame, mod0, test)
    return ("fragility index +6 (exact and greedy q=0)",
            exact.index == WORKED_INDEX and greedy.index == WORKED_INDEX,
            f"exact={exact.index} greedy={greedy.index}")


def incidence_boundary() -> Check:
    frame, _, test = _worked()
    sweep = [gfi_greedy(frame, empirical_modifier(frame, q=q), test).index
             for q in (0.0, 0.25, 0.5, 0.75)]
    above = gfi_greedy(frame, empirical_modifier(frame, q=0.77), test).index
    return ("incidence boundary at 326/428",
            all(v == WORKED_INDEX for v in sweep) and is_unbounded(above),
            f"q<=0.75 -> {sorted(set(sweep))}, q=0.77 -> "
            f"{'UNBOUNDED' if is_unbounded(above) else above}")


def stochastic_half_index(seed: int = 0) -> Check:
    frame, mod0, test = _worked()
    res = sgfi(frame, mod0, test, SgfiConfig(r=0.5, seed=seed))
    return (f"stochastic index at r=1/2 within +-1 of {HALF_INDEX}",
            not res.unbounded and abs(res.index - HALF_INDEX) <= 1,
            f"index={res.index} polyak={res.polyak_mean:.3f}")


def exact_half_index() -> Check:
    _, mod0, test = _worked()
    name = f"exact half-threshold index equals {HALF_INDEX}"
    ex = exact_sfi_2x2(WORKED, mod0, test, r=0.5)
    if ex.unbounded:
        return name, False, "computed UNBOUNDED"
    # cross-check the bracket against the per-composition sum
    sums_agree = (
        abs(ex.p_at - _exact_prob_reversal(WORKED, mod0, test, HALF_INDEX)) <= PROB_TOL
        and abs(ex.p_below - _exact_prob_reversal(WORKED, mod0, test, HALF_INDEX - 1))
        <= PROB_TOL
    )
    return (name,
            ex.index == HALF_INDEX and ex.p_below <= 0.5 < ex.p_at and sums_agree,
            f"computed {ex.index} (P_{ex.index - 1}={ex.p_below:.6f} <= 1/2 < "
            f"P_{ex.index}={ex.p_at:.6f}); published 22, see README")


def monte_carlo_vs_exact(seed: int = 0) -> Check:
    frame, mod0, test = _worked()
    ok, parts = True, []
    for k in (15, 22, 30):
        exact_p = _exact_prob_reversal(WORKED, mod0, test, k)
        est = probability_reversal(k, frame, mod0, test, trials=2000, seed=seed)
        band = 3.0 * math.sqrt(max(exact_p * (1.0 - exact_p), 1e-12) / 2000.0)
        ok &= abs(est.p_hat - exact_p) <= band
        parts.append(f"k={k}: |{est.p_hat:.4f}-{exact_p:.4f}|<={band:.4f}")
    return ("monte carlo within 3 sigma of exact reversal probability",
            ok, "; ".join(parts))


def election() -> Check:
    race = election_gfi(load_us2000(), beneficiary="a")
    cf = sgfi_half_closed_form(194331526, 2693686, 538)
    return ("election 538 switches and closed form near 38814",
            race.index == 538 and race.flip_states == ("Florida",)
            and abs(cf.initializer - 38814) <= 5 and cf.sf_at > 0.5 >= cf.sf_below,
            f"switches={race.index} flip={','.join(race.flip_states)} "
            f"exact={cf.index} initializer={cf.initializer} "
            f"sf({cf.index})={cf.sf_at:.6f}>1/2>={cf.sf_below:.6f}")


def insignificant_table() -> Check:
    res = fi_2x2_exact(MOTIVATING, fisher_test(alpha=ALPHA))
    reached = table_from_frame(apply_plan(frame_from_table(MOTIVATING), res.plan)).as_tuple()
    # a negative index is what makes the report carry its note
    return ("insignificant table: magnitude 7 reaching (20,380,8,392)",
            res.index == -7 and reached == (20, 380, 8, 392),
            f"index={res.index} p_before={res.p_before:.6g} "
            f"p_after={res.p_after:.6g} reached={reached}; note emitted")


def core_checks(seed: int = 0) -> list[Check]:
    """The checks that need no data beyond the package, in report order."""
    return [
        fisher_p_and_odds_ratio(),
        fragility_index_plus_6(),
        incidence_boundary(),
        stochastic_half_index(seed),
        exact_half_index(),
        monte_carlo_vs_exact(seed),
        election(),
        insignificant_table(),
    ]


def nhefs_checks(path: str, seed: int = 0) -> list[Check]:
    """The checks on the follow-up study extract at `path`."""
    covariates = ("smokeyrs",)
    frame = load_csv(path, arm="qsmk", outcome="death", covariates=covariates)
    test = logistic_wald_test(covariates=covariates, alpha=ALPHA)
    checks = []

    # the same fit the test runs
    fit = logistic_fit(_design_matrix(frame, covariates),
                       frame.outcome_codes.astype(np.float64))
    beta = fit.coefficients[1]
    if frame.arm_levels.index("1") == 0:
        beta = -beta  # report the quit-vs-not direction regardless of file order
    orat = math.exp(beta)
    p = wald_p(fit, 1)
    checks.append(("nhefs adjusted odds ratio 1.13 and p 0.41",
                   abs(orat - 1.13) <= 0.02 and abs(p - 0.41) <= 0.02,
                   f"or={orat:.4f} p={p:.4f}"))

    g0 = gfi_greedy(frame, empirical_modifier(frame, q=0.0), test)
    checks.append(("nhefs generalized index q=0 is -10",
                   g0.index == -10, f"index={g0.index}"))

    mod9 = empirical_modifier(frame, q=0.9)
    g9 = gfi_greedy(frame, mod9, test)
    checks.append(("nhefs generalized index q=0.9 is -30 within +-1",
                   not is_unbounded(g9.index) and abs(g9.index - (-30)) <= 1,
                   f"index={g9.index}"))

    for r, pinned in ((0.25, -1458), (0.5, -1517), (0.75, -1569)):
        res = sgfi(frame, mod9, test, SgfiConfig(r=r, seed=seed))
        checks.append((f"nhefs stochastic index r={r} near {pinned}",
                       not res.unbounded and abs(res.index - pinned) <= abs(pinned) * 0.02,
                       f"index={res.index}"))
    return checks
