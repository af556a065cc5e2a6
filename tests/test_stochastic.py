"""Stochastic index machinery against an exact rational-arithmetic oracle.

The oracle (the session fixture `oracle` in conftest) rebuilds P[a uniform
k-subset admits a permitted reversal] from first principles: scipy's
Fisher test decides which net shifts reverse, compositions are weighted by
multivariate hypergeometric masses computed with exact integer binomials,
and everything is summed as Fractions.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from conftest import ALPHA, ORACLE_KMAX, oracle_crossing, scipy_fisher_test, scipy_p
from fragility import stochastic
from fragility.cases import Modifier, empirical_modifier, frame_from_table
from fragility.core import UNBOUNDED, _table_context, gfi_greedy
from fragility.errors import InvalidParameterError
from fragility.repro import _exact_prob_reversal
from fragility.stats import Table2x2, _bracket_crossing
from fragility.stochastic import (
    COMPOSITION_GUARD,
    SgfiConfig,
    exact_sfi_2x2,
    probability_reversal,
    sgfi,
)


@pytest.fixture(scope="module")
def mod0(frame3):
    return empirical_modifier(frame3, 0.0)


# --- the exact curve ------------------------------------------------------------


def test_oracle_curve_is_monotone_and_crosses_where_frozen(oracle):
    for k in range(1, ORACLE_KMAX):
        assert oracle[k] <= oracle[k + 1]
    assert float(oracle[19]) == pytest.approx(0.2929548, abs=1e-6)
    assert float(oracle[21]) == pytest.approx(0.5210923, abs=1e-6)
    assert float(oracle[26]) == pytest.approx(0.9114774, abs=1e-6)
    assert [oracle_crossing(oracle, r) for r in (0.25, 0.5, 0.75, 0.9)] == [
        19,
        21,
        24,
        26,
    ]


def test_exact_sfi_matches_oracle_crossings(table3, mod0, fisher05, oracle):
    for r in (0.25, 0.5, 0.75, 0.9):
        want = oracle_crossing(oracle, r)
        res = exact_sfi_2x2(table3, mod0, fisher05, r=r)
        assert res.index == want
        assert res.initial_significant
        assert res.p_at == pytest.approx(float(oracle[want]), abs=1e-10)
        assert res.p_below == pytest.approx(float(oracle[want - 1]), abs=1e-10)
        assert res.p_at > r >= res.p_below


def test_per_k_probabilities_match_oracle(table3, mod0, fisher05, oracle):
    for k in (1, 5, 15, 21, 26, 30):
        got = _exact_prob_reversal(table3, mod0, fisher05, k)
        assert got == pytest.approx(float(oracle[k]), abs=1e-10)


def test_exact_sfi_unbounded_and_validation(table3, table2, frame2, mod0, fisher05):
    frame = frame_from_table(Table2x2(1, 1, 1, 1))
    mod = empirical_modifier(frame, 0.0)
    res = exact_sfi_2x2(Table2x2(1, 1, 1, 1), mod, fisher05)
    assert res.unbounded
    assert res.p_at is None and res.p_below is None
    with pytest.raises(InvalidParameterError):
        exact_sfi_2x2(table3, mod0, fisher05, r="1-")
    with pytest.raises(InvalidParameterError):
        exact_sfi_2x2(table3, mod0, fisher05, r=1.0)
    with pytest.raises(InvalidParameterError):
        exact_sfi_2x2(table2, mod0, fisher05)  # modifier from another table
    with pytest.raises(InvalidParameterError):
        exact_sfi_2x2(table3, mod0, fisher05, r=0.999, max_k=5)
    for bad in (2.5, 40.0, True):
        with pytest.raises(InvalidParameterError, match="max_k must be an integer"):
            exact_sfi_2x2(table3, mod0, fisher05, max_k=bad)


def linear_scan_sfi(table, modifier, test, r, max_k):
    """exact_sfi_2x2 as a scan over k = 1, 2, ...: (index, P[E_k],
    P[E_(k-1)]) at the first k with P[E_k] > r; None once max_k is passed."""
    ctx = _table_context(table, test, modifier)
    if not ctx.comp_reversible(table.as_tuple()):
        return UNBOUNDED, None, None
    prev = 0.0
    for k in range(1, min(table.n, max_k) + 1):
        pk = ctx.prob_reversal(k)
        if pk > r:
            return (k if ctx.sig0 else -k), pk, prev
        prev = pk
    return None


@settings(max_examples=80, deadline=None)
@given(
    cells=hst.tuples(*[hst.integers(0, 16)] * 4),
    q=hst.sampled_from([0.0, 0.25]),
    r=hst.sampled_from([0.0, 0.1, 0.5, 0.9, 0.99]),
    max_k=hst.one_of(hst.just(COMPOSITION_GUARD), hst.integers(0, 64)),
)
# the guard: the crossing lies past max_k
@example(cells=(8, 2, 2, 8), q=0.0, r=0.9, max_k=1)
@example(cells=(8, 2, 2, 8), q=0.0, r=0.0, max_k=0)
def test_exact_sfi_matches_linear_scan(cells, q, r, max_k, fisher05):
    assume(sum(cells) > 0)
    table = Table2x2(*cells)
    mod = empirical_modifier(frame_from_table(table), q)
    want = linear_scan_sfi(table, mod, fisher05, r, max_k)
    if want is None:
        with pytest.raises(InvalidParameterError, match="guard"):
            exact_sfi_2x2(table, mod, fisher05, r=r, max_k=max_k)
        return
    got = exact_sfi_2x2(table, mod, fisher05, r=r, max_k=max_k)
    assert (got.index, got.p_at, got.p_below) == want


def test_exact_sfi_monotone_in_r_and_q(table3, frame3, fisher05):
    by_q = {}
    for q in (0.0, 0.5):
        mod = empirical_modifier(frame3, q)
        by_q[q] = [abs(exact_sfi_2x2(table3, mod, fisher05, r=r).index) for r in (0.25, 0.5, 0.75)]
    assert by_q[0.0] == [19, 21, 24]
    # restricting moves to event -> nonevent (the only direction clearing
    # q = 0.5) pushes every crossing far out
    assert by_q[0.5] == [69, 90, 116]
    for row in by_q.values():
        assert row == sorted(row)
    for lo, hi in zip(by_q[0.0], by_q[0.5]):
        assert lo <= hi


# --- Monte Carlo estimates ------------------------------------------------------


def test_probability_reversal_within_binomial_bands(frame3, mod0, fisher05, oracle):
    for k in (15, 22, 30):
        exact = float(oracle[k])
        est = probability_reversal(k, frame3, mod0, fisher05, trials=2000, seed=0)
        band = 3 * math.sqrt(exact * (1 - exact) / 2000)
        assert abs(est.p_hat - exact) <= band
        assert est.p_hat == est.reversals / est.trials
        assert est.k == k and est.trials == 2000 and est.seed == 0


def test_probability_reversal_is_thread_invariant(frame3, mod0, fisher05):
    one = probability_reversal(22, frame3, mod0, fisher05, trials=600, seed=9)
    again = probability_reversal(22, frame3, mod0, fisher05, trials=600, seed=9)
    assert one == again


def test_probability_reversal_independent_of_grid_window(fisher05, evict_contexts):
    # the same estimate from a cold context, whose grid covers only the
    # drawn compositions, and from one grown to the full grid
    cells = (30, 70, 50, 50)
    frame = frame_from_table(Table2x2(*cells))
    mod = empirical_modifier(frame, 0.0)
    evict_contexts(cells)
    cold = probability_reversal(9, frame, mod, fisher05, trials=500, seed=4)
    ctx = _table_context(Table2x2(*cells), fisher05, mod)
    assert ctx._grid.shape[0] < cells[0] + cells[1] + 1
    ctx.min_cost(whole=True)
    assert ctx._grid.shape == (cells[0] + cells[1] + 1, cells[2] + cells[3] + 1)
    assert probability_reversal(9, frame, mod, fisher05, trials=500, seed=4) == cold


# --- the stochastic root finder -------------------------------------------------


def test_sgfi_lands_on_exact_crossing(frame3, mod0, fisher05):
    res = sgfi(frame3, mod0, fisher05, SgfiConfig(r=0.5, seed=0))
    assert res.index == 21
    assert res.initial_significant
    assert len(res.trajectory) == 60
    assert math.isfinite(res.polyak_mean)
    # confirmation bracket: p_hat(k) > r >= p_hat(k - 1)
    assert res.final_at.k == 21 and res.final_below.k == 20
    assert res.final_at.p_hat > 0.5 >= res.final_below.p_hat


def test_sgfi_crossing_below_default_r(frame3, mod0, fisher05):
    res = sgfi(frame3, mod0, fisher05, SgfiConfig(r=0.25, seed=0))
    assert res.index == 19
    assert res.final_at.p_hat > 0.25 >= res.final_below.p_hat


@pytest.mark.parametrize("seed", range(4))
def test_sgfi_brackets_high_r(frame3, mod0, fisher05, seed):
    # the confirmation search ends on a bracket next to the exact crossing
    # 26, wherever the Polyak mean lands
    res = sgfi(frame3, mod0, fisher05, SgfiConfig(r=0.9, seed=seed))
    assert abs(res.index - 26) <= 1
    assert res.final_at.k == res.index and res.final_below.k == res.index - 1
    assert res.final_at.p_hat > 0.9 >= res.final_below.p_hat


def counted(values):
    """p(k) = values[k - 1], recording each k asked for."""
    calls = []

    def p(k):
        calls.append(k)
        return values[k - 1]

    return p, calls


@settings(max_examples=200, deadline=None)
@given(data=hst.data(), n=hst.integers(1, 5000))
def test_bracket_search_finds_a_monotone_crossing(data, n):
    t = data.draw(hst.integers(1, n + 1), label="crossing")  # n + 1: none
    start = data.draw(hst.integers(1, n), label="start")
    p, calls = counted([float(k >= t) for k in range(1, n + 1)])
    got = _bracket_crossing(p, 0.5, start, n)
    assert got == (t if t <= n else None)
    assert 0 not in calls and len(set(calls)) == len(calls)
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 2


@settings(max_examples=200, deadline=None)
@given(
    values=hst.lists(hst.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), min_size=1, max_size=300),
    data=hst.data(),
)
def test_bracket_search_brackets_any_curve(values, data):
    n = len(values)
    start = data.draw(hst.integers(1, n), label="start")
    p, calls = counted(values)
    got = _bracket_crossing(p, 0.5, start, n)
    assert 0 not in calls and len(set(calls)) == len(calls)
    if got is None:
        assert values[-1] <= 0.5
    else:
        below = values[got - 2] if got > 1 else 0.0
        assert values[got - 1] > 0.5 >= below


def test_sgfi_deterministic_across_threads_and_reruns(frame3, mod0, fisher05):
    base = dict(r=0.5, trials=100, iterations=30, seed=3)
    one = sgfi(frame3, mod0, fisher05, SgfiConfig(**base))
    again = sgfi(frame3, mod0, fisher05, SgfiConfig(**base))
    assert one.index == again.index
    assert one.trajectory == again.trajectory
    assert one == again


def test_sgfi_r0_reduces_to_deterministic_index(frame3, mod0, fisher05):
    for r in (0.0, 1e-300):
        res = sgfi(frame3, mod0, fisher05, SgfiConfig(r=r))
        assert res.index == 6  # no sampling: the deterministic index
        assert len(res.trajectory) == 0


def test_sgfi_unbounded_precheck(fisher05):
    frame = frame_from_table(Table2x2(1, 1, 1, 1))
    mod = empirical_modifier(frame, 0.0)
    res = sgfi(frame, mod, fisher05)
    assert res.unbounded
    assert math.isnan(res.polyak_mean)
    assert res.trajectory == ()
    assert res.final_at is None and res.final_below is None


def test_custom_table_test_takes_the_greedy_path(fisher05, monkeypatch):
    # the exact 2x2 machinery is Fisher-only: a custom table_p, even one
    # that decides alike, gets an error from exact_sfi_2x2 and the greedy
    # search from sgfi
    spec = scipy_fisher_test()
    table = Table2x2(8, 2, 2, 8)
    frame = frame_from_table(table)
    mod = empirical_modifier(frame, 0.0)
    with pytest.raises(InvalidParameterError, match="Fisher"):
        exact_sfi_2x2(table, mod, spec)
    calls = []
    greedy = stochastic.gfi_greedy
    monkeypatch.setattr(
        stochastic, "gfi_greedy", lambda *a, **kw: calls.append(a) or greedy(*a, **kw)
    )
    assert sgfi(frame, mod, fisher05, SgfiConfig(r=0.5, trials=20, iterations=4)).index > 0
    assert calls == []  # Fisher draws compositions
    det = sgfi(frame, mod, spec, SgfiConfig(r=0.0))
    assert det.index == gfi_greedy(frame, mod, spec).index
    assert len(calls) == 1  # one greedy search, no second reversibility check
    res = sgfi(frame, mod, spec, SgfiConfig(r=0.5, trials=20, iterations=4))
    assert res.index > 0
    assert len(calls) > 1 + 4 * 20  # a restricted search per trial
    one = frame_from_table(Table2x2(1, 1, 1, 1))
    assert sgfi(one, empirical_modifier(one, 0.0), spec).unbounded


# --- the almost-sure index (r = "1-") -------------------------------------------


def brute_worst_case(cells, alpha=ALPHA):
    """Min k with every k-subset reversible, scanning compositions (cases
    within a cell are interchangeable when every move is permitted)."""
    a, b, c, d = cells
    sig0 = scipy_p(*cells) < alpha

    def comp_reverses(ca, cb, cc, cd):
        for i in range(-ca, cb + 1):
            for j in range(-cc, cd + 1):
                if (i or j) and (
                    (scipy_p(a + i, b - i, c + j, d - j) < alpha) != sig0
                ):
                    return True
        return False

    n = a + b + c + d
    for k in range(1, n + 1):
        ok = True
        for ca in range(0, min(k, a) + 1):
            for cb in range(0, min(k - ca, b) + 1):
                for cc in range(0, min(k - ca - cb, c) + 1):
                    cd = k - ca - cb - cc
                    if cd <= d and not comp_reverses(ca, cb, cc, cd):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            return k
    return None


@pytest.mark.parametrize("cells", [(5, 1, 1, 5), (4, 3, 2, 5), (8, 1, 1, 8)])
def test_worst_case_exchangeable_matches_brute(cells, fisher05):
    frame = frame_from_table(Table2x2(*cells))
    mod = empirical_modifier(frame, 0.0)
    res = sgfi(frame, mod, fisher05, SgfiConfig(r="1-"))
    want = brute_worst_case(cells)
    assert abs(res.index) == want
    assert (res.index > 0) == res.initial_significant


def test_worst_case_survives_non_uniform_modifier(fisher05):
    # jittered per-case probabilities defeat the exchangeable fast path but
    # still permit every move, so the subset-enumeration branch must agree
    cells = (5, 1, 1, 5)
    frame = frame_from_table(Table2x2(*cells))
    mod = Modifier.from_model(
        frame,
        q=0.4,
        probability_model=lambda row, level: 0.6 + 0.001 * (row["case_id"] % 5),
    )
    assert not mod.cell_uniform
    res = sgfi(frame, mod, fisher05, SgfiConfig(r="1-"))
    assert res.index == -brute_worst_case(cells)


def test_worst_case_guard_refuses_large_frames(fisher05):
    frame = frame_from_table(Table2x2(5, 4, 4, 4))  # 17 cases
    mod = Modifier.from_model(
        frame,
        q=0.4,
        probability_model=lambda row, level: 0.6 + 0.001 * (row["case_id"] % 5),
    )
    with pytest.raises(InvalidParameterError, match="subset search"):
        sgfi(frame, mod, fisher05, SgfiConfig(r="1-"))


# --- configuration --------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [{"k": -1}, {"k": 1630}, {"trials": 0}, {"seed": -1}, {"threads": 0},
     {"seed": 0.5}, {"trials": 2.5}, {"trials": 10.0}, {"seed": True}, {"k": 2.5},
     {"threads": 1.0}],
)
def test_probability_reversal_validation(frame3, mod0, fisher05, kwargs):
    args = {"k": 5, "trials": 10, "seed": 0, "threads": 1, **kwargs}
    k = args.pop("k")
    with pytest.raises(InvalidParameterError):
        probability_reversal(k, frame3, mod0, fisher05, **args)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"r": 1.0},
        {"r": -0.1},
        {"r": "1"},
        {"trials": 0},
        {"iterations": 1},
        {"step_scale": 0.0},
        {"gamma": 0.5},
        {"gamma": 1.2},
        {"burn_in": 1.0},
        {"confirm_factor": 0},
        {"seed": -1},
        {"threads": 0},
        {"seed": 0.5},
        {"trials": 2.5},
        {"trials": 200.0},
        {"iterations": 10.5},
        {"confirm_factor": 2.0},
        {"confirm_factor": True},
        {"seed": False},
        {"threads": 1.0},
    ],
)
def test_sgfi_config_validation(kwargs):
    with pytest.raises(InvalidParameterError):
        SgfiConfig(**kwargs)


def test_knobs_accept_numpy_integers(frame3, mod0, fisher05):
    knobs = dict(trials=np.int64(10), iterations=np.int32(5), confirm_factor=np.uint8(2),
                 seed=np.uint64(7), threads=np.int16(1))
    assert SgfiConfig(**knobs).seed == 7
    est = probability_reversal(np.int64(5), frame3, mod0, fisher05, trials=np.int32(10),
                               seed=np.uint64(7), threads=np.int8(1))
    assert est == probability_reversal(5, frame3, mod0, fisher05, trials=10, seed=7)
