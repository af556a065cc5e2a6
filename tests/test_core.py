"""Exact and greedy fragility searches against brute-force oracles.

The exact 2x2 index and the reversal grid under it are checked against
full enumeration of net event shifts scored by scipy's Fisher test;
subset reversibility is checked the same way over composition-bounded
shifts.
"""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from conftest import (
    ALPHA,
    NEAR_SEPARATED,
    TABLE3,
    cold_wald_p,
    covariate_frame,
    random_covariate_frame,
    reversing_shifts,
    scipy_fisher_test,
    scipy_p,
)
from fragility import core, stats
from fragility._kernels import fisher_p, log_factorials, reversal_grid
from fragility.cases import (
    CaseFrame,
    ModificationPlan,
    Modifier,
    apply_plan,
    empirical_modifier,
    frame_from_table,
    table_from_frame,
)
from fragility._kernels import tie_rel
from fragility.core import (
    UNBOUNDED,
    FragilityResult,
    _select_candidate,
    _table_context,
    _TableReversal,
    fi_2x2_exact,
    gfi_greedy,
    is_unbounded,
    reversible,
    reversible_2x2_exact,
)
from fragility.errors import InvalidParameterError, UnconvergedFitError
from fragility.stats import Table2x2, is_significant, logistic_fit, logistic_wald_test, wald_p


def oracle_fi(a, b, c, d, alpha=ALPHA):
    """Signed fragility index by exhaustive shift enumeration.

    A shift (i, j) moves net i arm-1 nonevents to events (negative:
    events to nonevents) and likewise j in arm 2; cost is |i| + |j|.
    Returns None when no shift reverses the decision.
    """
    sig0 = scipy_p(a, b, c, d) < alpha
    best = None
    for i in range(-a, b + 1):
        for j in range(-c, d + 1):
            if i == 0 and j == 0:
                continue
            if (scipy_p(a + i, b - i, c + j, d - j) < alpha) == sig0:
                continue
            cost = abs(i) + abs(j)
            if best is None or cost < best:
                best = cost
    if best is None:
        return None
    return best if sig0 else -best


def oracle_comp_reversible(table, comp, alpha=ALPHA):
    """Any shift within the composition's per-cell budget that reverses?"""
    a, b, c, d = table
    ca, cb, cc, cd = comp
    sig0 = scipy_p(a, b, c, d) < alpha
    for i in range(-ca, cb + 1):
        for j in range(-cc, cd + 1):
            if i == 0 and j == 0:
                continue
            if (scipy_p(a + i, b - i, c + j, d - j) < alpha) != sig0:
                return True
    return False


def boundary_safe(a, b, c, d, alpha=ALPHA, margin=1e-7):
    """No p-value on the shift grid sits within `margin` of alpha, so the
    oracle's scipy p and the package's own evaluation cannot disagree on
    the decision."""
    for i in range(-a, b + 1):
        for j in range(-c, d + 1):
            if abs(scipy_p(a + i, b - i, c + j, d - j) - alpha) < margin:
                return False
    return True


# --- exact index ----------------------------------------------------------------


def test_fi_worked_table_positive(table3, fisher05):
    res = fi_2x2_exact(table3, fisher05)
    assert res.index == 6
    assert res.initial_significant
    assert res.p_before == pytest.approx(0.010489, abs=5e-7)
    assert res.p_after > ALPHA
    assert len(res.plan) == 6


def test_fi_motivating_table_negative(table2, fisher05, frame2):
    res = fi_2x2_exact(table2, fisher05)
    assert res.index == -7
    assert not res.initial_significant
    assert res.p_after < ALPHA
    # the realized plan lands on the documented reversing table
    moved = apply_plan(frame2, res.plan)
    assert table_from_frame(moved).as_tuple() == (20, 380, 8, 392)


def test_fi_unbounded_when_no_shift_reverses(fisher05):
    res = fi_2x2_exact(Table2x2(0, 1, 0, 1), fisher05)
    assert res.unbounded
    assert is_unbounded(res.index)
    assert len(res.plan) == 0
    assert res.p_after is None


def test_fi_keeps_the_mirror_tie_on_a_large_table(fisher05):
    # equal arms make the mirror table tie the observed one exactly, 1.8e-12
    # apart in log-pmf; without it in the tail p reads 0.0472 and the sign +
    res = fi_2x2_exact(Table2x2(490, 1510, 545, 1455), fisher05)
    assert res.p_before == pytest.approx(scipy_p(490, 1510, 545, 1455), rel=1e-9)
    assert not res.initial_significant
    assert res.index == -1


def test_gfi_greedy_breaks_a_mirror_tie_by_case_id(fisher05):
    # (7, 3, 2, 8) and (8, 2, 3, 7) have one exact p but round an ulp or
    # two apart; the tie goes to the lowest case id: case 0, in arm 1
    frame = frame_from_table(Table2x2(8, 2, 2, 8))
    res = gfi_greedy(frame, empirical_modifier(frame, 0.0), fisher05)
    assert res.index == 1
    assert res.plan.entries == ((0, frame.outcome_levels[1]),)
    ps = np.array([0.5 * (1 + 1e-14), 0.5, 0.49, math.nan])
    ids = np.array([7, 3, 1, 0])
    ranks = np.zeros(4, dtype=np.int64)
    assert ids[_select_candidate(ps, ids, ranks, True, 1e-12)] == 3  # within the window
    assert ids[_select_candidate(ps, ids, ranks, True, 0.0)] == 7  # zero tolerance
    assert ids[_select_candidate(ps, ids, ranks, False, 1e-12)] == 1  # NaN skipped
    assert _select_candidate(ps[3:], ids[3:], ranks[3:], True, 1e-12) is None
    # one case's tied changes go to the smallest label rank
    same = np.array([0.5, 0.5, 0.5])
    assert _select_candidate(same, np.array([4, 2, 2]), np.array([0, 2, 1]), True, 0.0) == 2


@pytest.mark.parametrize("row, want", [(0, "x"), (1, "y")])
def test_gfi_greedy_breaks_a_label_tie_by_label(row, want):
    """Levels appear as ("z", "x", "y"). Only case `row` may change, and
    its two changes give the same p, so the smaller label wins: "x" over
    "y" from "z", and "y" over "z" from "x", though "z" has the smaller
    level code. Flip evaluators serve binary outcomes only, where a case
    has a single candidate change, so only the per-case path meets this
    tie."""
    frame = CaseFrame.from_columns(["a", "a", "b"], ["z", "x", "y"])
    assert frame.outcome_levels == ("z", "x", "y")
    code = frame.outcome_codes[row]

    def p_value(f):
        return 0.01 if f.outcome_codes[row] == code else 0.5

    spec = stats.TestSpec("row_moved", 0.05, p_value)
    mod = Modifier.from_model(frame, 0.5, lambda r, level: float(r["case_id"] == row))
    res = gfi_greedy(frame, mod, spec)
    assert res.index == 1
    assert res.plan.entries == ((row, want),)


@settings(max_examples=25, deadline=None)
@given(
    a=hst.integers(0, 10),
    b=hst.integers(0, 10),
    c=hst.integers(0, 10),
    d=hst.integers(0, 10),
)
# no events at all: the plan names the 'event' level, which the frame must have
@example(a=0, b=2, c=0, d=5)
def test_fi_matches_shift_enumeration(a, b, c, d, fisher05):
    assume(a + b > 0 and c + d > 0)
    assume(boundary_safe(a, b, c, d))
    want = oracle_fi(a, b, c, d)
    res = fi_2x2_exact(Table2x2(a, b, c, d), fisher05)
    if want is None:
        assert res.unbounded
    else:
        assert res.index == want
        # and the plan really does reverse the decision
        frame = frame_from_table(Table2x2(a, b, c, d))
        after = table_from_frame(apply_plan(frame, res.plan)).as_tuple()
        assert (scipy_p(*after) < ALPHA) != res.initial_significant


def full_grid_min_cost(cells, alpha, perms):
    """Cheapest permitted reversing shift over the whole lattice, ties to
    the smallest i, then j; None when no shift reverses."""
    a, b, c, d = cells
    pa, pb, pc, pd = perms
    gi_lo, gj_lo = -a if pa else 0, -c if pc else 0
    lf = log_factorials(a + b + c + d)
    sig0 = fisher_p(lf, a, b, c, d) < alpha
    grid = reversal_grid(
        lf, a, b, c, d, alpha, int(sig0), gi_lo, b if pb else 0, gj_lo, d if pd else 0
    )
    hits = sorted(
        (abs(x + gi_lo) + abs(y + gj_lo), x + gi_lo, y + gj_lo)
        for x, y in np.argwhere(grid == 1)
    )
    if not hits:
        return None
    cost, i, j = hits[0]
    return int(cost), (int(i), int(j))


@settings(max_examples=60, deadline=None)
@given(
    cells=hst.tuples(*[hst.integers(0, 12)] * 4),
    alpha=hst.sampled_from([0.05, 1e-3, 1e-4, 1e-5]),
    perms=hst.tuples(*[hst.booleans()] * 4),
)
# the whole lattice fits the 8-shift window, but the cheapest reversal
# costs 13 (and 10): more than the window's K
@example(cells=(8, 8, 8, 8), alpha=1e-5, perms=(True,) * 4)
@example(cells=(4, 8, 4, 8), alpha=1e-4, perms=(True,) * 4)
def test_min_cost_matches_full_grid(cells, alpha, perms):
    assume(sum(cells) > 0)
    ctx = _TableReversal(Table2x2(*cells), alpha, perms=perms)
    assert ctx.min_cost() == full_grid_min_cost(cells, alpha, perms)


def test_min_cost_is_computed_once(table3, fisher05):
    ctx = _TableReversal(table3, fisher05.alpha)
    first = ctx.min_cost()
    assert first == (6, (-6, 0))
    assert ctx.min_cost() is first


# --- reversal grid --------------------------------------------------------------


def check_grid_against_scipy(cells, kmax):
    """The kernel grid over every shift of at most kmax per direction marks
    exactly the shifts that reverse scipy's Fisher decision."""
    a, b, c, d = cells
    gi_lo, gi_hi = -min(kmax, a), min(kmax, b)
    gj_lo, gj_hi = -min(kmax, c), min(kmax, d)
    sig0 = scipy_p(*cells) < ALPHA
    grid = reversal_grid(
        log_factorials(a + b + c + d), a, b, c, d, ALPHA, int(sig0),
        gi_lo, gi_hi, gj_lo, gj_hi,
    )
    assert grid.shape == (gi_hi - gi_lo + 1, gj_hi - gj_lo + 1)
    assert set(np.unique(grid)) <= {0, 1}
    marked = {(int(x) + gi_lo, int(y) + gj_lo) for x, y in np.argwhere(grid == 1)}
    assert marked == set(reversing_shifts(cells, kmax))


@settings(max_examples=25, deadline=None)
@given(
    a=hst.integers(0, 12),
    b=hst.integers(0, 12),
    c=hst.integers(0, 12),
    d=hst.integers(0, 12),
)
@example(a=0, b=2, c=0, d=5)
def test_reversal_grid_matches_scipy(a, b, c, d):
    assume(boundary_safe(a, b, c, d))
    check_grid_against_scipy((a, b, c, d), max(a, b, c, d))


def test_reversal_grid_worked_window():
    # the 61x61 window of shifts up to 30 each way around the worked table
    check_grid_against_scipy(TABLE3, 30)


@settings(max_examples=60, deadline=None)
@given(
    cells=hst.tuples(*[hst.integers(0, 30)] * 4),
    alpha=hst.sampled_from([0.01, 0.05, 0.2]),
)
def test_reversals_on_a_diagonal_form_one_interval_or_two_tails(cells, alpha):
    # a shift keeps both arm sizes, so the shifts on one diagonal i + j = s
    # share every margin and differ only in x = a + i. The Fisher p grows
    # with the pmf of x, which is unimodal, so the non-significant x form
    # one interval: the reversing shifts of a significant table, or the
    # gap between the two tails of reversing shifts of one that is not
    assume(sum(cells) > 0)
    a, b, c, d = cells
    lf = log_factorials(a + b + c + d)
    sig0 = fisher_p(lf, a, b, c, d) < alpha
    grid = reversal_grid(lf, a, b, c, d, alpha, int(sig0), -a, b, -c, d)
    # grid[a + i, c + j]; reversing the columns turns each diagonal i + j = s
    # into a diagonal of the array, ordered by i
    flipped = grid[:, ::-1]
    for offset in range(1 - grid.shape[0], grid.shape[1]):
        line = np.diagonal(flipped, offset)
        inner = np.flatnonzero(line if sig0 else 1 - line)
        assert inner.size == 0 or inner[-1] - inner[0] + 1 == inner.size


# --- greedy generalized index ---------------------------------------------------


def test_gfi_q0_reduces_to_exact_index(frame3, frame2, fisher05):
    for frame, want in ((frame3, 6), (frame2, -7)):
        mod = empirical_modifier(frame, 0.0)
        res = gfi_greedy(frame, mod, fisher05)
        assert res.index == want
        assert fi_2x2_exact(table_from_frame(frame), fisher05).index == want


def test_gfi_tie_breaks_to_lowest_case_id(fisher05):
    # fully symmetric table: every single-case move yields the same
    # two-sided p, so the tie-break alone decides
    frame = frame_from_table(Table2x2(2, 2, 2, 2))
    mod = empirical_modifier(frame, 0.0)
    res = gfi_greedy(frame, mod, fisher05)
    assert res.plan.entries[0] == (0, "nonevent")


def test_gfi_is_deterministic(frame3, fisher05):
    mod = empirical_modifier(frame3, 0.0)
    first = gfi_greedy(frame3, mod, fisher05)
    second = gfi_greedy(frame3, mod, fisher05)
    assert first == second
    # ids within the chosen cell are consumed in increasing order
    ids = [cid for cid, _ in first.plan.entries]
    assert ids == sorted(ids)


def test_gfi_greedy_table_step_scores_each_moved_table_once(fisher05, monkeypatch):
    # a table step scores at most four moved tables in one batch, and the
    # chosen table's batch p is the step's p: nothing scores it again
    calls = []
    fisher_p = stats.fisher_p
    monkeypatch.setattr(stats, "fisher_p", lambda *a: calls.append(a) or fisher_p(*a))
    frame = frame_from_table(Table2x2(1000, 9000, 1200, 8800))
    res = gfi_greedy(frame, empirical_modifier(frame, 0.0), fisher05)
    assert res.index == 111
    # the arm-1 non-events 1000..1110 become events, in id order
    assert res.plan.entries == tuple((cid, "event") for cid in range(1000, 1111))
    assert len(calls) <= 4 * res.index + 1
    assert res.p_after == stats.fisher_exact_two_sided(Table2x2(1111, 8889, 1200, 8800))


def test_gfi_respects_restriction(frame3, fisher05):
    mod = empirical_modifier(frame3, 0.0)
    res = gfi_greedy(frame3, mod, fisher05, restriction=range(3))
    assert res.unbounded  # three arm-1 events cannot undo p = 0.0105
    res6 = gfi_greedy(frame3, mod, fisher05, restriction=range(6))
    assert res6.index == 6


def test_gfi_rejects_foreign_modifier(frame3, frame2, fisher05):
    mod = empirical_modifier(frame2, 0.0)
    with pytest.raises(InvalidParameterError):
        gfi_greedy(frame3, mod, fisher05)
    # the exact path checks the modifier against the frame's table
    with pytest.raises(InvalidParameterError, match="different table"):
        reversible(frame3, mod, fisher05)


def cold_greedy(frame, modifier, restriction=None):
    """The greedy logistic search ranked by a cold fit of every candidate
    flip: the largest p when significant, else the smallest, ties to the
    lowest case id; unusable fits are skipped. Returns (index, entries),
    or "unconverged" where the search cannot go on."""
    X = np.column_stack([np.ones(frame.n), frame.arm_codes, frame.covariates["x"]])
    y = frame.outcome_codes.astype(np.float64)
    try:
        sig0 = wald_p(logistic_fit(X, y), 1) < ALPHA
    except UnconvergedFitError:
        return "unconverged"
    ok = np.ones(frame.n, dtype=bool)
    if restriction is not None:
        ok[:] = False
        ok[list(restriction)] = True
    ok &= modifier.permitted_matrix()[np.arange(frame.n), 1 - frame.outcome_codes]
    entries = []
    for step in range(1, frame.n + 1):
        cands = []
        for r in np.flatnonzero(ok):
            y2 = y.copy()
            y2[r] = 1.0 - y2[r]
            cands.append((cold_wald_p(X, y2), int(frame.case_ids[r]), r))
        usable = [(-p if sig0 else p, cid, r) for p, cid, r in cands if not np.isnan(p)]
        if not usable:
            return "unconverged" if cands else (UNBOUNDED, ())
        _, cid, r = min(usable)
        y[r] = 1.0 - y[r]
        ok[r] = False
        entries.append((cid, frame.outcome_levels[int(y[r])]))
        try:
            if (wald_p(logistic_fit(X, y), 1) < ALPHA) != sig0:
                return (step if sig0 else -step), tuple(entries)
        except UnconvergedFitError:
            return "unconverged"
    return UNBOUNDED, ()


@pytest.mark.parametrize("seed", [None, *range(12)])
@pytest.mark.parametrize("case", ["all", "restricted", "q"])
def test_logistic_gfi_matches_cold_fit_ranking(seed, case):
    """The batched single-flip refits pick the plan a cold fit of every
    candidate would, with no restriction, under a restriction to every
    other case, and at q = 0.3. seed None is NEAR_SEPARATED."""
    if seed is None:
        frame = covariate_frame(**NEAR_SEPARATED)
    else:
        frame = random_covariate_frame(seed, 12, 40)
    modifier = empirical_modifier(frame, 0.3 if case == "q" else 0.0)
    restriction = range(0, frame.n, 2) if case == "restricted" else None
    want = cold_greedy(frame, modifier, restriction)
    try:
        res = gfi_greedy(frame, modifier, logistic_wald_test(("x",)), restriction)
        got = (res.index, res.plan.entries)
    except UnconvergedFitError:
        got = "unconverged"
    assert got == want


# seeds from 9 on are frames where one candidate's cold fit separates
@pytest.mark.parametrize("seed", [0, 1, 9, 23, 27, 30, 34, 35, 37])
def test_generic_greedy_branch_matches_batched(seed):
    """A test without make_fast_eval scores each candidate by p_value; a
    candidate whose fit does not converge is skipped, as the batched
    branch skips it, so both branches give the same result."""
    frame = random_covariate_frame(seed, 10, 60)
    modifier = empirical_modifier(frame, 0.0)
    batched = logistic_wald_test(("x",))
    generic = dataclasses.replace(batched, make_fast_eval=None)
    assert gfi_greedy(frame, modifier, generic) == gfi_greedy(frame, modifier, batched)


@pytest.mark.parametrize("seed", [2, 9, 15])
def test_logistic_gfi_ties_identical_cases_to_lowest_id(seed):
    """Every case appears twice (ids i and i + 20) with the same arm,
    covariate and outcome; a twin's flip is never taken before the
    lower-id twin's."""
    rng = np.random.default_rng(seed)
    arm = rng.integers(0, 2, 20)
    x = np.round(rng.normal(size=20), 3)
    y = (rng.uniform(size=20) < 1 / (1 + np.exp(1 - 1.5 * arm - 0.8 * x))).astype(int)
    frame = covariate_frame(np.tile(arm, 2), np.tile(y, 2), np.tile(x, 2))
    res = gfi_greedy(frame, empirical_modifier(frame, 0.0), logistic_wald_test(("x",)))
    ids = res.plan.case_ids
    assert ids
    for pos, cid in enumerate(ids):
        assert cid < 20 or cid - 20 in ids[:pos]


@settings(max_examples=20, deadline=None)
@given(
    a=hst.integers(0, 8),
    b=hst.integers(0, 8),
    c=hst.integers(0, 8),
    d=hst.integers(0, 8),
)
def test_greedy_never_beats_exact(a, b, c, d, fisher05):
    assume(a + b > 0 and c + d > 0)
    assume(boundary_safe(a, b, c, d))
    table = Table2x2(a, b, c, d)
    frame = frame_from_table(table)
    mod = empirical_modifier(frame, 0.0)
    exact = fi_2x2_exact(table, fisher05)
    greedy = gfi_greedy(frame, mod, fisher05)
    if greedy.unbounded:
        # the greedy path modifies every case once; if even that never
        # flips the decision, no net shift can
        assert exact.unbounded
    else:
        assert not exact.unbounded
        assert abs(greedy.index) >= abs(exact.index)
        assert (greedy.index > 0) == (exact.index > 0)


def tuple_select(cands, sig0, tie):
    """The step's tie rule over (p, case id, label, ...) tuples, kept apart
    from the library's array form: the best p, then every p within a
    relative `tie` of it, lowest case id, smallest label; NaN skipped."""
    usable = [c for c in cands if not math.isnan(c[0])]
    if not usable:
        return None
    best = max(c[0] for c in usable) if sig0 else min(c[0] for c in usable)
    return min((c for c in usable if abs(c[0] - best) <= tie * best), key=lambda c: c[1:3])


def per_case_greedy(frame, modifier, test, restriction=None):
    """The table-test greedy search with one candidate per available case,
    each scored by the p of its moved table."""
    y = np.array(frame.outcome_codes)
    p0 = test.p_value(frame)
    sig0 = is_significant(p0, test.alpha)
    available = modifier.permitted_matrix()
    if restriction is not None:
        available &= np.isin(frame.case_ids, list(restriction))[:, None]
    t = list(table_from_frame(frame).as_tuple())
    entries = []
    for step in range(1, frame.n + 1):
        cands = []
        for r in range(frame.n):
            m = 1 - y[r]
            if available[r, m]:
                cell = frame.arm_codes[r] * 2 + y[r]
                moved = list(t)
                moved[cell] -= 1
                moved[cell ^ 1] += 1
                cands.append((test.table_p(*moved), int(frame.case_ids[r]),
                              frame.outcome_levels[m], r, m))
        best = tuple_select(cands, sig0, tie_rel(frame.n))
        if best is None:
            break
        p_new, cid, label, r, m = best
        cell = frame.arm_codes[r] * 2 + y[r]
        t[cell] -= 1
        t[cell ^ 1] += 1
        y[r] = m
        available[r, :] = False
        entries.append((cid, label))
        if is_significant(p_new, test.alpha) != sig0:
            index = step if sig0 else -step
            return FragilityResult(index, ModificationPlan(tuple(entries)), sig0, p0, p_new)
    return FragilityResult(UNBOUNDED, ModificationPlan(()), sig0, p0, None)


@settings(max_examples=60, deadline=None)
@given(
    cells=hst.tuples(*[hst.integers(0, 30)] * 4),
    q=hst.sampled_from([0.0, 0.25, 0.45]),
    order=hst.sampled_from(["rows", "reversed", "shuffled"]),
    restriction=hst.none() | hst.frozensets(hst.integers(0, 119)),
)
@example(cells=(2, 2, 2, 2), q=0.0, order="reversed", restriction=None)
@example(cells=(5, 0, 3, 7), q=0.25, order="shuffled", restriction=frozenset(range(0, 15, 2)))
def test_gfi_greedy_scores_cells_like_cases(cells, q, order, restriction, fisher05):
    # case ids out of row order: within a cell the lowest id, not the first
    # row, must be modified first
    assume(sum(cells) > 0)
    frame = frame_from_table(Table2x2(*cells))
    if order == "reversed":
        frame = dataclasses.replace(frame, case_ids=frame.case_ids[::-1].copy())
    elif order == "shuffled":
        ids = np.random.default_rng(sum(cells)).permutation(frame.n)
        frame = dataclasses.replace(frame, case_ids=ids)
    if restriction is not None:
        restriction = sorted(i for i in restriction if i < frame.n)
    mod = empirical_modifier(frame, q)
    got = gfi_greedy(frame, mod, fisher05, restriction)
    assert got == per_case_greedy(frame, mod, fisher05, restriction)
    # without table_p every change is scored by p_value of its frame
    per_case = dataclasses.replace(fisher05, table_p=None)
    assert gfi_greedy(frame, mod, per_case, restriction) == got


# --- subset reversibility -------------------------------------------------------


def test_composition_examples(table3, frame3, fisher05):
    mod = empirical_modifier(frame3, 0.0)
    assert reversible_2x2_exact(table3, (6, 0, 0, 0), mod, fisher05)
    assert not reversible_2x2_exact(table3, (5, 0, 0, 0), mod, fisher05)


def test_composition_respects_permission_mask(table3, frame3, fisher05):
    # at q = 0.5 only event -> nonevent moves are permitted (within-arm
    # nonevent rates 326/428 and 985/1201 clear the bar; event rates do
    # not), so a subset of arm-1 nonevents has no legal move at all
    mod = empirical_modifier(frame3, 0.5)
    assert reversible_2x2_exact(table3, (6, 0, 0, 0), mod, fisher05)
    assert not reversible_2x2_exact(table3, (0, 20, 0, 0), mod, fisher05)


@settings(max_examples=30, deadline=None)
@given(data=hst.data())
def test_composition_matches_shift_enumeration(data, fisher05):
    cells = (4, 3, 2, 5)
    comp = tuple(data.draw(hst.integers(0, cells[k])) for k in range(4))
    table = Table2x2(*cells)
    frame = frame_from_table(table)
    mod = empirical_modifier(frame, 0.0)
    got = reversible_2x2_exact(table, comp, mod, fisher05)
    assert got == oracle_comp_reversible(cells, comp)


def oracle_cell_perms(cells, q):
    """Each cell's members may flip when the within-arm rate of the outcome
    they would take is at least q."""
    a, b, c, d = cells
    arm1, arm2 = max(a + b, 1), max(c + d, 1)
    return (b / arm1 >= q, a / arm1 >= q, d / arm2 >= q, c / arm2 >= q)


# three cells up to 5 and one of 9 to 14 in any position: the larger cell
# reaches past the cold 8-shift window, so lookups clip and may grow it
LOOKUP_CELLS = hst.tuples(
    hst.tuples(*[hst.integers(0, 5)] * 3), hst.integers(9, 14), hst.integers(0, 3)
).map(lambda t: t[0][: t[2]] + (t[1],) + t[0][t[2] :])


@settings(max_examples=40, deadline=None)
@given(cells=LOOKUP_CELLS, q=hst.sampled_from([0.0, 0.15, 0.45]))
@example(cells=(4, 3, 2, 5), q=0.0)
@example(cells=(4, 3, 2, 5), q=0.45)  # masks cells a and d
# 12 compositions miss in the cold 8-shift window and reverse only beyond it
@example(cells=(1, 1, 3, 10), q=0.0)
# masks cell b and grows the window for cell d
@example(cells=(0, 2, 3, 12), q=0.15)
def test_batched_lookup_matches_shift_enumeration(cells, q, fisher05, evict_contexts):
    # q = 0.15 = 3/20 and q = 0.45 = 9/20 sit on no within-arm rate of
    # these tables, since no arm holds 20 cases
    assume(sum(cells) > 0 and boundary_safe(*cells))
    table = Table2x2(*cells)
    mod = empirical_modifier(frame_from_table(table), q)
    evict_contexts(cells)
    ctx = _table_context(table, fisher05, mod)
    comps = np.array(list(itertools.product(*(range(n + 1) for n in cells))))
    got = ctx.comps_reversible(comps)
    perms = oracle_cell_perms(cells, q)
    want = [
        oracle_comp_reversible(cells, tuple(k if p else 0 for k, p in zip(comp, perms)))
        for comp in comps
    ]
    assert got.tolist() == want


def test_reversible_monotone_in_restriction(frame3, fisher05):
    # ids 0..k-1 are arm-1 events; the composition (k, 0, 0, 0) first
    # admits a reversal at k = 6 and staying reversible afterwards
    mod = empirical_modifier(frame3, 0.0)
    flags = [reversible(frame3, mod, fisher05, range(k)) for k in (3, 5, 6, 8, 20)]
    assert flags == [False, False, True, True, True]
    for earlier, later in zip(flags, flags[1:]):
        assert later or not earlier


def test_reversible_full_frame(frame3, fisher05):
    mod = empirical_modifier(frame3, 0.0)
    assert reversible(frame3, mod, fisher05)


def test_reversible_full_frame_needs_only_a_small_window(
    table3, frame3, fisher05, evict_contexts
):
    # a reversal within reach of the cold window decides the whole table,
    # so no q builds the 429 x 1202 full grid
    evict_contexts(TABLE3)
    for q in (0.0, 0.2, 0.5):
        mod = empirical_modifier(frame3, q)
        assert reversible(frame3, mod, fisher05)
        ctx = _table_context(table3, fisher05, mod)
        assert ctx._grid.shape[0] <= 33 and ctx._grid.shape[1] <= 33


def test_reversible_doubles_the_window_past_a_cold_miss(fisher05, evict_contexts):
    # every reversal lies beyond the cold 8-shift window; one doubling
    # reaches one, so the 501 x 501 full grid is never built
    cells = (10, 490, 45, 455)
    evict_contexts(cells)
    frame = frame_from_table(Table2x2(*cells))
    mod = empirical_modifier(frame, 0.0)
    assert reversible(frame, mod, fisher05)
    ctx = _table_context(Table2x2(*cells), fisher05, mod)
    assert ctx._grid.shape == (27, 33)


def test_reversible_falls_back_without_exchangeability(fisher05):
    # per-case probabilities break cell uniformity, forcing the greedy path
    frame = frame_from_table(Table2x2(8, 2, 2, 8))
    mod = Modifier.from_model(
        frame, q=0.0, probability_model=lambda row, level: 0.4 + 0.01 * (row["case_id"] % 7)
    )
    assert not mod.cell_uniform
    assert reversible(frame, mod, fisher05) == (
        not gfi_greedy(frame, mod, fisher05).unbounded
    )


def test_custom_table_test_is_refused_exactly_and_searched_greedily(
    fisher05, monkeypatch
):
    # the exact 2x2 machinery is Fisher-only: a custom table_p, even one
    # that decides alike, gets an error from fi_2x2_exact and the greedy
    # search from reversible
    spec = scipy_fisher_test()
    table = Table2x2(8, 2, 2, 8)
    with pytest.raises(InvalidParameterError, match="Fisher"):
        fi_2x2_exact(table, spec)
    frame = frame_from_table(table)
    mod = empirical_modifier(frame, 0.0)
    with pytest.raises(InvalidParameterError, match="Fisher"):
        reversible_2x2_exact(table, (1, 1, 1, 1), mod, spec)
    calls = []
    greedy = core.gfi_greedy
    monkeypatch.setattr(core, "gfi_greedy", lambda *a, **kw: calls.append(a) or greedy(*a, **kw))
    assert reversible(frame, mod, fisher05)
    assert calls == []  # Fisher is answered exactly
    assert reversible(frame, mod, spec)
    assert len(calls) == 1
    one = [0]
    assert reversible(frame, mod, spec, one) == reversible(frame, mod, fisher05, one)
    assert len(calls) == 2


def test_reversible_2x2_exact_validation(table3, frame3, table2, frame2, fisher05):
    mod = empirical_modifier(frame3, 0.0)
    with pytest.raises(InvalidParameterError):
        reversible_2x2_exact(table3, (1, 2, 3), mod, fisher05)
    with pytest.raises(InvalidParameterError):
        reversible_2x2_exact(table3, (-1, 0, 0, 0), mod, fisher05)
    with pytest.raises(InvalidParameterError):
        reversible_2x2_exact(table3, (103, 0, 0, 0), mod, fisher05)
    with pytest.raises(InvalidParameterError):
        reversible_2x2_exact(table2, (1, 0, 0, 0), mod, fisher05)


# --- result invariants ----------------------------------------------------------


def test_unbounded_is_singleton():
    assert pickle.loads(pickle.dumps(UNBOUNDED)) is UNBOUNDED
    assert repr(UNBOUNDED) == "UNBOUNDED"
    assert is_unbounded(UNBOUNDED)
    assert not is_unbounded(3)


def test_result_invariants_enforced():
    plan1 = ModificationPlan(((0, "event"),))
    with pytest.raises(InvalidParameterError):
        FragilityResult(UNBOUNDED, plan1, True, 0.01, None)
    with pytest.raises(InvalidParameterError):
        FragilityResult(0, ModificationPlan(()), True, 0.01, 0.2)
    with pytest.raises(InvalidParameterError):
        FragilityResult(-1, plan1, True, 0.01, 0.2)  # sign contradicts sig0
    with pytest.raises(InvalidParameterError):
        FragilityResult(2, plan1, True, 0.01, 0.2)  # |index| != len(plan)
    ok = FragilityResult(UNBOUNDED, ModificationPlan(()), True, 0.01, None)
    assert ok.unbounded
