"""Fragility searches: the exact signed index for 2x2 tables, the greedy
generalized index over permitted case-level modifications, and exact subset
reversibility for exchangeable tables.

Sign convention: a finite index is positive when the original decision was
significant (modifications destroy significance) and negative when it was
not (modifications create it). UNBOUNDED marks decisions no permitted set
of modifications can reverse.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from ._kernels import comp_prob, fisher_p, prefix_sums, rect_counts, reversal_grid, tie_rel
from .cases import CaseFrame, ModificationPlan, Modifier, table_from_frame
from .errors import InvalidParameterError, UnconvergedFitError
from .stats import (
    Table2x2, TestSpec, _fisher_table_p, _lf_cache, _TableFlipEval, is_significant,
)

__all__ = [
    "UNBOUNDED",
    "is_unbounded",
    "FragilityResult",
    "fi_2x2_exact",
    "gfi_greedy",
    "reversible",
    "reversible_2x2_exact",
]


class _Unbounded:
    """Singleton sentinel: no permitted modification set reverses the decision."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"

    def __reduce__(self):
        return (_Unbounded, ())


UNBOUNDED = _Unbounded()

Index = Union[int, _Unbounded]


def is_unbounded(index: Index) -> bool:
    return isinstance(index, _Unbounded)


@dataclass(frozen=True)
class FragilityResult:
    """Outcome of a fragility search.

    index is the signed count of outcome modifications (UNBOUNDED when no
    reversal exists); plan realizes one minimizing (or greedy) reversal.
    """

    index: Index
    plan: ModificationPlan
    initial_significant: bool
    p_before: float
    p_after: Optional[float]

    def __post_init__(self):
        if is_unbounded(self.index):
            if len(self.plan) != 0 or self.p_after is not None:
                raise InvalidParameterError("unbounded result cannot carry a plan")
            return
        if self.index == 0:
            raise InvalidParameterError("a finite index is never zero")
        if (self.index > 0) != self.initial_significant:
            raise InvalidParameterError("index sign must reflect the initial decision")
        if len(self.plan) != abs(self.index):
            raise InvalidParameterError("plan length must equal |index|")

    @property
    def unbounded(self) -> bool:
        return is_unbounded(self.index)


# ----------------------------------------------------------------------
# exchangeable-table machinery
# ----------------------------------------------------------------------


_UNSET = object()  # min_cost not computed yet


class _TableReversal:
    """Exact reversal questions about a 2x2 table whose cases are
    exchangeable within each cell, decided by Fisher's exact test at alpha.

    A permitted flip of a member of cell a, b, c or d moves the shift
    (i, j) -- events gained in arm 1 and in arm 2 -- by one: down or up in
    i for cells a and b, in j for cells c and d. The class answers:

    * comps_reversible, comp_reversible: can a subset with composition
      (k1, k2, k3, k4) reverse the decision? Exactly when its rectangle
      -k1 <= i <= k2, -k3 <= j <= k4, with unpermitted cells at 0, holds
      a reversing shift;
    * prob_reversal(k): P[E_k], the probability that a uniform k-subset
      can;
    * min_cost: the cheapest reversing shift, computed once;
    * worst_case: the size of the largest composition that cannot.

    Behind them is a grid of the reversing shifts with 2D prefix sums, so
    a rectangle is one O(1) lookup. It covers a window of at most K shifts
    per direction, which starts at 8 and doubles only when an answer needs
    it: a composition whose clipped rectangle misses while its extent
    exceeds K, a min_cost whose best hit costs more than K, or
    prob_reversal(k) with k > K. worst_case and min_cost(whole=True) take
    the whole lattice. Doubling keeps the total grid work below twice the
    final grid.
    """

    def __init__(
        self,
        table: Table2x2,
        alpha: float,
        perms: tuple[bool, bool, bool, bool] = (True, True, True, True),
    ):
        self.table = table
        self.alpha = float(alpha)
        pa, pb, pc, pd = (bool(x) for x in perms)
        # a composition (k1, k2, k3, k4) spans sign * (k1, k2, k3, k4) =
        # (i_lo, i_hi, j_lo, j_hi); the whole table spans the lattice
        self._sign = np.array([-pa, pb, -pc, pd])
        self._lattice = self._sign * table.as_tuple()
        self._max_cell = max(table.as_tuple())
        self.lf = _lf_cache(table.n)
        self.p0 = self.p_of_shift(0, 0)
        self.sig0 = self.p0 < self.alpha
        self._K = -1  # no window yet
        self._min_cost = _UNSET

    def p_of_shift(self, i: int, j: int) -> float:
        t = self.table
        return float(fisher_p(self.lf, t.a + i, t.b - i, t.c + j, t.d - j))

    def _ensure(self, K: int) -> None:
        """Make the window cover all shifts reachable by K flips per direction."""
        if K <= self._K:
            return
        t = self.table
        K = min(max(K, 8), t.n)
        if self._K >= 0:
            K = min(max(K, 2 * self._K), t.n)
        gi_lo, gi_hi, gj_lo, gj_hi = np.clip(self._lattice, -K, K).tolist()
        self._grid = reversal_grid(
            self.lf, t.a, t.b, t.c, t.d, self.alpha,
            1 if self.sig0 else 0, gi_lo, gi_hi, gj_lo, gj_hi,
        )
        self._prefix = prefix_sums(self._grid)
        self._win_lo = np.array([gi_lo, gi_lo, gj_lo, gj_lo])
        self._win_hi = np.array([gi_hi, gi_hi, gj_hi, gj_hi])
        self._K = K

    def comps_reversible(self, comps) -> np.ndarray:
        """Row by row over an (m, 4) array of cell compositions: can a
        subset with that composition reverse the decision, flipping each
        member at most once and only in permitted directions?

        Each row's rectangle is looked up clipped to the current window. A
        hit there is a hit in the full rectangle; a miss is final once the
        row's largest permitted extent is at most K, since the rectangle
        then lies inside the window. While some miss is not final, the
        window doubles and the rows are looked up again."""
        ext = np.asarray(comps, dtype=np.int64) * self._sign
        self._ensure(0)  # a cold context starts from the smallest window
        out = self._window_hits(ext)
        # past the largest cell the window spans the whole permitted lattice
        while self._K < self._max_cell and np.abs(ext[~out]).max(initial=0) > self._K:
            self._ensure(self._K + 1)  # doubles the window
            out = self._window_hits(ext)
        return out

    def _window_hits(self, ext: np.ndarray) -> np.ndarray:
        """Reversals in each signed-extent rectangle clipped to the window."""
        ext = np.minimum(np.maximum(ext, self._win_lo), self._win_hi)
        box = ext - self._win_lo
        return rect_counts(self._prefix, box[:, 0], box[:, 1], box[:, 2], box[:, 3]) > 0

    def comp_reversible(self, comp) -> bool:
        """comps_reversible for one composition."""
        return bool(self.comps_reversible([comp])[0])

    def prob_reversal(self, k: int) -> float:
        """Exact P[a uniform k-subset admits a permitted reversal]."""
        t = self.table
        self._ensure(k)
        return float(
            comp_prob(
                self.lf, self._prefix, t.a, t.b, t.c, t.d, k,
                self._sign, self._win_lo[0], self._win_lo[2],
            )
        )

    def min_cost(self, whole: bool = False) -> Optional[tuple[int, tuple[int, int]]]:
        """Minimum |i|+|j| over permitted reversing shifts, with the
        realizing shift (ties: smallest i, then smallest j); None if the
        whole permitted lattice contains no reversal. Computed once;
        whole=True builds the grid over the whole lattice first."""
        if whole:
            self._ensure(self._max_cell)
        if self._min_cost is _UNSET:
            self._min_cost = self._find_min_cost()
        return self._min_cost

    def _find_min_cost(self) -> Optional[tuple[int, tuple[int, int]]]:
        K = 8
        while True:
            self._ensure(K)
            K = self._K
            whole = K >= self._max_cell
            hit = np.argwhere(self._grid == 1)
            if hit.size:
                i = hit[:, 0] + self._win_lo[0]
                j = hit[:, 1] + self._win_lo[2]
                cost = np.abs(i) + np.abs(j)
                best = int(cost.min())
                # a cheaper reversal would lie inside the window, and a
                # window over the whole lattice holds every reversal
                if best <= K or whole:
                    # argwhere is row-major, so the first minimal-cost hit
                    # already has the smallest (i, j)
                    at = int(np.argmax(cost == best))
                    return best, (int(i[at]), int(j[at]))
            if whole:
                return None
            K *= 2

    def worst_case(self) -> int:
        """Size of the largest composition that cannot reverse the
        decision, by scanning rectangle extents over the whole lattice."""
        self._ensure(self._max_cell)
        A, B, C, D = np.abs(self._lattice).tolist()
        # members of permission-less cells enlarge a subset without
        # enlarging its rectangle
        base = self.table.n - (A + B + C + D)
        # the window is the lattice, so shift (i, j) sits at row A + i and
        # column C + j; Pi[x, col] counts the reversals in rows < x
        Pi = self._prefix[:, 1:] - self._prefix[:, :-1]
        kb = np.arange(B + 1)
        best = -1
        for ka in range(A + 1):
            # clean[kb, col]: no reversal in rows -ka..kb of that column
            clean = Pi[A + 1 + kb] == Pi[A - ka][None, :]
            valid = clean[:, C]
            if not valid.any():
                continue
            # the clean columns reach `down` below and `up` above j = 0
            down = up = 0
            if C > 0:
                dn = ~clean[:, C - 1 :: -1][:, :C]
                down = np.where(dn.any(axis=1), dn.argmax(axis=1), C)
            if D > 0:
                upb = ~clean[:, C + 1 :][:, :D]
                up = np.where(upb.any(axis=1), upb.argmax(axis=1), D)
            total = np.where(valid, ka + kb + down + up, -1)
            best = max(best, int(total.max()))
        return base + best


_CTX_CACHE: "OrderedDict[tuple, _TableReversal]" = OrderedDict()
_CTX_CACHE_MAX = 16


def _table_context(
    table: Table2x2, test: TestSpec, modifier: Optional[Modifier] = None
) -> _TableReversal:
    """The cached reversal context of `table` under Fisher's test at
    test.alpha. Every flip is permitted unless a modifier is given; it must
    be cell-uniform with a binary outcome and built over a frame that
    aggregates to `table`, and it permits a cell's flips when it permits
    them for the cell's members."""
    perms = (True, True, True, True)
    if modifier is not None:
        cells = modifier.base_arm_codes * 2 + modifier.base_outcome_codes
        if tuple(np.bincount(cells, minlength=4).tolist()) != table.as_tuple():
            raise InvalidParameterError("modifier was built over a different table")
        if not modifier.cell_uniform:
            raise InvalidParameterError("modifier is not cell-uniform")
        if len(modifier.outcome_levels) != 2:
            raise InvalidParameterError("cell permissions need a binary outcome")
        # a case's one change is to the other outcome; an empty cell
        # reports False (vacuous)
        ge = modifier.probs >= modifier.q
        flips = np.where(modifier.base_outcome_codes == 0, ge[:, 1], ge[:, 0])
        perms = tuple((np.bincount(cells, weights=flips, minlength=4) > 0).tolist())
    if test.table_p is not _fisher_table_p:
        raise InvalidParameterError(
            f"test {test.name!r} is not Fisher's exact test; the exact 2x2 "
            "functions support only fisher_test"
        )
    key = (table.as_tuple(), test.alpha, perms)
    ctx = _CTX_CACHE.get(key)
    if ctx is None:
        ctx = _TableReversal(table, test.alpha, perms=perms)
        _CTX_CACHE[key] = ctx
        while len(_CTX_CACHE) > _CTX_CACHE_MAX:
            _CTX_CACHE.popitem(last=False)
    else:
        _CTX_CACHE.move_to_end(key)
    return ctx


def _frame_context(
    frame: CaseFrame, modifier: Modifier, test: TestSpec
) -> Optional[_TableReversal]:
    """The frame's reversal context, or None when its cases are not
    exchangeable within cells: that needs Fisher's test, a cell-uniform
    modifier and a binary frame with at most two arms."""
    if (
        test.table_p is _fisher_table_p
        and modifier.cell_uniform
        and len(frame.arm_levels) <= 2
        and len(frame.outcome_levels) == 2
    ):
        return _table_context(table_from_frame(frame), test, modifier)
    return None


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------


def fi_2x2_exact(table: Table2x2, test: TestSpec) -> FragilityResult:
    """Exact signed fragility index of a 2x2 table.

    Searches net event shifts (i, j) for the cheapest |i| + |j| whose
    shifted table flips the decision; the plan realizes that shift on the
    canonical long-format frame (ids 0..n-1 in cell order a, b, c, d).
    """
    ctx = _table_context(table, test)
    p0, sig0 = ctx.p0, ctx.sig0
    found = ctx.min_cost()
    if found is None:
        return FragilityResult(UNBOUNDED, ModificationPlan(()), sig0, p0, None)
    cost, (i, j) = found
    plan = _plan_for_shift(table, i, j)
    p_after = ctx.p_of_shift(i, j)
    return FragilityResult(cost if sig0 else -cost, plan, sig0, p0, p_after)


def _plan_for_shift(table: Table2x2, i: int, j: int) -> ModificationPlan:
    a, b, c, d = table.as_tuple()
    entries: list[tuple[int, str]] = []
    if i < 0:
        entries += [(cid, "nonevent") for cid in range(0, -i)]
    elif i > 0:
        entries += [(cid, "event") for cid in range(a, a + i)]
    if j < 0:
        entries += [(cid, "nonevent") for cid in range(a + b, a + b - j)]
    elif j > 0:
        entries += [(cid, "event") for cid in range(a + b + c, a + b + c + j)]
    return ModificationPlan(tuple(entries))


def gfi_greedy(
    frame: CaseFrame,
    modifier: Modifier,
    test: TestSpec,
    restriction: Optional[Iterable[int]] = None,
) -> FragilityResult:
    """Greedy generalized fragility index.

    Repeatedly applies the permitted single-case outcome change that moves
    the p-value furthest toward the reversal boundary (each case modified
    at most once, ties broken by lowest case id then smallest outcome
    label), until the decision flips or candidates run out (UNBOUNDED).
    restriction limits the modifiable cases to the given ids.

    Each step scores every available change. On a binary frame a flip
    evaluator scores them in one batch: _TableFlipEval over table_p when
    the frame has at most two arms, whose batch p is the chosen change's
    exact p, else the test's make_fast_eval, whose refit of the chosen
    change gives the step's p. Otherwise each change is scored by p_value,
    NaN where the fit does not converge.
    """
    if modifier.probs.shape[0] != frame.n:
        raise InvalidParameterError("modifier was built for a different frame")
    levels = frame.outcome_levels
    binary = len(levels) == 2
    y = np.array(frame.outcome_codes)
    ev, refits = None, False
    if binary and test.table_p is not None and len(frame.arm_levels) <= 2:
        ev = _TableFlipEval(frame, test.table_p)
    elif binary and test.make_fast_eval is not None:
        ev, refits = test.make_fast_eval(frame), True
    # the evaluator's exact refit gives p0 and the logistic warm start
    p0 = test.p_value(frame) if ev is None else ev.refit(y)
    sig0 = is_significant(p0, test.alpha)
    allowed = np.zeros(frame.n, dtype=bool)
    if restriction is None:
        allowed[:] = True
    else:
        allowed[frame.positions_of(restriction)] = True
    available = modifier.permitted_matrix() & allowed[:, None]
    available[np.arange(frame.n), y] = False  # only real changes
    # the rank of each level's label among the sorted labels
    label_rank = np.argsort(sorted(range(len(levels)), key=levels.__getitem__))

    entries: list[tuple[int, str]] = []
    tie = tie_rel(frame.n)
    for step in range(1, frame.n + 1):
        rows, ms = np.nonzero(available)
        if rows.size == 0:
            break
        if ev is not None:
            ps = ev.p_after_flips(y, rows)  # binary: ms is 1 - y[rows]
        else:
            ps = np.array([_flip_p(frame, test, y, r, m) for r, m in zip(rows, ms)])
        k = _select_candidate(ps, frame.case_ids[rows], label_rank[ms], sig0, tie)
        if k is None:
            raise UnconvergedFitError(
                "no candidate modification produced a usable p-value"
            )
        r, m = rows[k], ms[k]
        y[r] = m
        available[r, :] = False
        entries.append((int(frame.case_ids[r]), levels[m]))
        # a fast evaluator's exact refit is the authoritative p and the
        # warm start of the next step
        p_cur = ev.refit(y) if refits else float(ps[k])
        if is_significant(p_cur, test.alpha) != sig0:
            index = step if sig0 else -step
            return FragilityResult(
                index, ModificationPlan(tuple(entries)), sig0, p0, p_cur
            )
    return FragilityResult(UNBOUNDED, ModificationPlan(()), sig0, p0, None)


def _flip_p(frame: CaseFrame, test: TestSpec, y: np.ndarray, r: int, m: int) -> float:
    """p_value after changing row r to outcome code m; NaN when unconverged."""
    y2 = y.copy()
    y2[r] = m
    try:
        return test.p_value(frame.replace_outcomes(y2))
    except UnconvergedFitError:
        return math.nan


def _select_candidate(ps, case_ids, label_rank, sig0, tie):
    """Index of the best candidate under the step objective, None when
    every p is NaN (unusable): maximize p when initially significant,
    minimize otherwise. A p within a relative `tie` of the best ties it
    (mirror-image tables have equal exact Fisher p but round apart); ties
    go to the lowest case id, then the smallest outcome label."""
    best = np.fmax.reduce(ps) if sig0 else np.fmin.reduce(ps)  # NaN only if all are
    if np.isnan(best):
        return None
    tied = np.flatnonzero(np.abs(ps - best) <= tie * best)
    cid = case_ids[tied]
    tied = tied[cid == cid.min()]
    return tied[np.argmin(label_rank[tied])]


def reversible(
    frame: CaseFrame,
    modifier: Modifier,
    test: TestSpec,
    restriction: Optional[Iterable[int]] = None,
) -> bool:
    """Can permitted modifications of the (restricted) cases reverse the
    decision?

    Exchangeable instances (Fisher's test, cell-uniform modifier, binary
    two-arm frame) are answered exactly through the composition oracle;
    everything else falls back to the greedy search.
    """
    ctx = _frame_context(frame, modifier, test)
    if ctx is not None:
        cells = frame.arm_codes * 2 + frame.outcome_codes
        if restriction is not None:
            cells = cells[frame.positions_of(restriction)]
        return ctx.comp_reversible(np.bincount(cells, minlength=4))
    return not is_unbounded(gfi_greedy(frame, modifier, test, restriction).index)


def reversible_2x2_exact(
    table: Table2x2,
    composition: tuple[int, int, int, int],
    modifier: Modifier,
    test: TestSpec,
) -> bool:
    """Ground truth for subset reversibility on exchangeable tables.

    composition counts the subset's members per cell (a, b, c, d). The
    modifier must be cell-uniform and built over a frame aggregating to
    `table`.
    """
    comp = tuple(int(x) for x in composition)
    if len(comp) != 4 or any(x < 0 for x in comp):
        raise InvalidParameterError(f"invalid composition {composition!r}")
    cells = table.as_tuple()
    if any(comp[i] > cells[i] for i in range(4)):
        raise InvalidParameterError(
            f"composition {comp} exceeds cell counts {cells}"
        )
    return _table_context(table, test, modifier).comp_reversible(comp)
