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
    """Reversal geometry of a 2x2 table under net event shifts, decided by
    Fisher's exact test at alpha.

    Lazily builds a boolean grid over shifts (i, j) -- restricted to the
    per-cell permitted directions -- marking where the Fisher decision flips,
    plus 2D prefix sums so "does this shift rectangle contain a reversal?"
    is O(1). The grid covers a window of at most K shifts per direction.
    It grows only when an answer needs it: a composition lookup whose
    clipped rectangle misses while a permitted extent exceeds K, a
    min_cost whose best hit costs more than K, prob_reversal(k) with k > K,
    or ensure_full. Windows grow by doubling, so total work is at most
    twice the final grid.
    """

    def __init__(
        self,
        table: Table2x2,
        alpha: float,
        perms: tuple[bool, bool, bool, bool] = (True, True, True, True),
    ):
        self.table = table
        self.alpha = float(alpha)
        self.perms = tuple(bool(x) for x in perms)
        # a composition (k1, k2, k3, k4) permits shifts -k1 <= i <= k2 and
        # -k3 <= j <= k4; unpermitted cells contribute no extent
        self._ext_sign = np.array([-1, 1, -1, 1]) * np.asarray(self.perms)
        self._max_cell = max(table.as_tuple())
        self.lf = _lf_cache(table.n)
        self.p0 = self.p_of_shift(0, 0)
        self.sig0 = self.p0 < self.alpha
        self._K = -1
        self.grid: Optional[np.ndarray] = None
        self.prefix: Optional[np.ndarray] = None
        self.gi_lo = self.gj_lo = 0
        self._min_cost = _UNSET

    def p_of_shift(self, i: int, j: int) -> float:
        t = self.table
        return float(fisher_p(self.lf, t.a + i, t.b - i, t.c + j, t.d - j))

    def _extents(self, K: int) -> tuple[int, int, int, int]:
        t = self.table
        pa, pb, pc, pd = self.perms
        return (
            min(t.a, K) if pa else 0,
            min(t.b, K) if pb else 0,
            min(t.c, K) if pc else 0,
            min(t.d, K) if pd else 0,
        )

    def ensure(self, K: int) -> None:
        """Make the grid cover all shifts reachable by K flips per direction."""
        if K <= self._K:
            return
        t = self.table
        K = min(max(K, 8), t.n)
        if self._K >= 0:
            K = min(max(K, 2 * self._K), t.n)
        ea, eb, ec, ed = self._extents(K)
        gi_lo, gi_hi = -ea, eb
        gj_lo, gj_hi = -ec, ed
        self.grid = reversal_grid(
            self.lf, t.a, t.b, t.c, t.d, self.alpha,
            1 if self.sig0 else 0, gi_lo, gi_hi, gj_lo, gj_hi,
        )
        self.prefix = prefix_sums(self.grid)
        self.gi_lo, self.gj_lo = gi_lo, gj_lo
        self._win_lo = np.array([gi_lo, gi_lo, gj_lo, gj_lo])
        self._win_hi = np.array([gi_hi, gi_hi, gj_hi, gj_hi])
        self._K = K

    def ensure_full(self) -> None:
        self.ensure(self._max_cell)

    def comps_reversible(self, comps) -> np.ndarray:
        """Row by row over an (m, 4) array of cell compositions: can a
        subset with that composition reverse the decision, flipping each
        member at most once and only in permitted directions?

        Each row's rectangle is looked up clipped to the current window. A
        hit there is a hit in the full rectangle; a miss is final once the
        row's largest permitted extent is at most K, since the rectangle
        then lies inside the window. While some miss is not final, the
        window doubles and the rows are looked up again."""
        # the permitted-shift rectangle of each row: -k1 <= i <= k2 and
        # -k3 <= j <= k4, zero extent for unpermitted cells
        ext = np.asarray(comps, dtype=np.int64) * self._ext_sign
        self.ensure(0)  # a cold context starts from the smallest window
        out = self._window_hits(ext)
        # past the largest cell the window spans the whole permitted lattice
        while self._K < self._max_cell and np.abs(ext[~out]).max(initial=0) > self._K:
            self.ensure(self._K + 1)  # doubles the window
            out = self._window_hits(ext)
        return out

    def _window_hits(self, ext: np.ndarray) -> np.ndarray:
        """Reversals in each signed-extent rectangle clipped to the window."""
        ext = np.minimum(np.maximum(ext, self._win_lo), self._win_hi)
        box = ext - self._win_lo
        return rect_counts(self.prefix, box[:, 0], box[:, 1], box[:, 2], box[:, 3]) > 0

    def comp_reversible(self, comp: tuple[int, int, int, int]) -> bool:
        """comps_reversible for one composition."""
        return bool(self.comps_reversible([comp])[0])

    def prob_reversal(self, k: int) -> float:
        """Exact P[a uniform k-subset admits a permitted reversal]."""
        t = self.table
        self.ensure(k)
        pa, pb, pc, pd = self.perms
        return float(
            comp_prob(
                self.lf, self.prefix, t.a, t.b, t.c, t.d, k,
                pa, pb, pc, pd, self.gi_lo, self.gj_lo,
            )
        )

    def min_cost(self) -> Optional[tuple[int, tuple[int, int]]]:
        """Minimum |i|+|j| over permitted reversing shifts, with the
        realizing shift (ties: smallest i, then smallest j); None if the
        whole permitted lattice contains no reversal. Computed once."""
        if self._min_cost is _UNSET:
            self._min_cost = self._find_min_cost()
        return self._min_cost

    def _find_min_cost(self) -> Optional[tuple[int, tuple[int, int]]]:
        K = 8
        while True:
            self.ensure(K)
            K = self._K
            whole = K >= self._max_cell
            hit = np.argwhere(self.grid == 1)
            if hit.size:
                i = hit[:, 0] + self.gi_lo
                j = hit[:, 1] + self.gj_lo
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


_CTX_CACHE: "OrderedDict[tuple, _TableReversal]" = OrderedDict()
_CTX_CACHE_MAX = 16


def _context_for(
    table: Table2x2,
    test: TestSpec,
    perms: tuple[bool, bool, bool, bool] = (True, True, True, True),
) -> _TableReversal:
    """The cached reversal context of (table, alpha, perms); Fisher only."""
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


def _frame_cell_codes(frame: CaseFrame) -> np.ndarray:
    """Cell of each case in table orientation: 0=a, 1=b, 2=c, 3=d."""
    return frame.arm_codes * 2 + frame.outcome_codes


def _modifier_cell_perms(modifier: Modifier) -> tuple[bool, bool, bool, bool]:
    """Per-cell permission to flip to the opposite outcome (binary only).
    Cells with no member are reported False (vacuous)."""
    if not modifier.cell_uniform:
        raise InvalidParameterError("modifier is not cell-uniform")
    if len(modifier.outcome_levels) != 2:
        raise InvalidParameterError("cell permissions need a binary outcome")
    pm = modifier.probs >= modifier.q
    cells = modifier.base_arm_codes * 2 + modifier.base_outcome_codes
    out = []
    for cell in range(4):
        rows = np.nonzero(cells == cell)[0]
        if rows.size == 0:
            out.append(False)
        else:
            target = 1 - (cell % 2)
            out.append(bool(pm[rows[0], target]))
    return tuple(out)


def _modifier_table(modifier: Modifier) -> Table2x2:
    cells = modifier.base_arm_codes * 2 + modifier.base_outcome_codes
    counts = [int(np.sum(cells == c)) for c in range(4)]
    return Table2x2(*counts)


def _exchangeable(frame: CaseFrame, modifier: Modifier, test: TestSpec) -> bool:
    return (
        test.table_p is _fisher_table_p
        and modifier.cell_uniform
        and len(frame.arm_levels) <= 2
        and len(frame.outcome_levels) == 2
    )


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------


def fi_2x2_exact(table: Table2x2, test: TestSpec) -> FragilityResult:
    """Exact signed fragility index of a 2x2 table.

    Searches net event shifts (i, j) for the cheapest |i| + |j| whose
    shifted table flips the decision; the plan realizes that shift on the
    canonical long-format frame (ids 0..n-1 in cell order a, b, c, d).
    """
    ctx = _context_for(table, test)
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
    the frame has at most two arms, else the test's make_fast_eval; its
    refit of the chosen change gives the step's p. Otherwise each change
    is scored by p_value, NaN where the fit does not converge.
    """
    if modifier.probs.shape[0] != frame.n:
        raise InvalidParameterError("modifier was built for a different frame")
    levels = frame.outcome_levels
    binary = len(levels) == 2
    y = np.array(frame.outcome_codes)
    ev = None
    if binary and test.table_p is not None and len(frame.arm_levels) <= 2:
        ev = _TableFlipEval(frame, test.table_p)
    elif binary and test.make_fast_eval is not None:
        ev = test.make_fast_eval(frame)
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
        # an evaluator's exact refit is the authoritative p and the warm
        # start of the next step
        p_cur = float(ps[k]) if ev is None else ev.refit(y)
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
    if _exchangeable(frame, modifier, test):
        ctx = _context_for(
            table_from_frame(frame), test, _modifier_cell_perms(modifier)
        )
        cells = _frame_cell_codes(frame)
        if restriction is not None:
            cells = cells[frame.positions_of(restriction)]
        comp = tuple(int(np.sum(cells == c)) for c in range(4))
        return ctx.comp_reversible(comp)
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
    if _modifier_table(modifier).as_tuple() != cells:
        raise InvalidParameterError("modifier was built over a different table")
    ctx = _context_for(table, test, _modifier_cell_perms(modifier))
    return ctx.comp_reversible(comp)
