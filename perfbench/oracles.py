"""Computations made apart from the library, used to check its answers.

Nothing here imports `fragility`. Reversal decisions come from scipy:
`scipy.stats.fisher_exact` directly, or, where thousands of shifted tables
are needed, scipy's hypergeometric pmf summed with the same two-sided rule
that `fisher_exact` applies (see `ShiftDecisions`). Composition weights are
exact integer binomials. The logistic fit is a separate Newton solver.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.stats import fisher_exact, hypergeom

ALPHA = 0.05
# scipy's fisher_exact counts a table into the two-sided tail when its pmf
# is at most (1 + 1e-14) times the observed pmf
_SCIPY_GAMMA = 1.0 + 1e-14
# p-values this close to alpha (relative) are decided by fisher_exact itself
_NEAR_ALPHA = 1e-9


def fisher_p(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher p from scipy.stats.fisher_exact."""
    return float(fisher_exact([[a, b], [c, d]]).pvalue)


def significant(a: int, b: int, c: int, d: int, alpha: float = ALPHA) -> bool:
    return fisher_p(a, b, c, d) < alpha


class ShiftDecisions:
    """Significance of every shifted table (a+i, b-i, c+j, d-j).

    Shifted tables with the same i + j share their column margin, so one
    call to scipy's hypergeometric pmf per margin gives the two-sided p of
    every x under it: the sum of the pmf values at most gamma times pmf(x),
    the rule of `scipy.stats.fisher_exact`. A p within 1e-9 of alpha is
    recomputed by `fisher_exact` itself. `validate` compares a sample with
    `fisher_exact` to 1e-9.
    """

    def __init__(self, cells: tuple[int, int, int, int], alpha: float = ALPHA):
        self.cells = tuple(int(x) for x in cells)
        self.alpha = alpha
        a, b, c, d = self.cells
        self.sig0 = significant(a, b, c, d, alpha)
        self._by_margin: dict[int, np.ndarray] = {}

    def _margin_p(self, s: int) -> np.ndarray:
        """p-values for x = 0..row1 under column-1 total a + c + s (NaN off
        the support)."""
        got = self._by_margin.get(s)
        if got is not None:
            return got
        a, b, c, d = self.cells
        r1, r2 = a + b, c + d
        n = r1 + r2
        col1 = a + c + s
        out = np.full(r1 + 1, np.nan)
        lo, hi = max(0, col1 - r2), min(r1, col1)
        if r1 == 0 or r2 == 0 or col1 == 0 or col1 == n:
            out[lo : hi + 1] = 1.0
        else:
            x = np.arange(lo, hi + 1)
            pmf = hypergeom.pmf(x, n, r1, col1)
            mode = int((col1 + 1) * (r1 + 1) / (n + 2))
            pmode = float(hypergeom.pmf(mode, n, r1, col1))
            order = np.sort(pmf)
            csum = np.cumsum(order)
            pos = np.searchsorted(order, pmf * _SCIPY_GAMMA, side="right") - 1
            p = np.minimum(csum[pos], 1.0)
            tie = np.abs(pmf - pmode) / np.maximum(pmf, pmode) <= 1e-14
            p[tie] = 1.0
            out[lo : hi + 1] = p
        self._by_margin[s] = out
        return out

    def p(self, i: int, j: int) -> float:
        a, b, c, d = self.cells
        val = float(self._margin_p(i + j)[a + i])
        if abs(val - self.alpha) <= _NEAR_ALPHA * self.alpha:
            val = fisher_p(a + i, b - i, c + j, d - j)
        return val

    def grid(self, i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> np.ndarray:
        """Boolean reversal grid over i_lo..i_hi x j_lo..j_hi (all shifts
        must be valid tables)."""
        a = self.cells[0]
        ii = np.arange(i_lo, i_hi + 1)[:, None]
        jj = np.arange(j_lo, j_hi + 1)[None, :]
        p = np.empty((ii.size, jj.size))
        for s in range(i_lo + j_lo, i_hi + j_hi + 1):
            mp = self._margin_p(s)
            rows = np.arange(max(i_lo, s - j_hi), min(i_hi, s - j_lo) + 1)
            p[rows - i_lo, s - rows - j_lo] = mp[a + rows]
        near = np.abs(p - self.alpha) <= _NEAR_ALPHA * self.alpha
        for x, y in zip(*np.nonzero(near)):
            p[x, y] = self.p(int(ii[x, 0]), int(jj[0, y]))
        if np.isnan(p).any():
            raise ValueError("grid reaches outside the valid shifts")
        return (p < self.alpha) != self.sig0

    def validate(self, shifts) -> None:
        """Raise unless every listed shift matches fisher_exact to 1e-9."""
        a, b, c, d = self.cells
        for i, j in shifts:
            ref = fisher_p(a + i, b - i, c + j, d - j)
            got = self.p(i, j)
            if abs(got - ref) > 1e-9 * max(ref, 1e-300):
                raise AssertionError(
                    f"vectorized Fisher p {got!r} != fisher_exact {ref!r} at "
                    f"shift ({i}, {j}) of {self.cells}"
                )


def cell_perms(cells, q: float) -> tuple[bool, bool, bool, bool]:
    """Which cells may flip at threshold q, from each arm's own rates: an
    event may become a non-event when the arm's non-event rate is >= q, and
    the reverse when its event rate is >= q. Empty cells get False."""
    a, b, c, d = cells
    out = []
    for ev, non, is_event in ((a, b, True), (a, b, False), (c, d, True), (c, d, False)):
        size = ev + non
        count = ev if is_event else non
        target_rate = (non if is_event else ev) / size if size else 0.0
        out.append(count > 0 and target_rate >= q)
    return tuple(out)


def composition_probability(cells, perms, k: int, rev: np.ndarray, origin) -> Fraction:
    """Exact P[a uniform k-subset admits a permitted reversal].

    rev is a boolean reversal grid whose (0, 0) entry is shift origin =
    (i_lo, j_lo); it must cover every shift reachable with k flips. Each
    composition (k1, k2, k3, k4) of the subset over the cells reaches the
    net shifts i in [-k1, k2], j in [-k3, k4] (only permitted directions),
    and counts with weight C(a,k1) C(b,k2) C(c,k3) C(d,k4) / C(n,k).
    """
    a, b, c, d = cells
    pa, pb, pc, pd = perms
    i_lo, j_lo = origin
    pre = np.zeros((rev.shape[0] + 1, rev.shape[1] + 1), dtype=np.int64)
    pre[1:, 1:] = np.cumsum(np.cumsum(rev, axis=0, dtype=np.int64), axis=1)

    def hit(i0, i1, j0, j1):
        x0, x1, y0, y1 = i0 - i_lo, i1 - i_lo, j0 - j_lo, j1 - j_lo
        if min(x0, y0) < 0 or x1 >= rev.shape[0] or y1 >= rev.shape[1]:
            raise ValueError("reversal grid does not cover the composition")
        return pre[x1 + 1, y1 + 1] - pre[x0, y1 + 1] - pre[x1 + 1, y0] + pre[x0, y0] > 0

    ca = [math.comb(a, x) for x in range(min(k, a) + 1)]
    cb = [math.comb(b, x) for x in range(min(k, b) + 1)]
    cc = [math.comb(c, x) for x in range(min(k, c) + 1)]
    cd = [math.comb(d, x) for x in range(min(k, d) + 1)]
    num = 0
    for k1 in range(len(ca)):
        for k2 in range(min(k - k1, b) + 1):
            for k3 in range(min(k - k1 - k2, c) + 1):
                k4 = k - k1 - k2 - k3
                if k4 > d:
                    continue
                if hit(-k1 if pa else 0, k2 if pb else 0, -k3 if pc else 0, k4 if pd else 0):
                    num += ca[k1] * cb[k2] * cc[k3] * cd[k4]
    return Fraction(num, math.comb(a + b + c + d, k))


def table_probability(cells, k: int) -> float:
    """composition_probability at q=0 with its own scipy-decided grid."""
    a, b, c, d = cells
    i_lo, i_hi = -min(a, k), min(b, k)
    j_lo, j_hi = -min(c, k), min(d, k)
    rev = ShiftDecisions(cells).grid(i_lo, i_hi, j_lo, j_hi)
    return float(composition_probability(cells, cell_perms(cells, 0.0), k, rev, (i_lo, j_lo)))


# ----------------------------------------------------------------------
# logistic regression, fitted apart from the library


def logistic_wald(X: np.ndarray, y: np.ndarray, coef: int = 1):
    """Newton fit of a logistic model; returns (Wald p of coef, fitted
    probabilities).

    Convergence is tightened until the score is below 1e-11, so the p-value
    is accurate far beyond the 1e-6 the checks ask for.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    beta = np.zeros(X.shape[1])
    for _ in range(100):
        mu = 0.5 * (1.0 + np.tanh(0.5 * (X @ beta)))
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) < 1e-11:
            break
        info = X.T @ (X * (mu * (1.0 - mu))[:, None])
        beta = beta + np.linalg.solve(info, score)
    else:
        raise ArithmeticError("separate logistic fit did not converge")
    mu = 0.5 * (1.0 + np.tanh(0.5 * (X @ beta)))
    info = X.T @ (X * (mu * (1.0 - mu))[:, None])
    se = math.sqrt(np.linalg.inv(info)[coef, coef])
    z = abs(beta[coef]) / se
    return math.erfc(z / math.sqrt(2.0)), mu


# ----------------------------------------------------------------------
# elections


def min_switches(states, beneficiary: str = "a"):
    """Minimum nonvoter switches that win the college, by a knapsack over
    the electors still missing: best[e] is the cheapest way to gain at least
    e electors (capped at the deficit). Returns (cost, electors_to_win,
    held) or (None, ...) when no switch set wins."""
    total = sum(s["electors"] for s in states)
    to_win = total // 2 + 1
    held = 0
    items = []
    for s in states:
        ben, opp = (s["a"], s["b"]) if beneficiary == "a" else (s["b"], s["a"])
        if ben > opp:
            held += s["electors"]
        elif opp - ben + 1 <= s["nonvoters"]:
            items.append((s["electors"], opp - ben + 1))
    deficit = to_win - held
    if deficit <= 0:
        return 0, to_win, held
    inf = float("inf")
    best = [0] + [inf] * deficit
    for electors, cost in items:
        for e in range(deficit, 0, -1):
            cand = best[max(0, e - electors)] + cost
            if cand < best[e]:
                best[e] = cand
    cost = best[deficit]
    return (None if cost == inf else int(cost)), to_win, held


def closed_form_ok(population: int, pool: int, switches: int, m: int) -> bool:
    """Is m the smallest m with P[Hypergeom(population, pool, m) >= switches]
    > 1/2 under scipy.stats.hypergeom?"""
    def tail(mm):
        return float(hypergeom.sf(switches - 1, population, pool, mm))

    return tail(m) > 0.5 and not tail(m - 1) > 0.5
