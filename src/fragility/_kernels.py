"""Hot numerical kernels, in vectorized numpy.

Everything here works in log space off a shared table of log factorials,
math.lgamma(k + 1) per entry (numpy only: no scipy on the import path);
decision thresholds that matter carry explicit slack instead of relying
on bit equality.

Conventions shared by the callers:

* a 2x2 table is (a, b, c, d) = (arm-1 events, arm-1 non-events,
  arm-2 events, arm-2 non-events);
* a shift (i, j) maps the table to (a+i, b-i, c+j, d-j), i.e. i is the
  net change of events in arm 1 and j in arm 2;
* a "reversal grid" marks the shifts whose Fisher decision differs from
  the unshifted table's decision.
"""

from __future__ import annotations

import math

import numpy as np

# log-pmf inclusion slack for the two-sided rule: a table enters the tail
# sum when logpmf(x) <= logpmf(observed) + slack, where slack is the larger
# of _SLACK and _ULPS * log(n!). Each log-pmf sums nine log-factorials of
# size up to log(n!): exact ties (symmetric margins) come out within one
# eps * log(n!) of each other, distinct pmfs more than 1e7 of them apart
_SLACK = 1e-12
_ULPS = 32 * np.finfo(np.float64).eps


def tie_rel(n: int) -> float:
    """That slack as a relative tolerance between p-values of n-case tables:
    the greedy step counts two candidates this close as tied."""
    return max(_SLACK, _ULPS * math.lgamma(n + 1))


def log_factorials(total: int) -> np.ndarray:
    """lf with lf[k] = log(k!) = math.lgamma(k + 1) for k = 0..total+1 (one
    row of headroom). Each entry is rounded on its own, within a few ulps;
    a running sum of log k would let the error grow with k."""
    return np.fromiter(map(math.lgamma, range(1, total + 3)), np.float64, total + 2)


def fisher_p(lf, a, b, c, d):
    """Two-sided Fisher exact p for one table, vectorized over the support."""
    r1 = a + b
    r2 = c + d
    c1 = a + c
    n = r1 + r2
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    x = np.arange(lo, hi + 1)
    base = lf[n] - lf[c1] - lf[n - c1]
    lx = lf[r1] - lf[x] - lf[r1 - x] + lf[r2] - lf[c1 - x] - lf[r2 - (c1 - x)] - base
    lobs = lx[a - lo]
    slack = _ULPS * lf[n]  # a numpy scalar: max() on it is slow per call
    if slack < _SLACK:
        slack = _SLACK
    p = float(np.exp(lx[lx <= lobs + slack]).sum())
    return p if p < 1.0 else 1.0


# the grid's per-cell p-values go through this binding, made at import, so
# wrapping the public ``fisher_p`` (to count scalar calls) leaves the grid alone
_cell_p = fisher_p


def reversal_grid(lf, a, b, c, d, alpha, sig0, gi_lo, gi_hi, gj_lo, gj_hi):
    """uint8 grid over shifts gi_lo <= i <= gi_hi, gj_lo <= j <= gj_hi:
    1 where the decision at alpha differs from sig0."""
    ni = gi_hi - gi_lo + 1
    nj = gj_hi - gj_lo + 1
    out = np.zeros((ni, nj), dtype=np.uint8)
    for ii in range(ni):
        i = gi_lo + ii
        for jj in range(nj):
            j = gj_lo + jj
            p = _cell_p(lf, a + i, b - i, c + j, d - j)
            sig = 1 if p < alpha else 0
            if sig != sig0:
                out[ii, jj] = 1
    return out


def comp_prob(lf, prefix, a, b, c, d, k, sign, gi_lo, gj_lo):
    """Exact P[a uniform k-subset admits a permitted reversal]: the
    multivariate hypergeometric pmf summed over the 4-cell compositions
    whose permitted-shift rectangle contains a reversing cell. A
    composition (k1, k2, k3, k4) spans the shifts from sign[0] * k1 to
    sign[1] * k2 in i and sign[2] * k3 to sign[3] * k4 in j."""
    sa, sb, sc, sd = sign
    # chunked over k1 so memory stays O(k^2)
    n = a + b + c + d
    lbase = lf[n] - lf[k] - lf[n - k]
    total = 0.0
    k2g = np.arange(min(k, b) + 1)[:, None]
    k3g = np.arange(min(k, c) + 1)[None, :]
    for k1 in range(min(k, a) + 1):
        k4 = k - k1 - k2g - k3g
        valid = (k4 >= 0) & (k4 <= d)
        if not valid.any():
            continue
        k2v, k3v = np.broadcast_arrays(k2g, k3g)
        k2v = k2v[valid]
        k3v = k3v[valid]
        k4v = k4[valid]
        i0 = sa * k1 - gi_lo
        i1 = sb * k2v - gi_lo
        j0 = sc * k3v - gj_lo
        j1 = sd * k4v - gj_lo
        hit = rect_counts(prefix, i0, i1, j0, j1) > 0
        if not hit.any():
            continue
        lp = (
            lf[a] - lf[k1] - lf[a - k1]
            + lf[b] - lf[k2v[hit]] - lf[b - k2v[hit]]
            + lf[c] - lf[k3v[hit]] - lf[c - k3v[hit]]
            + lf[d] - lf[k4v[hit]] - lf[d - k4v[hit]]
            - lbase
        )
        total += float(np.exp(lp).sum())
    return total if total < 1.0 else 1.0


def rect_counts(prefix, x0, x1, y0, y1):
    """Marked cells in the grid rectangles x0 <= x <= x1, y0 <= y <= y1
    (grid indices, inclusive), vectorized over index arrays."""
    return prefix[x1 + 1, y1 + 1] - prefix[x0, y1 + 1] - prefix[x1 + 1, y0] + prefix[x0, y0]


def prefix_sums(grid: np.ndarray) -> np.ndarray:
    """2D inclusive prefix sums with a zero border. No sum exceeds the cell
    count, so int32 holds them below 2**31 cells, at half the memory of the
    int64 used above that."""
    dtype = np.int32 if grid.size < 2**31 else np.int64
    out = np.zeros((grid.shape[0] + 1, grid.shape[1] + 1), dtype=dtype)
    np.cumsum(np.cumsum(grid, axis=0, dtype=dtype), axis=1, out=out[1:, 1:])
    return out
