"""Recompute perfbench/reference.json from scratch.

    python3 perfbench/make_reference.py

The file holds the exact curve P[E_k] (the probability that a uniform
k-subset of cases admits a permitted reversal) of the worked table
(102, 326, 216, 985) at alpha 0.05, for each q of the sensitivity_grid
workload, k = 0..kmax. It does not import `fragility`:
`scipy.stats.fisher_exact` decides every shifted table, one call per
shift, and compositions are weighted by exact integer binomials. The
vectorized decisions that the per-run checks use are compared with those
calls over the whole grid. Takes about a minute on one core.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from oracles import ALPHA, ShiftDecisions, cell_perms, fisher_p

TABLE = (102, 326, 216, 985)
KMAX = {0.0: 40, 0.2: 160, 0.5: 160}
OUT = Path(__file__).with_name("reference.json")


def reversal_grid(cells, perms, kmax):
    """fisher_exact decision for every shift a kmax-subset can reach."""
    a, b, c, d = cells
    pa, pb, pc, pd = perms
    i_lo, i_hi = (-min(a, kmax) if pa else 0), (min(b, kmax) if pb else 0)
    j_lo, j_hi = (-min(c, kmax) if pc else 0), (min(d, kmax) if pd else 0)
    sig0 = fisher_p(a, b, c, d) < ALPHA
    rev = np.zeros((i_hi - i_lo + 1, j_hi - j_lo + 1), dtype=bool)
    for x, i in enumerate(range(i_lo, i_hi + 1)):
        for y, j in enumerate(range(j_lo, j_hi + 1)):
            rev[x, y] = (fisher_p(a + i, b - i, c + j, d - j) < ALPHA) != sig0
    fast = ShiftDecisions(cells).grid(i_lo, i_hi, j_lo, j_hi)
    if not np.array_equal(fast, rev):
        raise AssertionError("vectorized decisions differ from fisher_exact")
    return rev, (i_lo, j_lo)


def curve(cells, perms, kmax, rev, origin):
    """Exact P[E_k] for k = 0..kmax.

    Cells that may not flip never widen a subset's shift rectangle, so they
    merge into one inert cell (Vandermonde). Reversibility only grows with
    the count in the last flippable cell, so for each count of the other
    flippable cells the sum over the last one starts at a threshold.
    """
    i_lo, j_lo = origin
    pre = np.zeros((rev.shape[0] + 1, rev.shape[1] + 1), dtype=np.int64)
    pre[1:, 1:] = np.cumsum(np.cumsum(rev, axis=0, dtype=np.int64), axis=1)
    active = [x for x in range(4) if perms[x] and cells[x] > 0]
    inert = sum(cells[x] for x in range(4) if x not in active)
    last = active[-1]

    def reverses(counts):
        k1, k2, k3, k4 = counts
        x0, x1 = -k1 - i_lo, k2 - i_lo
        y0, y1 = -k3 - j_lo, k4 - j_lo
        return pre[x1 + 1, y1 + 1] - pre[x0, y1 + 1] - pre[x1 + 1, y0] + pre[x0, y0] > 0

    combs = [[math.comb(cells[x], m) for m in range(min(cells[x], kmax) + 1)] for x in range(4)]
    inert_comb = [math.comb(inert, m) for m in range(min(inert, kmax) + 1)]
    tails: dict[int, list[int]] = {}

    def tail(rem, t):
        # sum over m >= t of C(cells[last], m) * C(inert, rem - m)
        if rem not in tails:
            terms = [
                combs[last][m] * (inert_comb[rem - m] if rem - m <= inert else 0)
                for m in range(min(cells[last], rem) + 1)
            ]
            suffix = [0] * (len(terms) + 1)
            for m in range(len(terms) - 1, -1, -1):
                suffix[m] = suffix[m + 1] + terms[m]
            tails[rem] = suffix
        suffix = tails[rem]
        return suffix[t] if t < len(suffix) else 0

    others = active[:-1]
    out = [0.0]
    for k in range(1, kmax + 1):
        num = 0
        stack = [(0, k, 1, [0, 0, 0, 0])]
        while stack:
            pos, rem, weight, counts = stack.pop()
            if pos < len(others):
                x = others[pos]
                for m in range(min(cells[x], rem) + 1):
                    nxt = list(counts)
                    nxt[x] = m
                    stack.append((pos + 1, rem - m, weight * combs[x][m], nxt))
                continue
            hi = min(cells[last], rem)
            lo = max(0, rem - inert)
            if lo > hi:
                continue
            counts[last] = hi
            if not reverses(counts):
                continue
            while lo < hi:  # smallest count in the last cell that reverses
                mid = (lo + hi) // 2
                counts[last] = mid
                if reverses(counts):
                    hi = mid
                else:
                    lo = mid + 1
            num += weight * tail(rem, lo)
        out.append(float(Fraction(num, math.comb(sum(cells), k))))
    return out


def main() -> int:
    t0 = time.perf_counter()
    curves = []
    for q, kmax in KMAX.items():
        perms = cell_perms(TABLE, q)
        rev, origin = reversal_grid(TABLE, perms, kmax)
        probs = curve(TABLE, perms, kmax, rev, origin)
        curves.append({"q": q, "perms": list(perms), "kmax": kmax, "p": probs})
        print(f"q={q}: perms {perms}, k <= {kmax}, "
              f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    doc = {
        "what": "exact P[E_k], k = 0..kmax, of the worked table at each q",
        "command": "python3 perfbench/make_reference.py",
        "table": list(TABLE),
        "alpha": ALPHA,
        "curves": curves,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
