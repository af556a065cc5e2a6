"""The four workloads: inputs made from the seed, operations, checks.

A workload builds its inputs in `setup` and hands out operations one round
at a time from `round(j)`. Every operation calls public functions of the
library through the module attributes in `lib`, so a traced run sees each
call. `check` compares an operation's result with computations made apart
from the library (see oracles.py) and raises AssertionError when it is
wrong. An operation marked with a `fault` is expected to fail on every run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Any, Callable, Optional

import numpy as np

import oracles

ALPHA = oracles.ALPHA
WORKED = (102, 326, 216, 985)
REFERENCE = Path(__file__).with_name("reference.json")

# known faults, each failing on every run (see README.md)
SGFI_HIGH_R = "sgfi-high-r"
CLOSED_FORM_BINOMIAL = "closed-form-binomial"


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    fault: Optional[str] = None
    # results with equal digests are equal, so each is checked once
    digest: Callable[[Any], str] = repr


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _expect(abs(got - want) <= rel * max(abs(want), 1e-300),
            f"{what}: {got!r} != {want!r} (rel {rel:g})")


def _layout(cells):
    """Cell (0=a, 1=b, 2=c, 3=d) of each case id of frame_from_table's frame:
    ids 0..n-1 in cell order a, b, c, d."""
    return np.repeat(np.arange(4), cells)


def _replay(cells, entries, q=0.0):
    """Table after a plan of (case id, new label) entries on the canonical
    frame, checking each entry flips one case once to the other outcome, at
    a rate of at least q in its arm."""
    a, b, c, d = cells
    layout = _layout(cells)
    ids = [int(cid) for cid, _ in entries]
    _expect(len(set(ids)) == len(ids), "plan modifies a case twice")
    moved = [a, b, c, d]
    for cid, label in entries:
        cell = int(layout[cid])
        is_event = cell % 2 == 0
        _expect(label == ("nonevent" if is_event else "event"),
                f"entry ({cid}, {label!r}) does not flip case {cid}")
        ev, non = (a, b) if cell < 2 else (c, d)
        rate = (non if is_event else ev) / (ev + non)
        _expect(rate >= q, f"entry ({cid}, {label!r}) not permitted at q={q}")
        moved[cell] -= 1
        moved[cell + 1 if is_event else cell - 1] += 1
    return tuple(moved)


def _check_table_result(res, sig0, p0, what):
    _close(res.p_before, p0, 1e-9, f"{what} p_before")
    _expect(res.initial_significant == sig0, f"{what} initial decision")


def _check_reversing_plan(cells, res, q, sig0, what):
    """A bounded index: its plan reverses the decision under scipy."""
    moved = _replay(cells, res.plan.entries, q)
    _expect(len(res.plan) == abs(res.index), f"{what} plan length")
    _expect((res.index > 0) == sig0, f"{what} index sign")
    _expect(oracles.significant(*moved) != sig0,
            f"{what} plan lands on {moved}, which does not reverse")
    return moved


def min_reversal_cost(cells, dec: oracles.ShiftDecisions):
    """Smallest |i| + |j| over reversing shifts, by scipy's decisions, or
    None when no shift reverses: the exact fragility index, computed apart."""
    a, b, c, d = cells
    m = 8
    while True:
        i_lo, i_hi, j_lo, j_hi = -min(a, m), min(b, m), -min(c, m), min(d, m)
        grid = dec.grid(i_lo, i_hi, j_lo, j_hi)
        cost = np.abs(np.arange(i_lo, i_hi + 1))[:, None] + np.abs(np.arange(j_lo, j_hi + 1))
        hits = cost[grid & (cost <= m)]
        if hits.size:
            return int(hits.min())
        if m >= max(cells):
            return None
        m *= 2


def check_fi_gfi(cells, fi, gfis, dec: oracles.ShiftDecisions, p0):
    """The trial_sweep checks of fi_2x2_exact and gfi_greedy results; gfis
    is a list of (q, result)."""
    sig0 = dec.sig0
    best = min_reversal_cost(cells, dec)
    _check_table_result(fi, sig0, p0, "fi")
    if fi.unbounded:
        _expect(best is None, "fi is UNBOUNDED but a shift reverses")
    else:
        moved = _check_reversing_plan(cells, fi, 0.0, sig0, "fi")
        _close(fi.p_after, oracles.fisher_p(*moved), 1e-9, "fi p_after")
        _expect(abs(fi.index) == best, f"fi = {fi.index}, cheapest reversal {best}")
    for q, g in gfis:
        _check_table_result(g, sig0, p0, f"gfi q={q}")
        if not g.unbounded:
            _check_reversing_plan(cells, g, q, sig0, f"gfi q={q}")
            _expect(abs(g.index) >= best, f"|gfi q={q}| = {abs(g.index)} < |fi| = {best}")


def check_exact_sfi(cells, ex, dec: oracles.ShiftDecisions, p0):
    a, b, c, d = cells
    _check_table_result(ex, dec.sig0, p0, "exact_sfi")
    _expect(not ex.unbounded, "exact_sfi is UNBOUNDED on a reversible table")
    k = abs(ex.index)
    _expect((ex.index > 0) == dec.sig0, "exact_sfi index sign")
    _expect(ex.p_below <= 0.5 < ex.p_at, f"exact_sfi bracket {ex.p_below} / {ex.p_at}")
    i_lo, i_hi, j_lo, j_hi = -min(a, k), min(b, k), -min(c, k), min(d, k)
    rev = dec.grid(i_lo, i_hi, j_lo, j_hi)
    perms = oracles.cell_perms(cells, 0.0)
    for kk, got in ((k, ex.p_at), (k - 1, ex.p_below)):
        want = float(oracles.composition_probability(cells, perms, kk, rev, (i_lo, j_lo)))
        _expect(abs(got - want) <= 1e-10, f"P[E_{kk}] {got!r} != composition sum {want!r}")


def make_table(rng, n1: int, n2: int, p1: float, z: float, seen: set):
    """Counts with arm sizes n1 and n2, an arm-1 event rate near p1 and a
    two-proportion z statistic within 0.1 of z (either sign), so tables of
    one slot cost about the same whatever the seed. Tables in `seen` are
    skipped; the jitter widens if they crowd out the rest."""
    for attempt in range(1_000_000):
        width = 3 + attempt // 50
        a = int(round(n1 * p1)) + int(rng.integers(-width, width + 1))
        aim = z + rng.uniform(-0.1, 0.1)
        r1 = a / n1
        r2 = r1 - rng.choice([-1.0, 1.0]) * aim * math.sqrt(r1 * (1 - r1) * (1 / n1 + 1 / n2))
        c = int(round(r2 * n2))
        cells = (a, n1 - a, c, n2 - c)
        if min(cells) <= 0 or cells in seen:
            continue
        pooled = (a + c) / (n1 + n2)
        got = abs(a / n1 - c / n2) / math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
        if abs(got - z) <= 0.1:
            seen.add(cells)
            return cells
    raise RuntimeError("no fresh table left for this slot")


# ----------------------------------------------------------------------


class TrialSweep:
    """One operation is one new 2x2 table, as in a review of many trials:
    fi_2x2_exact, gfi_greedy at q=0 and q=0.25, and exact_sfi_2x2 at r=1/2.
    No table repeats in a run, so every call builds its own reversal grid.
    A round has six tables with arms of 100 to 270 cases, all with about
    27,000 shifted tables in their full grid, so operations cost about the
    same and the median latency is one of many alike; three are aimed at
    significant tables and three at insignificant ones. The seed picks the
    counts within each slot."""

    # (n1, n2, arm-1 event rate, aimed |z|)
    SLOTS = ((100, 270, 0.3, 2.8), (270, 100, 0.25, 1.2), (135, 200, 0.3, 1.2),
             (200, 135, 0.25, 2.8), (165, 165, 0.2, 2.8), (165, 165, 0.3, 1.2))
    Q = 0.25
    fresh_inputs = True

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        self._seen: set = set()

    def setup(self):
        self.test = self.lib.fisher_test(alpha=ALPHA)

    def _table(self, j: int, slot: int):
        n1, n2, p1, z = self.SLOTS[slot]
        return make_table(_rng(self.seed, 1, j, slot), n1, n2, p1, z, self._seen)

    def _run(self, cells):
        lib = self.lib
        table = lib.Table2x2(*cells)
        fi = lib.fi_2x2_exact(table, self.test)
        frame = lib.frame_from_table(table)
        mod0 = lib.empirical_modifier(frame, 0.0)
        g0 = lib.gfi_greedy(frame, mod0, self.test)
        gq = lib.gfi_greedy(frame, lib.empirical_modifier(frame, self.Q), self.test)
        ex = lib.exact_sfi_2x2(table, mod0, self.test, r=0.5)
        return fi, g0, gq, ex

    def _check(self, cells, out):
        fi, g0, gq, ex = out
        dec = oracles.ShiftDecisions(cells)
        p0 = oracles.fisher_p(*cells)
        check_fi_gfi(cells, fi, [(0.0, g0), (self.Q, gq)], dec, p0)
        check_exact_sfi(cells, ex, dec, p0)
        # the vectorized decisions against fisher_exact, around the answers
        k = abs(ex.index)
        a, b, c, d = cells
        dec.validate([(-min(a, k), 0), (0, min(d, k)), (min(b, k), -min(c, k)), (0, 0)])

    def round(self, j: int):
        ops = []
        for slot in range(len(self.SLOTS)):
            cells = self._table(j, slot)
            ops.append(Op("table", lambda cells=cells: self._run(cells),
                          lambda out, cells=cells: self._check(cells, out)))
        return ops


class SensitivityGrid:
    """The worked table through sgfi over r x q, as `fragility sgfi --grid`
    does, once per Monte Carlo seed. Set-up builds the reversal contexts
    (the cold grid a first sgfi call pays), so the timed work is Monte Carlo
    trials, the root finder and the confirmation walk. q = 0, 0.2 and 0.5
    permit different cells. Each round also runs r = 0.9 at q = 0, which
    fails every time (fault sgfi-high-r), with a seed that does not depend
    on --seed."""

    fresh_inputs = False

    RS = (0.25, 0.5, 0.75)
    QS = (0.0, 0.2, 0.5)
    HIGH_R = 0.9

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed
        doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if tuple(doc["table"]) != WORKED or doc["alpha"] != ALPHA:
            raise ValueError("reference.json is for another table")
        self.ref = {}
        for cur in doc["curves"]:
            if tuple(cur["perms"]) != oracles.cell_perms(WORKED, cur["q"]):
                raise ValueError(f"reference.json perms differ at q={cur['q']}")
            self.ref[cur["q"]] = cur["p"]
        self.sig0 = oracles.significant(*WORKED)

    def setup(self):
        lib = self.lib
        self.test = lib.fisher_test(alpha=ALPHA)
        self.frame = lib.frame_from_table(lib.Table2x2(*WORKED))
        self.mods = {q: lib.empirical_modifier(self.frame, q) for q in self.QS}
        for q in self.QS:
            _expect(lib.reversible(self.frame, self.mods[q], self.test),
                    f"worked table not reversible at q={q}")

    def _sgfi(self, q, r, mc_seed):
        cfg = self.lib.SgfiConfig(r=r, seed=mc_seed, threads=1)
        return self.lib.sgfi(self.frame, self.mods[q], self.test, cfg)

    def _check(self, q, r, res):
        _expect(not res.unbounded and (res.index > 0) == self.sig0,
                f"sgfi index {res.index} against scipy's decision")
        at, below = res.final_at, res.final_below
        _expect(at.k == abs(res.index) and below.k == at.k - 1, "confirmation ks")
        _expect(at.p_hat > r >= below.p_hat, f"confirmation does not bracket r={r}")
        curve = self.ref[q]
        for est in (at, below):
            _expect(est.k < len(curve), f"reference.json stops before k={est.k}")
            p = curve[est.k]
            band = 4.0 * math.sqrt(p * (1.0 - p) / est.trials)
            _expect(abs(est.p_hat - p) <= band,
                    f"q={q} r={r}: p_hat({est.k}) = {est.p_hat} is more than 4 SE "
                    f"from exact {p:.6f}")

    def round(self, j: int):
        mc_seed = int(_rng(self.seed, 2, j).integers(2**31))
        ops = []
        for q in self.QS:
            for r in self.RS:
                ops.append(Op("sgfi", lambda q=q, r=r: self._sgfi(q, r, mc_seed),
                              lambda res, q=q, r=r: self._check(q, r, res)))
        fixed_seed = j % 4
        ops.append(Op("sgfi", lambda: self._sgfi(0.0, self.HIGH_R, fixed_seed),
                      lambda res: self._check(0.0, self.HIGH_R, res),
                      fault=SGFI_HIGH_R))
        return ops


def make_covariate_frame(rng, n: int, z: float):
    """Two arms of n/2 cases, one N(0,1) covariate and a binary outcome
    from a logistic model whose arm effect aims at Wald statistic z. The
    frame is redrawn until a logistic fit made apart from the library puts
    |z| within 0.05 of the aim, so frames of one slot have similar indices
    whatever the seed."""
    arm = np.repeat([0, 1], [n // 2, n - n // 2])
    beta = z * math.sqrt(4.0 / (n * 0.2)) * 1.05
    while True:
        x = np.round(rng.normal(size=n), 6)
        eta = -1.0 + beta * arm + 0.8 * x
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
        X = np.column_stack([np.ones(n), arm, x])
        try:
            p, _ = oracles.logistic_wald(X, y)
        except (ArithmeticError, np.linalg.LinAlgError):
            continue
        got = -NormalDist().inv_cdf(p / 2.0)
        if abs(got - z) <= 0.05:
            return arm, x, y


def _check_flips(X, y, ids, p_before, p_after):
    """A logistic plan flipping the outcomes of cases `ids` in order, against
    a separate fit: p before and after agree to 1e-6, the plan reverses the
    decision, and without its last entry it does not."""
    p0, _ = oracles.logistic_wald(X, y)
    _expect(abs(p_before - p0) <= 1e-6, f"p_before {p_before} != {p0}")
    if not ids:
        return
    _expect(len(set(ids)) == len(ids), "plan modifies a case twice")
    y2 = y.copy()
    y2[ids] = 1 - y2[ids]
    p1, _ = oracles.logistic_wald(X, y2)
    _expect(abs(p_after - p1) <= 1e-6, f"p_after {p_after} != {p1}")
    _expect((p1 < ALPHA) != (p0 < ALPHA), "plan does not reverse the decision")
    y2[ids[-1]] = y[ids[-1]]
    p2, _ = oracles.logistic_wald(X, y2)
    _expect((p2 < ALPHA) == (p0 < ALPHA), "the plan without its last entry reverses")


class CovariateFrame:
    """Synthetic case-level frames with one continuous covariate under the
    logistic Wald test, standing in for the follow-up study. One operation
    is gfi_greedy at q=0 on one frame, or probability_reversal at one k with
    a few trials, each trial a restricted greedy search."""

    fresh_inputs = False

    # (cases, aimed |z| of the arm): significant and insignificant frames of
    # each size, twice
    SLOTS = tuple((n, z) for n in (200, 260, 320) for z in (3.0, 0.9)) * 2
    TRIALS = 4

    def __init__(self, lib, seed: int):
        self.lib, self.seed = lib, seed

    def setup(self):
        lib = self.lib
        self.test = lib.logistic_wald_test(covariates=("x",), alpha=ALPHA)
        self.frames = []
        for slot, (n, z) in enumerate(self.SLOTS):
            arm, x, y = make_covariate_frame(_rng(self.seed, 3, slot), n, z)
            frame = lib.CaseFrame.from_columns(
                ["treated" if v == 0 else "control" for v in arm],
                ["event" if v == 1 else "none" for v in y],
                {"x": x},
            )
            mod = lib.empirical_modifier(frame, 0.0)
            mc_seed = int(_rng(self.seed, 4, slot).integers(2**31))
            self.frames.append((frame, mod, arm, x, y, n // 8, mc_seed))

    def _check_gfi(self, slot, res):
        _, _, arm, x, y, _, _ = self.frames[slot]
        X = np.column_stack([np.ones(len(y)), arm, x])
        p0, mu = oracles.logistic_wald(X, y)
        _expect(res.initial_significant == (p0 < ALPHA), "initial decision")
        if res.unbounded:
            _check_flips(X, y, [], res.p_before, None)
            return
        _expect((res.index > 0) == (p0 < ALPHA) and len(res.plan) == abs(res.index), "index")
        for cid, label in res.plan.entries:
            new = 1 if label == "event" else 0
            _expect(label in ("event", "none") and new != y[cid],
                    f"entry ({cid}, {label!r}) does not flip the case")
            prob = mu[cid] if new == 1 else 1.0 - mu[cid]
            _expect(prob >= 0.0, f"entry ({cid}, {label!r}) not permitted at q=0")
        _check_flips(X, y, [cid for cid, _ in res.plan.entries], res.p_before, res.p_after)

    def _check_estimate(self, slot, est):
        k = self.frames[slot][5]
        _expect(est.k == k and est.trials == self.TRIALS, "estimate k / trials")
        _expect(0 <= est.reversals <= est.trials, "reversal count out of range")
        _expect(est.p_hat == est.reversals / est.trials, "p_hat != reversals / trials")

    def round(self, j: int):
        lib, ops = self.lib, []
        for slot, (frame, mod, _, _, _, k, mc_seed) in enumerate(self.frames):
            ops.append(Op("gfi", lambda f=frame, m=mod: lib.gfi_greedy(f, m, self.test),
                          lambda res, s=slot: self._check_gfi(s, res)))
            ops.append(Op("reversal",
                          lambda f=frame, m=mod, k=k, s=mc_seed: lib.probability_reversal(
                              k, f, m, self.test, trials=self.TRIALS, seed=s, threads=1),
                          lambda est, s=slot: self._check_estimate(s, est)))
        return ops


# ----------------------------------------------------------------------


# populations above 10^7 whose closed form the 'auto' binomial tail gets
# wrong (fault closed-form-binomial); fixed, so they fail on every run
BINOMIAL_MISSES = (
    (201_884_519, 2_625_052, 4660),
    (248_335_012, 700_631, 3995),
    (139_535_251, 226_617, 750),
)


def _report_digest(result) -> str:
    """A CLI result without the report's timing, which differs per call."""
    code, out, err = result
    try:
        rep = json.loads(out)
    except ValueError:
        return repr(result)
    rep.pop("timing_s", None)
    return repr((code, json.dumps(rep, sort_keys=True), err))


class CliReports:
    """Every subcommand but repro through fragility.cli.main in-process with
    --json -, on small inputs: fi and gfi on tables, gfi on a covariate CSV,
    sgfi on a table of about 100 cases, election on the us2000 fixture and
    on generated tallies, and election --eq1 below 10^7 (seeded) and above
    it (fixed triples that fail every time, fault closed-form-binomial)."""

    fresh_inputs = False

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib, self.seed = lib, seed
        self.dir = workdir / f"cli-{seed}"

    def _tally(self, tag):
        """15 states of fixed size and electors; the seed jitters turnout and
        shares. Candidate a holds five states and trails narrowly in the
        rest, so a few hundred switches per state flip one."""
        rng = _rng(self.seed, 6, tag)
        states = []
        for s in range(15):
            eligible = int((30_000 + 3_000 * s) * rng.uniform(0.98, 1.02))
            nonvoters = int(eligible * rng.uniform(0.4, 0.45))
            votes = eligible - nonvoters
            share_a = rng.uniform(0.52, 0.54) if s < 5 else rng.uniform(0.485, 0.495)
            va = int(votes * share_a)
            states.append({"state": f"S{s:02d}", "a": va, "b": votes - va,
                           "nonvoters": nonvoters, "electors": 3 + s})
        return states

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = _rng(self.seed, 7)
        seen: set = set()
        ops = []
        for n1, n2, p1, z in ((80, 100, 0.3, 2.8), (100, 120, 0.25, 1.2), (120, 150, 0.2, 2.8)):
            cells = make_table(rng, n1, n2, p1, z, seen)
            ops.append(("fi", ["fi", "--table", ",".join(map(str, cells))], cells))
        for q, (n1, n2, p1, z) in ((0.0, (90, 110, 0.3, 2.8)), (0.25, (110, 130, 0.3, 1.2))):
            cells = make_table(rng, n1, n2, p1, z, seen)
            ops.append(("gfi", ["gfi", "--table", ",".join(map(str, cells)), "--q", str(q)],
                        (cells, q)))
        # a small case file with one covariate
        arm, x, y = make_covariate_frame(rng, 120, 2.8)
        path = self.dir / "cases.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["arm", "outcome", "x"])
            for row in zip(arm, y, x):
                w.writerow([f"arm{row[0]}", "event" if row[1] else "none", repr(float(row[2]))])
        ops.append(("gfi_csv", ["gfi", "--csv", str(path), "--arm", "arm", "--outcome",
                                "outcome", "--covariates", "x"], (arm, x, y)))
        cells = make_table(rng, 50, 50, 0.3, 2.8, seen)
        ops.append(("sgfi", ["sgfi", "--table", ",".join(map(str, cells)), "--r", "0.5",
                             "-B", "50", "-T", "30"], cells))
        ops.append(("us2000", ["election"], None))
        for tag in range(2):
            states = self._tally(tag)
            path = self.dir / f"tally{tag}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["state", "votes_a", "votes_b", "nonvoters", "electors"])
                for s in states:
                    w.writerow([s["state"], s["a"], s["b"], s["nonvoters"], s["electors"]])
            ops.append(("tally", ["election", "--csv", str(path)], states))
        for _ in range(3):
            pop = int(500_000 * rng.uniform(0.95, 1.05))
            pool = int(pop / 10 * rng.uniform(0.95, 1.05))
            g = int(rng.integers(190, 211))
            ops.append(("eq1", ["election", "--eq1", f"{pop},{pool},{g}"], (pop, pool, g)))
        for triple in BINOMIAL_MISSES:
            ops.append(("eq1", ["election", "--eq1", ",".join(map(str, triple))], triple))
        self.ops = [(kind, argv + ["--json", "-"], data) for kind, argv, data in ops]

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _check(self, kind, data, result):
        code, out, err = result
        _expect(code == 0, f"exit code {code}: {err.strip()[-300:]}")
        rep = json.loads(out)
        getattr(self, f"_check_{kind}")(rep, data)

    @staticmethod
    def _entries(cells, plan):
        """(case id, new label) entries of a table plan report: its case ids,
        in plan order, each with the target label of its cell."""
        _expect(sum(cell["count"] for cell in plan["cells"]) == plan["size"]
                == len(plan["case_ids"]), "plan size, cells and case ids disagree")
        labels = {(cell["arm"], cell["from"]): cell["to"] for cell in plan["cells"]}
        layout = _layout(cells)
        out = []
        for cid in plan["case_ids"]:
            cell = int(layout[cid])
            key = ("arm1" if cell < 2 else "arm2", "event" if cell % 2 == 0 else "nonevent")
            _expect(key in labels, f"case {cid} is not in the plan's cells")
            out.append((cid, labels[key]))
        return out

    def _check_table_report(self, rep, cells, q, what):
        """The trial_sweep checks of one fi or gfi report."""
        dec = oracles.ShiftDecisions(cells)
        _close(rep["p_before"], oracles.fisher_p(*cells), 1e-9, f"{what} p_before")
        _expect(rep["initial_significant"] == dec.sig0, f"{what} initial decision")
        best = min_reversal_cost(cells, dec)
        if rep["result"] == "UNBOUNDED":
            _expect(q > 0 or best is None, f"{what} UNBOUNDED but a shift reverses")
            return
        idx = rep["result"]
        _expect((idx > 0) == dec.sig0 and rep["plan"]["size"] == abs(idx), f"{what} index")
        moved = _replay(cells, self._entries(cells, rep["plan"]), q)
        _expect(oracles.significant(*moved) != dec.sig0, f"{what} plan does not reverse")
        _close(rep["p_after"], oracles.fisher_p(*moved), 1e-9, f"{what} p_after")
        if what == "fi":
            _expect(abs(idx) == best, f"fi = {idx}, cheapest reversal {best}")
        else:
            _expect(abs(idx) >= best, f"|{what}| = {abs(idx)} < |fi| = {best}")

    def _check_fi(self, rep, cells):
        self._check_table_report(rep, cells, 0.0, "fi")

    def _check_gfi(self, rep, data):
        cells, q = data
        self._check_table_report(rep, cells, q, f"gfi q={q}")

    def _check_gfi_csv(self, rep, data):
        arm, x, y = data
        X = np.column_stack([np.ones(len(y)), arm, x])
        if rep["result"] == "UNBOUNDED":
            _check_flips(X, y, [], rep["p_before"], None)
            return
        ids = rep["plan"]["case_ids"]
        _expect(len(ids) == abs(rep["result"]), "plan ids")
        _check_flips(X, y, ids, rep["p_before"], rep["p_after"])

    def _check_sgfi(self, rep, cells):
        sig0 = oracles.significant(*cells)
        _expect(rep["result"] != "UNBOUNDED" and (rep["result"] > 0) == sig0, "sgfi index")
        at, below = rep["confirmation"]["at"], rep["confirmation"]["below"]
        _expect(at["p_hat"] > 0.5 >= below["p_hat"], "sgfi confirmation does not bracket r")
        for est in (at, below):
            p = oracles.table_probability(cells, est["k"]) if est["k"] > 0 else 0.0
            band = 4.0 * math.sqrt(p * (1.0 - p) / est["trials"])
            _expect(abs(est["p_hat"] - p) <= band, f"sgfi p_hat({est['k']}) beyond 4 SE")

    def _check_closed_form(self, cf, pop, pool, g):
        _expect((cf["population"], cf["pool"], cf["switches"]) == (pop, pool, g), "eq1 inputs")
        _expect(oracles.closed_form_ok(pop, pool, g, cf["index"]),
                f"closed form m={cf['index']} is not the smallest m with tail > 1/2 "
                f"at N={pop}, K={pool}, g={g}")

    def _check_us2000(self, rep, _):
        _expect(rep["result"] == 538 and rep["flip_states"] == ["Florida"], "us2000 switches")
        red = rep["reduction"]
        self._check_closed_form(rep["closed_form"], red["population"], red["pool"], 538)

    def _check_tally(self, rep, states):
        cost, to_win, held = oracles.min_switches(states)
        _expect(rep["result"] == cost, f"tally switches {rep['result']} != knapsack {cost}")
        by_name = {s["state"]: s for s in states}
        gained, spent = 0, 0
        for item in rep["per_state_switches"]:
            s = by_name[item["state"]]
            _expect(s["a"] <= s["b"] and item["switches"] == s["b"] - s["a"] + 1
                    <= s["nonvoters"], f"flip of {item['state']}")
            gained += s["electors"]
            spent += item["switches"]
        _expect(held + gained >= to_win and spent == cost, "listed flips do not win")
        red = rep["reduction"]
        pool = sum(by_name[n]["nonvoters"] for n in rep["flip_states"])
        _expect(red["pool"] == pool and red["switches"] == cost
                and red["population"] == sum(s["a"] + s["b"] + s["nonvoters"] for s in states),
                "tally reduction")
        self._check_closed_form(rep["closed_form"], red["population"], pool, cost)

    def _check_eq1(self, rep, triple):
        self._check_closed_form(rep["closed_form"], *triple)

    def round(self, j: int):
        ops = []
        for kind, argv, data in self.ops:
            fault = CLOSED_FORM_BINOMIAL if kind == "eq1" and data in BINOMIAL_MISSES else None
            ops.append(Op(kind, lambda argv=argv: self._main(argv),
                          lambda res, kind=kind, data=data: self._check(kind, data, res),
                          fault=fault, digest=_report_digest))
        return ops
