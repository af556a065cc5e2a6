"""Acceptance gate: the pinned reference values, tolerances, and runtime
budgets, one criterion per test.

The pinned checks themselves live in `fragility.repro`, which
`fragility repro` prints; the criteria here call those checks and add only
what the command does not run (the boundary +-1e-9 points, the
exact-Fraction oracle, the CLI note and the property suite).

Each criterion records a single ACCEPTANCE verdict line; conftest prints
them all in a terminal-summary section after the run, where pytest's
fd-level capture can't swallow them. Budgets are wall-clock after an
autouse fixture has run every search once (so the per-table caches are
warm), generous enough for slow machines yet tight enough to catch
algorithmic regressions.
"""

import json
import time

import pytest

from conftest import ACCEPTANCE_LINES, nhefs_path, oracle_crossing
from fragility import repro
from fragility.cases import apply_plan, empirical_modifier, table_from_frame
from fragility.cli import main
from fragility.core import fi_2x2_exact, gfi_greedy, is_unbounded
from fragility.repro import _exact_prob_reversal
from fragility.stats import fisher_exact_two_sided
from fragility.stochastic import SgfiConfig, exact_sfi_2x2, probability_reversal, sgfi


def announce(criterion, ok, detail):
    verdict = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)  # also lands in the per-test captured output


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


@pytest.fixture(scope="module", autouse=True)
def warm(frame3, table3, fisher05):
    # build the worked table's caches once so budgets measure the searches
    mod = empirical_modifier(frame3, 0.0)
    fisher_exact_two_sided(table3)
    fi_2x2_exact(table3, fisher05)
    gfi_greedy(frame3, mod, fisher05)
    exact_sfi_2x2(table3, mod, fisher05, r=0.5)
    probability_reversal(5, frame3, mod, fisher05, trials=20, seed=0)


def run_check(check, *args):
    """Time one pinned check and return (name, ok, detail, seconds)."""
    with timer() as t:
        name, ok, detail = check(*args)
    return name, ok, detail, t.elapsed


def test_criterion_1_fisher_p_and_odds_ratio():
    name, ok, detail, elapsed = run_check(repro.fisher_p_and_odds_ratio)
    announce(1, ok and elapsed < 1.0, f"{detail} in {elapsed:.3f}s")
    assert ok, f"{name}: {detail}"
    assert elapsed < 1.0


def test_criterion_2_fragility_index_plus_6():
    name, ok, detail, elapsed = run_check(repro.fragility_index_plus_6)
    announce(2, ok and elapsed < 5.0, f"{detail} in {elapsed:.3f}s")
    assert ok, f"{name}: {detail}"
    assert elapsed < 5.0


def test_criterion_3_incidence_boundary(frame3, fisher05):
    boundary = repro.WORKED.b / repro.WORKED.row1
    with timer() as t:
        name, ok, detail = repro.incidence_boundary()
        below = gfi_greedy(frame3, empirical_modifier(frame3, boundary - 1e-9), fisher05).index
        above = gfi_greedy(frame3, empirical_modifier(frame3, boundary + 1e-9), fisher05).index
    edges_ok = below == repro.WORKED_INDEX and is_unbounded(above)
    announce(3, ok and edges_ok and t.elapsed < 30.0,
             f"{detail}; 326/428 -+ 1e-9 -> {below}, {above} in {t.elapsed:.3f}s")
    assert ok, f"{name}: {detail}"
    assert below == repro.WORKED_INDEX
    assert is_unbounded(above)
    assert t.elapsed < 30.0


def test_criterion_4_stochastic_index_22(table3, frame3, fisher05, oracle):
    """Stochastic index at r=1/2 on the worked table, q=0.

    The published figure is 22; the package does not reproduce it. The
    index is the smallest k with P[E_k] > r, and the exact-Fraction oracle
    (conftest) gives P_20 = 0.405276 and P_21 = 0.521092, so the crossing
    is 21 (P_22 = 0.630574). The crossing is also 21 under P[E_k] >= r and
    under sampling with replacement. The repository holds only the
    paper's abstract, so where 22 comes from cannot be traced. The name
    records the published figure; the test checks that the pinned index of
    both repro rows is the oracle's crossing, and the exact index's
    probabilities against the oracle.
    """
    want = oracle_crossing(oracle, 0.5)
    mc_name, mc_ok, mc_detail, mc_s = run_check(repro.stochastic_half_index)
    with timer() as t_exact:
        ex_name, ex_ok, ex_detail = repro.exact_half_index()
        exact = exact_sfi_2x2(table3, empirical_modifier(frame3, 0.0), fisher05, r=0.5)
    p_at, p_below = float(oracle[want]), float(oracle[want - 1])
    oracle_ok = (
        abs(exact.p_at - p_at) <= repro.PROB_TOL
        and abs(exact.p_below - p_below) <= repro.PROB_TOL
    )
    announce(4, want == repro.HALF_INDEX and mc_ok and mc_s < 120.0 and ex_ok and oracle_ok
             and t_exact.elapsed < 60.0,
             f"mc {mc_detail} in {mc_s:.1f}s; exact {ex_detail}; oracle crossing {want}, "
             f"probabilities within {repro.PROB_TOL:g}: {oracle_ok} in {t_exact.elapsed:.2f}s")
    assert want == repro.HALF_INDEX
    assert ex_ok, f"{ex_name}: {ex_detail}"
    assert exact.p_at == pytest.approx(p_at, abs=repro.PROB_TOL)
    assert exact.p_below == pytest.approx(p_below, abs=repro.PROB_TOL)
    assert mc_ok, f"{mc_name}: {mc_detail}"
    assert mc_s < 120.0
    assert t_exact.elapsed < 60.0


def test_criterion_5_monte_carlo_vs_oracle():
    name, ok, detail, elapsed = run_check(repro.monte_carlo_vs_exact)
    announce(5, ok and elapsed < 120.0, f"{detail} in {elapsed:.1f}s")
    assert ok, f"{name}: {detail}"
    assert elapsed < 120.0


def test_criterion_6_election():
    name, ok, detail, elapsed = run_check(repro.election)
    announce(6, ok and elapsed < 1.0, f"{detail} in {elapsed:.3f}s")
    assert ok, f"{name}: {detail}"
    assert elapsed < 1.0


def test_criterion_7_insignificant_table(capsys):
    name, ok, detail, elapsed = run_check(repro.insignificant_table)
    table = ",".join(map(str, repro.MOTIVATING.as_tuple()))
    rc = main(["fi", "--table", table, "--json", "-"])
    report = json.loads(capsys.readouterr().out)
    noted = rc == 0 and "not significant" in report.get("note", "")
    announce(7, ok and noted and elapsed < 5.0,
             f"{detail}; note_emitted={noted} in {elapsed:.3f}s")
    assert ok, f"{name}: {detail}"
    assert noted
    assert elapsed < 5.0


def test_criterion_8_follow_up_dataset():
    path = nhefs_path()
    if path is None:
        announce(8, "SKIP", "follow-up extract not supplied (FRAGILITY_NHEFS)")
        pytest.skip("follow-up study extract not supplied")
    with timer() as t:
        checks = repro.nhefs_checks(str(path), seed=0)
    ok = all(c_ok for _, c_ok, _ in checks)
    announce(8, ok, "; ".join(f"{name}: {detail}" for name, _, detail in checks)
             + f" in {t.elapsed:.1f}s")
    for name, c_ok, detail in checks:
        assert c_ok, f"{name}: {detail}"


def test_criterion_9_property_suite(table3, table2, frame3, frame2, fisher05):
    details = []
    with timer() as t:
        # permitted sets shrink as q grows
        sizes = []
        for q in (0.0, 0.2, 0.5, 0.8, 0.9):
            sizes.append(int(empirical_modifier(frame3, q).permitted_matrix().sum()))
        shrink_ok = all(a >= b for a, b in zip(sizes, sizes[1:]))
        details.append(f"permitted sizes {sizes}")

        # exact P[E_k] monotone in k up to 40
        mod0 = empirical_modifier(frame3, 0.0)
        probs = [_exact_prob_reversal(table3, mod0, fisher05, k) for k in range(1, 41)]
        mono_k = all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))
        details.append(f"P[E_k] monotone k<=40: {mono_k}")

        # |SGFI| monotone in r (MC, fixed seed) and in q (exact)
        mc_rows = [
            abs(sgfi(frame3, mod0, fisher05, SgfiConfig(r=r, seed=0)).index)
            for r in (0.25, 0.5, 0.75)
        ]
        mod5 = empirical_modifier(frame3, 0.5)
        exact_row_q0 = [abs(exact_sfi_2x2(table3, mod0, fisher05, r=r).index) for r in (0.25, 0.5, 0.75)]
        exact_row_q5 = [abs(exact_sfi_2x2(table3, mod5, fisher05, r=r).index) for r in (0.25, 0.5, 0.75)]
        mono_rq = (
            mc_rows == sorted(mc_rows)
            and exact_row_q0 == sorted(exact_row_q0)
            and all(lo <= hi for lo, hi in zip(exact_row_q0, exact_row_q5))
        )
        details.append(f"mc rows {mc_rows}, exact q=0 {exact_row_q0}, q=0.5 {exact_row_q5}")

        # sign convention and plan application
        pos = fi_2x2_exact(table3, fisher05)
        neg = fi_2x2_exact(table2, fisher05)
        sign_ok = (pos.index > 0) == pos.initial_significant and (neg.index < 0) == (
            not neg.initial_significant
        )
        flips_ok = True
        for frame, res in ((frame3, pos), (frame2, neg)):
            after = table_from_frame(apply_plan(frame, res.plan))
            p_after = fisher_exact_two_sided(after)
            flips_ok = flips_ok and ((p_after < 0.05) != res.initial_significant)
        details.append(f"signs ok {sign_ok}, plans flip {flips_ok}")

        # determinism across reruns with one seed
        est1 = probability_reversal(22, frame3, mod0, fisher05, trials=400, seed=5)
        est2 = probability_reversal(22, frame3, mod0, fisher05, trials=400, seed=5)
        cfg = SgfiConfig(r=0.5, trials=100, iterations=30, seed=2)
        run1 = sgfi(frame3, mod0, fisher05, cfg)
        run2 = sgfi(frame3, mod0, fisher05, cfg)
        det_ok = est1 == est2 and (
            run1.index,
            run1.polyak_mean,
            run1.trajectory,
            run1.final_at,
            run1.final_below,
        ) == (run2.index, run2.polyak_mean, run2.trajectory, run2.final_at, run2.final_below)
        details.append(f"reruns deterministic {det_ok}")

    ok = shrink_ok and mono_k and mono_rq and sign_ok and flips_ok and det_ok
    announce(9, ok and t.elapsed < 600.0, "; ".join(details) + f" in {t.elapsed:.1f}s")
    assert shrink_ok
    assert mono_k
    assert mono_rq
    assert sign_ok
    assert flips_ok
    assert det_ok
    assert t.elapsed < 600.0
