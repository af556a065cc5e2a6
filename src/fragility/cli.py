"""Command line front end.

Subcommands
-----------
fi        exact signed fragility index of a 2x2 table or two-arm CSV
gfi       greedy generalized index under a sufficiently-likely modifier
sgfi      stochastic generalized index via Monte Carlo root finding
election  electoral-college switch analysis plus the closed-form SGFI(1/2)
repro     run the pinned reference checks and print a pass/fail table

Reports are JSON with insertion-ordered keys; floats carry 17 significant
digits, so parsing the emitted text reproduces every value exactly.

Exit codes: 0 success (an UNBOUNDED result is a legitimate answer),
2 bad input, 3 computation diagnostics (non-convergence, failed
confirmation walk).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from .cases import (
    CaseFrame,
    apply_plan,
    empirical_modifier,
    frame_from_table,
    load_csv,
    table_from_frame,
)
from .core import fi_2x2_exact, gfi_greedy, is_unbounded, reversible_2x2_exact
from .election import election_gfi, load_tally_csv, load_us2000, sgfi_half_closed_form
from .errors import (
    DataError,
    DiagnosticError,
    InvalidParameterError,
    ParseError,
    SchemaError,
    SingularDesignError,
    UnconvergedFitError,
)
from .stats import Table2x2, fisher_exact_two_sided, fisher_test, logistic_wald_test
from .stochastic import SgfiConfig, exact_sfi_2x2, probability_reversal, sgfi

_INPUT_ERRORS = (
    InvalidParameterError,
    ParseError,
    SchemaError,
    DataError,
    SingularDesignError,
    OSError,
)
_DIAGNOSTIC_ERRORS = (DiagnosticError, UnconvergedFitError)


# ---------------------------------------------------------------------------
# JSON emission: stable key order, 17 significant digits, exact round trips.


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite number in report")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"  # keep the value a float on re-parse
    return s


def _emit(obj, level: int = 0) -> str:
    pad = "  " * level
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _emit(v, level + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k), ensure_ascii=False) + ": " + _emit(v, level + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_report(report: dict) -> str:
    return _emit(report) + "\n"


def _write_report(report, path):
    text = emit_report(report)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# human-readable lines are dropped when the JSON report itself streams to
# stdout, so `--json -` always emits a parseable document
_QUIET = False


def say(*parts, **kwargs):
    if not _QUIET:
        print(*parts, **kwargs)


# ---------------------------------------------------------------------------
# report building blocks


def _index_field(index):
    return "UNBOUNDED" if is_unbounded(index) else int(index)


def _digest(frame: CaseFrame) -> dict:
    arms = {
        level: int(np.sum(frame.arm_codes == code))
        for code, level in enumerate(frame.arm_levels)
    }
    outcomes = {
        level: int(np.sum(frame.outcome_codes == code))
        for code, level in enumerate(frame.outcome_levels)
    }
    return {
        "cases": frame.n,
        "arm_counts": arms,
        "outcome_counts": outcomes,
        "covariates": list(frame.covariates),
    }


def _plan_summary(frame: CaseFrame, plan) -> dict:
    if plan is None or not plan.entries:
        return {"size": 0, "cells": [], "case_ids": []}
    ids = [int(cid) for cid, _ in plan.entries]
    pos = frame.positions_of(ids)
    cells: dict = {}
    for (cid, new_label), p in zip(plan.entries, pos):
        key = (
            frame.arm_levels[frame.arm_codes[p]],
            frame.outcome_levels[frame.outcome_codes[p]],
            new_label,
        )
        cells[key] = cells.get(key, 0) + 1
    out = {
        "size": len(ids),
        "cells": [
            {"arm": a, "from": old, "to": new, "count": c}
            for (a, old, new), c in sorted(cells.items())
        ],
        "case_ids": ids[:200],
    }
    if len(ids) > 200:
        out["case_ids_truncated"] = True
    # covariate summary of the selected cases, plot-ready histogram included
    if frame.covariates:
        out["covariate_summary"] = _covariate_blocks(frame, pos)
    return out


def _covariate_blocks(frame: CaseFrame, positions) -> list:
    blocks = []
    for name, col in frame.covariates.items():
        sel = col[positions]
        edges = np.histogram_bin_edges(col, bins=10)
        counts_all, _ = np.histogram(col, bins=edges)
        counts_sel, _ = np.histogram(sel, bins=edges)
        blocks.append(
            {
                "covariate": name,
                "selected_mean": float(sel.mean()),
                "selected_min": float(sel.min()),
                "selected_max": float(sel.max()),
                "bin_edges": [float(e) for e in edges],
                "counts_all": [int(c) for c in counts_all],
                "counts_selected": [int(c) for c in counts_sel],
            }
        )
    return blocks


def _estimate_block(est):
    if est is None:
        return None
    return {
        "k": int(est.k),
        "p_hat": float(est.p_hat),
        "trials": int(est.trials),
        "reversals": int(est.reversals),
        "seed": int(est.seed),
    }


_NEGATIVE_NOTE = (
    "not significant at the chosen alpha before any modification; the "
    "negative index counts outcome modifications needed to make the result "
    "significant"
)
_UNBOUNDED_NOTE = "no permitted sequence of outcome modifications reverses the decision"


def _result_note(index) -> str | None:
    if is_unbounded(index):
        return _UNBOUNDED_NOTE
    if index < 0:
        return _NEGATIVE_NOTE
    return None


def _base_report(command, argv, measure, frame, params) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "version": __version__,
        "measure": measure,
        "input": _digest(frame),
        "parameters": params,
    }


# ---------------------------------------------------------------------------
# argument handling


def _parse_table(text) -> Table2x2:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise InvalidParameterError("--table expects four counts a,b,c,d")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError:
        raise InvalidParameterError(f"--table counts must be integers, got {text!r}")
    return Table2x2(a, b, c, d)


def _parse_r(text):
    text = text.strip()
    if text == "1-":
        return "1-"
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"--r expects a probability or '1-', got {text!r}")


def _parse_grid(text):
    halves = re.split(r"\s*[xX]\s*", text.strip())
    if len(halves) != 2:
        raise InvalidParameterError("--grid expects 'r1,r2,... x q1,q2,...'")
    rs = [_parse_r(tok) for tok in halves[0].split(",") if tok.strip()]
    try:
        qs = [float(tok) for tok in halves[1].split(",") if tok.strip()]
    except ValueError:
        raise InvalidParameterError(f"--grid q values must be numbers, got {halves[1]!r}")
    if not rs or not qs:
        raise InvalidParameterError("--grid needs at least one r and one q")
    return rs, qs


def _covariate_list(text):
    if not text:
        return ()
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _load_frame(args) -> CaseFrame:
    if args.table is not None and args.csv is not None:
        raise InvalidParameterError("--table and --csv are mutually exclusive")
    if args.table is not None:
        return frame_from_table(_parse_table(args.table))
    if args.csv is not None:
        if not args.arm or not args.outcome:
            raise InvalidParameterError("--csv requires --arm and --outcome")
        covs = _covariate_list(getattr(args, "covariates", None))
        return load_csv(args.csv, arm=args.arm, outcome=args.outcome, covariates=covs)
    raise InvalidParameterError("supply --table a,b,c,d or --csv PATH")


def _make_test(args, frame: CaseFrame):
    covs = _covariate_list(getattr(args, "covariates", None))
    choice = getattr(args, "test", None)
    if choice is None:
        choice = "logistic" if covs else "fisher"
    if choice == "fisher":
        if covs:
            raise InvalidParameterError(
                "the fisher test ignores covariates; use --test logistic"
            )
        return fisher_test(alpha=args.alpha)
    missing = [c for c in covs if c not in frame.covariates]
    if missing:
        raise InvalidParameterError(f"covariates not in the data: {', '.join(missing)}")
    return logistic_wald_test(covariates=covs, alpha=args.alpha)


def _add_input_flags(p, covariates=False):
    p.add_argument("--table", help="four 2x2 counts a,b,c,d")
    p.add_argument("--csv", help="case file (UTF-8, comma separated, header row)")
    p.add_argument("--arm", help="CSV column holding the arm labels")
    p.add_argument("--outcome", help="CSV column holding the outcome labels")
    if covariates:
        p.add_argument("--covariates", help="comma-separated numeric CSV columns")
    p.add_argument("--alpha", type=float, default=0.05, help="significance cutoff")
    p.add_argument("--json", help="write the JSON report here ('-' for stdout)")


# ---------------------------------------------------------------------------
# subcommands


def cmd_fi(args, argv) -> int:
    frame = _load_frame(args)
    table = table_from_frame(frame)
    test = fisher_test(alpha=args.alpha)
    t0 = time.perf_counter()
    res = fi_2x2_exact(table, test)
    elapsed = time.perf_counter() - t0

    report = _base_report("fi", argv, "fragility index", frame, {"alpha": args.alpha})
    report["table"] = list(table.as_tuple())
    report["result"] = _index_field(res.index)
    report["initial_significant"] = res.initial_significant
    report["p_before"] = res.p_before
    report["p_after"] = res.p_after
    report["plan"] = _plan_summary(frame, res.plan)
    note = _result_note(res.index)
    if note:
        report["note"] = note
    report["timing_s"] = elapsed

    _print_index_lines(report)
    if args.json:
        _write_report(report, args.json)
    return 0


def _print_index_lines(report):
    say(f"{report['measure']}: {report['result']}")
    say(f"p before: {report['p_before']:.6g}", end="")
    if report.get("p_after") is not None:
        say(f"   p after: {report['p_after']:.6g}", end="")
    say()
    plan = report.get("plan")
    if plan and plan["size"]:
        say(f"plan: {plan['size']} modification(s)")
        for cell in plan["cells"]:
            say(f"  {cell['arm']}: {cell['from']} -> {cell['to']} x{cell['count']}")
    if report.get("note"):
        say(f"note: {report['note']}")


def cmd_gfi(args, argv) -> int:
    frame = _load_frame(args)
    test = _make_test(args, frame)
    modifier = empirical_modifier(frame, q=args.q)
    t0 = time.perf_counter()
    res = gfi_greedy(frame, modifier, test)
    elapsed = time.perf_counter() - t0

    params = {"alpha": args.alpha, "q": args.q, "test": test.name}
    report = _base_report("gfi", argv, "generalized fragility index", frame, params)
    report["result"] = _index_field(res.index)
    report["initial_significant"] = res.initial_significant
    report["p_before"] = res.p_before
    report["p_after"] = res.p_after
    report["plan"] = _plan_summary(frame, res.plan)
    note = _result_note(res.index)
    if note:
        report["note"] = note
    report["timing_s"] = elapsed

    _print_index_lines(report)
    if args.json:
        _write_report(report, args.json)
    return 0


def cmd_sgfi(args, argv) -> int:
    frame = _load_frame(args)
    test = _make_test(args, frame)
    if args.grid:
        return _sgfi_grid(args, argv, frame, test)

    modifier = empirical_modifier(frame, q=args.q)
    r_value = _parse_r(args.r)
    config = SgfiConfig(
        r=r_value,
        trials=args.trials,
        iterations=args.iterations,
        seed=args.seed,
        threads=args.threads,
    )
    t0 = time.perf_counter()
    res = sgfi(frame, modifier, test, config)
    elapsed = time.perf_counter() - t0

    params = {
        "alpha": args.alpha,
        "q": args.q,
        "r": r_value if isinstance(r_value, str) else float(r_value),
        "B": args.trials,
        "T": args.iterations,
        "seed": args.seed,
        "threads": args.threads,
        "test": test.name,
    }
    report = _base_report("sgfi", argv, "stochastic generalized fragility index", frame, params)
    report["result"] = _index_field(res.index)
    report["initial_significant"] = res.initial_significant
    report["p_before"] = res.p_before
    report["polyak_mean"] = res.polyak_mean
    report["confirmation"] = {
        "at": _estimate_block(res.final_at),
        "below": _estimate_block(res.final_below),
    }
    report["trajectory"] = [
        {"step": it.step, "k_eval": it.k_eval, "p_hat": it.p_hat, "k_next": it.k_next}
        for it in res.trajectory
    ]
    note = _result_note(res.index)
    if note:
        report["note"] = note
    report["timing_s"] = elapsed

    say(f"stochastic generalized fragility index: {report['result']}   (r={args.r}, q={args.q:g})")
    say(f"p before: {res.p_before:.6g}   polyak mean: {res.polyak_mean:.4g}")
    conf = report["confirmation"]
    if conf["at"]:
        at, below = conf["at"], conf["below"]
        line = f"confirmation: p_hat({at['k']}) = {at['p_hat']:.4g}"
        if below:
            line += f" > r >= p_hat({below['k']}) = {below['p_hat']:.4g}"
        say(line)
    if report.get("note"):
        say(f"note: {report['note']}")
    if args.trajectory:
        _write_trajectory(res.trajectory, args.trajectory)
    if args.json:
        _write_report(report, args.json)
    return 0


def _write_trajectory(trajectory, path):
    lines = ["step,k_eval,p_hat,k_next"]
    for it in trajectory:
        lines.append(f"{it.step},{it.k_eval},{_fmt_float(it.p_hat)},{_fmt_float(it.k_next)}")
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sgfi_grid(args, argv, frame, test) -> int:
    rs, qs = _parse_grid(args.grid)
    rows = []
    t0 = time.perf_counter()
    for q in qs:
        modifier = empirical_modifier(frame, q=q)
        for r in rs:
            config = SgfiConfig(
                r=r,
                trials=args.trials,
                iterations=args.iterations,
                seed=args.seed,
                threads=args.threads,
            )
            res = sgfi(frame, modifier, test, config)
            rows.append({"r": r if isinstance(r, str) else float(r), "q": float(q),
                         "index": _index_field(res.index)})
    elapsed = time.perf_counter() - t0

    params = {
        "alpha": args.alpha,
        "grid_r": [r if isinstance(r, str) else float(r) for r in rs],
        "grid_q": [float(q) for q in qs],
        "B": args.trials,
        "T": args.iterations,
        "seed": args.seed,
        "threads": args.threads,
        "test": test.name,
    }
    report = _base_report("sgfi", argv, "stochastic generalized fragility index grid",
                          frame, params)
    report["grid"] = rows
    report["timing_s"] = elapsed

    width = max(8, *(len(str(r)) for r in rs)) + 2
    header = "q \\ r".ljust(10) + "".join(str(r).rjust(width) for r in rs)
    say(header)
    at = 0
    for q in qs:
        cells = []
        for _ in rs:
            cells.append(str(rows[at]["index"]).rjust(width))
            at += 1
        say(f"{q:<10g}" + "".join(cells))
    if args.json:
        _write_report(report, args.json)
    return 0


def _parse_eq1(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise InvalidParameterError("--eq1 expects three integers N,K,g")
    try:
        pop, pool, switches = (int(p) for p in parts)
    except ValueError:
        raise InvalidParameterError(f"--eq1 values must be integers, got {text!r}")
    return pop, pool, switches


def _closed_form_block(cf):
    return {
        "index": cf.index,
        "initializer": cf.initializer,
        "approximation": cf.approximation,
        "sf_at": cf.sf_at,
        "sf_below": cf.sf_below,
        "population": cf.population,
        "pool": cf.pool,
        "switches": cf.switches,
    }


def cmd_election(args, argv) -> int:
    report = {
        "command": "election",
        "argv": list(argv),
        "version": __version__,
        "measure": "election fragility",
    }
    t0 = time.perf_counter()

    if args.eq1 and args.csv:
        raise InvalidParameterError("--eq1 and --csv are mutually exclusive")
    if args.eq1:
        pop, pool, switches = _parse_eq1(args.eq1)
        cf = sgfi_half_closed_form(pop, pool, switches)
        report["parameters"] = {"population": pop, "pool": pool, "switches": switches}
        report["closed_form"] = _closed_form_block(cf)
        report["timing_s"] = time.perf_counter() - t0
        say(f"closed-form SGFI(1/2): {cf.index}   (initializer {cf.initializer}, "
              f"approximation {cf.approximation:.2f})")
        say(f"sf({cf.index}) = {cf.sf_at:.6g} > 1/2 >= sf({cf.index - 1}) = {cf.sf_below:.6g}")
        if args.json:
            _write_report(report, args.json)
        return 0

    states = load_tally_csv(args.csv) if args.csv else load_us2000()
    race = election_gfi(states, beneficiary=args.beneficiary)
    report["parameters"] = {
        "beneficiary": args.beneficiary,
        "electors_to_win": race.electors_to_win,
        "tally": args.csv or "bundled us2000 fixture",
    }
    report["input"] = {
        "states": len(states),
        "eligible_total": race.eligible_total,
    }
    report["result"] = _index_field(race.index)
    report["flip_states"] = list(race.flip_states)
    report["per_state_switches"] = [
        {"state": name, "switches": int(sw)} for name, sw in race.per_state_switches
    ]
    report["reduction"] = {
        "population": race.eligible_total,
        "pool": race.target_pool,
        "switches": race.switch_requirement,
    }

    cf = None
    if not race.unbounded and race.index > 0:
        cf = sgfi_half_closed_form(
            race.eligible_total, race.target_pool, race.switch_requirement
        )
        report["closed_form"] = _closed_form_block(cf)
    else:
        report["closed_form"] = None
        if race.unbounded:
            report["note"] = "no nonvoter switch set flips the college"
    report["timing_s"] = time.perf_counter() - t0

    say(f"election switches needed: {report['result']}   "
          f"(beneficiary {args.beneficiary}, {race.electors_to_win} electors to win)")
    if race.per_state_switches:
        for name, sw in race.per_state_switches:
            say(f"  flip {name}: {sw} switches")
    if cf:
        say(f"reduction: population {race.eligible_total}, pool {race.target_pool}, "
              f"switches {race.switch_requirement}")
        say(f"closed-form SGFI(1/2): {cf.index}   (initializer {cf.initializer}, "
              f"approximation {cf.approximation:.2f})")
        say(f"sf({cf.index}) = {cf.sf_at:.6g} > 1/2 >= sf({cf.index - 1}) = {cf.sf_below:.6g}")
    if report.get("note"):
        say(f"note: {report['note']}")
    if args.json:
        _write_report(report, args.json)
    return 0


# ---------------------------------------------------------------------------
# repro: pinned reference checks


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


def _check(checks, name, ok, detail):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _repro_core(seed, threads, checks):
    t3 = Table2x2(102, 326, 216, 985)
    t2 = Table2x2(20, 380, 15, 385)
    test = fisher_test(alpha=0.05)
    frame3 = frame_from_table(t3)

    p3 = fisher_exact_two_sided(t3)
    orat = t3.odds_ratio()
    _check(checks, "fisher p and odds ratio",
           abs(p3 - 0.01) <= 0.005 and abs(orat - 1.43) <= 0.005,
           f"p={p3:.6g} or={orat:.6g}")

    fi3 = fi_2x2_exact(t3, test)
    g0 = gfi_greedy(frame3, empirical_modifier(frame3, q=0.0), test)
    _check(checks, "fragility index +6 (exact and greedy q=0)",
           fi3.index == 6 and g0.index == 6,
           f"exact={fi3.index} greedy={g0.index}")

    sweep = {}
    for q in (0.0, 0.25, 0.5, 0.75):
        sweep[q] = gfi_greedy(frame3, empirical_modifier(frame3, q=q), test).index
    above = gfi_greedy(frame3, empirical_modifier(frame3, q=0.77), test).index
    _check(checks, "incidence boundary at 326/428",
           all(v == 6 for v in sweep.values()) and is_unbounded(above),
           f"q<=0.75 -> {sorted(set(sweep.values()))}, q=0.77 -> "
           f"{'UNBOUNDED' if is_unbounded(above) else above}")

    # the exact crossing of P[E_k] over 1/2; the published figure is 22,
    # which the package does not reproduce (see README)
    half_k = 21
    mod0 = empirical_modifier(frame3, q=0.0)
    cfg = SgfiConfig(r=0.5, seed=seed, threads=threads)
    s_half = sgfi(frame3, mod0, test, cfg)
    _check(checks, f"stochastic index at r=1/2 within +-1 of {half_k}",
           not s_half.unbounded and abs(s_half.index - half_k) <= 1,
           f"index={s_half.index} polyak={s_half.polyak_mean:.3f}")

    ex = exact_sfi_2x2(t3, mod0, test, r=0.5)
    if ex.unbounded:
        _check(checks, f"exact half-threshold index equals {half_k}", False,
               "computed UNBOUNDED")
    else:
        # cross-check the bracket against the per-composition sum
        sums_agree = (
            abs(ex.p_at - _exact_prob_reversal(t3, mod0, test, half_k)) <= 1e-10
            and abs(ex.p_below - _exact_prob_reversal(t3, mod0, test, half_k - 1)) <= 1e-10
        )
        _check(checks, f"exact half-threshold index equals {half_k}",
               ex.index == half_k and ex.p_below <= 0.5 < ex.p_at and sums_agree,
               f"computed {ex.index} (P_{ex.index - 1}={ex.p_below:.6f} <= 1/2 < "
               f"P_{ex.index}={ex.p_at:.6f}); published 22, see README")

    ok_mc, parts = True, []
    for k in (15, 22, 30):
        exact_p = _exact_prob_reversal(t3, mod0, test, k)
        est = probability_reversal(k, frame3, mod0, test, trials=2000,
                                   seed=seed, threads=threads)
        band = 3.0 * math.sqrt(max(exact_p * (1.0 - exact_p), 1e-12) / 2000.0)
        ok_mc &= abs(est.p_hat - exact_p) <= band
        parts.append(f"k={k}: |{est.p_hat:.4f}-{exact_p:.4f}|<={band:.4f}")
    _check(checks, "monte carlo within 3 sigma of exact reversal probability",
           ok_mc, "; ".join(parts))

    race = election_gfi(load_us2000(), beneficiary="a")
    cf = sgfi_half_closed_form(194331526, 2693686, 538)
    pair = cf.sf_at > 0.5 >= cf.sf_below
    _check(checks, "election 538 switches and closed form near 38814",
           race.index == 538 and race.flip_states == ("Florida",)
           and abs(cf.initializer - 38814) <= 5 and pair,
           f"switches={race.index} flip={','.join(race.flip_states)} "
           f"exact={cf.index} initializer={cf.initializer} "
           f"sf({cf.index})={cf.sf_at:.6f}>1/2>={cf.sf_below:.6f}")

    fi2 = fi_2x2_exact(t2, test)
    frame2 = frame_from_table(t2)
    reached = table_from_frame(apply_plan(frame2, fi2.plan)).as_tuple()
    note = _result_note(fi2.index)
    _check(checks, "insignificant table: magnitude 7 reaching (20,380,8,392)",
           (not is_unbounded(fi2.index)) and abs(fi2.index) == 7
           and reached == (20, 380, 8, 392) and note is not None,
           f"index={fi2.index} p_before={fi2.p_before:.6g} "
           f"p_after={fi2.p_after:.6g} reached={reached}; note emitted")


def _repro_nhefs(path, seed, threads, checks):
    frame = load_csv(path, arm="qsmk", outcome="death", covariates=("smokeyrs",))
    test = logistic_wald_test(covariates=("smokeyrs",), alpha=0.05)

    from .stats import _design_matrix, logistic_fit, wald_p  # same fit the test runs

    X = _design_matrix(frame, ("smokeyrs",))
    fit = logistic_fit(X, frame.outcome_codes.astype(np.float64))
    beta = fit.coefficients[1]
    if frame.arm_levels.index("1") == 0:
        beta = -beta  # report the quit-vs-not direction regardless of file order
    orat = math.exp(beta)
    p = wald_p(fit, 1)
    _check(checks, "nhefs adjusted odds ratio 1.13 and p 0.41",
           abs(orat - 1.13) <= 0.02 and abs(p - 0.41) <= 0.02,
           f"or={orat:.4f} p={p:.4f}")

    g0 = gfi_greedy(frame, empirical_modifier(frame, q=0.0), test)
    _check(checks, "nhefs generalized index q=0 is -10",
           g0.index == -10, f"index={g0.index}")

    g9 = gfi_greedy(frame, empirical_modifier(frame, q=0.9), test)
    _check(checks, "nhefs generalized index q=0.9 is -30 within +-1",
           not is_unbounded(g9.index) and abs(g9.index - (-30)) <= 1,
           f"index={g9.index}")

    mod9 = empirical_modifier(frame, q=0.9)
    for r, pinned in ((0.25, -1458), (0.5, -1517), (0.75, -1569)):
        cfg = SgfiConfig(r=r, seed=seed, threads=threads)
        res = sgfi(frame, mod9, test, cfg)
        ok = (not res.unbounded
              and abs(res.index - pinned) <= abs(pinned) * 0.02)
        _check(checks, f"nhefs stochastic index r={r} near {pinned}",
               ok, f"index={res.index}")


def cmd_repro(args, argv) -> int:
    checks: list = []
    t0 = time.perf_counter()
    _repro_core(args.seed, args.threads, checks)
    skipped = []
    if args.nhefs:
        _repro_nhefs(args.nhefs, args.seed, args.threads, checks)
    else:
        skipped.append("dataset-gated checks (supply --nhefs PATH to run them)")
    elapsed = time.perf_counter() - t0

    name_w = max(len(c["name"]) for c in checks)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        say(f"{status}  {c['name']:<{name_w}}  {c['detail']}")
    for s in skipped:
        say(f"SKIP  {s}")
    failures = sum(1 for c in checks if not c["ok"])
    say(f"{len(checks) - failures}/{len(checks)} checks passed in {elapsed:.1f}s")

    if args.json:
        report = {
            "command": "repro",
            "argv": list(argv),
            "version": __version__,
            "parameters": {"seed": args.seed, "threads": args.threads,
                           "nhefs": args.nhefs},
            "checks": [
                {"name": c["name"], "status": "PASS" if c["ok"] else "FAIL",
                 "detail": c["detail"]}
                for c in checks
            ],
            "skipped": skipped,
            "failures": failures,
            "timing_s": elapsed,
        }
        _write_report(report, args.json)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragility",
        description="fragility measures for hypothesis tests and elections",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fi", help="exact signed fragility index of a 2x2 table")
    _add_input_flags(p)
    p.set_defaults(func=cmd_fi)

    p = sub.add_parser("gfi", help="greedy generalized fragility index")
    _add_input_flags(p, covariates=True)
    p.add_argument("--q", type=float, default=0.0,
                   help="sufficiently-likely threshold in [0,1]")
    p.add_argument("--test", choices=("fisher", "logistic"),
                   help="decision test (default: fisher, logistic with covariates)")
    p.set_defaults(func=cmd_gfi)

    p = sub.add_parser("sgfi", help="stochastic generalized fragility index")
    _add_input_flags(p, covariates=True)
    p.add_argument("--q", type=float, default=0.0,
                   help="sufficiently-likely threshold in [0,1]")
    p.add_argument("--r", default="0.5", help="stochastic threshold in [0,1) or '1-'")
    p.add_argument("-B", dest="trials", type=int, default=200,
                   help="Monte Carlo trials per estimate")
    p.add_argument("-T", dest="iterations", type=int, default=60,
                   help="root-finder iterations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--test", choices=("fisher", "logistic"))
    p.add_argument("--grid", help="sweep 'r1,r2,... x q1,q2,...' and print the table")
    p.add_argument("--trajectory", help="write the root-finder trajectory CSV here")
    p.set_defaults(func=cmd_sgfi)

    p = sub.add_parser("election", help="electoral-college switch analysis")
    p.add_argument("--csv", help="state tally csv (default: bundled 2000 fixture)")
    p.add_argument("--eq1", help="closed form only, from explicit N,K,g")
    p.add_argument("--beneficiary", choices=("a", "b"), default="a",
                   help="candidate the switches should favor")
    p.add_argument("--json", help="write the JSON report here ('-' for stdout)")
    p.set_defaults(func=cmd_election)

    p = sub.add_parser("repro", help="run the pinned reference checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--nhefs", help="path to the follow-up study extract; enables "
                   "the dataset-gated checks")
    p.add_argument("--json", help="write the JSON report here ('-' for stdout)")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    global _QUIET
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    _QUIET = getattr(args, "json", None) == "-"
    try:
        return args.func(args, argv)
    except _DIAGNOSTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        trajectory = getattr(exc, "trajectory", None)
        if trajectory:
            print("trajectory tail:", file=sys.stderr)
            for it in trajectory[-8:]:
                print(f"  step {it.step}: k_eval={it.k_eval} p_hat={it.p_hat:.4g} "
                      f"k_next={it.k_next:.2f}", file=sys.stderr)
            print("a larger -T or -B usually stabilizes the search", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
