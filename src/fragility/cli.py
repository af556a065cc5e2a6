"""Command line front end.

Subcommands
-----------
fi        exact signed fragility index of a 2x2 table or two-arm CSV
gfi       greedy generalized index under a sufficiently-likely modifier
sgfi      stochastic generalized index via Monte Carlo root finding
election  electoral-college switch analysis plus the closed-form SGFI(1/2)
repro     run the pinned reference checks and print a pass/fail table

Reports are JSON with insertion-ordered keys; floats are written as their
shortest round-trip repr, so parsing the emitted text reproduces every
value exactly.

Exit codes: 0 success (an UNBOUNDED result is a legitimate answer),
2 bad input, 3 computation diagnostics (non-convergence, or a
confirmation search that cannot bracket r because p_hat(n) <= r).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__, repro
from .cases import CaseFrame, empirical_modifier, frame_from_table, load_csv, table_from_frame
from .core import fi_2x2_exact, gfi_greedy, is_unbounded
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
from .stats import Table2x2, fisher_test, logistic_wald_test
from .stochastic import SgfiConfig, sgfi

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
# JSON emission


def _json_scalar(obj):
    if isinstance(obj, np.generic):  # numpy ints, floats and bools
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_report(report: dict) -> str:
    return json.dumps(report, indent=2, ensure_ascii=False, allow_nan=False,
                      default=_json_scalar) + "\n"


def _write(text, path):
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
                "bin_edges": edges.tolist(),
                "counts_all": counts_all.tolist(),
                "counts_selected": counts_sel.tolist(),
            }
        )
    return blocks


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


def _header(command, argv, **fields) -> dict:
    return {"command": command, "argv": list(argv), "version": __version__, **fields}


def _timed(fn, *args):
    t0 = time.perf_counter()
    res = fn(*args)
    return res, time.perf_counter() - t0


def _index_report(command, argv, measure, frame, params, res, elapsed, fields) -> dict:
    """The report of fi, gfi and sgfi: the shared header, result, initial
    decision and p-value, then the measure's own `fields`, note and timing."""
    report = _header(command, argv, measure=measure, input=_digest(frame),
                     parameters=params)
    report["result"] = _index_field(res.index)
    report["initial_significant"] = res.initial_significant
    report["p_before"] = res.p_before
    report.update(fields)
    note = _result_note(res.index)
    if note:
        report["note"] = note
    report["timing_s"] = elapsed
    return report


def _plan_fields(frame, res) -> dict:
    return {"p_after": res.p_after, "plan": _plan_summary(frame, res.plan)}


def _r_field(r):
    return r if isinstance(r, str) else float(r)


# ---------------------------------------------------------------------------
# argument handling


def _parse_ints(text, flag, shape):
    """Comma-separated integers in the given shape, e.g. 'a,b,c,d'."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(shape.split(",")):
        raise InvalidParameterError(f"{flag} expects integers {shape}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InvalidParameterError(f"{flag} values must be integers, got {text!r}")


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
        return frame_from_table(Table2x2(*_parse_ints(args.table, "--table", "a,b,c,d")))
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


def cmd_fi(args, argv) -> tuple[int, dict]:
    frame = _load_frame(args)
    table = table_from_frame(frame)
    res, elapsed = _timed(fi_2x2_exact, table, fisher_test(alpha=args.alpha))
    fields = {"table": list(table.as_tuple()), **_plan_fields(frame, res)}
    report = _index_report("fi", argv, "fragility index", frame, {"alpha": args.alpha},
                           res, elapsed, fields)
    _print_index_lines(report)
    return 0, report


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


def cmd_gfi(args, argv) -> tuple[int, dict]:
    frame = _load_frame(args)
    test = _make_test(args, frame)
    res, elapsed = _timed(gfi_greedy, frame, empirical_modifier(frame, q=args.q), test)
    params = {"alpha": args.alpha, "q": args.q, "test": test.name}
    report = _index_report("gfi", argv, "generalized fragility index", frame, params,
                           res, elapsed, _plan_fields(frame, res))
    _print_index_lines(report)
    return 0, report


def cmd_sgfi(args, argv) -> tuple[int, dict]:
    if args.trajectory == "-" and args.json == "-":
        raise InvalidParameterError("--trajectory - and --json - cannot both write to stdout")
    frame = _load_frame(args)
    test = _make_test(args, frame)

    def config(r):
        return SgfiConfig(r=r, trials=args.trials, iterations=args.iterations,
                          seed=args.seed)

    common = {"B": args.trials, "T": args.iterations, "seed": args.seed,
              "test": test.name}
    if args.grid:
        return _sgfi_grid(args, argv, frame, test, config, common)

    r_value = _parse_r(args.r)
    res, elapsed = _timed(sgfi, frame, empirical_modifier(frame, q=args.q), test,
                          config(r_value))
    params = {"alpha": args.alpha, "q": args.q, "r": _r_field(r_value), **common}
    fields = {
        # the root finder does not run when the answer needs no search
        "polyak_mean": res.polyak_mean if math.isfinite(res.polyak_mean) else None,
        "confirmation": {
            "at": dataclasses.asdict(res.final_at) if res.final_at else None,
            "below": dataclasses.asdict(res.final_below) if res.final_below else None,
        },
        "trajectory": [dataclasses.asdict(it) for it in res.trajectory],
    }
    report = _index_report("sgfi", argv, "stochastic generalized fragility index", frame,
                           params, res, elapsed, fields)

    say(f"stochastic generalized fragility index: {report['result']}   (r={args.r}, q={args.q:g})")
    say(f"p before: {res.p_before:.6g}   polyak mean: {res.polyak_mean:.4g}")
    at, below = fields["confirmation"]["at"], fields["confirmation"]["below"]
    if at:
        line = f"confirmation: p_hat({at['k']}) = {at['p_hat']:.4g}"
        if below:
            line += f" > r >= p_hat({below['k']}) = {below['p_hat']:.4g}"
        say(line)
    if report.get("note"):
        say(f"note: {report['note']}")
    if args.trajectory:
        lines = ["step,k_eval,p_hat,k_next"]
        lines += [f"{it.step},{it.k_eval},{float(it.p_hat)!r},{float(it.k_next)!r}"
                  for it in res.trajectory]
        _write("\n".join(lines) + "\n", args.trajectory)
    return 0, report


def _sgfi_grid(args, argv, frame, test, config, common) -> tuple[int, dict]:
    rs, qs = _parse_grid(args.grid)
    rows = []
    t0 = time.perf_counter()
    for q in qs:
        modifier = empirical_modifier(frame, q=q)
        for r in rs:
            res = sgfi(frame, modifier, test, config(r))
            rows.append({"r": _r_field(r), "q": float(q), "index": _index_field(res.index)})
    elapsed = time.perf_counter() - t0

    params = {"alpha": args.alpha, "grid_r": [_r_field(r) for r in rs],
              "grid_q": [float(q) for q in qs], **common}
    report = _header("sgfi", argv, measure="stochastic generalized fragility index grid",
                     input=_digest(frame), parameters=params, grid=rows, timing_s=elapsed)

    width = max(8, *(len(str(r)) for r in rs)) + 2
    say("q \\ r".ljust(10) + "".join(str(r).rjust(width) for r in rs))
    for i, q in enumerate(qs):
        row = rows[i * len(rs):(i + 1) * len(rs)]
        say(f"{q:<10g}" + "".join(str(cell["index"]).rjust(width) for cell in row))
    return 0, report


def _say_closed_form(cf):
    say(f"closed-form SGFI(1/2): {cf.index}   (initializer {cf.initializer}, "
        f"approximation {cf.approximation:.2f})")
    say(f"sf({cf.index}) = {cf.sf_at:.6g} > 1/2 >= sf({cf.index - 1}) = {cf.sf_below:.6g}")


def cmd_election(args, argv) -> tuple[int, dict]:
    report = _header("election", argv, measure="election fragility")
    t0 = time.perf_counter()

    if args.eq1 and args.csv:
        raise InvalidParameterError("--eq1 and --csv are mutually exclusive")
    if args.eq1:
        pop, pool, switches = _parse_ints(args.eq1, "--eq1", "N,K,g")
        cf = sgfi_half_closed_form(pop, pool, switches)
        report["parameters"] = {"population": pop, "pool": pool, "switches": switches}
        report["closed_form"] = dataclasses.asdict(cf)
        report["timing_s"] = time.perf_counter() - t0
        _say_closed_form(cf)
        return 0, report

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
    report["closed_form"] = dataclasses.asdict(cf) if cf else None
    if race.unbounded:
        report["note"] = "no nonvoter switch set flips the college"
    report["timing_s"] = time.perf_counter() - t0

    say(f"election switches needed: {report['result']}   "
        f"(beneficiary {args.beneficiary}, {race.electors_to_win} electors to win)")
    for name, sw in race.per_state_switches:
        say(f"  flip {name}: {sw} switches")
    if cf:
        say(f"reduction: population {race.eligible_total}, pool {race.target_pool}, "
            f"switches {race.switch_requirement}")
        _say_closed_form(cf)
    if report.get("note"):
        say(f"note: {report['note']}")
    return 0, report


def cmd_repro(args, argv) -> tuple[int, dict]:
    t0 = time.perf_counter()
    checks = repro.core_checks(args.seed)
    skipped = []
    if args.nhefs:
        checks += repro.nhefs_checks(args.nhefs, args.seed)
    else:
        skipped.append("dataset-gated checks (supply --nhefs PATH to run them)")
    elapsed = time.perf_counter() - t0

    rows = [{"name": name, "status": "PASS" if ok else "FAIL", "detail": detail}
            for name, ok, detail in checks]
    name_w = max(len(row["name"]) for row in rows)
    for row in rows:
        say(f"{row['status']}  {row['name']:<{name_w}}  {row['detail']}")
    for s in skipped:
        say(f"SKIP  {s}")
    failures = sum(not ok for _, ok, _ in checks)
    say(f"{len(checks) - failures}/{len(checks)} checks passed in {elapsed:.1f}s")

    params = {"seed": args.seed, "nhefs": args.nhefs}
    report = _header("repro", argv, parameters=params, checks=rows, skipped=skipped,
                     failures=failures, timing_s=elapsed)
    return (1 if failures else 0), report


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: every default is immutable
    and each parse_args call returns a fresh namespace."""
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
        # each subcommand prints its human lines and returns its exit code
        # and report
        code, report = args.func(args, argv)
        if args.json:
            _write(emit_report(report), args.json)
        return code
    except _DIAGNOSTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        trajectory = getattr(exc, "trajectory", None)
        if trajectory:
            print("trajectory tail:", file=sys.stderr)
            for it in trajectory[-8:]:
                print(f"  step {it.step}: k_eval={it.k_eval} p_hat={it.p_hat:.4g} "
                      f"k_next={it.k_next:.2f}", file=sys.stderr)
            print("the search stopped because p_hat(n) <= r, which points to "
                  "an inconsistent frame or test", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
