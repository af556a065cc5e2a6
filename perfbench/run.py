"""Benchmark of the fragility library: four workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ./src. One
process runs one workload as a closed loop, one operation at a time on one
thread, in whole rounds until S seconds have passed. Afterwards every
result is checked against computations made apart from the library.

--trace 0 reports the end-to-end metrics. --trace 1 runs the timed phase
twice, untraced and then traced, and reports per-layer metrics, the
tracing overhead, and writes the spans to perfbench/out/. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("trial_sweep", "sensitivity_grid", "covariate_frame", "cli_reports")
# set-up runs this many times, but not again once the set-ups so far have
# taken SETUP_BUDGET_S (the cold grids of sensitivity_grid take ~10 s each)
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
# above this many distinct results, an evenly spaced subset of them is checked
CHECK_CAP = 400


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library(root: Path):
    """Import fragility from root/src and nowhere else; seconds taken."""
    src = root / "src"
    if not (src / "fragility" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {src}/fragility; "
                         "run from the root of a checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fragility
    import fragility.cli
    import_s = time.perf_counter() - t0
    if Path(fragility.__file__).resolve().parent != (src / "fragility").resolve():
        raise SystemExit(f"error: imported fragility from {fragility.__file__}")
    return fragility, import_s


def _clear_library_caches() -> None:
    """Forget what earlier set-ups cached, so each set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name != "fragility" and not name.startswith("fragility."):
            continue
        for attr, val in list(vars(mod).items()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
            elif "CACHE" in attr and isinstance(val, dict):
                val.clear()


def _timed_phase(workload, seconds: float, first_round: int):
    """Run whole rounds until `seconds` of operations have passed. Returns
    the records (op, result, error, seconds), the elapsed time without the
    making of the rounds' inputs, and the next round."""
    records = []
    j = first_round
    elapsed = 0.0
    while elapsed < seconds:
        ops = workload.round(j)
        start = time.perf_counter()
        for op in ops:
            t = time.perf_counter()
            try:
                res, err = op.run(), None
            except Exception as exc:  # recorded and judged by the checks
                res, err = None, exc
            records.append((op, res, err, time.perf_counter() - t))
        elapsed += time.perf_counter() - start
        j += 1
    return records, elapsed, j


def _judge(records):
    """Check each distinct result. Returns (ok flags, correct, messages).
    A failure of an operation marked with a known fault is counted as
    failed, not as an error. Beyond CHECK_CAP distinct results, an evenly
    spaced subset is checked; results of fault operations always are."""
    digests = [None if err is not None else (op.kind, op.digest(res))
               for op, res, err, _ in records]
    distinct = list(dict.fromkeys(d for d in digests if d is not None))
    step = max(1, -(-len(distinct) // CHECK_CAP))
    sampled = set(distinct[::step])
    verdicts: dict = {}
    ok_flags, correct, messages = [], True, {}
    for (op, res, err, _), dig in zip(records, digests):
        if err is not None:
            why = f"{type(err).__name__}: {err}"
        elif dig in verdicts:
            why = verdicts[dig]
        elif dig not in sampled and op.fault is None:
            why = None
        else:
            try:
                op.check(res)
                why = None
            except AssertionError as exc:
                why = f"check failed: {exc}"
            except Exception as exc:  # a result the checks cannot read fails too
                why = f"check failed: {type(exc).__name__}: {exc}"
            verdicts[dig] = why
        ok_flags.append(why is None)
        if why is not None:
            correct = correct and op.fault is not None
            fault = f" (known fault {op.fault})" if op.fault else ""
            msg = f"{op.kind}{fault}: {why}"
            messages[msg] = messages.get(msg, 0) + 1
    return ok_flags, correct, messages


def _end_to_end(records, ok_flags, elapsed, setup_s, rss_mb):
    done = [dt for (_, _, _, dt), ok in zip(records, ok_flags) if ok]
    # with nothing completed (a broken program) the latency is of all attempts
    latencies = done or [dt for _, _, _, dt in records]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(done) / elapsed, "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    lib, import_s = _import_library(root)

    import spans
    import workloads as wl

    out_dir = Path(__file__).resolve().parent / "out"
    make = {
        "trial_sweep": lambda: wl.TrialSweep(lib, args.seed),
        "sensitivity_grid": lambda: wl.SensitivityGrid(lib, args.seed),
        "covariate_frame": lambda: wl.CovariateFrame(lib, args.seed),
        "cli_reports": lambda: wl.CliReports(lib, args.seed, out_dir),
    }[args.workload]

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        missing = tracer.install()
        if missing:
            print(f"layers not found: {', '.join(missing)}", file=sys.stderr)

    setup_times = []
    repeats = 1 if tracer is not None else SETUP_REPEATS
    while len(setup_times) < repeats and sum(setup_times) < SETUP_BUDGET_S:
        _clear_library_caches()
        workload = make()
        t0 = time.perf_counter()
        try:
            workload.setup()
        except AssertionError as exc:
            raise SystemExit(f"error: set-up check failed: {exc}") from None
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    if tracer is None:
        records, elapsed, _ = _timed_phase(workload, args.seconds, 0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_flags, correct, messages = _judge(records)
        metrics = _end_to_end(records, ok_flags, elapsed, setup_s, rss_mb)
        all_records = records
    else:
        tracer.uninstall()
        plain, plain_s, next_round = _timed_phase(workload, args.seconds, 0)
        tracer.install()
        tracer.phase = "timed"
        # the traced phase runs the same rounds again, unless inputs may not repeat
        first = next_round if workload.fresh_inputs else 0
        traced, traced_s, _ = _timed_phase(workload, args.seconds, first)
        tracer.uninstall()
        all_records = plain + traced
        ok_flags, correct, messages = _judge(all_records)
        plain_ok, traced_ok = ok_flags[: len(plain)], ok_flags[len(plain):]
        metrics = tracer.layer_metrics(len(traced), len(setup_times))
        report_bytes = 0
        if args.workload == "cli_reports":  # results are (exit code, stdout, stderr)
            report_bytes = sum(len(res[1]) for _, res, err, _ in traced if err is None)
        metrics["cli.report_bytes"] = (report_bytes / max(len(traced), 1), "B/op")
        untraced_rate = sum(plain_ok) / plain_s
        traced_rate = sum(traced_ok) / traced_s
        metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead"] = (
            100.0 * (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0, "%")
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "setup_s": setup_s})
        print(f"spans written to {path.relative_to(root) if path.is_relative_to(root) else path}")

    failed = ok_flags.count(False)
    for msg, times in messages.items():
        print(f"{msg}  [x{times}]", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  attempted {len(all_records)}  "
          f"failed {failed}  correct {str(correct).lower()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
