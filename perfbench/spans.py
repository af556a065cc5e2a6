"""Spans around the calls into each layer of the library.

`Tracer.install` replaces each listed function, under every module of the
package that binds it by the same name, with a wrapper that records a span:
layer name, start, end, the enclosing span and the phase (set-up or timed).
Spans stay in memory; `write` saves them when the run ends and `layer_metrics`
turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (metric prefix, module, attribute, count read from (args, result), count name)
LAYERS = [
    ("kernels.reversal_grid", "fragility._kernels", "reversal_grid",
     lambda args, res: int(getattr(res, "size", 0)), "cells"),
    ("kernels.comp_prob", "fragility._kernels", "comp_prob", None, None),
    ("kernels.fisher_p", "fragility._kernels", "fisher_p", None, None),
    ("stats.fisher_exact_two_sided", "fragility.stats", "fisher_exact_two_sided", None, None),
    ("core.fi_2x2_exact", "fragility.core", "fi_2x2_exact", None, None),
    ("core.gfi_greedy", "fragility.core", "gfi_greedy",
     lambda args, res: 0 if res.unbounded else len(res.plan), "steps"),
    ("core.reversible", "fragility.core", "reversible", None, None),
    ("stochastic.exact_sfi_2x2", "fragility.stochastic", "exact_sfi_2x2", None, None),
    ("stochastic.sgfi", "fragility.stochastic", "sgfi", None, None),
    ("stochastic.probability_reversal", "fragility.stochastic", "probability_reversal",
     lambda args, res: int(res.trials), "trials"),
    ("stats.logistic_fit", "fragility.stats", "logistic_fit",
     lambda args, res: int(res.iterations), "iterations"),
    ("stats.p_after_flips", "fragility.stats", "_LogisticFlipEval.p_after_flips",
     lambda args, res: int(len(args[2])), "candidates"),
    ("cases.empirical_modifier", "fragility.cases", "empirical_modifier", None, None),
    ("cases.frame_from_table", "fragility.cases", "frame_from_table", None, None),
    ("stats.hypergeom_sf", "fragility.stats", "hypergeom_sf", None, None),
    ("election.election_gfi", "fragility.election", "election_gfi", None, None),
    ("election.sgfi_half_closed_form", "fragility.election", "sgfi_half_closed_form",
     None, None),
    ("cli.main", "fragility.cli", "main", None, None),
]

# layers whose set-up work a change is most likely to move
SETUP_LAYERS = [
    ("kernels.reversal_grid", ("calls", "cells", "s")),
    ("core.reversible", ("calls", "s")),
    ("cases.empirical_modifier", ("calls", "s")),
    ("cases.frame_from_table", ("calls", "s")),
    ("stats.logistic_fit", ("calls", "s")),
]


def _resolve(module, attr):
    """(owner object, attribute name, original) for 'mod' + 'Class.attr'."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if orig is None:
        return None
    return owner, name, orig


class Tracer:
    def __init__(self):
        # (layer, start, end, parent span index, phase, count)
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrapper(self, layer, orig, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            res = None
            try:
                res = orig(*args, **kwargs)
                return res
            finally:
                end = clock()
                stack.pop()
                n = count(args, res) if (count is not None and res is not None) else 0
                spans[idx] = (layer, start, end, parent, self.phase, n)

        return traced

    def install(self) -> list[str]:
        """Wrap every layer that exists; returns the names not found."""
        missing = []
        for layer, module, attr, count, _ in LAYERS:
            found = _resolve(module, attr)
            if found is None:
                missing.append(layer)
                continue
            owner, name, orig = found
            wrapped = self._wrapper(layer, orig, count)
            if isinstance(owner, type):
                self._rebind(owner, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "fragility" or mod_name.startswith("fragility."):
                    if getattr(mod, name, None) is orig:
                        self._rebind(mod, name, wrapped)
        return missing

    def _rebind(self, owner, name, wrapped):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def layer_metrics(self, ops: int, setups: int) -> dict:
        """Per-layer figures: timed-phase values per attempted operation,
        set-up values per set-up. cli.self_s is cli.main minus the spans of
        wrapped library layers directly under it."""
        totals: dict[tuple, list] = {}
        child_s: dict[int, float] = {}
        for layer, start, end, parent, phase, n in self.spans:
            t = totals.setdefault((phase, layer), [0, 0.0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += n
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        cli_self = sum(
            (end - start) - child_s.get(idx, 0.0)
            for idx, (layer, start, end, parent, phase, n) in enumerate(self.spans)
            if layer == "cli.main" and phase == "timed"
        )
        out = {}
        per_op = 1.0 / max(ops, 1)
        for layer, _, _, _, count_name in LAYERS:
            calls, secs, n = totals.get(("timed", layer), (0, 0.0, 0))
            out[f"{layer}.calls"] = (calls * per_op, "1/op")
            out[f"{layer}.s"] = (secs * per_op, "s/op")
            if count_name == "trials":
                out[f"{layer}.trials"] = (n * per_op, "1/op")
                out[f"{layer}.trial_s"] = (secs / n if n else 0.0, "s")
            elif count_name is not None:
                out[f"{layer}.{count_name}"] = (n * per_op, "1/op")
        out["cli.self_s"] = (cli_self * per_op, "s/op")
        per_setup = 1.0 / max(setups, 1)
        for layer, stats in SETUP_LAYERS:
            calls, secs, n = totals.get(("setup", layer), (0, 0.0, 0))
            vals = {"calls": (calls * per_setup, "1/setup"),
                    "s": (secs * per_setup, "s/setup"),
                    "cells": (n * per_setup, "1/setup")}
            for stat in stats:
                out[f"setup.{layer}.{stat}"] = vals[stat]
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "fields": ["layer", "start", "end", "parent", "phase", "count"],
               "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
