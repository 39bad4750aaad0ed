"""Span tracing of the program's layers, installed from outside the program.

``install`` replaces public functions of ``core``, ``pairing``, ``metrics``,
``stability``, ``plots`` and ``cli`` with wrappers, at every module attribute
of the package that refers to them, so calls the program makes internally
are seen too.  Each call records a span (name, start, end, parent span) in
flat arrays; the spans stay in memory and are written out when the run ends.

Per-element helpers such as ``sup_dist``, ``colex_lt`` and ``elder_key`` are
not wrapped: they run once per matrix entry or comparison, and a span per
call would cost more than the work it measures.  Their time is part of the
self time of the function that calls them.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

PACKAGE = "morsepeak"
TRACED = {
    "core": ("read_csv_series", "extract_critical_points", "validate"),
    "pairing": ("pair", "pair_recursive", "persistence_transformation",
                "reduced_persistence_transformation", "to_persistence_diagram",
                "denoise", "join_pt", "join_rpt", "join_pd"),
    "metrics": ("wasserstein", "solve_assignment", "morse_distance"),
    "stability": ("random_morse_set", "perturb", "perturb_with_info",
                  "check_stability", "run_trials"),
    "plots": ("render_pt", "render_rpt", "render_pd"),
    "cli": ("main",),
}

TRANSFORMS = ("pairing.persistence_transformation",
              "pairing.reduced_persistence_transformation",
              "pairing.to_persistence_diagram", "pairing.denoise",
              "pairing.join_pt", "pairing.join_rpt", "pairing.join_pd")

# name -> (unit, how it is computed, the span names or counter it reads)
PER_LAYER = {
    "core.read_csv_series.ms": ("ms/op", "self", ("core.read_csv_series",)),
    "core.extract_critical_points.ms":
        ("ms/op", "self", ("core.extract_critical_points",)),
    "core.validate.ms": ("ms/op", "self", ("core.validate",)),
    "core.validate.calls": ("calls/op", "calls", ("core.validate",)),
    "core.critical_points": ("points/op", "count", ("core.critical_points",)),
    "pairing.pair.ms": ("ms/op", "self", ("pairing.pair",)),
    "pairing.pair.calls": ("calls/op", "calls", ("pairing.pair",)),
    "pairing.transforms.ms": ("ms/op", "self", TRANSFORMS),
    "plots.render.ms": ("ms/op", "self", ("plots.render_pt", "plots.render_rpt",
                                          "plots.render_pd")),
    "cli.main.ms": ("ms/op", "self", ("cli.main",)),
    "metrics.wasserstein.ms": ("ms/op", "self", ("metrics.wasserstein",)),
    "metrics.solve_assignment.sum.ms":
        ("ms/op", "self", ("metrics.solve_assignment.sum",)),
    "metrics.solve_assignment.bottleneck.ms":
        ("ms/op", "self", ("metrics.solve_assignment.bottleneck",)),
    "metrics.bottleneck_probes":
        ("probes/op", "count", ("metrics.bottleneck_probes",)),
    "metrics.cost_cells": ("cells/op", "count", ("metrics.cost_cells",)),
    "metrics.morse_distance.ms": ("ms/op", "self", ("metrics.morse_distance",)),
    "stability.random_morse_set.ms":
        ("ms/op", "self", ("stability.random_morse_set",)),
    "stability.perturb.ms": ("ms/op", "self", ("stability.perturb",
                                               "stability.perturb_with_info")),
    "stability.check_stability.ms":
        ("ms/op", "self", ("stability.check_stability",)),
}


class Tracer:
    """Flat, append-only span store plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts = {k: 0 for k in self.counts}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, name_of=None, on_result=None):
        """Wrap ``fn`` so each call records a span; ``name_of(args, kwargs)``
        may refine the span name, ``on_result`` may update counters."""
        fixed = self._id(name)

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            nid = fixed if name_of is None else self._id(name_of(args, kwargs))
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus direct children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i]
                                              - child[i])
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.name_id:
            out[self.names[nid]] = out.get(self.names[nid], 0) + 1
        return out

    def per_layer(self, ops: int) -> dict[str, float]:
        """Every PER_LAYER metric, per operation; an unseen name reads 0."""
        selft, calls = self.self_times(), self.calls()
        out = {}
        for metric, (_unit, how, keys) in PER_LAYER.items():
            if how == "self":
                total = 1000.0 * sum(selft.get(k, 0.0) for k in keys)
            elif how == "calls":
                total = sum(calls.get(k, 0) for k in keys)
            else:
                total = sum(self.counts.get(k, 0) for k in keys)
            out[metric] = total / ops
        return out

    def write(self, stem: Path) -> None:
        """Write the spans: ``stem.json`` describes ``stem.spans``, which
        holds the name ids, parent ids, starts and ends as raw arrays."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [["name_id", "i"], ["parent", "q"],
                             ["start", "d"], ["end", "d"]],
                  "counts": self.counts}
        stem.with_suffix(".json").write_text(json.dumps(header))
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _objective(args, kwargs) -> str:
    objective = kwargs.get("objective", args[1] if len(args) > 1 else "sum")
    return f"metrics.solve_assignment.{objective}"


def _count_points(tracer: Tracer):
    def on_result(args, kwargs, sets):
        tracer.count("core.critical_points",
                     sum(len(s.maxima) + len(s.minima) for s in sets))
    return on_result


def _count_cells(tracer: Tracer):
    def on_result(args, kwargs, result):
        cost = kwargs.get("cost", args[0] if args else None)
        size = getattr(cost, "size", None)
        if size is None:
            size = sum(len(row) for row in cost)
        tracer.count("metrics.cost_cells", int(size))
    return on_result


def _rebind(orig, replacement) -> None:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions wherever the package refers to them.

    A function that no longer exists is skipped; its metrics then read 0.
    """
    for modname, funcs in TRACED.items():
        mod = importlib.import_module(f"{PACKAGE}.{modname}")
        for func in funcs:
            orig = getattr(mod, func, None)
            if not callable(orig):
                continue
            name_of = on_result = None
            if (modname, func) == ("metrics", "solve_assignment"):
                name_of, on_result = _objective, _count_cells(tracer)
            elif (modname, func) == ("core", "extract_critical_points"):
                on_result = _count_points(tracer)
            _rebind(orig, tracer.wrap(f"{modname}.{func}", orig, name_of,
                                      on_result))
    metrics = importlib.import_module(f"{PACKAGE}.metrics")
    probe = getattr(metrics, "maximum_bipartite_matching", None)
    if callable(probe):
        def counted(*args, **kwargs):
            tracer.count("metrics.bottleneck_probes")
            return probe(*args, **kwargs)
        metrics.maximum_bipartite_matching = counted
