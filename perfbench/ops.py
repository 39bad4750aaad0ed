"""What one operation is in each workload, as run inside the workload process.

This module must not import numpy or the program at import time: the
workload process times the program's import as part of set-up.  Each
workload builds one round of operations; a run repeats whole rounds.  An
operation raises when the program fails, and ``record`` turns its answer
into JSON for the checks.  Every operation calls the program through a
module attribute looked up at call time, so the tracing wrappers see it.
"""
from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from time import perf_counter

KINDS = ("pt", "rpt", "pd")
EPSILON = 0.1  # run_trials' default perturbation budget, needed by the checks


def transform_argv(csv: str, kind: str, out: Path, index: int) -> list[str]:
    """The CLI call of one signal_transform op; each writes its own files."""
    stem = str(out / f"{index}-{kind}")
    if kind == "pt":
        return ["transform", csv, "--kind", "pt", "--svg", stem + ".svg",
                "-o", stem + ".json"]
    if kind == "rpt":
        return ["transform", csv, "--kind", "rpt", "--format", "csv",
                "-o", stem + ".csv"]
    return ["transform", csv, "--kind", "pd", "-o", stem + ".json"]


class SignalTransform:
    """One op = one in-process ``morsepeak transform`` call on a CSV file."""

    def __init__(self, spec: dict, out: Path):
        self.argvs = [transform_argv(csv, kind, out, i)
                      for i, csv in enumerate(spec["csv"]) for kind in KINDS]

    def prepare(self) -> None:
        from morsepeak import cli
        self.cli = cli

    def _op(self, argv: list[str]) -> int:
        code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code} from {argv}")
        return code

    def round(self):
        return [lambda a=argv: self._op(a) for argv in self.argvs]

    @staticmethod
    def record(out):
        return out


class DiagramMatching:
    """One op = PT W2, PT bottleneck and RPT W2 between one pool pair.

    The transforms of the pool are built in set-up, so extraction and
    pairing are not timed.
    """

    def __init__(self, spec: dict, out: Path):
        self.samples = json.loads(Path(spec["pool"]).read_text())
        self.pairs = spec["pairs"]
        self.split: list[tuple[float, float, float]] = []

    def prepare(self) -> None:
        from morsepeak import core, metrics, pairing
        self.metrics = metrics
        sets = [core.extract_critical_points(s)[0] for s in self.samples]
        self.pt = [pairing.persistence_transformation(s) for s in sets]
        self.rpt = [pairing.reduced_persistence_transformation(s) for s in sets]

    def _op(self, a: int, b: int):
        w = self.metrics.wasserstein
        t0 = perf_counter()
        pt2 = w(self.pt[a], self.pt[b], 2.0, "diagonal")
        t1 = perf_counter()
        ptinf = w(self.pt[a], self.pt[b], math.inf, "diagonal")
        t2 = perf_counter()
        rpt2 = w(self.rpt[a], self.rpt[b], 2.0, "diagonal")
        t3 = perf_counter()
        self.split.append((t1 - t0, t2 - t1, t3 - t2))
        return (pt2, ptinf, rpt2)

    def round(self):
        return [lambda a=a, b=b: self._op(a, b) for a, b in self.pairs]

    @staticmethod
    def record(out):
        return list(out)

    def summary(self) -> dict:
        """Median ms of each distance over the timed ops (PT versus RPT)."""
        timed = self.split[1:]  # the first call is the warm-up
        return {f"{name}_ms": 1000.0 * statistics.median(t[k] for t in timed)
                for k, name in enumerate(("pt_w2", "pt_winf", "rpt_w2"))}


class StabilityTrials:
    """One op = ``run_trials(GenParams(seed=s), trials)``, serial, defaults."""

    def __init__(self, spec: dict, out: Path):
        self.seeds = spec["gen_seeds"]
        self.trials = spec["trials"]

    def prepare(self) -> None:
        from morsepeak import stability
        self.stability = stability

    def _op(self, seed: int):
        st = self.stability
        return st.run_trials(st.GenParams(seed=seed), self.trials,
                             epsilon=EPSILON, max_workers=1)

    def round(self):
        return [lambda s=s: self._op(s) for s in self.seeds]

    @staticmethod
    def record(out):
        return [{"transform": r.transform, "p": r.p, "slack": r.slack,
                 "lhs": r.lhs, "rhs": r.rhs, "seed": r.seed} for r in out]


WORKLOADS = {
    "signal_transform": SignalTransform,
    "diagram_matching": DiagramMatching,
    "stability_trials": StabilityTrials,
}
