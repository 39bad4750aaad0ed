"""Randomized harness for the two transform stability inequalities.

Generates valid Morse sets, perturbs them within a sup-norm budget, and
checks that the Wasserstein distance between the transforms is bounded by
the Morse-set distance between the inputs.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import InvalidMorseSetError, MorseSet
from .metrics import (PAD_ORIGIN, UnmatchableInfinityError, _aggregate,
                      _distances, _rank_costs)
from .pairing import (_pair_all, persistence_transformation,
                      reduced_persistence_transformation)

ABS_TOL = 1e-9
REL_TOL = 1e-7


@dataclass(frozen=True)
class GenParams:
    peak_count_range: tuple[int, int] = (1, 10)
    domain: tuple[float, float] = (0.0, 100.0)
    height_range: tuple[float, float] = (0.0, 10.0)
    seed: int = 0


def random_morse_set(params: GenParams) -> MorseSet:
    """Deterministic-in-seed generator of valid Morse sets.

    Produces boundary minima and alternating interior extrema; minima draw
    from the lower half of the height range and maxima from the upper half,
    which keeps the alternation strict.  ValueError names ``domain`` if 100
    draws of the interior positions find none distinct and strictly inside
    it, and ``height_range`` if the drawn set fails :func:`validate`.
    """
    _check_params(params)
    lo_k, hi_k = params.peak_count_range
    a, b = params.domain
    ylo, yhi = params.height_range
    mid = 0.5 * (ylo + yhi)
    rng = np.random.default_rng(params.seed)
    k = int(rng.integers(lo_k, hi_k + 1))
    try:
        for _ in range(100):  # a domain of too few doubles never succeeds
            xs = np.sort(rng.uniform(a, b, 2 * k - 1))
            if (xs[:-1] < xs[1:]).all() and xs[0] > a and xs[-1] < b:
                break
        else:
            xs = None
        heights = np.empty(2 * k + 1)
        heights[0::2] = rng.uniform(ylo, mid, k + 1)
        heights[1::2] = rng.uniform(mid, yhi, k)
    # past numpy's largest dimension, or past memory: the count is too large
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"peak_count_range too large: cannot draw {k} "
                         f"peaks ({exc})") from None
    if xs is None:
        raise ValueError(f"domain {params.domain} too narrow: 100 draws found "
                         f"no {2 * k - 1} distinct interior positions")
    ms = MorseSet(np.concatenate(([a], xs, [b])), heights,
                  np.arange(2 * k + 1) % 2 == 1, (a, b))
    if ms.report:
        fails = ", ".join(sorted(ms.report.conditions()))
        raise ValueError(f"height_range {params.height_range} too narrow: "
                         f"the drawn set fails {fails}")
    return ms


def _check_params(params: GenParams) -> None:
    """ValueError unless ``random_morse_set`` can draw from ``params``."""
    lo_k, hi_k = params.peak_count_range
    # numpy draws the peak count as an int64
    if not (1 <= lo_k <= hi_k < 2 ** 63):
        raise ValueError("peak_count_range must be a nonempty range of ints "
                         "from 1 to 2**63 - 1")
    if not params.seed >= 0:
        raise ValueError("seed must be a nonnegative integer")
    a, b = params.domain
    ylo, yhi = params.height_range
    mid = 0.5 * (ylo + yhi)
    # numpy's uniform draw raises OverflowError on a span that is not finite
    if not (a < b and math.isfinite(b - a)):
        raise ValueError("domain must be nondegenerate with a finite span")
    if not (ylo < yhi and np.isfinite([mid - ylo, yhi - mid]).all()):
        raise ValueError("height_range must be nondegenerate, its halves finite")


@dataclass(frozen=True)
class PerturbInfo:
    shrink: float  # fraction of the requested displacement actually applied


def perturb(K: MorseSet, epsilon: float, seed: int) -> MorseSet:
    return perturb_with_info(K, epsilon, seed)[0]


def perturb_with_info(K: MorseSet, epsilon: float,
                      seed: int) -> tuple[MorseSet, PerturbInfo]:
    """Move every critical point by at most ``epsilon`` in sup-norm.

    Candidate displacements are halved until the result keeps the positional
    order and passes validation, so cardinalities and structure survive; the
    applied fraction is reported.
    """
    if not 0 <= 2 * epsilon < math.inf:  # the span of each draw
        raise ValueError("epsilon must be nonnegative, 2 * epsilon finite")
    n = K.xs.size
    if epsilon == 0 or not n:
        return K, PerturbInfo(0.0)
    rng = np.random.default_rng(seed)
    dx = rng.uniform(-epsilon, epsilon, n)
    dy = rng.uniform(-epsilon, epsilon, n)
    factor = 1.0
    while factor > 1e-12:
        xs = K.xs + factor * dx
        if (xs[:-1] < xs[1:]).all():
            cand = MorseSet(xs, K.ys + factor * dy, K.is_max, (xs[0], xs[-1]))
            if cand.report.ok:
                return cand, PerturbInfo(factor)
        factor *= 0.5
    return K, PerturbInfo(0.0)


@dataclass(frozen=True)
class StabilityReport:
    lhs: float
    rhs: float
    ratio: float
    holds: bool
    p: float
    slack: str
    transform: str
    seed: Optional[int] = None
    equal_cardinality: bool = True

    def to_json_dict(self) -> dict:
        return {f.name: _enc(getattr(self, f.name)) for f in fields(self)}


def _enc(v: float):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _tolerance(lhs: float, rhs: float) -> float:
    scale = max(abs(x) for x in (lhs, rhs, 0.0) if not math.isinf(x))
    return max(ABS_TOL, REL_TOL * scale)


def check_stability(K: MorseSet, L: MorseSet, p: float,
                    transform: str = "pt", slack: str = PAD_ORIGIN,
                    seed: Optional[int] = None) -> StabilityReport:
    """Compare d_Wp between the transforms (lhs) against the Morse-set
    distance between the inputs (rhs).

    ``holds`` tests the constant-1 bound ``lhs <= rhs`` for both transforms.
    For the reduced transform at p > 1 that bound is known to fail (the
    constant that holds is 2^(1-1/p), see the README), so ``holds`` can be
    False there and ``morsepeak stability --transform rpt`` can exit 1 by
    design."""
    return _reports([(K, L)], (p,), (transform,), slack, [seed])[0]


def _reports(pairs: Sequence[tuple[MorseSet, MorseSet]], ps: Sequence[float],
             transforms: Sequence[str], slack: str,
             seeds: Sequence[Optional[int]]) -> list[StabilityReport]:
    """:func:`check_stability` of each pair (K, L), with its seed, for each
    transform, then each p.  The sets are paired together, each transform
    of each set is built once, and the sup blocks of all pairs and their
    rank costs come from one ``_sup`` call per transform and one more;
    each distance is still solved alone."""
    sets = [ms for pair in pairs for ms in pair]
    # looked up at call time, so a wrapped transform is used
    makes = {"pt": persistence_transformation,
             "rpt": reduced_persistence_transformation}
    lhs = []
    for transform in transforms:
        make = makes.get(transform)
        if make is None:
            raise ValueError(f"unknown transform {transform!r}")
        # validates and pairs every set once; after the first name check,
        # so that an unknown name is reported before an invalid set
        _pair_all(sets)
        lhs.append(_distances([(make(K), make(L)) for K, L in pairs], ps,
                              slack))
    rhs = [[_aggregate(costs, float(p)) for p in ps]
           for costs in _rank_costs(pairs)]
    reports = []
    for k, ((K, L), seed) in enumerate(zip(pairs, seeds)):
        equal = (K.kappa_plus == L.kappa_plus
                 and K.kappa_minus == L.kappa_minus)
        for transform, row in zip(transforms, lhs):
            for a, b, p in zip(row[k], rhs[k], ps):
                if math.isinf(b):
                    holds = True
                    ratio = 0.0 if not math.isinf(a) else 1.0
                else:
                    holds = bool(a <= b + _tolerance(a, b))
                    ratio = a / b if b > 0 else (0.0 if holds else math.inf)
                reports.append(StabilityReport(a, b, ratio, holds, p, slack,
                                               transform, seed, equal))
    return reports


def _perturbed_pair(params: GenParams, seed: int,
                    epsilon: float) -> tuple[MorseSet, MorseSet]:
    """The trial pair of ``seed``: a random set and its perturbation."""
    K = random_morse_set(replace(params, seed=seed))
    return K, perturb(K, epsilon, seed + 1)


# the most cells a batch of trials hands one _sup call: 2 MB of costs, and
# 2 MB per coordinate and side of gathered rows.  A trial counts (m + 1)^2
# cells, m the larger peak count of its pair, which bounds both its sup
# block (m^2) and its rank costs (at most 2m + 1).
_BATCH_CELLS = 2 ** 18


def _batch_reports(params: GenParams, indices: Iterable[int], epsilon: float,
                   ps: Sequence[float], transforms: Sequence[str],
                   slack: str) -> list[StabilityReport]:
    """The reports of the trials ``indices``, in order: their pairs are
    drawn one trial at a time and evaluated in batches of at most
    ``_BATCH_CELLS`` cells.  A failed draw is raised after the trials
    before it are evaluated."""
    reports: list[StabilityReport] = []
    batch: list = []  # (pair, seed) of each trial not yet evaluated
    cells = 0
    for index in indices:
        seed = params.seed * 1_000_003 + 2 * index
        try:
            pair = _perturbed_pair(params, seed, epsilon)
        except ValueError:
            _evaluate(batch, ps, transforms, slack)
            raise
        size = (max(pair[0].kappa_plus, pair[1].kappa_plus) + 1) ** 2
        if batch and cells + size > _BATCH_CELLS:
            reports += _evaluate(batch, ps, transforms, slack)
            batch, cells = [], 0
        batch.append((pair, seed))
        cells += size
    return reports + _evaluate(batch, ps, transforms, slack)


def _evaluate(batch: list, ps: Sequence[float], transforms: Sequence[str],
              slack: str) -> list[StabilityReport]:
    """The reports of the trials ``batch``, (pair, seed) each, as one
    :func:`_reports` call.  If it fails, the trials are evaluated again one
    at a time, so the error raised is the first failing trial's, as in a
    run that evaluates them in turn."""
    if not batch:
        return []
    pairs, seeds = zip(*batch)
    try:
        return _reports(pairs, ps, transforms, slack, seeds)
    except ValueError:
        for pair, seed in batch:
            _reports([pair], ps, transforms, slack, [seed])
        raise


def run_trials(params: GenParams, trials: int, epsilon: float = 0.1,
               ps: Sequence[float] = (1.0, 2.0, math.inf),
               transforms: Sequence[str] = ("pt", "rpt"),
               slack: str = PAD_ORIGIN,
               fixture_dir: Optional[str] = None,
               max_workers: int = 1) -> list[StabilityReport]:
    """Run perturbation trials; optionally persist failing pairs as fixtures.

    Results are deterministic in ``params.seed`` and independent of
    ``max_workers``, a cap on the worker processes; reports are in trial
    order.  A serial run evaluates its trials in batches, and a worker
    process the chunk of trial indices it is given: the sets of a batch
    are validated and paired together, and the sup blocks and the rank
    costs of all its pairs come from one array expression per transform
    and one more; each distance is still solved alone.  A batch holds at
    most ``_BATCH_CELLS`` (2^18) cells, so memory stays bounded however
    many trials run; a trial of more cells forms a batch alone.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    _check_params(params)
    run = partial(_batch_reports, params, epsilon=epsilon, ps=ps,
                  transforms=transforms, slack=slack)
    workers = min(max_workers, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        step = max(1, trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run, (range(trials)[i:i + step]
                                          for i in range(0, trials, step))))
    else:
        batches = [run(range(trials))]
    reports = [r for batch in batches for r in batch]
    if fixture_dir is not None:
        failing = [r for r in reports if not r.holds]
        if failing:
            _persist_failures(params, epsilon, failing, fixture_dir)
    return reports


def _persist_failures(params: GenParams, epsilon: float,
                      failing: Iterable[StabilityReport],
                      fixture_dir: str) -> None:
    out = Path(fixture_dir)
    out.mkdir(parents=True, exist_ok=True)
    for r in failing:
        K, L = _perturbed_pair(params, r.seed, epsilon)
        K, L = shrink_counterexample(K, L, r.p, r.transform, r.slack)
        name = f"stability_{r.transform}_p{r.p}_{r.slack}_{r.seed}.json"
        payload = {
            "K": K.to_json_dict(), "L": L.to_json_dict(),
            "p": _enc(r.p), "transform": r.transform, "slack": r.slack,
        }
        (out / name).write_text(json.dumps(payload, sort_keys=True, indent=1))


def shrink_counterexample(K: MorseSet, L: MorseSet, p: float,
                          transform: str, slack: str) -> tuple[MorseSet, MorseSet]:
    """Best-effort reduction of a failing pair: interpolate L toward K while
    the violation persists, then try dropping rank-matched peak/saddle pairs."""
    def violates(a: MorseSet, b: MorseSet) -> bool:
        try:
            return not check_stability(a, b, p, transform, slack).holds
        except (InvalidMorseSetError, UnmatchableInfinityError):
            return False

    if not violates(K, L):
        return K, L
    if (K.kappa_plus == L.kappa_plus and K.kappa_minus == L.kappa_minus):
        lo, hi = 0.0, 1.0  # fraction of the displacement kept
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            cand = _lerp(K, L, mid)
            if cand is not None and violates(K, cand):
                hi = mid
            else:
                lo = mid
        cand = _lerp(K, L, hi)
        if cand is not None and violates(K, cand):
            L = cand
    for i in range(K.kappa_plus - 1, -1, -1):
        ka, la = _drop_peak(K, i), _drop_peak(L, i)
        if ka is not None and la is not None and violates(ka, la):
            K, L = ka, la
    return K, L


def _lerp(K: MorseSet, L: MorseSet, t: float) -> Optional[MorseSet]:
    cand = MorseSet.build(*((1 - t) * K.xy(getattr(K, o))
                            + t * L.xy(getattr(L, o))
                            for o in ("max_order", "min_order")))
    return cand if cand.report.ok else None


def _drop_peak(ms: MorseSet, i: int) -> Optional[MorseSet]:
    if not (0 <= i < ms.kappa_plus):
        return None
    pos = int(ms.max_order[i])
    if pos in (0, ms.xs.size - 1):
        return None  # boundary peak; removal would break the boundary axiom
    # remove the peak together with its higher adjacent minimum
    a, b = pos - 1, pos + 1
    victim = a if (ms.ys[a], ms.xs[a]) >= (ms.ys[b], ms.xs[b]) else b
    keep = np.ones(ms.xs.size, dtype=bool)
    keep[[pos, victim]] = False
    cand = MorseSet(ms.xs[keep], ms.ys[keep], ms.is_max[keep], ms.domain)
    return cand if cand.report.ok else None


def reports_to_json(reports: Sequence[StabilityReport]) -> str:
    return json.dumps([r.to_json_dict() for r in reports],
                      sort_keys=True, indent=1)
