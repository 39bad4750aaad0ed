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
from .pairing import persistence_transformation, reduced_persistence_transformation

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
    return _reports(K, L, (p,), (transform,), slack, seed)[0]


def _reports(K: MorseSet, L: MorseSet, ps: Sequence[float],
             transforms: Sequence[str], slack: str,
             seed: Optional[int]) -> list[StabilityReport]:
    """:func:`check_stability` for each transform, then each p.  Each
    transform of K and L, its sup block and the rank matching are built once
    and reused across p; the distances are computed before the rank costs."""
    # looked up at call time, so a wrapped transform is used
    makes = {"pt": persistence_transformation,
             "rpt": reduced_persistence_transformation}
    lhs = []
    for transform in transforms:
        make = makes.get(transform)
        if make is None:
            raise ValueError(f"unknown transform {transform!r}")
        lhs.append(_distances(make(K), make(L), ps, slack))
    costs = _rank_costs(K, L)
    rhs = [_aggregate(costs, float(p)) for p in ps]
    equal = (K.kappa_plus == L.kappa_plus and K.kappa_minus == L.kappa_minus)
    reports = []
    for transform, row in zip(transforms, lhs):
        for a, b, p in zip(row, rhs, ps):
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


def _trial(params: GenParams, index: int, epsilon: float,
           ps: Sequence[float], transforms: Sequence[str],
           slack: str) -> list[StabilityReport]:
    seed_k = params.seed * 1_000_003 + 2 * index
    K, L = _perturbed_pair(params, seed_k, epsilon)
    return _reports(K, L, ps, transforms, slack, seed_k)


def run_trials(params: GenParams, trials: int, epsilon: float = 0.1,
               ps: Sequence[float] = (1.0, 2.0, math.inf),
               transforms: Sequence[str] = ("pt", "rpt"),
               slack: str = PAD_ORIGIN,
               fixture_dir: Optional[str] = None,
               max_workers: int = 1) -> list[StabilityReport]:
    """Run perturbation trials; optionally persist failing pairs as fixtures.

    Results are deterministic in ``params.seed`` and independent of
    ``max_workers``, a cap on the worker processes; reports are in trial order.
    """
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    _check_params(params)
    trial = partial(_trial, params, epsilon=epsilon, ps=ps,
                    transforms=transforms, slack=slack)
    workers = min(max_workers, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(trial, range(trials), chunksize=max(
                1, trials // (4 * workers))))
    else:
        batches = map(trial, range(trials))
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
