"""Exact matching distances on Morse sets and their transforms.

The Morse-set distance pairs critical points by rank and pads with the
origin; the Wasserstein distance minimizes over all matchings via an exact
assignment solver.  ``p = math.inf`` is a genuine bottleneck everywhere,
computed by threshold search, never a large-p approximation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence, Union

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import MorseSet, require_valid
from .pairing import PDSet, PTSet, RPTSet

DIAGONAL = "diagonal"
PAD_ORIGIN = "pad-origin"


class KindMismatchError(TypeError):
    """Operands of a transform distance are of different kinds."""


class UnmatchableInfinityError(ValueError):
    """An essential point has no essential partner and no finite-cost slack."""


class InfeasibleError(ValueError):
    """The assignment instance admits no finite-cost perfect matching."""


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[int, int], ...]
    cost: float


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1):
        raise ValueError("p must be >= 1 or infinity")
    return p


def sup_dist(u: Sequence[float], v: Sequence[float]) -> float:
    """Sup-norm distance with extended reals: equal infinite coordinates
    contribute nothing, mismatched ones make the distance infinite."""
    best = 0.0
    for a, b in zip(u, v):
        if math.isinf(a) or math.isinf(b):
            if a == b:
                continue
            return math.inf
        d = abs(a - b)
        if d > best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Assignment solver


def solve_assignment(cost, objective: str = "sum") -> MatchResult:
    """Minimum-cost perfect matching on a square matrix of costs >= 0 or inf.

    ``objective="sum"`` minimizes the total cost; ``objective="bottleneck"``
    minimizes the largest matched entry.  Both are exact.  A perfect matching
    uses an entry of every row and column, so none beats ``lb = max(max_i
    min_j M, max_j min_i M)``: the bottleneck search probes ``lb`` first and
    binary-searches the larger finite entries only if that fails.  A probe
    at ``t`` is the sum assignment of the 0/1 matrix ``M > t``, which costs 0
    exactly when a matching within ``t`` exists.
    """
    M = np.asarray(cost, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("cost matrix must be square")
    if M.size == 0:
        return MatchResult((), 0.0)
    if np.isnan(M).any() or (M < 0).any():
        raise ValueError("cost entries must be nonnegative or +inf")

    if objective == "sum":
        try:
            rows, cols = linear_sum_assignment(M)
        except ValueError as exc:
            raise InfeasibleError(str(exc)) from None
        total = float(M[rows, cols].sum())
        return MatchResult(tuple(zip(rows.tolist(), cols.tolist())), total)

    if objective != "bottleneck":
        raise ValueError(f"unknown objective {objective!r}")

    level = max(M.min(axis=1).max(), M.min(axis=0).max())
    cols = _matching_within(M, level) if level < math.inf else None
    if cols is None:
        levels = np.unique(M[(M > level) & np.isfinite(M)])
        lo, hi = 0, levels.size
        while lo < hi:
            mid = (lo + hi) // 2
            found = _matching_within(M, levels[mid])
            if found is None:
                lo = mid + 1
            else:
                hi, cols, level = mid, found, levels[mid]
    if cols is None:
        raise InfeasibleError("no perfect matching avoids infinite entries")
    return MatchResult(tuple(enumerate(cols.tolist())), float(level))


def _matching_within(M: np.ndarray, threshold: float):
    """Columns of a perfect matching using only entries <= threshold, or None."""
    over = M > threshold
    rows, cols = linear_sum_assignment(over)
    return None if over[rows, cols].any() else cols


def _aggregate(costs: Sequence[float], p: float) -> float:
    # top * ||costs / top||_p: no power overflows, the largest cannot underflow
    top = max(costs, default=0.0)
    if math.isinf(p) or math.isinf(top) or top == 0.0:
        return float(top)
    return float(top * math.fsum((c / top) ** p for c in costs) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Morse-set distance


_ORIGIN = (0.0, 0.0)


def mstar_pairs(K: MorseSet, L: MorseSet) -> list[tuple[tuple, tuple]]:
    """Rank matching: i-th maxima and j-th minima of each set are paired;
    the shorter lists are padded with the origin (0, 0)."""
    return [(_ORIGIN if a is None else a.coords(),
             _ORIGIN if b is None else b.coords())
            for left, right in ((K.maxima, L.maxima), (K.minima, L.minima))
            for a, b in zip_longest(left, right)]


def morse_distance(K: MorseSet, L: MorseSet, p: float = 2.0) -> float:
    """p-aggregated sup-norm cost of the rank matching between two Morse
    sets, scale-safe at any p."""
    p = _check_p(p)
    require_valid(K)
    require_valid(L)
    return _aggregate([sup_dist(a, b) for a, b in mstar_pairs(K, L)], p)


# ---------------------------------------------------------------------------
# Wasserstein / bottleneck on transform outputs


def _pt_points(s: PTSet) -> tuple[np.ndarray, np.ndarray]:
    # only the peak features carry matched mass; the diagonal-plane points
    # have zero persistence and act as the slack locus
    pts = np.array([(f.x, f.birth, f.death) for f in s.features],
                   dtype=float).reshape(-1, 3)
    pers = pts[:, 1] - pts[:, 2]
    return pts, np.where(np.isinf(pers), math.inf, pers / 2.0)


def _rpt_points(s: RPTSet) -> tuple[np.ndarray, np.ndarray]:
    pts = np.array([(f.x, f.persistence) for f in s.features],
                   dtype=float).reshape(-1, 2)
    return pts, pts[:, 1]


def _pd_points(s: PDSet) -> tuple[np.ndarray, np.ndarray]:
    pts = np.array([(q.birth, q.death) for q in s.points],
                   dtype=float).reshape(-1, 2)
    return pts, np.where(np.isinf(pts).any(axis=1), math.inf,
                         (pts[:, 0] - pts[:, 1]) / 2.0)


_POINTERS = {PTSet: _pt_points, RPTSet: _rpt_points, PDSet: _pd_points}

TransformSet = Union[PTSet, RPTSet, PDSet]


def _cost_matrix(pa: np.ndarray, sa: np.ndarray, pb: np.ndarray,
                 sb: np.ndarray, slack: str) -> np.ndarray:
    """``sup_dist`` matrix, built one coordinate at a time, padded with zero
    points (``pad-origin``) or bordered by the slack costs (``diagonal``)."""
    n, m = len(pa), len(pb)
    if slack == PAD_ORIGIN:
        n = m = max(n, m)
        pa, pb = (np.concatenate([q, np.zeros((n - len(q), q.shape[1]))])
                  for q in (pa, pb))
        raw = block = np.zeros((n, n))
    else:
        raw = np.full((n + m, n + m), math.inf)
        raw[np.arange(n), m + np.arange(n)] = sa
        raw[n + np.arange(m), np.arange(m)] = sb
        raw[n:, m:] = raw[:n, :m] = 0.0
        block = raw[:n, :m]
    for u, v in zip(pa.T, pb.T):
        u = u[:, None]
        # equal coordinates, equal infinities included, contribute nothing
        diff = np.subtract(u, v, out=np.zeros((n, m)), where=u != v)
        np.maximum(block, np.abs(diff, out=diff), out=block)
    return raw


def wasserstein(A: TransformSet, B: TransformSet, p: float = 2.0,
                slack: str = DIAGONAL) -> float:
    """Minimum p-aggregated sup-norm matching cost between two transform
    outputs of the same kind.

    ``slack="diagonal"`` lets unmatched points pay their distance to the
    nearest zero-persistence representative; ``slack="pad-origin"`` pads the
    smaller multiset with the all-zero point, mirroring the rank matching's
    padding.

    Finite p matches on ``(M / top) ** p``, ``top`` the largest finite cost:
    no power overflows into a spurious infinity, and scaling keeps the
    optimal matching.  The distance is the scale-safe p-norm of that
    matching's costs, as in :func:`morse_distance`, so it is not rounded to 0.
    """
    p = _check_p(p)
    if type(A) is not type(B):
        raise KindMismatchError(
            f"cannot compare {type(A).__name__} with {type(B).__name__}")
    if slack not in (DIAGONAL, PAD_ORIGIN):
        raise ValueError(f"unknown slack policy {slack!r}")
    (pa, sa), (pb, sb) = map(_POINTERS[type(A)], (A, B))
    raw = _cost_matrix(pa, sa, pb, sb, slack)
    try:
        if math.isinf(p):
            cost = solve_assignment(raw, objective="bottleneck").cost
        else:
            top = raw.max(where=np.isfinite(raw), initial=0.0) or 1.0
            scaled = np.divide(raw, top)
            np.power(scaled, p, out=scaled)
            pairs = solve_assignment(scaled).pairs
            cost = _aggregate([raw[ij] for ij in pairs], p)
    except InfeasibleError:
        raise UnmatchableInfinityError(
            "an infinite-coordinate point has no admissible partner") from None
    return cost
