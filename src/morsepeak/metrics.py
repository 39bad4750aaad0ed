"""Exact matching distances on Morse sets and their transforms.

The Morse-set distance pairs critical points by rank and pads with the
origin; the Wasserstein distance minimizes over all matchings via an exact
assignment solver.  ``p = math.inf`` is a genuine bottleneck everywhere,
computed by threshold search, never a large-p approximation.

With diagonal slack s, the one dense solve sees only the edges (i, j) of
finite cost c with ``c^p <= s_i^p + s_j^p`` (``c <= max(s_i, s_j)`` at
p = inf): sending both ends of any other edge to the diagonal and pairing
their diagonal copies at cost 0 is no worse.  Diagonal copies pair only at
kept edges, and a point of finite slack with no kept edge goes to the
diagonal outright.  The answer equals the full bordered matrix's.
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


def _ranked(ms: MorseSet, order: np.ndarray):
    return zip(ms.xs[order].tolist(), ms.ys[order].tolist())


def mstar_pairs(K: MorseSet, L: MorseSet) -> list[tuple[tuple, tuple]]:
    """Rank matching: i-th maxima and j-th minima of each set are paired;
    the shorter lists are padded with the origin (0, 0)."""
    return [pair for a, b in ((K.max_order, L.max_order),
                              (K.min_order, L.min_order))
            for pair in zip_longest(_ranked(K, a), _ranked(L, b),
                                    fillvalue=_ORIGIN)]


def _rank_costs(K: MorseSet, L: MorseSet) -> list[float]:
    """The sup-norm cost of each rank-matched pair; both sets must be valid."""
    require_valid(K)
    require_valid(L)
    return [sup_dist(a, b) for a, b in mstar_pairs(K, L)]


def morse_distance(K: MorseSet, L: MorseSet, p: float = 2.0) -> float:
    """p-aggregated sup-norm cost of the rank matching between two Morse
    sets, scale-safe at any p."""
    p = _check_p(p)
    return _aggregate(_rank_costs(K, L), p)


# ---------------------------------------------------------------------------
# Wasserstein / bottleneck on transform outputs


TransformSet = Union[PTSet, RPTSet, PDSet]


def _points(s: TransformSet) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``s`` and their slacks, the sup-norm distance to the
    zero-persistence locus: the RPT persistence, or (birth - death) / 2 for
    PT and PD, halved first so it cannot overflow.  NaN raises."""
    a = s.array
    if isinstance(s, RPTSet):
        slack = a[:, 1]
    else:  # an infinite birth minus an equal death is NaN, raised below
        with np.errstate(invalid="ignore"):
            slack = a[:, -2] / 2.0 - a[:, -1] / 2.0
    if np.isnan(a).any() or np.isnan(slack).any():
        raise ValueError("transform point or slack is NaN")
    return a, slack


def _sup_block(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """``sup_dist`` of every row pair of ``pa`` and ``pb``, by coordinate."""
    block = np.zeros((len(pa), len(pb)))
    for u, v in zip(pa.T, pb.T):
        u = u[:, None]
        # equal coordinates, equal infinities included, contribute nothing
        diff = np.subtract(u, v, out=np.zeros(block.shape), where=u != v)
        np.maximum(block, np.abs(diff, out=diff), out=block)
    return block


def _pruned_matrix(c, sa, sb, p: float) -> tuple[np.ndarray, list]:
    """The pruned diagonal-slack matrix of the sup block ``c`` and the
    dropped points' slacks.  The rule is taken relative to
    ``t = max(s_i, s_j)``, so no power overflows."""
    t = np.maximum.outer(sa, sb)
    keep = (c <= t) & np.isfinite(c)
    if not math.isinf(p):  # c^p <= 2 t^p, so only t < c <= 2^(1/p) t is open
        i, j = np.nonzero((c > t) & (c / 2.0 ** (1.0 / p) <= t))
        s, u = np.minimum(sa[i], sb[j]), t[i, j]
        keep[i, j] = (c[i, j] / u) ** p <= 1.0 + (s / u) ** p
    rows = keep.any(axis=1) | np.isinf(sa)
    cols = keep.any(axis=0) | np.isinf(sb)
    c = np.where(keep, c, math.inf)[rows][:, cols]
    n, m = c.shape
    raw = np.full((n + m, n + m), math.inf)
    raw[:n, :m] = c
    raw[np.arange(n), m + np.arange(n)] = sa[rows]
    raw[n + np.arange(m), np.arange(m)] = sb[cols]
    # copies pair at 0 only at transposes of kept edges: an all-0 block gives
    # the same answer but a slower solve, 14.5 against 5.7-6.3 ms per
    # diagram_matching op (RPT W2: 11.2 against 3.8 ms) on a 2-core Xeon
    raw[n:, m:][np.isfinite(c.T)] = 0.0
    return raw, sa[~rows].tolist() + sb[~cols].tolist()


def wasserstein(A: TransformSet, B: TransformSet, p: float = 2.0,
                slack: str = DIAGONAL) -> float:
    """Minimum p-aggregated sup-norm matching cost between two transform
    outputs of the same kind.

    ``slack="diagonal"`` lets unmatched points pay their distance to the
    nearest zero-persistence representative; ``slack="pad-origin"`` pads the
    smaller multiset with the all-zero point, mirroring the rank matching's
    padding.  NaN points or slacks, or negative diagonal slack: ValueError.

    Finite p matches on ``(M / top) ** p``, ``top`` the largest finite cost:
    no power overflows into a spurious infinity, and scaling keeps the
    optimal matching.  If a positive cost underflows to 0 there, such costs
    would tie, so ``M`` is scaled by the bottleneck value instead and the
    optimum's total lies in [1, n].  The distance is the scale-safe p-norm
    of the matched costs, as in :func:`morse_distance`, never rounded to 0.
    """
    return _distances(A, B, (p,), slack)[0]


def _distances(A: TransformSet, B: TransformSet, ps: Sequence[float],
               slack: str) -> list[float]:
    """:func:`wasserstein` at each of ``ps``: the checks, the points and the
    sup block are made once, the prune and the solve once per p."""
    ps = [_check_p(p) for p in ps]
    if type(A) is not type(B):
        raise KindMismatchError(
            f"cannot compare {type(A).__name__} with {type(B).__name__}")
    if slack not in (DIAGONAL, PAD_ORIGIN):
        raise ValueError(f"unknown slack policy {slack!r}")
    (pa, sa), (pb, sb) = _points(A), _points(B)
    if slack == DIAGONAL and ((sa < 0).any() or (sb < 0).any()):
        raise ValueError("diagonal slack must not be negative")
    if slack == PAD_ORIGIN:
        # zero rows pad the smaller set; np.pad is 10x slower on small sets
        n = max(len(pa), len(pb))
        pa, pb = (np.concatenate([q, np.zeros((n - len(q), q.shape[1]))])
                  for q in (pa, pb))
    block = _sup_block(pa, pb)
    out = []
    try:
        for p in ps:
            raw, costs = (_pruned_matrix(block, sa, sb, p)
                          if slack == DIAGONAL else (block, []))
            if math.isinf(p):
                costs.append(
                    solve_assignment(raw, objective="bottleneck").cost)
            else:
                top = raw.max(where=np.isfinite(raw), initial=0.0) or 1.0
                least = raw.min(where=raw > 0, initial=math.inf)
                # if the least positive cost scales to 0, such costs all tie:
                # scale by the bottleneck value (the least cost if that is 0)
                scale = top if (least / top) ** p > 0 else max(
                    solve_assignment(raw, objective="bottleneck").cost, least)
                # a cost that overflows here exceeds the bottleneck by more
                # than n^(1/p), so no optimal matching uses it
                with np.errstate(over="ignore"):
                    scaled = np.divide(raw, scale)
                    np.power(scaled, p, out=scaled)
                costs += [raw[ij] for ij in solve_assignment(scaled).pairs]
            out.append(_aggregate(costs, p))
    except InfeasibleError:
        raise UnmatchableInfinityError(
            "an infinite-coordinate point has no admissible partner") from None
    return out
