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

No n×m cost block is built for it.  A kept edge has
``|x_i - x_j| <= c <= 2^(1/p) max(s_i, s_j) <= 2 max(s_i, s_j)`` on
column 0 (x for PT and RPT, birth for PD), since c is a sup over columns.
So one sort of column 0 and a window of radius ``2 (1 + 2^-40) s`` around
each point, searched from both sides, list every edge that any p keeps,
and the sup cost and the rule are computed on those candidates only.  The
margin covers rounding; an infinite radius or a NaN window end (inf - inf)
opens the window to every point.

Every array cost, the ``pad-origin`` block and the ``diagonal`` candidates
alike, goes through ``_sup``; ``sup_dist`` is its scalar form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat, zip_longest
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
    """No matching of the points has a finite cost."""


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
    if not (M >= 0).all():  # NaN fails this too
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


def _rank_costs(K: MorseSet, L: MorseSet) -> list[float]:
    """Sup-norm costs of the rank matching, which pairs the i-th maxima and
    the i-th minima of K and L and pads with the origin; both must be valid."""
    require_valid(K)
    require_valid(L)
    return [sup_dist(a, b) for ko, lo in ((K.max_order, L.max_order),
                                          (K.min_order, L.min_order))
            for a, b in zip_longest(K.xy(ko).tolist(), L.xy(lo).tolist(),
                                    fillvalue=_ORIGIN)]


def morse_distance(K: MorseSet, L: MorseSet, p: float = 2.0) -> float:
    """p-aggregated sup-norm cost of the rank matching between two Morse
    sets, scale-safe at any p."""
    p = _check_p(p)
    return _aggregate(_rank_costs(K, L), p)


# ---------------------------------------------------------------------------
# Wasserstein / bottleneck on transform outputs


TransformSet = Union[PTSet, RPTSet, PDSet]


def _points(*sets: TransformSet) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``sets``, all of one kind, stacked, and their slacks, the
    sup-norm distance to the zero-persistence locus: the RPT persistence, or
    (birth - death) / 2 for PT and PD, halved first so it cannot overflow.
    NaN raises."""
    cols = np.concatenate([s.array.T for s in sets], axis=1)
    if isinstance(sets[0], RPTSet):
        slack = cols[1]
    else:  # an infinite birth minus an equal death is NaN, raised below
        with np.errstate(invalid="ignore"):
            slack = cols[-2] / 2.0 - cols[-1] / 2.0
    if np.isnan(cols).any() or np.isnan(slack).any():
        raise ValueError("transform point or slack is NaN")
    return cols.T, slack


def _sup(us, vs) -> np.ndarray:
    """``sup_dist`` of ``us`` and ``vs``, one array per coordinate, broadcast:
    equal infinities differ by NaN, which ``fmax`` skips, so they cost
    nothing, and a difference past the largest double is inf."""
    c = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v in zip(us, vs):
            d = np.subtract(u, v)
            c = np.fmax(c, np.abs(d, out=d), out=d)
    return c


# the window radius per unit of slack: 2 bounds 2^(1/p) at every p >= 1, and
# 1 + 2^-40 covers the rounding of the radius, the window ends and the rule
_REACH = 2.0 * (1.0 + 2.0 ** -40)


def _candidates(P: np.ndarray, s: np.ndarray, n: int):
    """The pairs (i, j), i < n <= j, of rows of ``P`` (both sides' points,
    the first side's n first) whose gap in column 0 is at most ``_REACH``
    times the slack ``s`` of i or of j, with their ``sup_dist`` costs c: a
    superset of the edges that any p keeps, a pair in reach of both ends
    listed twice.  One sort of column 0 and a window per point find them."""
    cols = P.T  # contiguous for the points _points stacks
    x = cols[0]
    order = x.argsort()
    xs = x[order]
    # a radius or window end may overflow, and inf - inf is NaN: a NaN
    # window end opens the window
    with np.errstate(over="ignore", invalid="ignore"):
        r = _REACH * s
        lo = xs.searchsorted(np.fmax(x - r, -math.inf))
        hi = xs.searchsorted(np.fmin(x + r, math.inf), "right")
    counts = hi - lo
    q = np.arange(x.size).repeat(counts)
    at = order[np.arange(q.size)
               + (lo + counts - counts.cumsum()).repeat(counts)]
    cross = (q < n) != (at < n)
    q, at = q[cross], at[cross]
    i, j = np.minimum(q, at), np.maximum(q, at)
    return i, j, _sup(cols.take(i, axis=1), cols.take(j, axis=1))


def _pruned(P: np.ndarray, s: np.ndarray, n: int, ps: Sequence[float]):
    """For each of ``ps``, the pruned diagonal-slack matrix of the points
    ``P`` (the first side's n first) with slacks ``s``, a new one each time;
    the flat indices and values of its kept costs and slack diagonals; and
    the dropped points' slacks.  The candidates are found once, and a p that
    keeps the same edges as the p before it reuses its layout.  The rule is
    taken relative to ``t = max(s_i, s_j)``, so no power overflows."""
    i, j, c = _candidates(P, s, n)
    si, sj = s[i], s[j]
    t = np.maximum(si, sj)
    within = (c <= t) & (c < math.inf)
    last = None
    for p in ps:
        keep = within
        if not math.isinf(p):  # c^p <= 2 t^p: only t < c <= 2^(1/p) t is open
            k = ((c > t) & (c / 2.0 ** (1.0 / p) <= t)).nonzero()[0]
            u = t[k]
            keep = within.copy()
            keep[k] = (c[k] / u) ** p <= 1.0 + (
                np.minimum(si[k], sj[k]) / u) ** p
        if last is None or (keep != last).any():
            last = keep
            ik, jk = i[keep], j[keep]
            alive = np.isinf(s)
            alive[ik] = alive[jk] = True
            rank = alive.cumsum() - 1
            N = np.count_nonzero(alive)
            na = np.count_nonzero(alive[:n])
            ik, jk = rank[ik], rank[jk] - na
            # a point meets its own copy at its slack: row k of the first
            # side at column N - na + k, row na + k of the second at column k
            diag = np.arange(N) * (N + 1) + (N - na)
            diag[na:] -= N
            cells = np.concatenate((ik * N + jk, diag))
            vals = np.concatenate((c[keep], s[alive]))
            # copies pair at 0 only at transposes of kept edges: an all-0
            # block gives the same answer but a slower solve, 14.5 against
            # 5.7-6.3 ms per diagram_matching op (RPT W2: 11.2 against
            # 3.8 ms) on a 2-core Xeon
            zeros = (na + jk) * N + (N - na) + ik
            dropped = s[~alive].tolist()
        raw = np.empty(N * N)
        raw.fill(math.inf)
        raw[cells] = vals
        raw[zeros] = 0.0
        yield raw.reshape(N, N), cells, vals, dropped


def _scaled(raw, cells, vals, p: float) -> np.ndarray:
    """``(raw / scale) ** p`` for the sum solve at finite p, from ``vals``,
    the entries of ``raw`` at the flat ``cells``, written into ``raw``.  The
    other cells are 0 or inf, which the power keeps.  ``scale`` is the
    largest finite value, or the bottleneck value if the least positive one
    would scale to 0."""
    top = vals.max(where=np.isfinite(vals), initial=0.0) or 1.0
    least = vals.min(where=vals > 0, initial=math.inf)
    # if the least positive cost scales to 0, such costs all tie: scale by
    # the bottleneck value (the least cost if that is 0)
    scale = top if (least / top) ** p > 0 else max(
        solve_assignment(raw, objective="bottleneck").cost, least)
    # a cost that overflows here exceeds the bottleneck by more than n^(1/p),
    # so no optimal matching uses it
    with np.errstate(over="ignore"):
        scaled = np.divide(vals, scale)
        np.power(scaled, p, out=scaled)
    raw.ravel()[cells] = scaled
    return raw


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
    sup block (``pad-origin``) or the candidate edges (``diagonal``) are
    made once, the prune and the solve once per p."""
    ps = [_check_p(p) for p in ps]
    if type(A) is not type(B):
        raise KindMismatchError(
            f"cannot compare {type(A).__name__} with {type(B).__name__}")
    if slack not in (DIAGONAL, PAD_ORIGIN):
        raise ValueError(f"unknown slack policy {slack!r}")
    n = len(A.array)
    P, s = _points(A, B)
    if slack == DIAGONAL and (s < 0).any():
        raise ValueError("diagonal slack must not be negative")
    if slack == PAD_ORIGIN:
        # zero rows pad the smaller set; np.pad is 10x slower on small sets
        m = max(n, len(P) - n)
        pa, pb = (np.concatenate([q, np.zeros((m - len(q), q.shape[1]))])
                  for q in (P[:n], P[n:]))
        block = _sup(pa.T[:, :, None], pb.T[:, None])
        instances = repeat((block, slice(None), block.ravel().copy(), []))
    else:
        instances = _pruned(P, s, n, ps)
    out = []
    try:
        for p, (raw, cells, vals, dropped) in zip(ps, instances):
            if math.isinf(p):
                matched = [solve_assignment(raw, objective="bottleneck").cost]
            else:
                pairs = solve_assignment(_scaled(raw, cells, vals, p)).pairs
                raw.ravel()[cells] = vals  # _scaled wrote into raw: undo that
                matched = [raw.item(ij) for ij in pairs]
            out.append(_aggregate(dropped + matched, p))
    except InfeasibleError:
        raise UnmatchableInfinityError(
            "no finite-cost matching: an infinite coordinate has no partner, "
            "or a cost exceeds the largest double") from None
    return out
