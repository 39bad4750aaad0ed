"""Independent reference implementations used to cross-check the library.

These deliberately take different routes than the production code: the
CSV oracle parses one line at a time, the extraction oracle walks the
samples one by one, the pairing oracle sweeps a densely interpolated sample
sequence, the diagram oracle is derived from that sweep, the transform
rows are built one object at a time from it, the assignment/matching
oracles enumerate permutations, the dense Wasserstein oracle solves the
full diagonal-bordered matrix unpruned with the ``linear_sum_assignment``
that ``scipy.optimize`` exports, not the library's solver, built entry by
entry with ``sup_dist`` rather than by the library's matrix code, with
slacks taken from their definitions, a p-norm and a bottleneck search of
its own that bisects every finite entry, and the dense prune oracle
applies the slack prune to every entry of that matrix where the library
searches a sorted window for candidate edges, and the connected parts of
an instance come from a breadth-first search over its cells, not from the
library's root hooking.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from morsepeak.core import (CriticalPoint, EmptyInputError, Kind, MorseSet,
                            colex_lt)
from morsepeak.metrics import (PAD_ORIGIN, InfeasibleError,
                               UnmatchableInfinityError, sup_dist)
from morsepeak.pairing import PDPoint, PTFeature, RPTFeature, RPTSet


def read_csv_reference(text: str) -> list[tuple[tuple[float, float], ...]]:
    """Per-line CSV parse: the segments as tuples of (x, y) samples.

    Whitespace-only lines split segments; non-numeric rows before a
    segment's first numeric row are headers; columns after the second are
    ignored.  Errors name the 1-based line.
    """
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                segments.append(current)
                current = []
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) < 2:
            raise ValueError(f"line {lineno}: expected two columns, got {line!r}")
        try:
            sample = (float(cells[0]), float(cells[1]))
        except ValueError:
            if not current:
                continue  # header row of a segment
            raise ValueError(f"line {lineno}: non-numeric row {line!r}") from None
        current.append(sample)
    if current:
        segments.append(current)
    if not segments:
        raise EmptyInputError("CSV contains no data rows")
    return [tuple(seg) for seg in segments]


def extract_reference(samples, eps: float) -> MorseSet | None:
    """Per-sample extraction of one segment; None if it is constant.

    Runs of consecutive samples within eps collapse to their leftmost sample,
    repeating until no adjacent representatives remain within eps.  Each
    representative is then classified by the signs of its two differences;
    an endpoint by its one difference.
    """
    reps = list(samples)
    while True:
        out = [reps[0]]
        for s in reps[1:]:
            if abs(s[1] - out[-1][1]) > eps:
                out.append(s)
        if len(out) == len(reps):
            break
        reps = out
    if len(reps) < 2:
        return None
    maxima, minima = [], []
    last = len(reps) - 1
    for i, (x, y) in enumerate(reps):
        if i == 0:
            (minima if reps[1][1] > y else maxima).append((x, y))
        elif i == last:
            (maxima if y > reps[i - 1][1] else minima).append((x, y))
        else:
            prev, nxt = y - reps[i - 1][1], reps[i + 1][1] - y
            if prev > 0 and nxt < 0:
                maxima.append((x, y))
            elif prev < 0 and nxt > 0:
                minima.append((x, y))
    return MorseSet.build(maxima, minima, (reps[0][0], reps[-1][0]))


def sweep_pairing(ms: MorseSet) -> dict:
    """Upper-levelset union-find sweep over the interpolated graph.

    The Morse set is resampled as its critical points plus the midpoint of
    every edge of the piecewise-linear interpolation; samples are activated
    from the top down and interval components are merged at every sample,
    killing the younger peak (elder rule).  Returns {peak: death-or-None}.
    """
    pts = ms.points_by_x()
    samples: list[tuple[float, float]] = []
    owner: list[CriticalPoint | None] = []
    for i, p in enumerate(pts):
        samples.append((p.x, p.y))
        owner.append(p)
        if i + 1 < len(pts):
            q = pts[i + 1]
            samples.append(((p.x + q.x) / 2, (p.y + q.y) / 2))
            owner.append(None)
    n = len(samples)
    order = sorted(range(n), key=lambda i: (-samples[i][1], samples[i][0]))
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    active = [False] * n
    peak: dict[int, int] = {}
    death: dict[int, int] = {}
    for i in order:
        active[i] = True
        peak[i] = i
        for nb in (i - 1, i + 1):
            if 0 <= nb < n and active[nb]:
                ra, rb = find(nb), find(i)
                if ra == rb:
                    continue
                ka = (-samples[peak[ra]][1], samples[peak[ra]][0])
                kb = (-samples[peak[rb]][1], samples[peak[rb]][0])
                old, young = (ra, rb) if ka <= kb else (rb, ra)
                death[peak[young]] = i
                parent[young] = old
    out = {}
    for i, p in enumerate(samples):
        if owner[i] is not None and owner[i].kind is Kind.MAX:
            d = death.get(i)
            out[owner[i]] = owner[d] if d is not None else None
    return out


def sweep_diagram(ms: MorseSet) -> list[tuple[float, float]]:
    """Persistence diagram of the upper levelset filtration, from the sweep."""
    out = []
    for peak, d in sweep_pairing(ms).items():
        out.append((peak.y, -math.inf if d is None else d.y))
    return sorted(out, key=lambda q: (-q[0], -q[1]))


def transform_rows(ms: MorseSet, tau: float = 0.0,
                   clip_essential: bool = False) -> dict[str, list]:
    """The denoised PT features and diagonal, the PD points and the RPT
    features of one Morse set, one row object at a time from the sweep
    pairing, sorted with Python keys as the per-row transform code did."""
    floor = min(m.y for m in ms.minima)
    rows: dict[str, list] = {"pt": [], "rpt": []}
    for m, d in sweep_pairing(ms).items():
        death = -math.inf if d is None else d.y
        rows["pt"].append(PTFeature(m.x, m.y, death))
        rows["rpt"].append(RPTFeature(m.x, m.y - (
            floor if d is None and clip_essential else death)))
    rows["pt"] = [f for f in by_persistence(rows["pt"])
                  if f.persistence >= tau]
    rows["rpt"] = by_persistence(rows["rpt"])
    rows["pd"] = by_birth(PDPoint(f.birth, f.death) for f in rows["pt"])
    rows["diagonal"] = ([PTFeature(m.x, m.y, m.y) for m in ms.minima]
                        if tau == 0 else [])
    return rows


def by_persistence(feats) -> list:
    return sorted(feats, key=lambda f: (-f.persistence, f.x))


def by_birth(points) -> list:
    return sorted(points, key=lambda q: (-q.birth, -q.death))


def quantified_alternation_ok(ms: MorseSet) -> bool:
    """Direct transcription of the betweenness form of the alternation axiom."""
    def holds(group, other, above: bool) -> bool:
        for p, q in itertools.combinations(group, 2):
            lo, hi = sorted((p.x, q.x))
            if any(lo <= r.x <= hi for r in group if r not in (p, q)):
                continue
            between = [r for r in other if lo <= r.x <= hi]
            if above:
                witnesses = [r for r in between
                             if colex_lt(r, p) and colex_lt(r, q)]
            else:
                witnesses = [r for r in between
                             if colex_lt(p, r) and colex_lt(q, r)]
            if len(witnesses) != 1:
                return False
        return True

    return (holds(ms.maxima, ms.minima, above=True)
            and holds(ms.minima, ms.maxima, above=False))


def brute_force_assignment(matrix, objective: str = "sum") -> float:
    """Exhaustive minimum over all permutations of a square cost matrix."""
    n = len(matrix)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        costs = [matrix[i][perm[i]] for i in range(n)]
        value = max(costs, default=0.0) if objective == "bottleneck" \
            else math.fsum(costs)
        best = min(best, value)
    return best


def exhaustive_matching(matrix, p: float) -> float:
    """The least p-norm of a perfect matching of a square cost matrix, exact
    over every matching by dynamic programming on the set of columns the
    first rows take: n 2^n steps where the permutations are n!."""
    n = len(matrix)
    add = max if math.isinf(p) else lambda total, c: total + c ** p
    best = {0: 0.0}  # columns taken by rows 0..i-1 -> least total
    for row in matrix:
        nxt = {}
        for taken, total in best.items():
            for j, c in enumerate(row):
                if not taken >> j & 1:
                    key, value = taken | 1 << j, add(total, c)
                    nxt[key] = min(nxt.get(key, math.inf), value)
        best = nxt
    total = best[(1 << n) - 1]
    return total if math.isinf(p) else total ** (1 / p)


def points_and_slacks(S) -> tuple[np.ndarray, list[float]]:
    """The rows of a transform set and their slacks, the sup-norm distance
    to the zero-persistence locus, from the definitions: the persistence of
    an RPT row, birth/2 - death/2 of a PT row (x, birth, death) or a PD row
    (birth, death)."""
    if isinstance(S, RPTSet):
        return S.array, [persistence for _, persistence in S.array.tolist()]
    return S.array, [birth / 2 - death / 2
                     for *_, birth, death in S.array.tolist()]


def p_norm(costs, p: float) -> float:
    """The p-norm (p finite) of ``costs``, taken relative to the largest so
    that no power underflows or overflows; inf if a cost is inf."""
    top = max(costs, default=0.0)
    if math.isinf(top) or top == 0.0:
        return top
    return top * math.fsum((c / top) ** p for c in costs) ** (1 / p)


def brute_force_wasserstein(points_a, points_b, slack_a, slack_b,
                            p: float) -> float:
    """Enumerate every matching of two small point multisets where each point
    may also pay its own slack cost instead of being matched.  Each
    matching's p-norm is taken relative to its largest cost, so it does not
    underflow at large p."""
    n, m = len(points_a), len(points_b)
    best = math.inf
    for k in range(min(n, m) + 1):
        for subset_a in itertools.combinations(range(n), k):
            rest_a = [i for i in range(n) if i not in subset_a]
            for subset_b in itertools.permutations(range(m), k):
                rest_b = [j for j in range(m) if j not in subset_b]
                costs = [sup_dist(points_a[i], points_b[j])
                         for i, j in zip(subset_a, subset_b)]
                costs += [slack_a[i] for i in rest_a]
                costs += [slack_b[j] for j in rest_b]
                value = max(costs, default=0.0) if math.isinf(p) \
                    else p_norm(costs, p)
                best = min(best, value)
    return best


def morse_distance_direct(K: MorseSet, L: MorseSet, p: float) -> float:
    """Direct evaluation of the rank-matching distance definition."""
    costs = []
    for left, right in ((K.maxima, L.maxima), (K.minima, L.minima)):
        for i in range(max(len(left), len(right))):
            a = left[i].coords() if i < len(left) else (0.0, 0.0)
            b = right[i].coords() if i < len(right) else (0.0, 0.0)
            costs.append(sup_dist(a, b))
    if math.isinf(p):
        return max(costs, default=0.0)
    if any(math.isinf(c) for c in costs):
        return math.inf
    return math.fsum(c ** p for c in costs) ** (1 / p)


def zero_padded(pa, pb):
    """The rows of two point arrays as tuples, the shorter list padded with
    all-zero points to the length of the longer."""
    n = max(len(pa), len(pb))
    return ([tuple(r) for r in q.tolist()]
            + [(0.0,) * q.shape[1]] * (n - len(q)) for q in (pa, pb))


def per_entry_cost_matrix(pa, sa, pb, sb, slack):
    """The cost matrix built entry by entry with ``sup_dist``: the
    ``sup_dist`` matrix of the two sets padded with all-zero points
    (``pad-origin``), or the full ``(n+m)^2`` matrix bordered by the slacks
    with an all-0 block pairing the diagonal copies (``diagonal``)."""
    if slack == PAD_ORIGIN:
        pa, pb = zero_padded(pa, pb)
        return np.array([[sup_dist(a, b) for b in pb] for a in pa])
    n, m = len(pa), len(pb)
    # Python floats: a difference that overflows is inf, without a warning
    pa, pb = pa.tolist(), pb.tolist()
    raw = np.full((n + m, n + m), math.inf)
    for i in range(n):
        for j in range(m):
            raw[i, j] = sup_dist(pa[i], pb[j])
        raw[i, m + i] = sa[i]
    for j in range(m):
        raw[n + j, j] = sb[j]
    raw[n:, m:] = 0.0
    return raw


def dense_pruned_matrix(pa, sa, pb, sb, p: float):
    """The pruned diagonal-slack matrix and the dropped points' slacks, with
    the prune rule applied to every entry of the n×m ``sup_dist`` block of
    :func:`per_entry_cost_matrix` rather than to candidate edges: edge
    (i, j) stays if its cost c is finite and ``c^p <= s_i^p + s_j^p``
    (``c <= max(s_i, s_j)`` at p = inf), tested relative to
    ``t = max(s_i, s_j)``; a point of finite slack and no kept edge is
    dropped; diagonal copies pair at 0 at the transposes of kept edges."""
    n, m = len(pa), len(pb)
    sa, sb = np.asarray(sa, dtype=float), np.asarray(sb, dtype=float)
    c = per_entry_cost_matrix(pa, sa, pb, sb, "diagonal")[:n, :m]
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
    raw[n:, m:][np.isfinite(c.T)] = 0.0
    return raw, sa[~rows].tolist() + sb[~cols].tolist()


def dense_bottleneck(raw) -> float:
    """The least entry t of the square matrix ``raw`` such that a perfect
    matching uses only entries <= t: a bisection of its sorted distinct
    finite entries, each probe the sum assignment of the 0/1 matrix
    ``raw > t``, which costs 0 exactly when such a matching exists.  No
    lower bound and no library search; ``InfeasibleError`` if no matching
    avoids the inf entries."""
    def fits(t):
        over = raw > t
        return not over[linear_sum_assignment(over)].any()

    if not len(raw):
        return 0.0
    levels = np.unique(raw[np.isfinite(raw)])
    if not levels.size or not fits(levels[-1]):
        raise InfeasibleError("no perfect matching of finite cost")
    lo, hi = 0, levels.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(levels[mid]) else (mid + 1, hi)
    return float(levels[lo])


def dense_scaled(raw, p: float):
    """``(raw / scale) ** p`` over the whole matrix: ``scale`` is its largest
    finite entry, or the bottleneck value if the least positive entry would
    scale to 0."""
    top = raw.max(where=np.isfinite(raw), initial=0.0) or 1.0
    least = raw.min(where=raw > 0, initial=math.inf)
    scale = top if (least / top) ** p > 0 else max(
        dense_bottleneck(raw), least)
    scaled = np.divide(raw, scale)
    with np.errstate(over="ignore"):
        np.power(scaled, p, out=scaled)
    return scaled


def dense_wasserstein(A, B, p: float) -> float:
    """Diagonal-slack Wasserstein distance from one solve of the full
    ``(n+m)^2`` bordered matrix of :func:`per_entry_cost_matrix`, with the
    same scale-safe powers as the library but no pruning, the slacks of
    :func:`points_and_slacks` and the matched costs' :func:`p_norm`."""
    (pa, sa), (pb, sb) = map(points_and_slacks, (A, B))
    raw = per_entry_cost_matrix(pa, sa, pb, sb, "diagonal")
    try:
        if math.isinf(p):
            return dense_bottleneck(raw)
        rows, cols = linear_sum_assignment(dense_scaled(raw, p))
        # Python floats: a total past the largest double is inf, silently
        return p_norm(raw[rows, cols].tolist(), p)
    except ValueError:  # also scipy's "cost matrix is infeasible"
        raise UnmatchableInfinityError("no admissible partner") from None


def connected_parts(N: int, cells) -> list[tuple[list[int], list[int]]]:
    """The connected parts of the bipartite graph with an edge from row r to
    column c for each flat cell ``r * N + c`` of an N×N instance, each as
    its rows and columns, ascending, by a breadth-first search from every
    node not yet reached, rows first; the parts in order of their least
    node, rows numbered before columns."""
    adjacent = [[] for _ in range(2 * N)]
    for cell in cells.tolist():
        r, c = divmod(cell, N)
        adjacent[r].append(N + c)
        adjacent[N + c].append(r)
    seen, parts = [False] * (2 * N), []
    for start in range(2 * N):
        if seen[start]:
            continue
        seen[start], queue = True, [start]
        for node in queue:
            for other in adjacent[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        parts.append((sorted(x for x in queue if x < N),
                      sorted(x - N for x in queue if x >= N)))
    return parts
