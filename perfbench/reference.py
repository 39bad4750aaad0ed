"""Reference answers computed without the program.

Every function here takes plain numbers and arrays, never the program's
objects, and takes another route than the program does:

* critical points come from numpy sign tests on the run-collapsed samples;
* the elder rule walks outwards from each peak to the nearest elder peak on
  either side, where the program sweeps a union-find over all points;
* cost matrices are built by numpy broadcasting, where the program calls a
  scalar distance per entry, and a bottleneck value is certified by two 0/1
  assignment problems, where the program binary-searches with a bipartite
  matching routine.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

INF = math.inf


# ---------------------------------------------------------------------------
# Signals


def parse_csv(text: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Segments of an ``x,y`` CSV: blank lines split, non-numeric rows that
    open a segment are headers."""
    segments, xs, ys = [], [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            if xs:
                segments.append((np.array(xs), np.array(ys)))
                xs, ys = [], []
            continue
        a, b = line.split(",")[:2]
        try:
            x, y = float(a), float(b)
        except ValueError:
            if xs:
                raise
            continue
        xs.append(x)
        ys.append(y)
    if xs:
        segments.append((np.array(xs), np.array(ys)))
    return segments


def critical_points(x: np.ndarray, y: np.ndarray):
    """Positions, values and kinds (+1 maximum, -1 minimum), in x order.

    A run of equal values is represented by its leftmost sample.  Interior
    points are the strict local extrema of what remains; each end point's
    kind follows the slope next to it.
    """
    keep = np.concatenate(([True], np.diff(y) != 0))
    x, y = x[keep], y[keep]
    up = np.diff(y) > 0
    kind = np.zeros(len(y), dtype=int)
    kind[0] = -1 if up[0] else 1
    kind[-1] = 1 if up[-1] else -1
    inner = np.arange(1, len(y) - 1)
    kind[inner[up[:-1] & ~up[1:]]] = 1
    kind[inner[~up[:-1] & up[1:]]] = -1
    sel = kind != 0
    return x[sel], y[sel], kind[sel]


def elder_deaths(x, y, kind) -> dict[int, int | None]:
    """Death minimum (an index) of every peak under the elder rule.

    A peak dies where its component first joins one holding an elder peak
    (higher, or as high and further left).  Towards each side that happens
    when the lowest minimum between the peak and the nearest elder peak
    there is swept; minima of equal value are swept left to right, so a tie
    resolves to the rightmost of them.  Of the two sides, the one swept
    first wins.  A peak with no elder on either side is essential (None).
    """
    n = len(x)
    deaths: dict[int, int | None] = {}
    for p in range(n):
        if kind[p] != 1:
            continue
        key = (-y[p], x[p])
        best = None
        for step in (-1, 1):
            low = None
            i = p + step
            while 0 <= i < n:
                if kind[i] == 1 and (-y[i], x[i]) < key:
                    break
                if kind[i] == -1 and (low is None or y[i] < y[low]
                                      or (y[i] == y[low] and step > 0)):
                    low = i
                i += step
            else:
                continue  # no elder peak on this side
            event = (-y[low], x[low])
            if best is None or event < best[0]:
                best = (event, low)
        deaths[p] = None if best is None else best[1]
    return deaths


def transforms(x, y, kind) -> dict[str, list]:
    """PT features and diagonal, RPT features and PD points of one segment."""
    deaths = elder_deaths(x, y, kind)
    pt, rpt, pd = [], [], []
    for p, d in deaths.items():
        dv = -INF if d is None else float(y[d])
        pt.append((float(x[p]), float(y[p]), dv))
        rpt.append((float(x[p]), float(y[p]) - dv))
        pd.append((float(y[p]), dv))
    diagonal = [(float(x[i]), float(y[i])) for i in range(len(x)) if kind[i] == -1]
    return {"pt": pt, "diagonal": diagonal, "rpt": rpt, "pd": pd}


def signal_transforms(csv_text: str) -> dict[str, list]:
    """Reference transforms of a whole CSV file, all segments joined."""
    out: dict[str, list] = {"pt": [], "diagonal": [], "rpt": [], "pd": []}
    points = 0
    for x, y in parse_csv(csv_text):
        cx, cy, ck = critical_points(x, y)
        points += len(cx)
        for k, v in transforms(cx, cy, ck).items():
            out[k].extend(v)
    out["critical_points"] = points
    return out


def morse_transforms(maxima, minima) -> dict[str, list]:
    """Reference transforms of a Morse set given as (x, y) lists."""
    pts = sorted([(a, b, 1) for a, b in maxima] + [(a, b, -1) for a, b in minima])
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    k = np.array([p[2] for p in pts])
    return transforms(x, y, k)


# ---------------------------------------------------------------------------
# Matching distances


def sup_cost(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sup-norm distance of every row of A to every row of B, with equal
    infinite coordinates contributing nothing and unequal ones infinity."""
    A = np.asarray(A, dtype=float).reshape(len(A), -1)
    B = np.asarray(B, dtype=float).reshape(len(B), -1)
    a, b = A[:, None, :], B[None, :, :]
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    diff[a == b] = 0.0
    return diff.max(axis=2) if diff.size else np.zeros((len(A), len(B)))


def pt_slack(points) -> list[float]:
    """Sup-norm distance of (x, birth, death) to the diagonal birth = death."""
    return [(b - d) / 2.0 if math.isfinite(d) else INF for _, b, d in points]


def rpt_slack(points) -> list[float]:
    """Sup-norm distance of (x, persistence) to the zero-persistence line."""
    return [q for _, q in points]


def diagonal_matrix(A, B, slack_a, slack_b) -> np.ndarray:
    """Square matrix: A against B, each point against its own slack, and
    slack against slack for free."""
    n, m = len(A), len(B)
    M = np.full((n + m, n + m), INF)
    M[:n, :m] = sup_cost(A, B)
    M[np.arange(n), m + np.arange(n)] = slack_a
    M[n + np.arange(m), np.arange(m)] = slack_b
    M[n:, m:] = 0.0
    return M


def origin_matrix(A, B) -> np.ndarray:
    """Square matrix after padding the smaller set with the zero point."""
    dim = len(A[0]) if len(A) else len(B[0])
    n = max(len(A), len(B))
    A = list(A) + [(0.0,) * dim] * (n - len(A))
    B = list(B) + [(0.0,) * dim] * (n - len(B))
    return sup_cost(A, B)


def wasserstein(M: np.ndarray, p: float) -> float:
    """Exact p-Wasserstein (finite p) or bottleneck (p = inf) value of M."""
    if M.size == 0:
        return 0.0
    if math.isinf(p):
        return bottleneck(M)
    rows, cols = linear_sum_assignment(M ** p)
    return float(np.sum(M[rows, cols] ** p) ** (1.0 / p))


def perfect_below(M: np.ndarray, t: float) -> bool:
    """Does a perfect matching exist that uses only entries <= t?"""
    over = (M > t).astype(float)
    rows, cols = linear_sum_assignment(over)
    return over[rows, cols].sum() == 0


def bottleneck(M: np.ndarray) -> float:
    levels = np.unique(M[np.isfinite(M)])
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if perfect_below(M, levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def bottleneck_certified(M: np.ndarray, value: float) -> bool:
    """``value`` is the bottleneck of M: a perfect matching exists within it
    and none within the next-lower entry of M."""
    if not perfect_below(M, value):
        return False
    lower = M[M < value]
    return lower.size == 0 or not perfect_below(M, float(lower.max()))


# ---------------------------------------------------------------------------
# Morse-set distance


def rank_distance(K_max, K_min, L_max, L_min, p: float) -> float:
    """Rank matching: maxima by descending (y, x), minima by ascending
    (y, x), the shorter list padded with the origin; sup-norm costs,
    p-aggregated."""
    costs = []
    for a, b, desc in ((K_max, L_max, True), (K_min, L_min, False)):
        a = sorted(a, key=lambda q: (q[1], q[0]), reverse=desc)
        b = sorted(b, key=lambda q: (q[1], q[0]), reverse=desc)
        n = max(len(a), len(b))
        a = a + [(0.0, 0.0)] * (n - len(a))
        b = b + [(0.0, 0.0)] * (n - len(b))
        costs.extend(max(abs(u[0] - v[0]), abs(u[1] - v[1]))
                     for u, v in zip(a, b))
    if math.isinf(p):
        return max(costs, default=0.0)
    return math.fsum(c ** p for c in costs) ** (1.0 / p)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300) + 1e-12
