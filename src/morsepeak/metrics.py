"""Exact matching distances on Morse sets and their transforms.

The Morse-set distance pairs critical points by rank and pads with the
origin; the Wasserstein distance minimizes over all matchings via an exact
assignment solver.  ``p = math.inf`` is a genuine bottleneck everywhere,
computed by threshold search, never a large-p approximation.

With diagonal slack s, the solve sees only the edges (i, j) of finite
cost c with ``c^p <= s_i^p + s_j^p`` (``c <= max(s_i, s_j)`` at p = inf):
sending both ends of any other edge to the diagonal and pairing their
diagonal copies at cost 0 is no worse.  Diagonal copies pair only at kept
edges, and a point of finite slack with no kept edge goes to the diagonal
outright.  A lone kept edge, whose ends have no other, is settled in the
prune too: its ends and their copies are a part of their own, matched by
the edge or by the diagonal, the cheaper.  The answer equals the full
bordered matrix's.

Every instance is ``(N, cells, vals, settled)``: the N×N matrix with
``vals`` at the flat ``cells``, one ascending integer array of each cell
once, and inf elsewhere, and the costs settled outside it.  A pruned
instance is built for one p (kept edges, each point to its own copy, the
copy-to-copy transposes of kept edges); the ``pad-origin`` block and a
:func:`solve_assignment` matrix list every cell.  A pruned one of fewer
than ``_SPARSE_ROWS`` rows is solved as one dense matrix.  A larger one is
solved one connected part of its rows and columns at a time (``_split``):
parts of fewer than ``_SPARSE_ROWS`` rows packed into dense blocks of
fewer than ``_SPARSE_ROWS`` rows, a larger part alone as a sparse graph,
so nothing of size N² is built (``min_weight_full_bipartite_matching`` for
finite p).  The distance is the max (p = inf) or the p-norm of the settled
and the matched costs together.  At p = inf every solve goes through
``_bottleneck``, one lower-bound-first threshold search (also behind
:func:`solve_assignment`), whose probe is ``linear_sum_assignment`` or
``maximum_bipartite_matching``.  RPT has the largest pruned instances: its
slack is the whole persistence, so nearly every point survives the prune.
At 200 peaks a side 85-110 of its kept edges are lone, and the 113-150
rows left fall into 9-13 parts of at most 28 rows; at 3200 peaks one edge
is lone and the other 6398 rows are one part, solved whole.
``_SPARSE_ROWS`` is where the sparse solve's fixed cost (0.1-0.2 ms a
call) stops losing to the dense one.  The sparse solvers see only
canonical graphs (a duplicate cell gives a wrong matching or aborts the
process), no exact 0 (it would be dropped), and a graph one column wider
than tall (see ``_graph``).  scipy is loaded only when a solve needs it: a
dense solve loads the extension module of ``linear_sum_assignment`` alone
(see ``_lsap``), a sparse one imports ``scipy.sparse``.

No n×m cost block is built for it.  A kept edge has
``|x_i - x_j| <= c <= 2^(1/p) max(s_i, s_j) <= 2 max(s_i, s_j)`` on
column 0 (x for PT and RPT, birth for PD), since c is a sup over columns.
So the window of radius ``2 (1 + 2^-40) s`` around each point, taken on
the other side only, lists every edge that any p keeps, each in the window
of its end of larger slack (the first side's on a tie), and the sup cost
and the rule are computed on those candidates only.  The margin covers
rounding; an infinite radius or a NaN window end (inf - inf) opens the
window to every point.  Each set sorts its column 0 and its window ends
once, on its first diagonal-slack distance (``_index``), so a set compared
with many partners pays for its sorts once, and every binary search runs
on ascending keys.

Every cost goes through ``_sup``, ``sup_dist`` too.  The ``pad-origin``
blocks of several pairs, as a batch of stability trials has, come from
one ``_sup`` call (``_blocks``): each pair's m×m block, m its larger point
count, is one contiguous slice of the values, with no padding up to the
largest m, and each block is then solved alone.  The rank costs of the
Morse-set distance come from one more call per batch (``_rank_costs``),
and a distance of one pair is a batch of one.  Only subtraction, abs and
max run on the batch, so every value is the one a call per pair gives.
The ``diagonal`` candidates take one call per pair.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from typing import NamedTuple, Sequence, Union

import numpy as np

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
    """Sup-norm distance with extended reals, the largest of the ``_sup``
    costs of the coordinates: equal infinite coordinates contribute
    nothing, mismatched ones make the distance infinite.  A NaN coordinate
    raises ValueError."""
    uv = np.array((u, v), dtype=float)
    if np.isnan(uv).any():
        raise ValueError("coordinate is NaN")
    return float(_sup(uv[:1], uv[1:]).max(initial=0.0))


# ---------------------------------------------------------------------------
# Assignment solver


def solve_assignment(cost, objective: str = "sum") -> MatchResult:
    """Minimum-cost perfect matching on a square matrix of costs >= 0 or inf.

    ``objective="sum"`` minimizes the total cost; ``objective="bottleneck"``
    minimizes the largest matched entry by the threshold search that every
    bottleneck distance runs (``_bottleneck``).  Both are exact.
    """
    M = np.asarray(cost, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("cost matrix must be square")
    if not (M >= 0).all():  # NaN fails this too
        raise ValueError("cost entries must be nonnegative or +inf")

    if objective == "sum":
        rows, cols = _sum_solve(M)
        total = float(M[rows, cols].sum())
        return MatchResult(tuple(zip(rows.tolist(), cols.tolist())), total)

    if objective != "bottleneck":
        raise ValueError(f"unknown objective {objective!r}")
    cols, level = _bottleneck(len(M), np.arange(M.size), M.ravel())
    return MatchResult(tuple(enumerate(cols.tolist())), level)


@functools.cache
def _lsap():
    """scipy's ``linear_sum_assignment``, loaded once per process from its
    extension module ``scipy.optimize._lsap`` alone.

    Importing ``scipy.optimize`` for it took 0.5-0.7 s and raised peak RSS
    by 50 MB on a 2-core machine with numpy loaded; the extension loads in
    0.7 ms and adds 0.2 MB.  ``find_spec`` locates scipy without running
    any of its code.  The layout is scipy 1.17's; a scipy with no such file
    that loads gets the public import.  A later ``import scipy.optimize``
    reuses the loaded module, so its function is this one."""
    spec = find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in EXTENSION_SUFFIXES:
            loader = ExtensionFileLoader(
                "scipy.optimize._lsap",
                os.path.join(root, "optimize", "_lsap" + suffix))
            try:
                module = module_from_spec(spec_from_loader(loader.name, loader))
            except ImportError:
                continue
            loader.exec_module(module)
            return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment
    return linear_sum_assignment


def _sum_solve(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of a minimum-sum perfect matching of the square
    matrix ``M``, whose costs are >= 0 or inf."""
    try:
        return _lsap()(M)
    except ValueError as exc:
        raise InfeasibleError(str(exc)) from None


def _aggregate(costs: Sequence[float], p: float) -> float:
    # top * ||costs / top||_p: no power overflows, the largest cannot underflow
    top = max(costs, default=0.0)
    if math.isinf(p) or math.isinf(top) or top == 0.0:
        return float(top)
    # a list, not a generator, which resumes its frame once per cost: 30
    # against 38 us for 400 costs (Python 3.11); the same float operations
    return float(top * math.fsum([(c / top) ** p for c in costs]) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Morse-set distance


def _padded(rows: np.ndarray, count: np.ndarray):
    """Rows matched side by side: ``count[2u + s]`` rows of unit u on side
    s, in that order of groups, are placed in the slots of their unit on
    their side, as many as the unit's larger side has, zero rows filling
    the rest.  Returns the (2, slots, width) array of both sides and the
    slots of each unit."""
    slots = count.reshape(-1, 2).max(axis=1)
    group = np.arange(count.size).repeat(count)
    first = (slots.cumsum() - slots)[group // 2]  # its unit's first slot
    rank = np.arange(len(rows)) - (count.cumsum() - count)[group]
    pad = np.zeros((2, slots.sum(), rows.shape[1]))
    pad[group % 2, first + rank] = rows
    return pad, slots


def _rank_costs(pairs: Sequence[tuple[MorseSet, MorseSet]]
                ) -> list[list[float]]:
    """Sup-norm costs of the rank matching of each pair (K, L), which pairs
    the i-th maxima and the i-th minima of K and L and pads with the origin;
    every set must be valid.  One ``_sup`` call gives the costs of all
    pairs, each pair's maxima and then its minima one contiguous slice."""
    sets = [ms for pair in pairs for ms in pair]
    for ms in sets:
        require_valid(ms)
    xs, ys, up = (np.concatenate([getattr(ms, a) for ms in sets])
                  for a in ("xs", "ys", "is_max"))
    # set 2k + s is side s of pair k; a unit is (pair, kind), and each
    # side's points of a unit are in canonical order (``max_order``,
    # ``min_order``): maxima by descending value, the right one first on a
    # tie, minima by ascending value, the left one first
    owner = np.arange(len(sets)).repeat([ms.xs.size for ms in sets])
    group = 4 * (owner // 2) + 2 * ~up + owner % 2
    sign = np.where(up, -1.0, 1.0)
    order = np.lexsort((sign * np.arange(xs.size), sign * ys, group))
    pad, slots = _padded(np.column_stack((xs, ys))[order],
                         np.bincount(group, minlength=2 * len(sets)))
    costs = _sup(pad[0].T, pad[1].T).tolist()
    cut = [0, *slots.reshape(-1, 2).sum(axis=1).cumsum().tolist()]
    return [costs[a:b] for a, b in zip(cut, cut[1:])]


def morse_distance(K: MorseSet, L: MorseSet, p: float = 2.0) -> float:
    """p-aggregated sup-norm cost of the rank matching between two Morse
    sets, scale-safe at any p."""
    p = _check_p(p)
    return _aggregate(_rank_costs([(K, L)])[0], p)


# ---------------------------------------------------------------------------
# Wasserstein / bottleneck on transform outputs


TransformSet = Union[PTSet, RPTSet, PDSet]


def _slack(X: TransformSet, cols: np.ndarray) -> tuple[np.ndarray, bool]:
    """The slacks of the points ``cols`` (one array per column) of sets of
    X's kind, the sup-norm distance to the zero-persistence locus: the RPT
    persistence, or (birth - death) / 2 for PT and PD, halved first so it
    cannot overflow; and whether a point or a slack is NaN."""
    if isinstance(X, RPTSet):
        s = cols[1]
    else:  # an infinite birth minus an equal death is NaN
        with np.errstate(invalid="ignore"):
            s = cols[-2] / 2.0 - cols[-1] / 2.0
    return s, bool(np.isnan(cols).any() or np.isnan(s).any())


def _checked(s: np.ndarray, nan: bool) -> np.ndarray:
    """The slacks ``s``; ValueError if a point or a slack is NaN (``nan``)
    or a slack is negative, under either slack policy."""
    if nan:
        raise ValueError("transform point or slack is NaN")
    if (s < 0).any():
        raise ValueError("slack must not be negative")
    return s


def _points(*sets: TransformSet) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``sets``, all of one kind, stacked, and their slacks,
    checked (``_checked``)."""
    cols = np.concatenate([s.array.T for s in sets], axis=1)
    return cols.T, _checked(*_slack(sets[0], cols))


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


# connected parts of pruned instances of at least this many rows are solved
# as sparse graphs, smaller ones in dense matrices (see _split)
_SPARSE_ROWS = 110

# the window radius per unit of slack: 2 bounds 2^(1/p) at every p >= 1, and
# 1 + 2^-40 covers the rounding of the radius, the window ends and the rule
_REACH = 2.0 * (1.0 + 2.0 ** -40)


class _Index(NamedTuple):
    """A set's points as the diagonal-slack candidate search reads them:
    its columns, one contiguous array each, their slacks ``s``, whether a
    point or a slack is NaN, the rows in ascending column 0 (``order``) and
    that column so sorted (``xs``), and the window ends ``x - _REACH s``
    and ``x + _REACH s`` ascending (``lo``, ``hi``) with their rows."""
    cols: np.ndarray
    s: np.ndarray
    nan: bool
    order: np.ndarray
    xs: np.ndarray
    lo: np.ndarray
    lo_at: np.ndarray
    hi: np.ndarray
    hi_at: np.ndarray


def _index(X: TransformSet) -> _Index:
    """X's read-only ``_Index``, built on its first diagonal-slack distance
    and kept in its ``__dict__``: the set is immutable, and ``==`` and
    ``hash`` read its arrays only."""
    try:
        return X.__dict__["_index"]
    except KeyError:
        pass
    cols = np.ascontiguousarray(X.array.T)
    s, nan = _slack(X, cols)
    x = cols[0]
    order = x.argsort()
    # a radius or window end may overflow, and inf - inf is NaN: a NaN
    # window end opens the window
    with np.errstate(over="ignore", invalid="ignore"):
        r = _REACH * s
        lo, hi = np.fmax(x - r, -math.inf), np.fmin(x + r, math.inf)
    lo_at, hi_at = lo.argsort(), hi.argsort()
    index = _Index(cols, s, nan, order, x[order], lo[lo_at], lo_at,
                   hi[hi_at], hi_at)
    for a in index:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    X.__dict__["_index"] = index
    return index


def _owned(own: _Index, other: _Index, ties: bool):
    """The pairs of a row q of ``own`` and a row k of ``other`` whose
    column 0 lies in q's window and which q owns: q's slack is the larger,
    or they are equal and ``ties``; as q, k and both slacks, q's first."""
    first = np.empty(own.s.size, dtype=np.intp)
    first[own.lo_at] = other.xs.searchsorted(own.lo)
    counts = np.empty_like(first)
    counts[own.hi_at] = other.xs.searchsorted(own.hi, "right")
    counts -= first
    q = np.arange(first.size).repeat(counts)
    k = other.order[np.arange(q.size)
                    + (first + counts - counts.cumsum()).repeat(counts)]
    t, v = own.s.repeat(counts), other.s[k]
    # index arrays: a boolean mask of the 200,000 pairs of 10,000 RPT peaks
    # took four times as long to apply to the four arrays
    keep = ((t >= v) if ties else (t > v)).nonzero()[0]
    return q[keep], k[keep], t[keep], v[keep]


def _candidates(a: _Index, b: _Index):
    """The pairs (i, j), i < n <= j, of a row i of the first side (its n
    points) and a row j - n of the second whose gap in column 0 is at most
    ``_REACH`` times the larger of their slacks, each once, with their
    ``sup_dist`` costs c and their larger and smaller slacks t and v: a
    superset of the edges that any p keeps.  Each pair is found from its
    owner, the end of larger slack, the first side's on a tie: the radius
    grows with the slack and window ends round monotonically, so the
    owner's window holds every kept edge.  Each side's window ends are
    searched in the other side's column 0 only."""
    qa, ja, ta, va = _owned(a, b, True)
    qb, ib, tb, vb = _owned(b, a, False)
    i, j = np.concatenate((qa, ib)), np.concatenate((ja, qb))
    c = _sup(a.cols.take(i, axis=1), b.cols.take(j, axis=1))
    return (i, j + a.s.size, c, np.concatenate((ta, tb)),
            np.concatenate((va, vb)))


def _pruned(found: tuple, s: np.ndarray, n: int, p: float):
    """The pruned diagonal-slack instance at p of the points with slacks
    ``s`` (the first side's n first), from the candidate edges ``found`` by
    :func:`_candidates`: its size N, the flat indices of its finite cells in
    the N×N bordered matrix, each once and ascending, their values, and the
    costs settled outside it.  The rule is taken relative to each edge's
    larger slack t, so no power overflows.

    A point of finite slack and no kept edge is dropped at its slack.  A
    lone kept edge, whose ends have no other, is settled too: its part of
    the instance is its ends and their copies, so it matches its ends at
    cost c and the copies at 0, unless both slacks are finite and
    ``c^p > s_i^p + s_j^p`` (relative to the largest of the three), when
    both ends go to the diagonal.  An infinite slack forces the edge."""
    i, j, c, t, v = found
    keep = (c <= t) & (c < math.inf)
    if not math.isinf(p):  # c^p <= 2 t^p: only t < c <= 2^(1/p) t is open
        k = ((c > t) & (c / 2.0 ** (1.0 / p) <= t)).nonzero()[0]
        keep[k] = (c[k] / t[k]) ** p <= 1.0 + (v[k] / t[k]) ** p
    ik, jk, c = i[keep], j[keep], c[keep]
    degree = np.bincount(np.concatenate((ik, jk)), minlength=s.size)
    lone = (degree[ik] == 1) & (degree[jk] == 1)
    si, sj, cl = s[ik[lone]], s[jk[lone]], c[lone]
    ik, jk, c = ik[~lone], jk[~lone], c[~lone]
    top = np.max((cl, si, sj), axis=0)
    top[top == 0.0] = 1.0
    with np.errstate(invalid="ignore"):  # inf / inf is NaN: the edge
        apart = (cl / top) ** p > (si / top) ** p + (sj / top) ** p
    free = degree == 0
    alive = free & np.isinf(s)
    alive[ik] = alive[jk] = True
    rank = alive.cumsum() - 1
    N = int(np.count_nonzero(alive))
    na = np.count_nonzero(alive[:n])
    ik, jk = rank[ik], rank[jk] - na
    # a point meets its own copy at its slack, if finite: row k of the first
    # side at column N - na + k, row na + k of the second at column k
    diag = np.arange(N) * (N + 1) + (N - na)
    diag[na:] -= N
    own = s[alive]
    finite = own < math.inf
    # copies pair at 0 only at transposes of kept edges: an all-0 block
    # gives the same answer but a slower solve, 14.5 against 5.7-6.3 ms per
    # diagram_matching op (RPT W2: 11.2 against 3.8 ms) on a 2-core Xeon
    cells = np.concatenate((ik * N + jk, diag[finite],
                            (na + jk) * N + (N - na) + ik))
    order = cells.argsort()
    settled = np.concatenate((s[free & ~alive], np.where(apart, si, cl),
                              np.where(apart, sj, 0.0)))
    return (N, cells[order], np.concatenate(
        (c, own[finite], np.zeros(ik.size)))[order], settled.tolist())


def _parts(N: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The least node of the connected part of every node of the bipartite
    graph with an edge from row ``rows[k]`` to column ``cols[k]`` of an N×N
    instance, rows numbered 0..N-1 and columns N..2N-1.  Each round hooks
    the larger root of every edge onto the least smaller root its edges
    reach, then the smaller root onto the least root its partners took, so
    that the first round joins rows as well as columns, and jumps every
    node to its root.  Hooking onto any smaller root instead took 4 s at
    10,000 RPT peaks, and without the second hook the labelling took 1.4-1.5
    times as long from 3200 peaks up."""
    label = np.arange(2 * N)
    cols = cols + N
    a, b = rows, cols  # the roots of the ends of the edges still apart
    while a.size:
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        np.minimum.at(label, hi, lo)
        np.minimum.at(label, lo, label[hi])
        while True:  # label[x] <= x, so the jumps end at the roots
            up = label[label]
            if (up == label).all():
                break
            label = up
        # an edge within one tree stays so: only the others are kept
        apart = (label[rows] != label[cols]).nonzero()[0]
        rows, cols = rows[apart], cols[apart]
        a, b = label[rows], label[cols]
    return label


def _split(N: int, cells: np.ndarray, vals: np.ndarray):
    """The pruned N×N instance with ``vals`` at the flat ``cells``, cut into
    the connected parts of its rows and columns: the instances
    ``(N, cells, vals)`` of its parts of fewer than ``_SPARSE_ROWS`` rows
    packed side by side into blocks of fewer than ``_SPARSE_ROWS`` rows,
    and of each larger part alone.  A part with more rows than columns, or
    fewer, has no perfect matching."""
    rows, cols = np.divmod(cells, N)
    label = _parts(N, rows, cols)
    size = np.bincount(label[:N], minlength=2 * N)  # the rows of each part
    if (size != np.bincount(label[N:], minlength=2 * N)).any():
        raise InfeasibleError("a part has more rows than columns or fewer")
    roots = size.nonzero()[0]
    group = np.empty(2 * N, dtype=np.intp)
    fill = blocks = 0
    for root, k in zip(roots.tolist(), size[roots].tolist()):
        if not blocks or fill + k >= _SPARSE_ROWS:  # a large part fills one
            blocks, fill = blocks + 1, 0
        group[root] = blocks - 1
        fill += k
    # each node's rank among the nodes of its block, rows first; a block's
    # cells keep their order, so they ascend
    at = group[label]
    order = at.argsort(kind="stable")
    ranked = at[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(2 * N) - ranked.searchsorted(ranked)
    size = np.bincount(at[:N], minlength=blocks)
    g = at[rows]
    local = (rank[rows] - 1) * size[g] + rank[N + cols]
    order = g.argsort(kind="stable")
    cut = np.bincount(g, minlength=blocks).cumsum()[:-1]
    return list(zip(size.tolist(), np.split(local[order], cut),
                    np.split(vals[order], cut)))


def _dense(N: int, cells: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The N×N matrix with ``vals`` at the flat ``cells``, inf elsewhere."""
    raw = np.empty(N * N)
    raw.fill(math.inf)
    raw[cells] = vals
    return raw.reshape(N, N)


def _graph(N: int, cells: np.ndarray, data: np.ndarray):
    """The CSR array with ``data`` at the flat ``cells`` of an N×N matrix,
    which ascend, so it is canonical: sorted, each cell once (given a
    duplicate cell, scipy 1.17's sum solver was seen to return a wrong
    matching and to abort the process).  It has an empty (N+1)-th column: on a square graph
    ``min_weight_full_bipartite_matching`` first runs Jonker-Volgenant's
    augmenting row reduction, which never returned on some instances with
    0-cost copy edges (a 13-row one from 1-8-peak sets); on a wider graph it
    runs only its shortest augmenting paths, and every row still matches."""
    from scipy.sparse import csr_array
    rows, cols = np.divmod(cells, N)
    return csr_array((data, cols, rows.searchsorted(np.arange(N + 1))),
                     shape=(N, N + 1))


def _bottleneck(N: int, cells, vals: np.ndarray):
    """The columns (none if N = 0) and the value of a bottleneck matching
    of the N×N instance with ``vals`` at the flat ``cells``, inf elsewhere.

    A perfect matching uses an entry of every row and column, so none beats
    ``lb``, the larger of the row and column minima: ``lb`` is probed first,
    and the larger finite ``vals`` are binary-searched only if that fails.
    A dense probe at t is the sum assignment of the 0/1 matrix ``M > t``,
    which costs 0 exactly when a matching within t exists; a sparse one is
    a maximum matching of the graph of the cells whose value is <= t."""
    if not N:
        return np.arange(0), 0.0
    if _sparse(N, cells):
        from scipy.sparse.csgraph import maximum_bipartite_matching
        rows, cols = np.divmod(cells, N)
        least = np.full(2 * N, math.inf)  # row minima, then column minima
        np.minimum.at(least, np.concatenate((rows, cols + N)),
                      np.tile(vals, 2))
        level = least.max()

        def within(t):
            kept = cells[vals <= t]
            found = maximum_bipartite_matching(
                _graph(N, kept, np.ones(kept.size)), perm_type="column")
            return None if (found < 0).any() else found
    else:
        linear_sum_assignment = _lsap()
        M = _dense(N, cells, vals)
        level = max(M.min(axis=1).max(), M.min(axis=0).max())

        def within(t):
            over = M > t
            rows, found = linear_sum_assignment(over)
            return None if over[rows, found].any() else found

    cols = within(level) if level < math.inf else None
    if cols is None:
        levels = np.unique(vals[(vals > level) & np.isfinite(vals)])
        lo, hi = 0, levels.size
        while lo < hi:
            mid = (lo + hi) // 2
            found = within(levels[mid])
            if found is None:
                lo = mid + 1
            else:
                hi, cols, level = mid, found, levels[mid]
    if cols is None:
        raise InfeasibleError("no perfect matching avoids infinite entries")
    return cols, float(level)


def _sparse(N: int, cells) -> bool:
    """Whether the N×N instance with finite ``cells`` is solved as a sparse
    graph: a part of a pruned instance is if it has at least
    ``_SPARSE_ROWS`` rows; a complete block (``pad-origin``) never is."""
    return N >= _SPARSE_ROWS and len(cells) < N * N


def _scaled(N: int, cells, vals: np.ndarray, p: float) -> np.ndarray:
    """``(vals / scale) ** p`` for the sum solve at finite p, ``vals`` at
    the flat ``cells`` of an N×N instance: ``scale`` is the largest finite
    value, or the bottleneck value if the least positive one would scale
    to 0 (by the search the instance's solve would run, dense or sparse).
    Infinities stay inf."""
    top = vals.max(where=np.isfinite(vals), initial=0.0) or 1.0
    least = vals.min(where=vals > 0, initial=math.inf)
    # if the least positive cost scales to 0, such costs all tie: scale by
    # the bottleneck value (the least cost if that is 0)
    scale = top if (least / top) ** p > 0 else max(
        _bottleneck(N, cells, vals)[1], least)
    # a cost that overflows here exceeds the bottleneck by more than n^(1/p),
    # so no optimal matching uses it
    with np.errstate(over="ignore"):
        scaled = np.divide(vals, scale)
        np.power(scaled, p, out=scaled)
    return scaled


def _matched(N: int, cells, vals: np.ndarray, p: float) -> list[float]:
    """The costs of a minimum-cost perfect matching at finite p of the N×N
    instance with ``vals`` at the flat ``cells``, solved on the scaled
    values, as a dense matrix or as a sparse graph, and read from ``vals``."""
    scaled = _scaled(N, cells, vals, p)
    if not _sparse(N, cells):
        cols = _sum_solve(_dense(N, cells, scaled))[1]
    else:
        from scipy.sparse.csgraph import min_weight_full_bipartite_matching
        # a scaled cost above N exceeds the optimum's total, which is at
        # most N, and leaving it out keeps the solver's sums finite; the
        # solver drops explicit zeros with a warning, and may then find no
        # matching, so an exact 0 goes in as the least positive double
        use = scaled <= N
        w = scaled[use]
        w[w == 0.0] = math.ulp(0.0)
        try:
            cols = min_weight_full_bipartite_matching(
                _graph(N, cells[use], w))[1]
        except ValueError:
            raise InfeasibleError("no full matching exists") from None
    return vals[cells.searchsorted(np.arange(N) * N + cols)].tolist()


def wasserstein(A: TransformSet, B: TransformSet, p: float = 2.0,
                slack: str = DIAGONAL) -> float:
    """Minimum p-aggregated sup-norm matching cost between two transform
    outputs of the same kind.

    ``slack="diagonal"`` lets unmatched points pay their distance to the
    nearest zero-persistence representative; ``slack="pad-origin"`` pads the
    smaller multiset with the all-zero point, mirroring the rank matching's
    padding.  NaN points or slacks, or a negative slack: ValueError.

    Finite p matches on ``(M / top) ** p``, ``top`` the largest finite cost:
    no power overflows into a spurious infinity, and scaling keeps the
    optimal matching.  If a positive cost underflows to 0 there, such costs
    would tie, so ``M`` is scaled by the bottleneck value instead and the
    optimum's total lies in [1, n].  The distance is the scale-safe p-norm
    of the matched costs, as in :func:`morse_distance`, never rounded to 0.
    """
    return _distances([(A, B)], (p,), slack)[0][0]


def _blocks(pairs: Sequence[tuple[TransformSet, TransformSet]]):
    """The ``pad-origin`` instance of each pair (A, B): the m×m ``sup_dist``
    block of A's and B's rows, m the larger row count, the smaller set
    padded with all-zero rows.  All blocks come from one ``_sup`` call over
    the two rows of each cell, each block one contiguous slice of the
    values, row by row.  The slacks are checked (``_checked``)."""
    sets = [X for pair in pairs for X in pair]
    pad, m = _padded(_points(*sets)[0], np.array([len(X.array) for X in sets]))
    # cell k of a block is its row k // m and its column k % m
    cells = m * m
    k = np.arange(cells.sum()) - (cells.cumsum() - cells).repeat(cells)
    rows, cols = np.divmod(k, m.repeat(cells))
    first = (m.cumsum() - m).repeat(cells)
    vals = _sup(pad[0].T[:, first + rows], pad[1].T[:, first + cols])
    cut = [0, *cells.cumsum().tolist()]
    return [(n, np.arange(n * n), vals[a:b], [])
            for n, a, b in zip(m.tolist(), cut, cut[1:])]


def _distances(pairs: Sequence[tuple[TransformSet, TransformSet]],
               ps: Sequence[float], slack: str) -> list[list[float]]:
    """:func:`wasserstein` of each pair (A, B) at each of ``ps``: the checks
    are made once, the ``pad-origin`` sup blocks of all pairs together
    (``_blocks``), and the candidate edges (``diagonal``) once per pair;
    the pruned instance and the solve once per pair and p."""
    ps = [_check_p(p) for p in ps]
    for A, B in pairs:
        if type(A) is not type(B):
            raise KindMismatchError(
                f"cannot compare {type(A).__name__} with {type(B).__name__}")
    if slack not in (DIAGONAL, PAD_ORIGIN):
        raise ValueError(f"unknown slack policy {slack!r}")
    try:
        if slack == PAD_ORIGIN:
            return [[_solve(*whole, p) for p in ps]
                    for whole in _blocks(pairs)]
        out = []
        for A, B in pairs:
            a, b = _index(A), _index(B)
            s = _checked(np.concatenate((a.s, b.s)), a.nan or b.nan)
            found = _candidates(a, b)
            out.append([_solve(*_pruned(found, s, a.s.size, p), p)
                        for p in ps])
        return out
    except InfeasibleError:
        raise UnmatchableInfinityError(
            "no finite-cost matching: an infinite coordinate has no partner, "
            "or a cost exceeds the largest double") from None


def _solve(N: int, cells, vals: np.ndarray, settled: list[float],
           p: float) -> float:
    """The distance at p of the instance ``(N, cells, vals, settled)``: a
    pruned one of at least ``_SPARSE_ROWS`` rows is solved part by part,
    any other whole; each part by a bottleneck search or a matching."""
    parts = _split(N, cells, vals) if _sparse(N, cells) else [(N, cells, vals)]
    costs = list(settled)
    for part in parts:
        if math.isinf(p):
            costs.append(_bottleneck(*part)[1])
        else:
            costs += _matched(*part, p)
    return _aggregate(costs, p)
