"""Elder-rule peak pairing and the transforms derived from it.

Two interchangeable pairing routines are provided: :func:`pair` sweeps the
upper levelsets with a union-find over the alternating critical sequence,
while :func:`pair_recursive` realizes the region-splitting recursion.  Both
give the same injective map from maxima to death minima, as an x-order
death-index array (the essential peak, the survivor, dies at minus infinity).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from .core import CriticalPoint, MorseSet, _Frozen, require_valid


@dataclass(frozen=True)
class PairingEntry:
    peak: CriticalPoint
    death: Optional[CriticalPoint]  # None marks the essential peak

    @property
    def essential(self) -> bool:
        return self.death is None

    @property
    def death_value(self) -> float:
        return -math.inf if self.death is None else self.death.y

    @property
    def persistence(self) -> float:
        return self.peak.y - self.death_value


class Pairing(_Frozen):
    """The elder-rule pairing of ``ms``.  ``death`` holds, in x order, the
    index of each point's death minimum, or -1 for minima and the essential
    peak, as a read-only int array; ``entries`` are built on first use."""

    def __init__(self, ms: MorseSet, death):
        death = np.array(death, dtype=int).reshape(-1)
        death.flags.writeable = False
        self.__dict__.update(ms=ms, death=death)

    def _values(self) -> tuple:
        return (*self.ms._values(), self.death)

    def __repr__(self) -> str:
        return f"Pairing(entries={self.entries!r})"

    @cached_property
    def entries(self) -> tuple[PairingEntry, ...]:
        pts, d = self.ms.points_by_x(), self.death.tolist()
        return tuple(PairingEntry(pts[i], None if d[i] < 0 else pts[d[i]])
                     for i in self.ms.max_order.tolist())

    def as_dict(self) -> dict[CriticalPoint, Optional[CriticalPoint]]:
        return {e.peak: e.death for e in self.entries}


def _elder_deaths(ms: MorseSet) -> np.ndarray:
    # Union-find on the x order: a component of the upper levelset is an
    # interval [l, r] with span[l] = r, span[r] = l and elder peak elder[l].
    # Each maximum starts alone; minima come from the top down, leftmost
    # first at equal height (a stable sort of the x order).
    ys, n = ms.ys.tolist(), ms.xs.size
    death, span, elder = [-1] * n, list(range(n)), list(range(n))
    mins = np.flatnonzero(~ms.is_max)
    for i in mins[np.argsort(-ms.ys[mins], kind="stable")].tolist():
        if 0 < i < n - 1:
            l, r = span[i - 1], span[i + 1]
            a, b = elder[l], elder[i + 1]
            # a lies left of b, so it is the elder at equal height
            old, young = (a, b) if ys[a] >= ys[b] else (b, a)
            death[young] = i
            elder[l] = old
            span[l], span[r] = r, l
    death = np.array(death, dtype=int)
    death.flags.writeable = False
    return death


def _deaths(ms: MorseSet) -> np.ndarray:
    """Index of each point's death minimum in x order; -1 for minima and for
    the essential peak.  Computed once per set, read-only."""
    require_valid(ms)
    return ms.memo("deaths", _elder_deaths)


def pair(ms: MorseSet) -> Pairing:
    """Elder-rule pairing via a union-find sweep over the critical sequence.

    Points are activated from the top down; every interior minimum merges the
    components of its two neighboring maxima and kills the younger of the two
    representative peaks.
    """
    return Pairing(ms, _deaths(ms))


def pair_recursive(ms: MorseSet) -> Pairing:
    """Elder-rule pairing via region splitting.

    A region is an open interval of x-order indices, -1 and n standing for
    the domain ends.  Pop the global maximum (essential) and split the rest
    into the regions left and right of it; then pop each region's top peak
    and assign it the lowest minimum strictly between that peak and the
    region edge shared with its higher neighbor.  Points are ranked maxima
    first, each kind from the highest down and leftmost first at equal
    height: a top is the least rank in its region, a death the greatest.
    """
    require_valid(ms)
    n = ms.xs.size
    rank = np.lexsort((ms.xs, -ms.ys, ~ms.is_max)).argsort()
    death = [-1] * n
    top = int(rank.argmin())
    # each frame is (outer edge, shared higher edge)
    stack = [(-1, top), (n, top)] if ms.is_max[top] else []
    while stack:
        start, end = stack.pop()
        lo, hi = sorted((start, end))
        if hi - lo < 2:
            continue
        top = lo + 1 + int(rank[lo + 1:hi].argmin())
        if not ms.is_max[top]:
            continue  # no peak in the region
        lo, hi = sorted((top, end))
        death[top] = lo + 1 + int(rank[lo + 1:hi].argmax())
        stack += [(start, top), (death[top], top), (death[top], end)]
    return Pairing(ms, death)


# ---------------------------------------------------------------------------
# Transforms


@dataclass(frozen=True)
class PTFeature:
    x: float
    birth: float
    death: float

    @property
    def persistence(self) -> float:
        return self.birth - self.death


@dataclass(frozen=True)
class RPTFeature:
    x: float
    persistence: float


@dataclass(frozen=True)
class PDPoint:
    birth: float
    death: float


class _PointSet(_Frozen):
    """A transform output as read-only float arrays, one row per point.

    ``columns`` names the columns of ``array``.  Each ``_ARRAYS`` entry is
    (attribute, JSON key, fields, nulls).  The constructor takes, per entry,
    row objects or an array with a column per field.  JSON writes ±inf as
    null in the columns whose ``nulls`` entry is not None, and reads null as
    that entry (None as NaN).  The JSON key also names the tuple of row
    objects API users read, built on first use.
    """

    columns: tuple[str, ...] = ()
    _ARRAYS: tuple = ()

    def __init__(self, *parts):
        for (attr, _, fields, _), rows in zip(self._ARRAYS, parts, strict=True):
            if not isinstance(rows, np.ndarray):
                rows = list(map(attrgetter(*fields), rows))
            a = np.array(rows, dtype=float).reshape(len(rows), len(fields))
            a.flags.writeable = False
            self.__dict__[attr] = a

    def _values(self) -> list[np.ndarray]:
        return [self.__dict__[attr] for attr, *_ in self._ARRAYS]

    def __repr__(self) -> str:
        views = tuple(getattr(self, key) for _, key, *_ in self._ARRAYS)
        return f"{type(self).__name__}{views!r}"

    def table(self) -> np.ndarray:
        """Every point as a row under ``columns``."""
        return self.array

    def to_json_dict(self) -> dict:
        return {key: np.where(np.isinf(a) & np.not_equal(nulls, None), None,
                              a).tolist()
                for (_, key, _, nulls), a in zip(self._ARRAYS, self._values())}

    @classmethod
    def from_json_dict(cls, d: dict):
        return cls(*(_decode(d[key], nulls) for _, key, _, nulls in cls._ARRAYS))


def _decode(rows, nulls: tuple) -> np.ndarray:
    if any(len(r) != len(nulls) for r in rows):
        raise TypeError(f"expected rows of {len(nulls)} numbers")
    return np.array([[n if c is None else c for c, n in zip(r, nulls)]
                     for r in rows], dtype=float).reshape(-1, len(nulls))


def _row_view(attr: str, row: type, cols=slice(None)) -> cached_property:
    """Columns ``cols`` of the array ``attr`` as a tuple of ``row`` objects."""
    return cached_property(lambda self: tuple(
        map(row, *self.__dict__[attr][:, cols].T.tolist())))


class PTSet(_PointSet):
    """The persistence transformation: ``array`` holds a row (x, birth,
    death) per peak and ``diagonal_array`` a row (x, y) per minimum, which
    lies on the diagonal plane.  ``PTSet(features, diagonal)`` takes
    PTFeature rows or such arrays."""

    columns = ("x", "birth", "death")
    _ARRAYS = (("array", "features", columns, (None, math.inf, -math.inf)),
               ("diagonal_array", "diagonal", ("x", "birth"), (None, None)))
    features = _row_view("array", PTFeature)
    diagonal = _row_view("diagonal_array", PTFeature, [0, 1, 1])

    def table(self) -> np.ndarray:
        """The features, then the diagonal points as rows (x, y, y)."""
        return np.concatenate((self.array, self.diagonal_array[:, [0, 1, 1]]))


class RPTSet(_PointSet):
    """The reduced transformation: ``array`` holds a row (x, persistence)
    per peak.  ``RPTSet(features)`` takes RPTFeature rows or such an
    array."""

    columns = ("x", "persistence")
    _ARRAYS = (("array", "features", columns, (None, math.inf)),)
    features = _row_view("array", RPTFeature)


class PDSet(_PointSet):
    """The persistence diagram: ``array`` holds a row (birth, death) per
    peak.  ``PDSet(points)`` takes PDPoint rows or such an array."""

    columns = ("birth", "death")
    _ARRAYS = (("array", "points", columns, (math.inf, -math.inf)),)
    points = _row_view("array", PDPoint)


def _persistence(rows: np.ndarray) -> np.ndarray:
    """birth - death of (x, birth, death) rows, warning-free like floats."""
    with np.errstate(over="ignore", invalid="ignore"):
        return rows[:, 1] - rows[:, 2]


def _by_persistence(rows: np.ndarray, pers: np.ndarray) -> np.ndarray:
    """``rows`` by descending persistence, then position (column 0)."""
    return rows[np.lexsort((rows[:, 0], -pers))]


def _by_birth(rows: np.ndarray) -> np.ndarray:
    """(birth, death) rows by descending birth, then descending death."""
    return rows[np.lexsort((-rows[:, 1], -rows[:, 0]))]


def _peaks(ms: MorseSet, clip: bool = False) -> tuple[np.ndarray, ...]:
    """A row (position, birth, death value) per peak, and its persistence.
    The essential peak dies at -inf, or at the global minimum if ``clip``."""
    d = _deaths(ms)[ms.is_max]
    essential = ms.ys.min() if clip else -math.inf
    rows = np.array((ms.xs[ms.is_max], ms.ys[ms.is_max],
                     np.where(d < 0, essential, ms.ys[d]))).T
    return rows, _persistence(rows)


def persistence_transformation(ms: MorseSet) -> PTSet:
    """Map each maximum to (position, birth, death); minima land on the
    diagonal plane.  Features are sorted by descending persistence."""
    rows, pers = _peaks(ms)
    return PTSet(_by_persistence(rows, pers), ms.xy(ms.min_order))


def reduced_persistence_transformation(ms: MorseSet,
                                       clip_essential: bool = False) -> RPTSet:
    """Map each maximum to (position, persistence).

    The essential peak gets infinite persistence unless ``clip_essential`` is
    set, in which case its death is clipped to the component's global minimum
    value so the output stays finite.
    """
    rows, pers = _peaks(ms, clip_essential)
    return RPTSet(_by_persistence(np.array((rows[:, 0], pers)).T, pers))


def to_persistence_diagram(pt: PTSet) -> PDSet:
    """Forget positions: project features to (birth, death) pairs.  Diagonal
    points are omitted; they form the diagram's diagonal."""
    return PDSet(_by_birth(pt.array[:, 1:]))


def check_tau(tau: float) -> None:
    """Raise ValueError unless ``tau`` is a number >= 0; NaN is not."""
    if not tau >= 0:
        raise ValueError("tau must be a nonnegative number")


def denoise(pt: PTSet, tau: float) -> PTSet:
    """Keep features with persistence >= tau; drop the diagonal when tau > 0."""
    check_tau(tau)
    return PTSet(pt.array[_persistence(pt.array) >= tau],
                 pt.diagonal_array if tau == 0 else ())


def _stack(parts: list, attr: str, width: int) -> np.ndarray:
    return np.concatenate([np.empty((0, width))]
                          + [getattr(p, attr) for p in parts])


def join_pt(parts: Iterable[PTSet]) -> PTSet:
    parts = list(parts)
    rows = _stack(parts, "array", 3)
    return PTSet(_by_persistence(rows, _persistence(rows)),
                 _stack(parts, "diagonal_array", 2))


def join_rpt(parts: Iterable[RPTSet]) -> RPTSet:
    rows = _stack(list(parts), "array", 2)
    return RPTSet(_by_persistence(rows, rows[:, 1]))


def join_pd(parts: Iterable[PDSet]) -> PDSet:
    return PDSet(_by_birth(_stack(list(parts), "array", 2)))
