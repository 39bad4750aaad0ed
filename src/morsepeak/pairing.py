"""Elder-rule peak pairing and the transforms derived from it.

Two interchangeable pairing routines are provided: :func:`pair` sweeps the
upper levelsets with a union-find over the alternating critical sequence,
while :func:`pair_recursive` realizes the region-splitting recursion.  Both
produce the same injective map from maxima to death minima (the surviving
peak of each component is marked essential, death value minus infinity).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import CriticalPoint, MorseSet, require_valid


def elder_key(p: CriticalPoint) -> tuple[float, float]:
    # Smaller key = elder: higher value first, position breaks ties leftward.
    return (-p.y, p.x)


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


@dataclass(frozen=True)
class Pairing:
    entries: tuple[PairingEntry, ...]

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
    return np.array(death)


def _deaths(ms: MorseSet) -> np.ndarray:
    """Index of each point's death minimum in x order; -1 for minima and for
    the essential peak.  Computed once per set."""
    require_valid(ms)
    return ms.memo("deaths", _elder_deaths)


def pair(ms: MorseSet) -> Pairing:
    """Elder-rule pairing via a union-find sweep over the critical sequence.

    Points are activated from the top down; every interior minimum merges the
    components of its two neighboring maxima and kills the younger of the two
    representative peaks.
    """
    death = _deaths(ms).tolist()
    pts = ms.points_by_x()
    return Pairing(tuple(
        PairingEntry(pts[i], None if death[i] < 0 else pts[death[i]])
        for i in ms.max_order.tolist()))


def pair_recursive(ms: MorseSet) -> Pairing:
    """Elder-rule pairing via region splitting.

    Pop the global maximum (essential), split the remaining maxima into the
    regions left and right of it, then repeatedly pop each region's top peak
    and assign it the lowest minimum strictly between that peak and the region
    edge shared with its higher neighbor.  Minima are ranked by the order
    that ranks the peaks, so at equal height the rightmost one is lowest, as
    in the top-down sweep.  Implemented with an explicit stack; the emitted
    pairs do not depend on traversal order.
    """
    require_valid(ms)
    if not ms.maxima:
        return Pairing(())
    minima = sorted(ms.minima, key=elder_key, reverse=True)
    maxima = sorted(ms.maxima, key=elder_key)
    death: dict[CriticalPoint, Optional[CriticalPoint]] = {}

    top = maxima[0]
    death[top] = None
    rest = maxima[1:]
    a, b = ms.domain
    # region edges seeded from the domain boundary so boundary-adjacent maxima
    # are never excluded; each frame is (outer edge, shared higher edge)
    stack = [(a, top.x, [k for k in rest if k.x < top.x], minima),
             (b, top.x, [k for k in rest if k.x > top.x], minima)]
    while stack:
        start, end, peaks, mins = stack.pop()
        lo, hi = (start, end) if start <= end else (end, start)
        peaks = [k for k in peaks if lo <= k.x <= hi]
        if not peaks:
            continue
        peaks.sort(key=elder_key)
        region_top = peaks.pop(0)
        stack.append((start, region_top.x, peaks, mins))
        wlo, whi = ((region_top.x, end) if region_top.x <= end
                    else (end, region_top.x))
        window = [m for m in mins if wlo < m.x < whi]
        saddle = window.pop(0)  # lowest separating minimum
        death[region_top] = saddle
        stack.append((saddle.x, region_top.x, peaks, window))
        stack.append((saddle.x, end, peaks, window))

    entries = tuple(PairingEntry(m, death[m]) for m in ms.maxima)
    return Pairing(entries)


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
class PTSet:
    features: tuple[PTFeature, ...]
    diagonal: tuple[PTFeature, ...]

    def to_json_dict(self) -> dict:
        return {
            "features": [[f.x, _enc(f.birth), _enc(f.death)] for f in self.features],
            "diagonal": [[f.x, f.birth] for f in self.diagonal],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PTSet":
        feats = tuple(PTFeature(x, _dec(b, math.inf), _dec(dd, -math.inf))
                      for x, b, dd in d["features"])
        diag = tuple(PTFeature(x, y, y) for x, y in d["diagonal"])
        return cls(feats, diag)


@dataclass(frozen=True)
class RPTFeature:
    x: float
    persistence: float


@dataclass(frozen=True)
class RPTSet:
    features: tuple[RPTFeature, ...]

    def to_json_dict(self) -> dict:
        return {"features": [[f.x, _enc(f.persistence)] for f in self.features]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RPTSet":
        return cls(tuple(RPTFeature(x, _dec(p, math.inf)) for x, p in d["features"]))


@dataclass(frozen=True)
class PDPoint:
    birth: float
    death: float


@dataclass(frozen=True)
class PDSet:
    points: tuple[PDPoint, ...]

    def to_json_dict(self) -> dict:
        return {"points": [[_enc(p.birth), _enc(p.death)] for p in self.points]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PDSet":
        return cls(tuple(PDPoint(_dec(b, math.inf), _dec(dd, -math.inf))
                         for b, dd in d["points"]))


def _enc(v: float):
    # JSON schema encodes the infinite values as null
    return None if math.isinf(v) else v


def _dec(v, inf_as: float) -> float:
    return inf_as if v is None else float(v)


def _feature_sort_key(f) -> tuple[float, float]:
    return (-f.persistence, f.x)


def _peaks(ms: MorseSet) -> tuple[np.ndarray, ...]:
    """Position, birth, death value and persistence of every peak."""
    d = _deaths(ms)[ms.is_max]
    x, birth = ms.xs[ms.is_max], ms.ys[ms.is_max]
    death = np.where(d < 0, -math.inf, ms.ys[d])
    with np.errstate(over="ignore"):
        return x, birth, death, birth - death


def _rows(cls, x: np.ndarray, pers: np.ndarray, *cols: np.ndarray) -> tuple:
    """``cls(x, *cols)`` rows by descending persistence, then position."""
    o = np.lexsort((x, -pers))
    return tuple(map(cls, x[o].tolist(), *(c[o].tolist() for c in cols)))


def persistence_transformation(ms: MorseSet) -> PTSet:
    """Map each maximum to (position, birth, death); minima land on the
    diagonal plane.  Features are sorted by descending persistence."""
    x, birth, death, pers = _peaks(ms)
    y = ms.ys[ms.min_order].tolist()
    diag = tuple(map(PTFeature, ms.xs[ms.min_order].tolist(), y, y))
    return PTSet(_rows(PTFeature, x, pers, birth, death), diag)


def reduced_persistence_transformation(ms: MorseSet,
                                       clip_essential: bool = False) -> RPTSet:
    """Map each maximum to (position, persistence).

    The essential peak gets infinite persistence unless ``clip_essential`` is
    set, in which case its death is clipped to the component's global minimum
    value so the output stays finite.
    """
    x, birth, death, pers = _peaks(ms)
    if clip_essential and x.size:
        with np.errstate(over="ignore"):
            clipped = birth - ms.global_min_value()
        pers = np.where(np.isinf(death), clipped, pers)
    return RPTSet(_rows(RPTFeature, x, pers, pers))


def to_persistence_diagram(pt: PTSet) -> PDSet:
    """Forget positions: project features to (birth, death) pairs.  Diagonal
    points are omitted; they form the diagram's diagonal."""
    pts = sorted((PDPoint(f.birth, f.death) for f in pt.features),
                 key=lambda p: (-p.birth, -p.death))
    return PDSet(tuple(pts))


def denoise(pt: PTSet, tau: float) -> PTSet:
    """Keep features with persistence >= tau; drop the diagonal when tau > 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    feats = tuple(f for f in pt.features if f.persistence >= tau)
    diag = pt.diagonal if tau == 0 else ()
    return PTSet(feats, diag)


def join_pt(parts: Iterable[PTSet]) -> PTSet:
    feats: list[PTFeature] = []
    diag: list[PTFeature] = []
    for p in parts:
        feats.extend(p.features)
        diag.extend(p.diagonal)
    feats.sort(key=_feature_sort_key)
    return PTSet(tuple(feats), tuple(diag))


def join_rpt(parts: Iterable[RPTSet]) -> RPTSet:
    feats: list[RPTFeature] = []
    for p in parts:
        feats.extend(p.features)
    feats.sort(key=_feature_sort_key)
    return RPTSet(tuple(feats))


def join_pd(parts: Iterable[PDSet]) -> PDSet:
    pts: list[PDPoint] = []
    for p in parts:
        pts.extend(p.points)
    pts.sort(key=lambda q: (-q.birth, -q.death))
    return PDSet(tuple(pts))
