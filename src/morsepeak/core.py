"""Critical points of sampled 1-D signals: extraction, validation, serialization.

A signal is reduced to its alternating local maxima and minima over a compact
interval.  The resulting value object, :class:`MorseSet`, is the input to the
pairing and metric routines in the sibling modules.
"""
from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np


class Kind(Enum):
    MAX = "max"
    MIN = "min"


class EmptyInputError(ValueError):
    """No usable samples were supplied."""


class NonMonotoneAbscissaError(ValueError):
    """Sample positions are not strictly increasing within a segment."""


class ConstantSegmentError(ValueError):
    """A segment collapsed to a single plateau; it has no critical structure."""


class InvalidMorseSetError(ValueError):
    def __init__(self, report: "ValidationReport"):
        super().__init__("invalid Morse set: " + report.summary())
        self.report = report


@dataclass(frozen=True)
class CriticalPoint:
    x: float
    y: float
    kind: Kind

    def coords(self) -> tuple[float, float]:
        return (self.x, self.y)


def colex_lt(p: CriticalPoint, q: CriticalPoint) -> bool:
    """Strict total order on critical points: compare value, then position."""
    return (p.y, p.x) < (q.y, q.x)


class _Frozen:
    """An immutable value held in read-only arrays; ``==`` and ``hash``
    compare the values ``_values()`` lists."""

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            map(np.array_equal, self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(tuple(tuple(np.ravel(v).tolist()) for v in self._values()))


class MorseSet(_Frozen):
    """Maxima and minima over a closed interval, held as read-only arrays.

    ``xs``, ``ys`` and ``is_max`` list the points in x order (at equal x,
    maxima first); ``domain`` is the interval.  ``maxima`` and ``minima``
    are built on first use in canonical order: maxima strictly descending
    and minima strictly ascending under the value-then-position comparison.
    The constructor only orders the points; :func:`validate` checks the
    structural axioms, once per set.
    """

    def __init__(self, xs, ys, is_max, domain: tuple[float, float]):
        xs, ys = (np.array(v, dtype=float).reshape(-1) for v in (xs, ys))
        is_max = np.array(is_max, dtype=bool).reshape(-1)
        if not (xs[1:] > xs[:-1]).all():
            order = np.lexsort((np.where(is_max, -ys, ys), ~is_max, xs))
            xs, ys, is_max = xs[order], ys[order], is_max[order]
        for arr in (xs, ys, is_max):
            arr.flags.writeable = False
        self.__dict__.update(xs=xs, ys=ys, is_max=is_max, _memo={},
                             domain=(float(domain[0]), float(domain[1])))

    @classmethod
    def build(cls, maxima: Iterable, minima: Iterable,
              domain: tuple[float, float] | None = None) -> "MorseSet":
        mx, mn = list(maxima), list(minima)
        pts = np.array([p.coords() if isinstance(p, CriticalPoint) else p
                        for p in mx + mn], dtype=float)
        pts = pts.reshape(len(mx) + len(mn), 2)
        if domain is None:
            if not len(pts):
                raise EmptyInputError("cannot infer a domain from an empty set")
            domain = (pts[:, 0].min(), pts[:, 0].max())
        return cls(pts[:, 0], pts[:, 1], np.arange(len(pts)) < len(mx), domain)

    def memo(self, key: str, compute: Callable[["MorseSet"], object]):
        """``compute(self)``, computed once: the set is immutable."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    @property
    def report(self) -> "ValidationReport":
        """The :func:`validate` report of this set, computed once."""
        return self.memo("report", validate)

    def _values(self) -> tuple:
        return self.domain, self.xs, self.ys, self.is_max

    def __repr__(self) -> str:
        return (f"MorseSet(maxima={self.maxima!r}, minima={self.minima!r}, "
                f"domain={self.domain!r})")

    @cached_property
    def max_order(self) -> np.ndarray:
        """Indices of the maxima in canonical (descending) order; the points
        are in x order, so a stable sort by value breaks ties by position."""
        idx = np.flatnonzero(self.is_max)
        return idx[np.argsort(self.ys[idx], kind="stable")[::-1]]

    @cached_property
    def min_order(self) -> np.ndarray:
        """Indices of the minima in canonical (ascending) order."""
        idx = np.flatnonzero(~self.is_max)
        return idx[np.argsort(self.ys[idx], kind="stable")]

    @cached_property
    def _points(self) -> tuple[CriticalPoint, ...]:
        kinds = [Kind.MAX if m else Kind.MIN for m in self.is_max.tolist()]
        return tuple(map(CriticalPoint, self.xs.tolist(), self.ys.tolist(),
                         kinds))

    @cached_property
    def maxima(self) -> tuple[CriticalPoint, ...]:
        return tuple(self._points[i] for i in self.max_order.tolist())

    @cached_property
    def minima(self) -> tuple[CriticalPoint, ...]:
        return tuple(self._points[i] for i in self.min_order.tolist())

    @property
    def kappa_plus(self) -> int:
        return int(np.count_nonzero(self.is_max))

    @property
    def kappa_minus(self) -> int:
        return self.xs.size - self.kappa_plus

    def points_by_x(self) -> tuple[CriticalPoint, ...]:
        return self._points

    def xy(self, order: np.ndarray) -> np.ndarray:
        """Positions and values of the points ``order`` indexes, as rows."""
        return np.array((self.xs[order], self.ys[order])).T

    def _json_arrays(self) -> dict[str, np.ndarray]:
        """The JSON document as arrays: the domain, and the canonical rows."""
        return {"domain": np.array(self.domain),
                "maxima": self.xy(self.max_order),
                "minima": self.xy(self.min_order)}

    def to_json_dict(self) -> dict:
        return {key: a.tolist() for key, a in self._json_arrays().items()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MorseSet":
        return cls.build(d["maxima"], d["minima"], tuple(d["domain"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MorseSet":
        return cls.from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    condition: str
    points: tuple[CriticalPoint, ...]
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def conditions(self) -> set[str]:
        return {v.condition for v in self.violations}

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(
            f"{v.condition}: {v.detail}" if v.detail else v.condition
            for v in self.violations)


def validate(ms: MorseSet) -> ValidationReport:
    """Check the five structural axioms plus the cardinality balance.

    Violations are data, not exceptions: the report lists every failed
    condition (Injectivity, Disjunction, Ordered, Alternation,
    CriticalBoundary, Balance) with the offending points.  Each axiom is a
    mask over the arrays; points are made only for flagged entries.
    :attr:`MorseSet.report` computes this once per set.
    """
    xs, ys, is_max = ms.xs, ms.ys, ms.is_max
    pt = ms.points_by_x  # called only when something is flagged
    out: list[Violation] = []

    def lt(i, j):  # colex_lt over index arrays
        return (ys[i] < ys[j]) | ((ys[i] == ys[j]) & (xs[i] < xs[j]))

    def flagged(mask):
        return np.flatnonzero(mask).tolist()

    # With strictly increasing positions and no NaN value, no position
    # repeats and both canonical orders are strict: the first three hold.
    if not (xs[1:] > xs[:-1]).all() or np.isnan(ys).any():
        for name, o in (("maxima", ms.max_order), ("minima", ms.min_order)):
            # each position is reported with its first occurrence
            _, first, inv = np.unique(xs[o], return_index=True,
                                      return_inverse=True, equal_nan=False)
            for j in flagged(first[inv] != np.arange(o.size)):
                p = pt()[o[j]]
                out.append(Violation(
                    "Injectivity", (pt()[o[first[inv[j]]]], p),
                    f"duplicate position {p.x} among {name}"))

        peaks, o = np.flatnonzero(is_max), ms.min_order
        for i in o[np.isin(xs[o], xs[peaks])].tolist():
            # the last maximum at this position in canonical order
            k = peaks[np.searchsorted(xs[peaks], xs[i], side="right") - 1]
            p = pt()[i]
            out.append(Violation(
                "Disjunction", (pt()[k], p),
                f"position {p.x} is both a maximum and a minimum"))

        for o, desc in ((ms.max_order, True), (ms.min_order, False)):
            a, b = o[:-1], o[1:]
            for j in flagged(~(lt(b, a) if desc else lt(a, b))):
                out.append(Violation(
                    "Ordered", (pt()[a[j]], pt()[b[j]]),
                    "maxima not strictly descending" if desc
                    else "minima not strictly ascending"))

    left = np.arange(xs.size - 1)
    same = is_max[:-1] == is_max[1:]
    lo, hi = left + is_max[:-1], left + ~is_max[:-1]
    for j in flagged(same | ~lt(lo, hi)):
        p, q = pt()[j], pt()[j + 1]
        detail = (f"consecutive {p.kind.value} points at x={p.x}, {q.x}"
                  if same[j] else "adjacent minimum not below its maximum")
        out.append(Violation("Alternation", (p, q), detail))

    a, b = ms.domain
    if xs.size:
        for end in (a, b):
            if not (xs == end).any():
                out.append(Violation("CriticalBoundary", (),
                                     f"no critical point at x={end}"))
        outside = flagged(~((a <= xs) & (xs <= b)))
        if outside:
            out.append(Violation("CriticalBoundary",
                                 tuple(pt()[i] for i in outside),
                                 "points outside the domain"))
    else:
        out.append(Violation("CriticalBoundary", (), "empty set"))

    if abs(ms.kappa_plus - ms.kappa_minus) > 1:
        out.append(Violation("Balance", (),
                             f"|{ms.kappa_plus} - {ms.kappa_minus}| > 1"))

    return ValidationReport(tuple(out))


def require_valid(ms: MorseSet) -> None:
    if ms.report:
        raise InvalidMorseSetError(ms.report)


# ---------------------------------------------------------------------------
# Sampled input and extraction


Sample = tuple[float, float]


@dataclass(frozen=True, eq=False)
class SampledSeries:
    """One or more sampled segments, each a read-only ``(n, 2)`` array of
    ``(x, y)`` rows; positions must increase strictly within a segment."""

    arrays: tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in self.arrays:
            arr.flags.writeable = False

    @classmethod
    def single(cls, samples: Sequence[Sample]) -> "SampledSeries":
        return cls.multi([samples])

    @classmethod
    def multi(cls, segments: Iterable[Sequence[Sample]]) -> "SampledSeries":
        flat = ([float(v) for x, y in seg for v in (x, y)] for seg in segments)
        return cls(tuple(np.array(f).reshape(-1, 2) for f in flat))

    @cached_property
    def segments(self) -> tuple[tuple[Sample, ...], ...]:
        """The samples as tuples, built on first use."""
        return tuple(tuple(map(tuple, a.tolist())) for a in self.arrays)


def _extract_segment(samples: np.ndarray, eps: float) -> MorseSet:
    if len(samples) == 0:
        raise EmptyInputError("segment has no samples")
    if len(samples) < 2:
        raise EmptyInputError("segment needs at least two samples")
    x, y = samples.T
    bad_y = ~np.isfinite(y)
    bad_x = np.concatenate(([False], ~(x[:-1] < x[1:])))
    # strictly increasing positions between finite ends are finite
    ends = [i for i in (0, len(x) - 1) if not math.isfinite(x[i])]
    i = ends[0] if ends else int(np.argmax(bad_y | bad_x))
    if ends or bad_y[i]:
        raise ValueError(f"sample {i} is not finite: {tuple(samples[i].tolist())}")
    if bad_x[i]:
        raise NonMonotoneAbscissaError(
            f"positions not strictly increasing at index {i - 1}: "
            f"{x[i - 1].item()} -> {x[i].item()}")

    # Runs of consecutive samples within eps of the last kept one collapse to
    # their leftmost sample, so no two adjacent kept values are within eps.
    if eps == 0:  # the last kept value is the previous one
        keep = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    else:
        values = y.tolist()
        keep, last = [0], values[0]
        for i, v in enumerate(values):
            if abs(v - last) > eps:
                keep.append(i)
                last = v
    if len(keep) < 2:
        raise ConstantSegmentError("segment is constant after plateau collapse")

    x, y = x[keep], y[keep]
    rising = y[1:] > y[:-1]
    # A point is critical where the slope into it and the slope out of it
    # differ, and a maximum where the one into it rises.  An end repeats its
    # one slope reversed on the missing side, so it is always critical.
    into = np.concatenate(([not rising[0]], rising))
    out_of = np.concatenate((rising, [not rising[-1]]))
    crit = into != out_of
    return MorseSet(x[crit], y[crit], into[crit], (x[0], x[-1]))


def extract_critical_points(series: SampledSeries | Sequence[Sample],
                            plateau_epsilon: float = 0.0) -> list[MorseSet]:
    """Extract one Morse set per segment of a sampled series.

    Interior critical points are the strict local extrema of the samples after
    plateau collapse; both segment endpoints become boundary critical points
    whose kind is determined by the adjacent slope.
    """
    if not plateau_epsilon >= 0:  # NaN too
        raise ValueError("plateau_epsilon must be nonnegative")
    ss = (series if isinstance(series, SampledSeries)
          else SampledSeries.single(series))
    if not any(len(seg) for seg in ss.arrays):
        raise EmptyInputError("series has no samples")
    return [_extract_segment(seg, plateau_epsilon) for seg in ss.arrays]


# ---------------------------------------------------------------------------
# CSV ingestion


def _parse_segment(lines: list[str], lineno: int) -> np.ndarray:
    """The ``(n, 2)`` samples of one segment's stripped, non-blank lines,
    the first being line ``lineno``.  From the first numeric row on, the rows
    go to numpy's C reader whole; if it fails or finds other than two
    columns, they are scanned line by line."""
    rows: list[Sample] = []
    for n, line in enumerate(lines, lineno):
        cells = line.split(",")
        if len(cells) < 2:
            raise ValueError(f"line {n}: expected two columns, got {line!r}")
        try:
            rows.append((float(cells[0].strip()), float(cells[1].strip())))
        except ValueError:
            if not rows:
                continue  # header row of a segment
            raise ValueError(f"line {n}: non-numeric row {line!r}") from None
        if len(rows) == 1:  # the first numeric row: try the rest whole
            with suppress(ValueError):  # a bad row: scan on
                whole = np.loadtxt(lines[n - lineno:], delimiter=",",
                                   comments=None, ndmin=2)
                if whole.shape[1] == 2:
                    return whole
    return np.array(rows).reshape(-1, 2)


def read_csv_series(text: str) -> SampledSeries:
    """Parse `x,y` CSV: whitespace-only lines split segments, rows before a
    segment's first numeric row are headers, and columns after the second
    are ignored; a bad row is a ``ValueError`` naming its line."""
    lines = [*map(str.strip, text.splitlines()), ""]  # "" ends the last segment
    segments, start = [], 0
    while start < len(lines):
        end = lines.index("", start)
        seg = _parse_segment(lines[start:end], start + 1)
        if len(seg):  # not only header rows
            segments.append(seg)
        start = end + 1
    if not segments:
        raise EmptyInputError("CSV contains no data rows")
    return SampledSeries(tuple(segments))
