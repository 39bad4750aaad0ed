"""Critical points of sampled 1-D signals: extraction, validation, serialization.

A signal is reduced to its alternating local maxima and minima over a compact
interval.  The resulting value object, :class:`MorseSet`, is the input to the
pairing and metric routines in the sibling modules.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union


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

    def colex_key(self) -> tuple[float, float]:
        # value first, position breaks ties
        return (self.y, self.x)

    def coords(self) -> tuple[float, float]:
        return (self.x, self.y)


def colex_lt(p: CriticalPoint, q: CriticalPoint) -> bool:
    """Strict total order on critical points: compare value, then position."""
    return p.colex_key() < q.colex_key()


def _as_point(obj, kind: Kind) -> CriticalPoint:
    if isinstance(obj, CriticalPoint):
        if obj.kind is not kind:
            obj = CriticalPoint(obj.x, obj.y, kind)
        return obj
    x, y = obj
    return CriticalPoint(float(x), float(y), kind)


@dataclass(frozen=True)
class MorseSet:
    """Maxima (descending) and minima (ascending) over a closed interval.

    ``maxima`` and ``minima`` are kept in canonical order: maxima strictly
    descending and minima strictly ascending under the value-then-position
    comparison.  Use :func:`validate` to check the structural axioms; the
    constructor only normalizes ordering.
    """

    maxima: tuple[CriticalPoint, ...]
    minima: tuple[CriticalPoint, ...]
    domain: tuple[float, float]

    @classmethod
    def build(cls, maxima: Iterable, minima: Iterable,
              domain: tuple[float, float] | None = None) -> "MorseSet":
        mx = tuple(sorted((_as_point(p, Kind.MAX) for p in maxima),
                          key=CriticalPoint.colex_key, reverse=True))
        mn = tuple(sorted((_as_point(p, Kind.MIN) for p in minima),
                          key=CriticalPoint.colex_key))
        if domain is None:
            xs = [p.x for p in mx + mn]
            if not xs:
                raise EmptyInputError("cannot infer a domain from an empty set")
            domain = (min(xs), max(xs))
        return cls(mx, mn, (float(domain[0]), float(domain[1])))

    @property
    def kappa_plus(self) -> int:
        return len(self.maxima)

    @property
    def kappa_minus(self) -> int:
        return len(self.minima)

    def points_by_x(self) -> list[CriticalPoint]:
        return sorted(self.maxima + self.minima, key=lambda p: p.x)

    def global_min_value(self) -> float:
        return min(p.y for p in self.maxima + self.minima)

    def to_json_dict(self) -> dict:
        return {
            "domain": [self.domain[0], self.domain[1]],
            "maxima": [[p.x, p.y] for p in self.maxima],
            "minima": [[p.x, p.y] for p in self.minima],
        }

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
    CriticalBoundary, Balance) with the offending points.
    """
    out: list[Violation] = []

    for name, group in (("maxima", ms.maxima), ("minima", ms.minima)):
        seen: dict[float, CriticalPoint] = {}
        for p in group:
            if p.x in seen:
                out.append(Violation("Injectivity", (seen[p.x], p),
                                     f"duplicate position {p.x} among {name}"))
            else:
                seen[p.x] = p

    max_x = {p.x: p for p in ms.maxima}
    for p in ms.minima:
        if p.x in max_x:
            out.append(Violation("Disjunction", (max_x[p.x], p),
                                 f"position {p.x} is both a maximum and a minimum"))

    for i in range(len(ms.maxima) - 1):
        a, b = ms.maxima[i], ms.maxima[i + 1]
        if not colex_lt(b, a):
            out.append(Violation("Ordered", (a, b), "maxima not strictly descending"))
    for i in range(len(ms.minima) - 1):
        a, b = ms.minima[i], ms.minima[i + 1]
        if not colex_lt(a, b):
            out.append(Violation("Ordered", (a, b), "minima not strictly ascending"))

    seq = ms.points_by_x()
    for i in range(len(seq) - 1):
        p, q = seq[i], seq[i + 1]
        if p.kind is q.kind:
            out.append(Violation("Alternation", (p, q),
                                 f"consecutive {p.kind.value} points at x={p.x}, {q.x}"))
        else:
            hi, lo = (p, q) if p.kind is Kind.MAX else (q, p)
            if not colex_lt(lo, hi):
                out.append(Violation("Alternation", (p, q),
                                     "adjacent minimum not below its maximum"))

    a, b = ms.domain
    if seq:
        if not any(p.x == a for p in seq):
            out.append(Violation("CriticalBoundary", (), f"no critical point at x={a}"))
        if not any(p.x == b for p in seq):
            out.append(Violation("CriticalBoundary", (), f"no critical point at x={b}"))
        outside = tuple(p for p in seq if not (a <= p.x <= b))
        if outside:
            out.append(Violation("CriticalBoundary", outside, "points outside the domain"))
    else:
        out.append(Violation("CriticalBoundary", (), "empty set"))

    if abs(ms.kappa_plus - ms.kappa_minus) > 1:
        out.append(Violation("Balance", (),
                             f"|{ms.kappa_plus} - {ms.kappa_minus}| > 1"))

    return ValidationReport(tuple(out))


def require_valid(ms: MorseSet) -> None:
    report = validate(ms)
    if report:
        raise InvalidMorseSetError(report)


# ---------------------------------------------------------------------------
# Sampled input and extraction


Sample = tuple[float, float]


@dataclass(frozen=True)
class SampledSeries:
    """One or more sampled segments, each with strictly increasing positions."""

    segments: tuple[tuple[Sample, ...], ...]

    @classmethod
    def single(cls, samples: Sequence[Sample]) -> "SampledSeries":
        return cls((tuple((float(x), float(y)) for x, y in samples),))

    @classmethod
    def multi(cls, segments: Iterable[Sequence[Sample]]) -> "SampledSeries":
        return cls(tuple(tuple((float(x), float(y)) for x, y in seg)
                         for seg in segments))


SeriesLike = Union[SampledSeries, Sequence[Sample]]


def _coerce_series(series: SeriesLike) -> SampledSeries:
    if isinstance(series, SampledSeries):
        return series
    return SampledSeries.single(series)


def _collapse_plateaus(samples: Sequence[Sample], eps: float) -> list[Sample]:
    # Runs of consecutive samples within eps collapse to their leftmost sample.
    # Repeat until no adjacent representatives remain within eps, so the sign
    # of every remaining difference is well defined.
    reps = list(samples)
    while True:
        out = [reps[0]]
        for s in reps[1:]:
            if abs(s[1] - out[-1][1]) <= eps:
                continue
            out.append(s)
        if len(out) == len(reps):
            return out
        reps = out


def _extract_segment(samples: Sequence[Sample], eps: float) -> MorseSet:
    if len(samples) == 0:
        raise EmptyInputError("segment has no samples")
    if len(samples) < 2:
        raise EmptyInputError("segment needs at least two samples")
    # strictly increasing positions between finite ends are finite
    for i in (0, len(samples) - 1):
        if not math.isfinite(samples[i][0]):
            raise ValueError(f"sample {i} is not finite: {samples[i]}")
    prev = -math.inf
    for i, (x, y) in enumerate(samples):
        if not math.isfinite(y):
            raise ValueError(f"sample {i} is not finite: {(x, y)}")
        if not prev < x:
            raise NonMonotoneAbscissaError(
                f"positions not strictly increasing at index {i - 1}: "
                f"{prev} -> {x}")
        prev = x

    reps = _collapse_plateaus(samples, eps)
    if len(reps) < 2:
        raise ConstantSegmentError("segment is constant after plateau collapse")

    maxima: list[Sample] = []
    minima: list[Sample] = []
    last = len(reps) - 1
    for i, (x, y) in enumerate(reps):
        if i == 0:
            rising = reps[1][1] > y
            (minima if rising else maxima).append((x, y))
        elif i == last:
            rising = y > reps[i - 1][1]
            (maxima if rising else minima).append((x, y))
        else:
            prev = y - reps[i - 1][1]
            nxt = reps[i + 1][1] - y
            if prev > 0 and nxt < 0:
                maxima.append((x, y))
            elif prev < 0 and nxt > 0:
                minima.append((x, y))
    return MorseSet.build(maxima, minima, (reps[0][0], reps[-1][0]))


def extract_critical_points(series: SeriesLike,
                            plateau_epsilon: float = 0.0) -> list[MorseSet]:
    """Extract one Morse set per segment of a sampled series.

    Interior critical points are the strict local extrema of the samples after
    plateau collapse; both segment endpoints become boundary critical points
    whose kind is determined by the adjacent slope.
    """
    if plateau_epsilon < 0:
        raise ValueError("plateau_epsilon must be nonnegative")
    ss = _coerce_series(series)
    if not ss.segments or all(len(seg) == 0 for seg in ss.segments):
        raise EmptyInputError("series has no samples")
    return [_extract_segment(seg, plateau_epsilon) for seg in ss.segments]


# ---------------------------------------------------------------------------
# CSV ingestion


def read_csv_series(text: str) -> SampledSeries:
    """Parse `x,y` CSV with an optional header; blank lines split segments."""
    segments: list[list[Sample]] = []
    current: list[Sample] = []
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
    return SampledSeries.multi(segments)
