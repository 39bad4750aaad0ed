"""Property tests on quantized random walks, where equal heights and
plateaus are common: the array core against the reference routes."""
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morsepeak import (ConstantSegmentError, InvalidMorseSetError, MorseSet,
                       PTFeature, RPTFeature, extract_critical_points, pair,
                       pair_recursive, persistence_transformation,
                       reduced_persistence_transformation)
from morsepeak import (PDSet, PTSet, RPTSet, denoise, join_pd, join_pt,
                       join_rpt, to_persistence_diagram)
from oracles import (by_birth, extract_reference, sweep_pairing,
                     transform_rows)

QUANTUM = 0.25


@st.composite
def walks(draw):
    """Samples of a random walk in steps of QUANTUM at irregular positions."""
    moves = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)),
                          min_size=1, max_size=60))
    x = itertools.accumulate(0.5 * gap for gap, _ in moves)
    y = itertools.accumulate(QUANTUM * step for _, step in moves)
    return [(0.0, 0.0)] + list(zip(x, y))


def extracted(samples, eps):
    try:
        return extract_critical_points(samples, eps)[0]
    except ConstantSegmentError:
        return None


def as_map(entries):
    return {(m.x, m.y): None if d is None else (d.x, d.y) for m, d in entries}


def by_persistence(feats):
    return tuple(sorted(feats, key=lambda f: (-f.persistence, f.x)))


@pytest.mark.parametrize("eps", [0.0, 0.3])
class TestQuantizedWalks:
    @given(walks())
    def test_extraction_matches_reference(self, eps, samples):
        want = extract_reference(samples, eps)
        got = extracted(samples, eps)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want
            assert got.maxima == want.maxima and got.minima == want.minima
            assert got.domain == want.domain

    @given(walks())
    def test_pairing_routes_agree(self, eps, samples):
        ms = extracted(samples, eps)
        if ms is None:
            return
        fast = as_map((e.peak, e.death) for e in pair(ms).entries)
        assert fast == as_map((e.peak, e.death)
                              for e in pair_recursive(ms).entries)
        assert fast == as_map(sweep_pairing(ms).items())
        assert np.array_equal(pair(ms).death, pair_recursive(ms).death)

    @given(walks())
    def test_transforms_follow_the_recursive_pairing(self, eps, samples):
        ms = extracted(samples, eps)
        if ms is None:
            return
        entries = pair_recursive(ms).entries
        pt = persistence_transformation(ms)
        assert pt.features == by_persistence(
            PTFeature(e.peak.x, e.peak.y, e.death_value) for e in entries)
        assert pt.diagonal == tuple(PTFeature(m.x, m.y, m.y)
                                    for m in ms.minima)
        assert reduced_persistence_transformation(ms).features == \
            by_persistence(RPTFeature(e.peak.x, e.persistence)
                           for e in entries)

    @given(walks())
    def test_read_only(self, eps, samples):
        ms = extracted(samples, eps)
        if ms is None:
            return
        for arr in (ms.xs, ms.ys, ms.is_max):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[-1]
        with pytest.raises(AttributeError):
            ms.domain = (0.0, 1.0)
        pair(ms)  # caches the pairing of the valid set
        assert np.array_equal(ms.xs, extracted(samples, eps).xs)
        interior = [m for m in ms.minima if m.x not in ms.domain]
        if interior:
            broken = MorseSet.build(
                ms.maxima, [m for m in ms.minima if m is not interior[0]],
                ms.domain)
            for _ in range(3):
                with pytest.raises(InvalidMorseSetError):
                    pair(broken)

    @given(walks(), walks(), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_row_views_match_the_per_row_code(self, eps, a, b, tau):
        sets = [ms for ms in (extracted(a, eps), extracted(b, eps))
                if ms is not None]
        want = [transform_rows(ms, tau) for ms in sets]
        pts = [denoise(persistence_transformation(ms), tau) for ms in sets]
        pt, pd = join_pt(pts), join_pd(map(to_persistence_diagram, pts))
        assert pt.features == by_persistence(f for w in want for f in w["pt"])
        assert pt.diagonal == tuple(d for w in want for d in w["diagonal"])
        assert pd.points == tuple(by_birth(q for w in want for q in w["pd"]))
        for clip in (False, True):
            rpt = join_rpt(reduced_persistence_transformation(ms, clip)
                           for ms in sets)
            assert rpt.features == by_persistence(
                f for ms in sets for f in transform_rows(ms, 0.0, clip)["rpt"])
        assert (PTSet(pt.features, pt.diagonal), RPTSet(rpt.features),
                PDSet(pd.points)) == (pt, rpt, pd)
        for s in (pt, rpt, pd):
            assert type(s).from_json_dict(s.to_json_dict()) == s
