import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morsepeak import (GenParams, InvalidMorseSetError, MorseSet, PDPoint,
                       PDSet, PTFeature, PTSet, RPTFeature, RPTSet,
                       SampledSeries, denoise,
                       extract_critical_points, pair, pair_recursive,
                       persistence_transformation, random_morse_set,
                       reduced_persistence_transformation,
                       to_persistence_diagram)
from morsepeak import join_pd, join_pt, join_rpt, pairing
from morsepeak.cli import _dump_rows
from oracles import sweep_diagram, sweep_pairing

INF = math.inf


def pairing_map(pr):
    return {(e.peak.x, e.peak.y):
            None if e.death is None else (e.death.x, e.death.y)
            for e in pr.entries}


class TestPairing:
    def test_e1(self, e1):
        expected = {(3, 5): None, (1, 3): (2, 1), (5, 2): (4, 0.5)}
        assert pairing_map(pair(e1)) == expected
        assert pairing_map(pair_recursive(e1)) == expected

    def test_lone_peak(self, lone_peak):
        assert pairing_map(pair(lone_peak)) == {(1, 4): None}
        assert pairing_map(pair_recursive(lone_peak)) == {(1, 4): None}

    def test_nested_regions(self):
        ms = MorseSet.build([(1, 5), (3, 2), (5, 4)],
                            [(0, 0), (2, 1), (4, 0.5), (6, 0)], (0, 6))
        expected = {(1, 5): None, (5, 4): (4, 0.5), (3, 2): (2, 1)}
        assert pairing_map(pair(ms)) == expected
        assert pairing_map(pair_recursive(ms)) == expected

    def test_equal_heights_left_is_elder(self):
        ms = MorseSet.build([(1, 3), (3, 3)], [(0, 0), (2, 1), (4, 0)], (0, 4))
        expected = {(1, 3): None, (3, 3): (2, 1)}
        assert pairing_map(pair(ms)) == expected
        assert pairing_map(pair_recursive(ms)) == expected

    def test_routes_agree_randomized(self):
        for seed in range(200):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            assert pairing_map(pair(ms)) == pairing_map(pair_recursive(ms))

    def test_matches_sweep_oracle(self):
        for seed in range(200):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            oracle = {(m.x, m.y): None if d is None else (d.x, d.y)
                      for m, d in sweep_pairing(ms).items()}
            assert pairing_map(pair(ms)) == oracle

    def test_injective_and_single_essential(self):
        for seed in range(100):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            entries = pair(ms).entries
            deaths = [e.death for e in entries if e.death is not None]
            assert len(deaths) == len(set(deaths))
            assert sum(1 for e in entries if e.essential) == 1
            assert all(d in ms.minima for d in deaths)

    def test_elder_dominance(self):
        # every finite pair's peak is strictly above its death, and the
        # essential peak is the co-lex greatest maximum
        for seed in range(100):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            for e in pair(ms).entries:
                if e.essential:
                    assert e.peak == ms.maxima[0]
                else:
                    assert e.persistence > 0

    def test_death_index_array(self):
        # pair builds no CriticalPoint: its entries come on first use from
        # a read-only x-order array of death indices
        ms = random_morse_set(GenParams(peak_count_range=(3, 6), seed=4))
        pr = pair(ms)
        assert "_points" not in ms.__dict__
        assert pr.death.dtype.kind == "i" and pr.death.shape == ms.xs.shape
        with pytest.raises(ValueError, match="read-only"):
            pr.death[0] = 0
        with pytest.raises(AttributeError):
            pr.death = pr.death
        again = pair_recursive(ms)
        assert pr == again and hash(pr) == hash(again)
        assert pr != pair(random_morse_set(GenParams(seed=5)))
        assert "_points" not in ms.__dict__
        for e in pr.entries:
            i = int(np.flatnonzero(ms.xs == e.peak.x)[0])
            assert pr.death[i] == (-1 if e.essential else
                                   np.flatnonzero(ms.xs == e.death.x)[0])
        assert [e.peak for e in pr.entries] == list(ms.maxima)
        assert repr(pr) == f"Pairing(entries={pr.entries!r})"

    def test_pair_holds_the_kept_array(self, e1):
        # the set keeps its one Pairing, and with it the entries
        a, b = pair(e1), pair(e1)
        assert a is b and a.entries is b.entries
        assert not a.death.flags.writeable

    def test_invalid_set_raises_on_every_call(self, monkeypatch):
        swept = []
        real = pairing._elder_deaths
        monkeypatch.setattr(pairing, "_elder_deaths",
                            lambda ms: swept.append(ms) or real(ms))
        bad = MorseSet.build([(1, 0)], [(0, 1), (2, 1)])
        for _ in range(2):
            with pytest.raises(InvalidMorseSetError):
                pair(bad)
        assert swept == [] and bad.memo("pairing", lambda ms: None) is None

    def test_given_array_is_copied(self, e1):
        arr = np.array(pair(e1).death)
        held = pairing.Pairing(e1, arr)
        assert not np.shares_memory(held.death, arr)
        assert not held.death.flags.writeable and arr.flags.writeable
        arr[:] = 0
        assert held == pair(e1)

    def test_determined_by_morse_set(self, e1):
        # resampling the same critical structure on a different grid cannot
        # change the pairing
        pts = e1.points_by_x()
        samples = []
        for i, p in enumerate(pts):
            samples.append((p.x, p.y))
            if i + 1 < len(pts):
                q = pts[i + 1]
                for t in (0.25, 0.5, 0.75):
                    samples.append((p.x + t * (q.x - p.x),
                                    p.y + t * (q.y - p.y)))
        (resampled,) = extract_critical_points(samples)
        assert pairing_map(pair(resampled)) == pairing_map(pair(e1))


class TestTransforms:
    def test_pt_e1(self, e1):
        pt = persistence_transformation(e1)
        assert pt.features == (PTFeature(3, 5, -INF), PTFeature(1, 3, 1),
                               PTFeature(5, 2, 0.5))
        assert {(f.x, f.birth) for f in pt.diagonal} == \
            {(0, 0), (6, 0), (4, 0.5), (2, 1)}

    def test_rpt_e1(self, e1):
        rpt = reduced_persistence_transformation(e1)
        assert rpt.features == (RPTFeature(3, INF), RPTFeature(1, 2),
                                RPTFeature(5, 1.5))

    def test_rpt_clip_essential(self, e1):
        rpt = reduced_persistence_transformation(e1, clip_essential=True)
        assert rpt.features == (RPTFeature(3, 5.0), RPTFeature(1, 2),
                                RPTFeature(5, 1.5))

    def test_pd_e1(self, e1):
        pd = to_persistence_diagram(persistence_transformation(e1))
        assert pd.points == (PDPoint(5, -INF), PDPoint(3, 1), PDPoint(2, 0.5))

    def test_pd_matches_sweep(self):
        for seed in range(100):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            pd = to_persistence_diagram(persistence_transformation(ms))
            assert [(q.birth, q.death) for q in pd.points] == sweep_diagram(ms)

    def test_mirrored_pair_pd_identical_pt_not(self, mirrored_pair):
        f, g = mirrored_pair
        ptf, ptg = map(persistence_transformation, mirrored_pair)
        assert to_persistence_diagram(ptf) == to_persistence_diagram(ptg)
        assert ptf.features != ptg.features

    def test_pairing_comes_from_pair(self, monkeypatch):
        # each transform call looks its pairing up through pair, and the
        # elder rule runs once for the set, as a batch of one
        looked_up, swept = [], []
        real_pair, real_deaths = pairing.pair, pairing._elder_deaths
        monkeypatch.setattr(pairing, "pair",
                            lambda ms: looked_up.append(ms) or real_pair(ms))
        monkeypatch.setattr(pairing, "_elder_deaths", lambda sets: (
            swept.append(sets) or real_deaths(sets)))
        ms = random_morse_set(GenParams(peak_count_range=(3, 6), seed=6))
        pt = persistence_transformation(ms)
        reduced_persistence_transformation(ms)
        reduced_persistence_transformation(ms, clip_essential=True)
        to_persistence_diagram(pt)
        assert [id(m) for m in looked_up] == [id(ms)] * 3
        assert [[id(m) for m in sets] for sets in swept] == [[id(ms)]]

    def test_peak_table_built_once_per_clip(self, monkeypatch):
        # the PT and the RPT of a set share its peak table; the clipped
        # RPT has its own
        built = []
        real = pairing._peak_table
        monkeypatch.setattr(pairing, "_peak_table", lambda ms, death, clip: (
            built.append(clip), real(ms, death, clip))[1])
        ms = random_morse_set(GenParams(peak_count_range=(3, 6), seed=6))
        pt = persistence_transformation(ms)
        rpt = reduced_persistence_transformation(ms)
        assert built == [False]
        assert persistence_transformation(ms) == pt
        assert reduced_persistence_transformation(ms) == rpt
        reduced_persistence_transformation(ms, clip_essential=True)
        reduced_persistence_transformation(ms, clip_essential=True)
        assert built == [False, True]
        assert not pairing._peaks(ms).flags.writeable

    def test_overflowing_persistence_raises_on_every_call(self):
        ms = MorseSet([0, 1, 2, 3, 4], [-1.7e308, 1.7e308, -1.7e308, 1.6e308,
                                        -1.7e308], [0, 1, 0, 1, 0], (0, 4))
        for make in (persistence_transformation,
                     reduced_persistence_transformation) * 2:
            with pytest.raises(ValueError, match="difference is not finite"):
                make(ms)

    def test_count_conservation(self):
        for seed in range(50):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            pt = persistence_transformation(ms)
            assert len(pt.features) == ms.kappa_plus
            assert len(pt.diagonal) == ms.kappa_minus


class TestDenoise:
    def test_tau_keeps_high_persistence(self, e1):
        pt = persistence_transformation(e1)
        d12 = denoise(pt, 1.2)
        assert [f.x for f in d12.features] == [3, 1, 5]
        assert d12.diagonal == ()
        d18 = denoise(pt, 1.8)
        assert [f.x for f in d18.features] == [3, 1]

    def test_tau_zero_is_identity(self, e1):
        pt = persistence_transformation(e1)
        assert denoise(pt, 0.0) == pt

    def test_idempotent(self, e1):
        pt = persistence_transformation(e1)
        for tau in (0.0, 0.7, 1.2, 1.8, 10.0):
            once = denoise(pt, tau)
            assert denoise(once, tau) == once

    def test_boundary_is_inclusive(self, e1):
        pt = persistence_transformation(e1)
        assert [f.x for f in denoise(pt, 1.5).features] == [3, 1, 5]

    def test_negative_tau(self, e1):
        with pytest.raises(ValueError):
            denoise(persistence_transformation(e1), -0.1)

    def test_randomized_retention(self):
        for seed in range(30):
            ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            pt = persistence_transformation(ms)
            for tau in (0.5, 2.0, 5.0):
                kept = denoise(pt, tau).features
                assert kept == tuple(f for f in pt.features
                                     if f.persistence >= tau)


class TestPointSets:
    """The transform sets hold read-only arrays; row objects are views."""

    @pytest.fixture
    def sets(self, e1):
        pt = persistence_transformation(e1)
        return pt, reduced_persistence_transformation(e1), \
            to_persistence_diagram(pt)

    def test_repr_rebuilds_the_set(self, sets):
        for ps in sets:
            assert eval(repr(ps), {**vars(pairing), "inf": INF}) == ps

    def test_built_from_rows_equals_transform(self, sets):
        pt, rpt, pd = sets
        assert PTSet((PTFeature(3, 5, -INF), PTFeature(1, 3, 1),
                      PTFeature(5, 2, 0.5)), pt.diagonal) == pt
        assert RPTSet((RPTFeature(3, INF), RPTFeature(1, 2),
                       RPTFeature(5, 1.5))) == rpt
        assert PDSet((PDPoint(5, -INF), PDPoint(3, 1),
                      PDPoint(2, 0.5))) == pd
        assert PTSet(pt.array, pt.diagonal_array) == pt
        assert pt.array.tolist() == [[3, 5, -INF], [1, 3, 1], [5, 2, 0.5]]
        assert pt.diagonal_array.tolist() == [[0, 0], [6, 0], [4, 0.5],
                                              [2, 1]]

    def test_arrays_are_read_only(self, sets):
        pt, rpt, pd = sets
        for a in (pt.array, pt.diagonal_array, rpt.array, pd.array):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 7.0
        with pytest.raises(AttributeError):
            pt.array = rpt.array
        rows = np.array(rpt.array)
        built = RPTSet(rows)
        rows[0, 0] = 7.0  # the set holds its own copy
        assert built == rpt and not built.array.flags.writeable

    def test_eq_and_hash(self, e1, sets):
        pt, rpt, pd = sets
        again = persistence_transformation(e1)
        assert pt == again and hash(pt) == hash(again)
        assert len({pt, again, PTSet(pt.features, pt.diagonal)}) == 1
        assert PTSet(pt.features, ()) != pt  # the diagonal counts
        assert RPTSet(pd.array) != pd  # same numbers, other kind
        assert pd != pd.points

    def test_join_of_no_parts_and_of_empty_parts(self):
        for join, empty, width in ((join_pt, PTSet((), ()), 3),
                                   (join_rpt, RPTSet(()), 2),
                                   (join_pd, PDSet(()), 2)):
            assert join([]) == join(iter([empty, empty])) == empty
            assert join([]).array.shape == (0, width)
        assert join_pt([]).diagonal_array.shape == (0, 2)

    def test_join_keeps_every_part(self, e1, lone_peak):
        pts = [persistence_transformation(m) for m in (e1, lone_peak)]
        joined = join_pt(pts)
        assert joined.features == tuple(sorted(
            pts[0].features + pts[1].features,
            key=lambda f: (-f.persistence, f.x)))
        assert joined.diagonal == pts[0].diagonal + pts[1].diagonal

    # segments whose x ranges overlap, on heights with both signed zeros
    @given(st.lists(st.tuples(
        st.integers(0, 3),
        st.lists(st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0]), min_size=2,
                 max_size=7).filter(lambda ys: min(ys) < max(ys))),
        min_size=2, max_size=4))
    def test_pd_of_joined_pt_is_join_of_pds(self, segments):
        sets = extract_critical_points(SampledSeries.multi(
            [[(float(x0 + i), y) for i, y in enumerate(ys)]
             for x0, ys in segments]))
        pts = [persistence_transformation(s) for s in sets]
        joined = join_pd(to_persistence_diagram(pt) for pt in pts)
        via_pt = to_persistence_diagram(join_pt(pts))
        assert _dump_rows(via_pt._json_arrays()) == \
            _dump_rows(joined._json_arrays())

    def test_json_nulls_in_value_columns_only(self):
        pt = PTSet((PTFeature(INF, 1, -INF), PTFeature(2, INF, 1)),
                   (PTFeature(0, INF, INF),))
        assert pt.to_json_dict() == {"features": [[INF, 1, None],
                                                  [2, None, 1]],
                                     "diagonal": [[0, INF]]}
        assert RPTSet((RPTFeature(-INF, INF),)).to_json_dict() == \
            {"features": [[-INF, None]]}
        assert PDSet((PDPoint(INF, -INF),)).to_json_dict() == \
            {"points": [[None, None]]}
        assert PDSet.from_json_dict({"points": [[None, None]]}) == \
            PDSet((PDPoint(INF, -INF),))

    def test_nan_tau(self, sets):
        with pytest.raises(ValueError):
            denoise(sets[0], math.nan)


class TestTransformSerialization:
    def test_pt_round_trip(self, e1):
        pt = persistence_transformation(e1)
        assert PTSet.from_json_dict(pt.to_json_dict()) == pt

    def test_rpt_round_trip(self, e1):
        rpt = reduced_persistence_transformation(e1)
        assert RPTSet.from_json_dict(rpt.to_json_dict()) == rpt

    def test_pd_round_trip(self, e1):
        pd = to_persistence_diagram(persistence_transformation(e1))
        assert PDSet.from_json_dict(pd.to_json_dict()) == pd

    def test_infinite_death_encodes_as_null(self, e1):
        doc = persistence_transformation(e1).to_json_dict()
        assert doc["features"][0] == [3, 5, None]
