import json

import pytest
from hypothesis import given, strategies as st

from morsepeak import (ConstantSegmentError, CriticalPoint, EmptyInputError,
                       GenParams, Kind, MorseSet, NonMonotoneAbscissaError,
                       SampledSeries, colex_lt, extract_critical_points,
                       random_morse_set, read_csv_series, validate)
from oracles import quantified_alternation_ok

from conftest import E1_SAMPLES


def points(ms):
    return {(p.x, p.y) for p in ms.maxima}, {(p.x, p.y) for p in ms.minima}


class TestExtraction:
    def test_monotone_ramp(self):
        (ms,) = extract_critical_points([(0, 0), (1, 1), (2, 2)])
        assert points(ms) == ({(2, 2)}, {(0, 0)})
        assert ms.domain == (0, 2)

    def test_e1(self, e1):
        mx, mn = points(e1)
        assert mx == {(3, 5), (1, 3), (5, 2)}
        assert mn == {(0, 0), (6, 0), (4, 0.5), (2, 1)}
        # canonical order: maxima descending, minima ascending (co-lex)
        assert [(p.x, p.y) for p in e1.maxima] == [(3, 5), (1, 3), (5, 2)]
        assert [(p.x, p.y) for p in e1.minima] == [(0, 0), (6, 0), (4, 0.5), (2, 1)]

    def test_plateau_leftmost_representative(self):
        (ms,) = extract_critical_points([(0, 0), (1, 2), (2, 2), (3, 0)])
        assert points(ms) == ({(1, 2)}, {(0, 0), (3, 0)})

    def test_plateau_epsilon(self):
        (ms,) = extract_critical_points(
            [(0, 0), (1, 2.0), (2, 2.05), (3, 0)], plateau_epsilon=0.1)
        assert points(ms) == ({(1, 2.0)}, {(0, 0), (3, 0)})

    def test_degenerate_two_sample_segment(self):
        (ms,) = extract_critical_points([(0, 1), (1, 0)])
        assert points(ms) == ({(0, 1)}, {(1, 0)})
        assert validate(ms).ok

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            extract_critical_points([])

    def test_non_monotone(self):
        with pytest.raises(NonMonotoneAbscissaError):
            extract_critical_points([(0, 0), (0.5, 1), (0.5, 2), (1, 0)])

    def test_constant_segment(self):
        with pytest.raises(ConstantSegmentError):
            extract_critical_points([(0, 1), (1, 1), (2, 1)])

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            extract_critical_points(E1_SAMPLES, plateau_epsilon=-1)

    @pytest.mark.parametrize("index, sample", [
        (1, (1, float("nan"))), (3, (3, float("nan"))), (2, (2, float("inf"))),
        (0, (float("-inf"), 0)), (3, (float("inf"), 0))])
    def test_non_finite_sample_rejected(self, index, sample):
        samples = [(0, 0), (1, 2), (2, 1), (3, 0)]
        samples[index] = sample
        with pytest.raises(ValueError, match=f"sample {index} is not finite"):
            extract_critical_points(samples)

    def test_multi_segment(self):
        series = SampledSeries.multi([[(0, 0), (1, 1)], [(5, 2), (6, 0)]])
        sets = extract_critical_points(series)
        assert len(sets) == 2
        assert all(validate(s).ok for s in sets)

    def test_extraction_always_valid(self):
        for seed in range(50):
            ms = random_morse_set(GenParams(peak_count_range=(1, 20), seed=seed))
            samples = [(p.x, p.y) for p in ms.points_by_x()]
            (again,) = extract_critical_points(samples)
            assert validate(again).ok

    def test_round_trip_from_morse_set(self):
        for seed in range(50):
            ms = random_morse_set(GenParams(peak_count_range=(1, 20), seed=seed))
            samples = [(p.x, p.y) for p in ms.points_by_x()]
            (again,) = extract_critical_points(samples)
            assert again == ms


class TestComparator:
    @given(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
           st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
    def test_value_first_position_second(self, a, b):
        p = CriticalPoint(a[0], a[1], Kind.MAX)
        q = CriticalPoint(b[0], b[1], Kind.MAX)
        if p.y < q.y:
            assert colex_lt(p, q)
        elif p.y == q.y:
            assert colex_lt(p, q) == (p.x < q.x)
        else:
            assert not colex_lt(p, q)


class TestValidation:
    def test_e1_valid(self, e1):
        report = validate(e1)
        assert report.ok and not report

    def test_missing_interior_minimum(self, e1):
        broken = MorseSet.build(
            e1.maxima, [m for m in e1.minima if (m.x, m.y) != (2, 1)], e1.domain)
        conds = validate(broken).conditions()
        assert "Alternation" in conds
        # kappa+ = kappa- = 3 after the deletion, so the balance still holds
        assert "Balance" not in conds

    def test_duplicate_position(self, e1):
        broken = MorseSet.build(list(e1.maxima) + [(1, 7)], e1.minima, e1.domain)
        assert "Injectivity" in validate(broken).conditions()

    def test_disjunction(self, e1):
        broken = MorseSet.build(e1.maxima, list(e1.minima) + [(3, 0.2)], e1.domain)
        assert "Disjunction" in validate(broken).conditions()

    def test_boundary_missing(self, e1):
        broken = MorseSet.build(e1.maxima, e1.minima, (-1, 6))
        assert "CriticalBoundary" in validate(broken).conditions()

    def test_balance(self):
        broken = MorseSet.build([(1, 5), (3, 4), (5, 3)], [(0, 0)], (0, 6))
        assert "Balance" in validate(broken).conditions()

    def test_min_above_adjacent_max(self):
        broken = MorseSet.build([(1, 2), (3, 6)], [(0, 0), (2, 4), (4, 0)], (0, 4))
        assert "Alternation" in validate(broken).conditions()

    def test_alternation_matches_quantified_form(self):
        for seed in range(40):
            ms = random_morse_set(GenParams(peak_count_range=(1, 8), seed=seed))
            assert validate(ms).ok
            assert quantified_alternation_ok(ms)
            # knocking out an interior minimum breaks both formulations
            interior = [m for m in ms.minima if m.x not in ms.domain]
            if interior:
                broken = MorseSet.build(
                    ms.maxima, [m for m in ms.minima if m is not interior[0]],
                    ms.domain)
                direct = quantified_alternation_ok(broken)
                ours = "Alternation" not in validate(broken).conditions()
                assert direct == ours

    def test_alternation_implies_balance(self):
        for seed in range(100):
            ms = random_morse_set(GenParams(peak_count_range=(1, 15), seed=seed))
            conds = validate(ms).conditions()
            assert "Alternation" not in conds and "CriticalBoundary" not in conds
            assert "Balance" not in conds


class TestSerialization:
    def test_json_round_trip(self, e1):
        again = MorseSet.from_json(e1.to_json())
        assert again == e1

    def test_json_schema(self, e1):
        doc = json.loads(e1.to_json())
        assert set(doc) == {"domain", "maxima", "minima"}
        assert doc["domain"] == [0.0, 6.0]
        assert doc["maxima"][0] == [3.0, 5.0]

    def test_csv_basic(self):
        series = read_csv_series("x,y\n0,0\n1,3\n2,1\n")
        assert series.segments[0] == ((0.0, 0.0), (1.0, 3.0), (2.0, 1.0))

    def test_csv_multi_segment(self):
        series = read_csv_series("0,0\n1,1\n\n5,2\n6,0\n")
        assert len(series.segments) == 2

    def test_csv_bad_row(self):
        with pytest.raises(ValueError):
            read_csv_series("0,0\nnope,1\n")

    def test_csv_empty(self):
        with pytest.raises(EmptyInputError):
            read_csv_series("\n\n")
