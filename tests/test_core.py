import json

import pytest
from hypothesis import given, strategies as st

from morsepeak import (ConstantSegmentError, CriticalPoint, EmptyInputError,
                       GenParams, Kind, MorseSet, NonMonotoneAbscissaError,
                       SampledSeries, colex_lt, extract_critical_points,
                       random_morse_set, read_csv_series, validate)
from oracles import quantified_alternation_ok, read_csv_reference

from conftest import E1_SAMPLES


def points(ms):
    return {(p.x, p.y) for p in ms.maxima}, {(p.x, p.y) for p in ms.minima}


def violations(ms):
    """Every violation of ``validate(ms)``: condition, points and detail."""
    return [(v.condition, [(p.x, p.y, p.kind.value) for p in v.points],
             v.detail) for v in validate(ms).violations]


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
        # kappa+ = kappa- = 3 after the deletion, so the balance still holds
        assert violations(broken) == [
            ("Alternation", [(1, 3, "max"), (3, 5, "max")],
             "consecutive max points at x=1.0, 3.0")]

    def test_duplicate_position(self, e1):
        broken = MorseSet.build(list(e1.maxima) + [(1, 7)], e1.minima, e1.domain)
        assert violations(broken) == [
            ("Injectivity", [(1, 7, "max"), (1, 3, "max")],
             "duplicate position 1.0 among maxima"),
            ("Alternation", [(1, 7, "max"), (1, 3, "max")],
             "consecutive max points at x=1.0, 1.0")]

    def test_duplicate_point(self):
        broken = MorseSet.build([(1, 3), (1, 3)], [(0, 0), (2, 0)], (0, 2))
        assert violations(broken) == [
            ("Injectivity", [(1, 3, "max"), (1, 3, "max")],
             "duplicate position 1.0 among maxima"),
            ("Ordered", [(1, 3, "max"), (1, 3, "max")],
             "maxima not strictly descending"),
            ("Alternation", [(1, 3, "max"), (1, 3, "max")],
             "consecutive max points at x=1.0, 1.0")]

    def test_disjunction(self, e1):
        broken = MorseSet.build(e1.maxima, list(e1.minima) + [(3, 0.2)], e1.domain)
        assert violations(broken) == [
            ("Disjunction", [(3, 5, "max"), (3, 0.2, "min")],
             "position 3.0 is both a maximum and a minimum"),
            ("Alternation", [(3, 0.2, "min"), (4, 0.5, "min")],
             "consecutive min points at x=3.0, 4.0"),
            ("Balance", [], "|3 - 5| > 1")]

    def test_disjunction_names_the_last_maximum(self):
        broken = MorseSet.build([(1, 5), (1, 4)], [(0, 0), (1, 0), (2, 0)],
                                (0, 2))
        assert violations(broken) == [
            ("Injectivity", [(1, 5, "max"), (1, 4, "max")],
             "duplicate position 1.0 among maxima"),
            ("Disjunction", [(1, 4, "max"), (1, 0, "min")],
             "position 1.0 is both a maximum and a minimum"),
            ("Alternation", [(1, 5, "max"), (1, 4, "max")],
             "consecutive max points at x=1.0, 1.0"),
            ("Alternation", [(1, 0, "min"), (2, 0, "min")],
             "consecutive min points at x=1.0, 2.0")]

    def test_boundary_missing(self, e1):
        broken = MorseSet.build(e1.maxima, e1.minima, (-1, 6))
        assert violations(broken) == [
            ("CriticalBoundary", [], "no critical point at x=-1.0")]

    def test_point_outside_domain(self):
        broken = MorseSet.build([(1, 3)], [(0, 0), (2, 0), (5, 1)], (0, 2))
        assert violations(broken) == [
            ("Alternation", [(2, 0, "min"), (5, 1, "min")],
             "consecutive min points at x=2.0, 5.0"),
            ("CriticalBoundary", [(5, 1, "min")], "points outside the domain"),
            ("Balance", [], "|1 - 3| > 1")]

    def test_balance(self):
        broken = MorseSet.build([(1, 5), (3, 4), (5, 3)], [(0, 0)], (0, 6))
        assert violations(broken) == [
            ("Alternation", [(1, 5, "max"), (3, 4, "max")],
             "consecutive max points at x=1.0, 3.0"),
            ("Alternation", [(3, 4, "max"), (5, 3, "max")],
             "consecutive max points at x=3.0, 5.0"),
            ("CriticalBoundary", [], "no critical point at x=6.0"),
            ("Balance", [], "|3 - 1| > 1")]

    def test_min_above_adjacent_max(self):
        broken = MorseSet.build([(1, 2), (3, 6)], [(0, 0), (2, 4), (4, 0)], (0, 4))
        assert violations(broken) == [
            ("Alternation", [(1, 2, "max"), (2, 4, "min")],
             "adjacent minimum not below its maximum")]

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


def parsed(text):
    """The segments ``read_csv_series`` finds, or its error's type and text."""
    try:
        return read_csv_series(text).segments
    except ValueError as exc:
        return type(exc), str(exc)


class TestCSVContract:
    @pytest.mark.parametrize("text, segments", [
        ("x,y\n0,0\n1,1\n\nx,y\n5,2\n6,0\n",
         (((0, 0), (1, 1)), ((5, 2), (6, 0)))),            # header per segment
        ("x,y\nunit,volt\n0,0\n1,1\n", (((0, 0), (1, 1)),)),  # two headers
        ("x,y\n\nx,y\n0,0\n1,1\n\nt,v\n",
         (((0, 0), (1, 1)),)),                             # header-only segments
        ("x,y\r\n0,0\r\n1,3\r\n\r\n5,2\r\n6,0\r\n",
         (((0, 0), (1, 3)), ((5, 2), (6, 0)))),            # CRLF
        ("  0 , 0 \n1,\t3\n", (((0, 0), (1, 3)),)),        # padded cells
        ("0,0\n1,1\n   \t\n \n5,2\n6,0\n",
         (((0, 0), (1, 1)), ((5, 2), (6, 0)))),            # whitespace lines
        ("0,0,a\n1,1\n2,0,3,4\n", (((0, 0), (1, 1), (2, 0)),)),  # extra columns
    ])
    def test_accepted(self, text, segments):
        assert parsed(text) == segments
        assert parsed(text) == tuple(read_csv_reference(text))

    @pytest.mark.parametrize("text, error", [
        ("0,0\n1,1\n\nx,y\n5,2\n6\n",
         "line 6: expected two columns, got '6'"),
        ("0,0\n1,1\n\n5,2\nnope,1\n", "line 5: non-numeric row 'nope,1'"),
        ("0,0\n1,1\n\n5,2\n  6, \n", "line 5: non-numeric row '6,'"),
        # three cells then one: the cell count alone looks right
        ("0,0\n1,1\n\n5,2,9\n6\n", "line 5: expected two columns, got '6'"),
        ("x\n0,0\n1,1\n", "line 1: expected two columns, got 'x'"),
    ])
    def test_rejected(self, text, error):
        assert parsed(text) == (ValueError, error)
        with pytest.raises(ValueError) as exc:
            read_csv_reference(text)
        assert str(exc.value) == error

    @pytest.mark.parametrize("text", ["\n\n", "", "x,y\n \nt,v\n"])
    def test_no_rows(self, text):
        with pytest.raises(EmptyInputError, match="CSV contains no data rows"):
            read_csv_series(text)

    def test_non_finite_sample_named_as_tuple(self):
        series = read_csv_series("x,y\n0,0\n1,nan\n2,1\n")
        with pytest.raises(ValueError) as exc:
            extract_critical_points(series)
        assert str(exc.value) == "sample 1 is not finite: (1.0, nan)"

    def test_segments_are_read_only_arrays(self):
        series = read_csv_series("x,y\n0,0\n1,3\n2,1\n")
        (arr,) = series.arrays
        assert arr.shape == (3, 2) and arr.dtype == float
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


CELLS = st.sampled_from(["0", "1.5", "-2", "1e3", " 4 ", "7.25", "-0", "nan"])
ROWS = st.tuples(CELLS, CELLS).map(",".join)
LINES = st.one_of(
    ROWS, ROWS, ROWS, ROWS,
    st.tuples(CELLS, CELLS, st.sampled_from(["a", "3", ""])).map(",".join),
    st.sampled_from(["x,y", "t, volts", "x,y,z"]),         # header-like rows
    st.sampled_from(["", "  ", "\t"]),                      # segment separators
    st.sampled_from(["7", "nope", "1,", ",2", "a,b"]),      # short or bad rows
)


@given(st.lists(LINES, max_size=14), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
def test_csv_matches_line_by_line_reference(lines, newline, final):
    text = newline.join(lines) + (newline if final else "")
    try:
        expected = tuple(read_csv_reference(text))
    except ValueError as exc:
        expected = type(exc), str(exc)
    # repr compares nan samples too
    assert repr(parsed(text)) == repr(expected)
