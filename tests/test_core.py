import json
import math

import pytest
from hypothesis import example, given, strategies as st

from morsepeak import core
from morsepeak import (ConstantSegmentError, CriticalPoint, EmptyInputError,
                       GenParams, Kind, MorseSet, NonMonotoneAbscissaError,
                       SampledSeries, ValidationReport, colex_lt,
                       extract_critical_points, random_morse_set,
                       read_csv_series, validate)
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

    @pytest.mark.parametrize("segment, message", [
        ([], "segment has no samples"),
        ([(5, 2)], "segment needs at least two samples")])
    def test_short_segment_rejected(self, segment, message):
        series = SampledSeries.multi([[(0, 0), (1, 1)], segment])
        with pytest.raises(EmptyInputError, match=f"^{message}$"):
            extract_critical_points(series)

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

    def test_empty_report_summary(self):
        assert ValidationReport().summary() == "ok"

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

    @pytest.mark.parametrize("maxima, minima, domain, i", [
        ([(0, math.nan)], [], (0, 0), 0),
        ([(1, 3)], [(0, 0), (2, math.nan)], (0, 2), 2)])
    def test_nan_value(self, maxima, minima, domain, i):
        # NaN has no place in the value order, on a set of any size
        ms = MorseSet.build(maxima, minima, domain)
        nan = [v for v in validate(ms).violations
               if v.detail.startswith("value NaN")]
        assert [(v.condition, v.points, v.detail) for v in nan] == [
            ("Ordered", (ms.points_by_x()[i],), f"value NaN at x={float(i)}")]

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


LOW = st.sampled_from([-math.inf, -1.0, -0.0, 0.0]) | st.floats(-2, 0)
HIGH = st.sampled_from([-0.0, 0.0, 1.0, math.inf]) | st.floats(0, 2)
ANY = (st.sampled_from([-math.inf, -0.0, 0.0, math.inf, math.nan])
       | st.floats(-3, 3))


@st.composite
def near_valid_sets(draw):
    """Arrays of a Morse set that is often valid: ascending positions and
    alternating kinds, minima drawn low and maxima high, with ties at
    signed zeros and infinities, and the domain ends at the first and last
    positions; then maybe a value, a position, a kind or the domain is
    replaced by anything, NaN and points outside the domain included."""
    xs = sorted(draw(st.lists(ANY.filter(lambda v: v == v), min_size=1,
                              max_size=7, unique=True)))
    up = [(i + draw(st.booleans())) % 2 == 1 for i in range(len(xs))]
    up = up if draw(st.booleans()) else [not u for u in up]
    ys = [draw(HIGH if u else LOW) for u in up]
    domain = [xs[0], xs[-1]]
    # a position or value may also repeat another one
    for target, values in ((ys, ANY | st.sampled_from(ys)),
                           (xs, ANY | st.sampled_from(xs)),
                           (up, st.booleans()), (domain, ANY)):
        if draw(st.integers(0, 3)) == 0:
            target[draw(st.integers(0, len(target) - 1))] = draw(values)
    return xs, ys, up, tuple(domain)


@given(near_valid_sets())
@example(([1.0], [math.nan], [True], (1.0, 1.0)))  # a lone NaN value
@example(([0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [True, False, True], (0.0, 1.0)))
def test_one_mask_accept_agrees_with_the_axioms(arrays):
    # the combined check accepts a set exactly when no axiom's mask flags
    # anything, so validate reports the same either way
    ms = MorseSet(*arrays)
    assert core._accepts(ms) == (not core._violations(ms))
    assert validate(ms).ok == core._accepts(ms)


class TestSerialization:
    def test_json_round_trip(self, e1):
        again = MorseSet.from_json(e1.to_json())
        assert again == e1

    def test_repr_lists_canonical_points(self, e1):
        # built from the points in x order; the repr lists them canonically
        ms = MorseSet.build([(1, 3), (3, 5), (5, 2)],
                            [(0, 0), (2, 1), (4, 0.5), (6, 0)], (0, 6))
        assert repr(ms) == (f"MorseSet(maxima={e1.maxima!r}, "
                            f"minima={e1.minima!r}, domain=(0.0, 6.0))")
        assert [(p.x, p.y) for p in ms.maxima] == [(3, 5), (1, 3), (5, 2)]
        assert [(p.x, p.y) for p in ms.minima] == [(0, 0), (6, 0), (4, 0.5),
                                                   (2, 1)]

    def test_build_empty_without_domain(self):
        with pytest.raises(EmptyInputError,
                           match="cannot infer a domain from an empty set"):
            MorseSet.build([], [])

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
        # numpy's C reader reads a segment from its first numeric row on;
        # where it and float() could disagree, the line scan decides
        ("0,0\n1_0,2\n", (((0, 0), (10, 2)),)),           # underscore
        ("0,0\n1\xa0,\xa02\n", (((0, 0), (1, 2)),)),       # NBSP
        ("0,0\n\uff11,\uff12\n", (((0, 0), (1, 2)),)),     # full-width digits
        ("0,0\n1\x1f,2\n", (((0, 0), (1, 2)),)),          # unit separator
        ("0,0\nInfinity,-inf\n", (((0, 0), (math.inf, -math.inf)),)),
        ("0,0\n1e5000,2\n", (((0, 0), (math.inf, 2)),)),  # overflows to inf
        ("0,0\n1,2,\n", (((0, 0), (1, 2)),)),             # trailing comma
        ("0,0,9\n1,1,9\n2,0,9\n", (((0, 0), (1, 1), (2, 0)),)),  # 3 columns
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
        ("0,0\n1,2 # c\n", "line 2: non-numeric row '1,2 # c'"),
        ('0,0\n"1",2\n', "line 2: non-numeric row '\"1\",2'"),
        ("0,0\n0x1p3,2\n", "line 2: non-numeric row '0x1p3,2'"),
        ("0,0\n1d3,2\n", "line 2: non-numeric row '1d3,2'"),
        ("0,0\n1,2;3\n", "line 2: non-numeric row '1,2;3'"),
    ])
    def test_rejected(self, text, error):
        assert parsed(text) == (ValueError, error)
        with pytest.raises(ValueError) as exc:
            read_csv_reference(text)
        assert str(exc.value) == error

    @pytest.mark.parametrize("cell", ["-nan", "nan", "NaN"])
    def test_nan_cell(self, cell):
        text = f"0,0\n1,{cell}\n"
        # repr, as nan is not equal to itself
        assert repr(parsed(text)) == repr(tuple(read_csv_reference(text))) \
            == "(((0.0, 0.0), (1.0, nan)),)"

    @pytest.mark.parametrize("text", ["\n\n", "", "x,y\n \nt,v\n"])
    def test_no_rows(self, text):
        with pytest.raises(EmptyInputError, match="CSV contains no data rows"):
            read_csv_series(text)

    @pytest.mark.parametrize("text", ["0,0\n1,3\n2,1\n3,5\n4,0\n",
                                      "0,0\r\n1,3\r\n\r\n5,2\r\n6,0\r\n"])
    def test_leading_byte_order_mark_dropped(self, text):
        # spreadsheets write UTF-8 with a leading U+FEFF; read as a header
        # cell, it would drop the first sample
        assert parsed("\ufeff" + text) == parsed(text)
        assert parsed("\ufeff" + text)[0][0] == (0, 0)

    def test_non_finite_sample_named_as_tuple(self):
        series = read_csv_series("x,y\n0,0\n1,nan\n2,1\n")
        with pytest.raises(ValueError) as exc:
            extract_critical_points(series)
        assert str(exc.value) == "sample 1 is not finite: (1.0, nan)"

    def test_extra_columns_stay_on_the_c_reader(self, monkeypatch):
        # the C reader reads the first two columns of ragged rows, so no
        # line scan rebuilds its array
        from morsepeak import core
        returned = []

        def loadtxt(*args, _real=core.np.loadtxt, **kwargs):
            returned.append(_real(*args, **kwargs))
            return returned[-1]
        monkeypatch.setattr(core.np, "loadtxt", loadtxt)
        (arr,) = read_csv_series("x,y\n0,0,9\n1,3\n2,1,a,b\n").arrays
        assert len(returned) == 1 and arr is returned[0]
        assert arr.tolist() == [[0, 0], [1, 3], [2, 1]]

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
