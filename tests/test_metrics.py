import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morsepeak import (DIAGONAL, PAD_ORIGIN, ConstantSegmentError, GenParams,
                       KindMismatchError, MorseSet, PDSet, PTFeature, PTSet,
                       RPTFeature, RPTSet, UnmatchableInfinityError,
                       extract_critical_points, join_pt, morse_distance,
                       perturb, persistence_transformation, random_morse_set,
                       reduced_persistence_transformation, solve_assignment,
                       sup_dist, to_persistence_diagram, wasserstein)
from morsepeak import metrics
from morsepeak.metrics import (_candidates, _points, _points as _pd_points,
                               _points as _pt_points, _points as _rpt_points,
                               _pruned, _scaled, _sup, InfeasibleError)
from oracles import (brute_force_assignment, brute_force_wasserstein,
                     dense_pruned_matrix, dense_scaled, dense_wasserstein,
                     morse_distance_direct, per_entry_cost_matrix,
                     zero_padded)

INF = math.inf


def shifted(ms: MorseSet, dx: float, dy: float) -> MorseSet:
    return MorseSet.build([(p.x + dx, p.y + dy) for p in ms.maxima],
                          [(p.x + dx, p.y + dy) for p in ms.minima],
                          (ms.domain[0] + dx, ms.domain[1] + dx))


class TestSupDist:
    def test_finite(self):
        assert sup_dist((1, 2), (4, 0)) == 3

    def test_equal_infinities_cancel(self):
        assert sup_dist((1, -INF), (2, -INF)) == 1

    def test_mismatched_infinity(self):
        assert sup_dist((1, -INF), (1, 0)) == INF
        assert sup_dist((1, INF), (1, -INF)) == INF


class TestMorseDistance:
    def test_identity(self, e1, lone_peak):
        for ms in (e1, lone_peak):
            for p in (1, 2, INF):
                assert morse_distance(ms, ms, p) == 0.0

    def test_uniform_shift(self, e1):
        L = shifted(e1, 0.3, 0.3)
        assert morse_distance(e1, L, INF) == pytest.approx(0.3)
        assert morse_distance(e1, L, 2) == pytest.approx(0.3 * math.sqrt(7))
        assert morse_distance(e1, L, 1) == pytest.approx(0.3 * 7)

    def test_deletion_pads_with_origin(self, e1):
        L = MorseSet.build([(3, 5), (1, 3)], [(0, 0), (6, 0), (2, 1)],
                           e1.domain)
        assert morse_distance(e1, L, 1) == pytest.approx(9.0)
        assert morse_distance(e1, L, INF) == pytest.approx(5.0)

    def test_matches_direct_oracle(self):
        for seed in range(40):
            K = random_morse_set(GenParams(peak_count_range=(1, 8), seed=seed))
            L = random_morse_set(GenParams(peak_count_range=(1, 8),
                                           seed=seed + 10_000))
            for p in (1, 2, 3.5, INF):
                assert morse_distance(K, L, p) == \
                    pytest.approx(morse_distance_direct(K, L, p))

    def test_symmetry(self):
        for seed in range(30):
            K = random_morse_set(GenParams(seed=seed))
            L = random_morse_set(GenParams(seed=seed + 5_000))
            for p in (1, 2, INF):
                assert morse_distance(K, L, p) == morse_distance(L, K, p)

    def test_triangle_on_equal_cardinality_triples(self):
        # the rank matching composes along equal-cardinality triples, so the
        # triangle inequality is exact there
        for seed in range(30):
            K = random_morse_set(GenParams(peak_count_range=(4, 4), seed=seed))
            L = perturb(K, 1.0, seed + 1)
            M = perturb(K, 2.0, seed + 2)
            for p in (1, 2, INF):
                dKM = morse_distance(K, M, p)
                via = morse_distance(K, L, p) + morse_distance(L, M, p)
                assert dKM <= via + 1e-9

    def test_definiteness(self):
        for seed in range(30):
            K = random_morse_set(GenParams(seed=seed))
            L = perturb(K, 0.5, seed + 1)
            if K != L:
                assert morse_distance(K, L, 2) > 0

    def test_bad_p(self, e1):
        with pytest.raises(ValueError):
            morse_distance(e1, e1, 0.5)


class TestScaleSafety:
    """Large p must not overflow and tiny distances must not underflow."""

    # one peak raised from 5 to 10: every distance below is 5
    K = MorseSet.build([(1, 5)], [(0, 0), (2, 0)])
    L = MorseSet.build([(1, 10)], [(0, 0), (2, 0)])

    @staticmethod
    def raised(ms: MorseSet, peak: tuple, by: float) -> MorseSet:
        return MorseSet.build([(p.x, p.y + by) if p.coords() == peak
                               else p.coords() for p in ms.maxima],
                              [p.coords() for p in ms.minima], ms.domain)

    def test_morse_distance_extremes(self, lone_peak):
        assert morse_distance(self.K, self.L, 1000) == \
            pytest.approx(5.0, rel=1e-9)
        tiny = self.raised(lone_peak, (1, 4), 1e-6)
        assert morse_distance(lone_peak, tiny, 60) == \
            pytest.approx(1e-6, rel=1e-9)

    @pytest.mark.parametrize("slack", [DIAGONAL, PAD_ORIGIN])
    def test_wasserstein_extremes(self, e1, lone_peak, slack):
        pd = lambda m: to_persistence_diagram(persistence_transformation(m))
        for make in (persistence_transformation, pd):
            assert wasserstein(make(self.K), make(self.L), 1000, slack) == \
                pytest.approx(5.0, rel=1e-9)
        # the 1e-6 move is the whole distance; in e1 much larger costs
        # share the matrix with it
        for ms, peak in ((lone_peak, (1, 4)), (e1, (1, 3))):
            tiny = self.raised(ms, peak, 1e-6)
            for make in (persistence_transformation, pd):
                assert wasserstein(make(ms), make(tiny), 60, slack) == \
                    pytest.approx(1e-6, rel=1e-9)

    # costs of 1e-6 next to a cost of 1000: at p = 60, (1e-9) ** 60 is 0
    TINY_A = RPTSet((RPTFeature(500, 1000.0), RPTFeature(0.0, 1.0),
                     RPTFeature(1e-5, 1.0)))
    TINY_B = RPTSet((RPTFeature(500, 1000.0), RPTFeature(1.1e-5, 1.0),
                     RPTFeature(1e-6, 1.0)))

    @pytest.mark.parametrize("slack", [DIAGONAL, PAD_ORIGIN])
    def test_underflowed_costs_do_not_tie(self, slack):
        A, B = self.TINY_A, self.TINY_B
        got = wasserstein(A, B, 60, slack)
        assert got == pytest.approx(2 ** (1 / 60) * 1e-6, rel=1e-9)
        (pa, sa), (pb, sb) = _rpt_points(A), _rpt_points(B)
        assert got == pytest.approx(
            brute_force_wasserstein(pa, pb, sa, sb, 60), rel=1e-9)
        # no cost underflows at p = 2 and p = 20, so these keep the top scaling
        assert wasserstein(A, B, 2, slack) == 1.414213562373094e-06
        assert wasserstein(A, B, 20, slack) == 1.0352649238413769e-06

    def test_underflow_with_a_zero_bottleneck(self):
        # an all-zero matching exists and other positive costs underflow:
        # the bottleneck value is 0, so the least positive cost is the scale
        A = RPTSet((RPTFeature(0.0, 1000.0), RPTFeature(0.0, 1.0)))
        B = RPTSet((RPTFeature(0.0, 1000.0), RPTFeature(0.0, 1.0)))
        assert wasserstein(A, B, 200, DIAGONAL) == 0.0

    def test_overflowing_scaled_cost_is_silent(self):
        # the bottleneck value 1e-300 is the scale: the 1e308 costs divided
        # by it overflow, and no optimal matching uses them
        A = RPTSet(np.array([[0.0, 1.0], [1e308, 1.0]]))
        B = RPTSet(np.array([[1e-300, 1.0], [1e308, 1.0]]))
        assert wasserstein(A, B, 2.0, PAD_ORIGIN) == 1e-300


TRANSFORMS = (persistence_transformation, reduced_persistence_transformation,
              lambda m: to_persistence_diagram(persistence_transformation(m)))

# transforms decoded from JSON null carry +inf births as well as the -inf
# deaths (PT, PD) and +inf persistences (RPT) of essential peaks; in the
# order of TRANSFORMS
NULL_DECODED = (PTSet.from_json_dict({"features": [[0.5, None, 1.0],
                                                  [2.0, 3.0, None]],
                                     "diagonal": []}),
                RPTSet.from_json_dict({"features": [[1.0, None]]}),
                PDSet.from_json_dict({"points": [[None, 2.0], [None, None]]}))


class TestCostMatrix:
    @staticmethod
    def assert_per_entry(A, B, slack):
        """The array costs of A and B equal the oracle's, built entry by
        entry with ``sup_dist``; returns them."""
        (pa, sa), (pb, sb) = _points(A), _points(B)
        want = per_entry_cost_matrix(pa, sa, pb, sb, slack)
        if slack == PAD_ORIGIN:  # as wasserstein pads them
            qa, qb = (np.array(q).T for q in zero_padded(pa, pb))
            got = _sup(qa[:, :, None], qb[:, None])
        else:  # the sup_dist block's entries at the candidates
            n = len(pa)
            i, j, got = _candidates(*_points(A, B), n)
            assert ((i < n) & (j >= n)).all()
            want = want[i, j - n]
        assert np.array_equal(got, want)
        return got

    @pytest.mark.parametrize("slack", [DIAGONAL, PAD_ORIGIN])
    def test_equals_per_entry_sup_dist(self, slack):
        for seed in range(40):
            K = random_morse_set(GenParams(peak_count_range=(1, 7), seed=seed))
            L = random_morse_set(GenParams(peak_count_range=(1, 7),
                                           seed=seed + 9_000))
            for make, extra in zip(TRANSFORMS, NULL_DECODED):
                for A, B in ((make(K), make(L)), (make(K), extra),
                             (extra, make(L)), (extra, extra)):
                    (pa, _), (pb, _) = _points(A), _points(B)
                    assert np.isinf(pa).any() and np.isinf(pb).any()
                    self.assert_per_entry(A, B, slack)

    # finite coordinates more than the largest double apart; in the PT pair
    # the first point's window (radius 2 s) overflows and reaches the second
    OVERFLOWING = ((RPTSet(np.array([[-1.7e308, 1.0]])),
                    RPTSet(np.array([[1.7e308, 1.0]]))),
                   (PTSet(np.array([[0.0, 1.7e308, -1.7e308]]), ()),
                    PTSet(np.array([[0.0, -1.7e308, -1.7e308]]), ())))

    @pytest.mark.parametrize("slack", [DIAGONAL, PAD_ORIGIN])
    @pytest.mark.parametrize("case", range(len(OVERFLOWING)))
    def test_overflowing_difference_is_inf(self, slack, case):
        # silently: a RuntimeWarning fails the suite
        A, B = self.OVERFLOWING[case]
        got = self.assert_per_entry(A, B, slack)
        # the RPT points are out of each other's reach under diagonal slack
        assert np.isinf(got).all()
        assert (got.size > 0) == ((slack, case) != (DIAGONAL, 0))


class TestAssignment:
    def test_diagonal_preferred(self):
        r = solve_assignment([[0.0, 5.0], [5.0, 0.0]])
        assert r.pairs == ((0, 0), (1, 1)) and r.cost == 0.0

    def test_antidiagonal(self):
        r = solve_assignment([[3.0, 1.0], [1.0, 3.0]])
        assert r.pairs == ((0, 1), (1, 0)) and r.cost == 2.0

    def test_bottleneck_example(self):
        r = solve_assignment([[3.0, 1.0], [1.0, 3.0]], objective="bottleneck")
        assert r.cost == 1.0

    def test_bottleneck_differs_from_sum(self):
        # sum prefers 0 + 10; bottleneck prefers 6 + 5
        M = [[0.0, 6.0], [5.0, 10.0]]
        assert solve_assignment(M).cost == 10.0
        assert solve_assignment(M, objective="bottleneck").cost == 6.0

    def test_infinite_entries_forbidden(self):
        M = [[INF, 1.0], [2.0, INF]]
        assert solve_assignment(M).cost == 3.0
        with pytest.raises(InfeasibleError):
            solve_assignment([[INF, INF], [1.0, 1.0]])
        with pytest.raises(InfeasibleError):
            solve_assignment([[INF, INF], [1.0, 1.0]], objective="bottleneck")

    def test_empty(self):
        assert solve_assignment(np.zeros((0, 0))).cost == 0.0

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            solve_assignment([[1.0, 2.0]])
        with pytest.raises(ValueError):
            solve_assignment([[-1.0, 0.0], [0.0, 0.0]])

    def test_bottleneck_search_matches_brute_force(self):
        # small integer costs give many ties; the row/column lower bound is
        # often, but not always, the answer
        rng = np.random.default_rng(11)
        above_bound = 0
        for _ in range(400):
            n = int(rng.integers(1, 8))
            M = rng.integers(0, 5, (n, n)).astype(float)
            M[rng.uniform(size=(n, n)) < 0.2] = INF
            want = brute_force_assignment(M.tolist(), "bottleneck")
            if math.isinf(want):
                with pytest.raises(InfeasibleError):
                    solve_assignment(M, objective="bottleneck")
                continue
            r = solve_assignment(M, objective="bottleneck")
            rows, cols = map(list, zip(*r.pairs))
            assert rows == list(range(n)) and sorted(cols) == list(range(n))
            assert r.cost == want == M[rows, cols].max()
            lb = max(M.min(axis=1).max(), M.min(axis=0).max())
            above_bound += want > lb
        assert above_bound >= 10, above_bound

    @pytest.mark.parametrize("objective", ["sum", "bottleneck"])
    def test_matches_brute_force(self, objective):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            M = rng.uniform(0, 10, (n, n))
            M[rng.uniform(size=(n, n)) < 0.15] = INF
            try:
                got = solve_assignment(M, objective=objective).cost
            except InfeasibleError:
                got = INF
            assert got == pytest.approx(brute_force_assignment(M.tolist(),
                                                               objective))


class TestWasserstein:
    def test_identity(self, e1):
        pt = persistence_transformation(e1)
        rpt = reduced_persistence_transformation(e1)
        pd = to_persistence_diagram(pt)
        for s in (DIAGONAL, PAD_ORIGIN):
            for p in (1, 2, INF):
                assert wasserstein(pt, pt, p, s) == 0.0
                assert wasserstein(rpt, rpt, p, s) == 0.0
                assert wasserstein(pd, pd, p, s) == 0.0

    def test_mirrored_pair(self, mirrored_pair):
        ptf, ptg = map(persistence_transformation, mirrored_pair)
        assert wasserstein(ptf, ptg, INF, DIAGONAL) == pytest.approx(2.0)
        pdf, pdg = map(to_persistence_diagram, (ptf, ptg))
        assert wasserstein(pdf, pdg, INF, DIAGONAL) == 0.0
        assert wasserstein(pdf, pdg, INF, PAD_ORIGIN) == 0.0

    def test_symmetry(self):
        for seed in range(20):
            K = random_morse_set(GenParams(peak_count_range=(1, 6), seed=seed))
            L = random_morse_set(GenParams(peak_count_range=(1, 6),
                                           seed=seed + 3_000))
            for make in (persistence_transformation,
                         lambda m: reduced_persistence_transformation(m),
                         lambda m: to_persistence_diagram(
                             persistence_transformation(m))):
                A, B = make(K), make(L)
                for p in (1, 2, INF):
                    for s in (DIAGONAL, PAD_ORIGIN):
                        assert wasserstein(A, B, p, s) == \
                            pytest.approx(wasserstein(B, A, p, s))

    @pytest.mark.parametrize("p", [2, INF])
    def test_cost_past_the_largest_double_raises(self, p):
        # pad-origin must match the two points, at a cost past the largest
        # double; diagonal slack sends both to the diagonal
        A = RPTSet(np.array([[-1.7e308, 1.0]]))
        B = RPTSet(np.array([[1.7e308, 1.0]]))
        with pytest.raises(UnmatchableInfinityError,
                           match="or a cost exceeds the largest double"):
            wasserstein(A, B, p, PAD_ORIGIN)
        assert wasserstein(A, B, p, DIAGONAL) == (
            math.sqrt(2.0) if p == 2 else 1.0)

    def test_bottleneck_below_finite_p(self):
        for seed in range(20):
            K = random_morse_set(GenParams(peak_count_range=(1, 6), seed=seed))
            L = perturb(K, 1.0, seed + 1)
            A = persistence_transformation(K)
            B = persistence_transformation(L)
            for s in (DIAGONAL, PAD_ORIGIN):
                b = wasserstein(A, B, INF, s)
                for p in (1, 2, 4):
                    assert b <= wasserstein(A, B, p, s) + 1e-9

    def test_diagonal_slack_matches_brute_force(self):
        for seed in range(25):
            K = random_morse_set(GenParams(peak_count_range=(1, 3), seed=seed))
            L = random_morse_set(GenParams(peak_count_range=(1, 3),
                                           seed=seed + 4_000))
            for kind, make in (("pt", persistence_transformation),
                               ("rpt", reduced_persistence_transformation),
                               ("pd", lambda m: to_persistence_diagram(
                                   persistence_transformation(m)))):
                A, B = make(K), make(L)
                extract = {"pt": _pt_points, "rpt": _rpt_points,
                           "pd": _pd_points}[kind]
                pa, sa = extract(A)
                pb, sb = extract(B)
                for p in (1, 2, INF):
                    want = brute_force_wasserstein(pa, pb, sa, sb, p)
                    if math.isinf(want):
                        with pytest.raises(UnmatchableInfinityError):
                            wasserstein(A, B, p, DIAGONAL)
                    else:
                        assert wasserstein(A, B, p, DIAGONAL) == \
                            pytest.approx(want)

    def test_pad_origin_matches_brute_force(self):
        # pad-origin is a perfect matching of the zero-padded sets: no
        # point may pay a slack instead
        for seed in range(25):
            K = random_morse_set(GenParams(peak_count_range=(1, 3), seed=seed))
            L = random_morse_set(GenParams(peak_count_range=(1, 4),
                                           seed=seed + 5_000))
            for make, extra in zip(TRANSFORMS, NULL_DECODED):
                for A, B in ((make(K), make(L)), (make(K), extra)):
                    pa, pb = zero_padded(A.array, B.array)
                    never = [INF] * len(pa)
                    for p in (1, 2, INF):
                        want = brute_force_wasserstein(pa, pb, never, never, p)
                        if math.isinf(want):
                            with pytest.raises(UnmatchableInfinityError):
                                wasserstein(A, B, p, PAD_ORIGIN)
                        else:
                            assert wasserstein(A, B, p, PAD_ORIGIN) == \
                                pytest.approx(want)

    def test_kind_mismatch(self, e1):
        pt = persistence_transformation(e1)
        rpt = reduced_persistence_transformation(e1)
        with pytest.raises(KindMismatchError):
            wasserstein(pt, rpt)

    def test_unmatchable_infinity_pad_origin(self, e1):
        pt = persistence_transformation(e1)
        finite_only = PTSet(tuple(f for f in pt.features
                                  if not math.isinf(f.death)), pt.diagonal)
        with pytest.raises(UnmatchableInfinityError):
            wasserstein(pt, finite_only, 2, PAD_ORIGIN)
        for p in (1, 2, INF):
            with pytest.raises(UnmatchableInfinityError):
                wasserstein(pt, finite_only, p, DIAGONAL)

    def test_pad_origin_essential_pairs_with_essential(self, e1):
        # two sets with one essential peak each: distance stays finite
        K = e1
        L = shifted(e1, 0.25, -0.25)
        A = persistence_transformation(K)
        B = persistence_transformation(L)
        d = wasserstein(A, B, INF, PAD_ORIGIN)
        assert d == pytest.approx(0.25)

    def test_empty_inputs(self):
        assert wasserstein(PTSet((), ()), PTSet((), ()), 2, DIAGONAL) == 0.0

    def test_unknown_slack(self, e1):
        pt = persistence_transformation(e1)
        with pytest.raises(ValueError):
            wasserstein(pt, pt, 2, "nearest")

    @pytest.mark.parametrize("slack", [DIAGONAL, PAD_ORIGIN])
    def test_nan_points_rejected(self, slack):
        ok = PTSet((PTFeature(1.0, 3.0, 1.0),), ())
        for bad in (PTSet((PTFeature(math.nan, 3.0, 1.0),), ()),
                    # -inf birth and -inf death: the persistence is NaN
                    PTSet((PTFeature(1.0, -INF, -INF),), ())):
            for p in (1, 2, INF):
                with pytest.raises(ValueError, match="NaN"):
                    wasserstein(bad, ok, p, slack)
                with pytest.raises(ValueError, match="NaN"):
                    wasserstein(ok, bad, p, slack)

    def test_negative_diagonal_slack_rejected(self):
        ok = RPTSet((RPTFeature(50.0, 2.0),))
        negative = RPTSet((RPTFeature(1.0, -2.0), RPTFeature(3.0, 1.0)))
        for bad in (negative, RPTSet((RPTFeature(1.0, -INF),))):
            for p in (1, 2, INF):
                with pytest.raises(ValueError, match="negative"):
                    wasserstein(bad, ok, p, DIAGONAL)
        # pad-origin never uses the slack: (1, -2) to the origin at 2,
        # (3, 1) to (50, 2) at 47
        assert wasserstein(negative, ok, 2, PAD_ORIGIN) == \
            pytest.approx(math.hypot(2, 47))


GRID_P = (1, 2, 3.5, 60, 1000, INF)


def kinds_of(pt: PTSet):
    """The PT, RPT and PD sets of the peaks of ``pt``."""
    rpt = RPTSet(tuple(RPTFeature(f.x, f.persistence) for f in pt.features))
    return pt, rpt, to_persistence_diagram(pt)


@st.composite
def grid_pts(draw):
    """A joined PT of up to three quantized walks (one essential peak each),
    optionally without its essentials and shifted far along x."""
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        moves = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)),
                              min_size=1, max_size=12))
        x = itertools.accumulate(gap for gap, _ in moves)
        y = itertools.accumulate(0.5 * step for _, step in moves)
        try:
            ms = extract_critical_points([(0.0, 0.0)] + list(zip(x, y)))[0]
        except ConstantSegmentError:
            continue
        parts.append(persistence_transformation(ms))
    pt = join_pt(parts)
    if draw(st.booleans()):
        pt = PTSet(tuple(f for f in pt.features if f.death > -INF), ())
    shift = draw(st.sampled_from([0.0, 0.0, 1000.0]))
    return PTSet(tuple(PTFeature(f.x + shift, f.birth, f.death)
                       for f in pt.features), ())


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


def assert_same_instance(A, B):
    """The library's bordered matrix, dropped slacks and scaled matrix for
    A and B equal the dense prune oracle's exactly, at every p of GRID_P."""
    (pa, sa), (pb, sb) = _points(A), _points(B)
    instances = _pruned(*_points(A, B), len(pa), GRID_P)
    for p, (raw, cells, vals, dropped) in zip(GRID_P, instances):
        want, want_dropped = dense_pruned_matrix(pa, sa, pb, sb, p)
        assert np.array_equal(raw, want) and dropped == want_dropped
        assert np.array_equal(raw.ravel()[cells], vals)
        if not math.isinf(p):  # _scaled writes into raw
            got = outcome(_scaled, raw, cells, vals, p)
            scaled = outcome(dense_scaled, want, p)
            if isinstance(scaled, type):
                assert got is scaled
            else:
                assert np.array_equal(got, scaled)


ULP_6, ULP_300 = np.spacing(1e6), np.spacing(1e300)
EDGE_CASES = {
    # c = 2 s exactly: kept at p = 1 only
    "reach at p = 1": (RPTSet(np.array([[0.0, 1.0]])),
                       RPTSet(np.array([[2.0, 1.0]]))),
    "reach at p = 1, PT": (PTSet(np.array([[0.0, 2.0, 0.0]]), ()),
                           PTSet(np.array([[2.0, 2.0, 0.0]]), ())),
    # the gap 4 + 2^-51 rounds to c = 4 = 2 s, but x_i + 2 s and x_j - 2 s
    # round to the near side of the other point: only the margin reaches it
    "rounded gap at reach": (RPTSet(np.array([[np.nextafter(-3.0, -INF),
                                               2.0]])),
                             RPTSet(np.array([[1.0, 2.0]]))),
    # neighbours one ulp apart, far out on x, with tiny slacks
    "ulp at 1e6": (RPTSet(np.array([[1e6, 1e-300], [1e6, ULP_6 / 2]])),
                   RPTSet(np.array([[1e6 + ULP_6, 1e-300],
                                    [1e6 + ULP_6, ULP_6 / 2]]))),
    "ulp at 1e300": (RPTSet(np.array([[1e300, 1e-300],
                                      [1e300, ULP_300 / 2]])),
                     RPTSet(np.array([[1e300 + ULP_300, 1e-300],
                                      [1e300 + ULP_300, ULP_300 / 2]]))),
    "subnormal slacks": (RPTSet(np.array([[0.0, 5e-324], [1e-323, 1e-323]])),
                         RPTSet(np.array([[1e-323, 5e-324],
                                          [2e-323, 1e-323]]))),
    # 2 s overflows to inf, and so do the window ends
    "2 s overflows": (RPTSet(np.array([[0.0, 1e308], [-1.7e308, 1.0]])),
                      RPTSet(np.array([[1.5e308, 1e308],
                                       [1.7e308, 1.7e308]]))),
    "2 s overflows, PT": (PTSet(np.array([[0.0, 1.7e308, -1.7e308]]), ()),
                          PTSet(np.array([[1.0e308, 1.6e308, -1.7e308],
                                          [5.0, 1.0, 0.0]]), ())),
    # essentials: infinite slack, every point in reach
    "essentials": (RPTSet(np.array([[0.0, INF], [40.0, 1.0]])),
                   RPTSet(np.array([[100.0, INF], [41.0, 3.0],
                                    [90.0, INF]]))),
    "empty side": (RPTSet(np.array([[0.0, 2.0], [5.0, INF]])),
                   RPTSet(np.empty((0, 2)))),
    "both empty": (PDSet(np.empty((0, 2))), PDSet(np.empty((0, 2)))),
}


class TestPrunedMatching:
    """The pruned diagonal-slack matching against the full dense matrix."""

    @given(grid_pts(), grid_pts())
    def test_instance_matches_dense_prune(self, pa, pb):
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            assert_same_instance(A, B)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_instance_edge_cases(self, case):
        A, B = EDGE_CASES[case]
        assert_same_instance(A, B)
        assert_same_instance(B, A)

    @pytest.mark.parametrize("kind", range(3))
    def test_instance_null_decoded(self, kind):
        extra = NULL_DECODED[kind]
        K = random_morse_set(GenParams(peak_count_range=(3, 3), seed=kind))
        other = TRANSFORMS[kind](K)
        empty = (PTSet((), ()), RPTSet(()), PDSet(()))[kind]
        for A, B in ((extra, extra), (extra, other), (other, extra),
                     (extra, empty)):
            assert_same_instance(A, B)

    @given(grid_pts(), grid_pts())
    def test_matches_dense_oracle(self, pa, pb):
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            for p in GRID_P:
                got = outcome(wasserstein, A, B, p, DIAGONAL)
                want = outcome(dense_wasserstein, A, B, p)
                if isinstance(want, float):
                    assert got == pytest.approx(want, rel=1e-9, abs=0.0)
                else:
                    assert got is want

    @staticmethod
    def spectrum_pts(peaks: int = 200, seed: int = 3) -> tuple[PTSet, PTSet]:
        """Two jittered copies of a 24-bump template with a ripple, each
        with exactly ``peaks`` maxima."""
        rng = np.random.default_rng(seed)
        centres, widths = rng.uniform(50, 950, 24), rng.uniform(5, 25, 24)
        heights = rng.uniform(2, 20, 24)
        out = []
        for _ in range(2):
            c = centres + rng.normal(0, 3, 24)
            h = heights * rng.uniform(0.8, 1.2, 24)
            x = np.linspace(0, 1000, 2 * peaks + 1)
            y = (h * np.exp(-0.5 * ((x[:, None] - c) / widths) ** 2)).sum(1)
            y += rng.uniform(0.05, 1.0, x.size)
            for k in range(0, x.size, 2):  # minima below both neighbours
                y[k] = y[max(k - 1, 0):k + 2].min() - rng.uniform(0.05, 1.0)
            ms = extract_critical_points(list(zip(x.tolist(), y.tolist())))[0]
            assert len(ms.maxima) == peaks
            out.append(persistence_transformation(ms))
        return tuple(out)

    def test_exact_and_pruned_at_benchmark_size(self, monkeypatch):
        pa, pb = self.spectrum_pts()
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            for p in (1, 2, INF):
                assert wasserstein(A, B, p, DIAGONAL) == \
                    pytest.approx(dense_wasserstein(A, B, p), rel=1e-9)
        cells = []

        def spy(cost, objective="sum"):
            cells.append(np.asarray(cost).size)
            return solve_assignment(cost, objective)

        monkeypatch.setattr(metrics, "solve_assignment", spy)
        wasserstein(pa, pb, 2, DIAGONAL)
        n = len(pa.features) + len(pb.features)
        assert cells and sum(cells) < n * n / 4

    @pytest.mark.parametrize("p", [2, INF])
    def test_memory_below_one_block(self, p):
        # candidate edges replace the n×m sup block: the peak of one call
        # stays below that block alone
        pa, pb = self.spectrum_pts(800)
        block = 8 * len(pa.features) * len(pb.features)
        wasserstein(pa, pb, p, DIAGONAL)
        tracemalloc.start()
        try:
            wasserstein(pa, pb, p, DIAGONAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block, (peak, block)


class TestTriangleInequality:
    """Diagonal-slack W_p obeys the triangle inequality.  ``pad-origin`` is
    left out: it pads each pair to its own length, which does not compose."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_diagonal(self, k, l, m):
        K, L = (random_morse_set(GenParams(peak_count_range=(1, 8), seed=s))
                for s in (k, l))
        M = perturb(K, 1.0, m)
        for make in TRANSFORMS:
            sets = [make(S) for S in (K, L, M)]
            for p in (1, 2, 1000, INF):
                d = {}
                for a, b in itertools.combinations(range(3), 2):
                    d[a, b] = d[b, a] = wasserstein(sets[a], sets[b], p,
                                                    DIAGONAL)
                for a, b, c in itertools.permutations(range(3)):
                    assert d[a, c] <= (d[a, b] + d[b, c]) * (1 + 1e-9)
