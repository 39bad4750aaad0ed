import functools
import importlib.util
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csgraph

import morsepeak
from morsepeak import (DIAGONAL, PAD_ORIGIN, ConstantSegmentError, GenParams,
                       KindMismatchError, MorseSet, PDSet, PTFeature, PTSet,
                       RPTFeature, RPTSet, SampledSeries,
                       UnmatchableInfinityError, extract_critical_points,
                       join_pd, join_pt, join_rpt, morse_distance,
                       perturb, persistence_transformation, random_morse_set,
                       reduced_persistence_transformation, run_trials,
                       solve_assignment, sup_dist, to_persistence_diagram,
                       wasserstein)
from morsepeak import metrics
from morsepeak.metrics import (_candidates, _dense, _index, _points, _pruned,
                               _scaled, _sup, InfeasibleError)
from oracles import (brute_force_assignment, brute_force_wasserstein,
                     connected_parts, dense_bottleneck, dense_pruned_matrix,
                     dense_scaled, dense_wasserstein, exhaustive_matching,
                     morse_distance_direct, p_norm, per_entry_cost_matrix,
                     points_and_slacks, zero_padded)

INF, NAN = math.inf, math.nan


def shifted(ms: MorseSet, dx: float, dy: float) -> MorseSet:
    return MorseSet.build([(p.x + dx, p.y + dy) for p in ms.maxima],
                          [(p.x + dx, p.y + dy) for p in ms.minima],
                          (ms.domain[0] + dx, ms.domain[1] + dx))


class TestSupDist:
    def test_nan_raises(self):
        # _sup skips a NaN difference, as it skips equal infinities
        for u, v in (((NAN,), (INF,)), ((1.0, NAN), (1.0, 2.0)),
                     ((0.0,), (NAN,))):
            with pytest.raises(ValueError, match="NaN"):
                sup_dist(u, v)

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

    # the rank matching pads each kind with the origin, and padding more
    # origins adds only zero costs, so any triple composes, whatever its
    # cardinalities
    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1),
           st.integers(0, 2**32 - 1))
    def test_metric_axioms(self, k, l, m):
        K, L = (random_morse_set(GenParams(peak_count_range=(1, 8), seed=s))
                for s in (k, l))
        sets = (K, L, perturb(K, 1.0, m))
        for p in (1, 2, 1000, INF):
            d = {}
            for a, b in itertools.product(range(3), repeat=2):
                d[a, b] = morse_distance(sets[a], sets[b], p)
            for a, b in itertools.product(range(3), repeat=2):
                assert d[a, a] == 0.0 and d[a, b] == d[b, a]
            for a, b, c in itertools.permutations(range(3)):
                assert d[a, c] <= (d[a, b] + d[b, c]) * (1 + 1e-9)

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
        (pa, sa), (pb, sb) = points_and_slacks(A), points_and_slacks(B)
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
        (pa, sa), (pb, sb) = points_and_slacks(A), points_and_slacks(B)
        want = per_entry_cost_matrix(pa, sa, pb, sb, slack)
        if slack == PAD_ORIGIN:  # as wasserstein pads them
            qa, qb = (np.array(q).T for q in zero_padded(pa, pb))
            got = _sup(qa[:, :, None], qb[:, None])
        else:  # the sup_dist block's entries at the candidates
            n = len(pa)
            i, j, got, *_ = _candidates(_index(A), _index(B))
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
                    pa, pb = A.array, B.array
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

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective 'median'"):
            solve_assignment([[1.0, 2.0], [2.0, 1.0]], objective="median")

    def test_infinite_entries_forbidden(self):
        M = [[INF, 1.0], [2.0, INF]]
        assert solve_assignment(M).cost == 3.0
        with pytest.raises(InfeasibleError):
            solve_assignment([[INF, INF], [1.0, 1.0]])
        with pytest.raises(InfeasibleError):
            solve_assignment([[INF, INF], [1.0, 1.0]], objective="bottleneck")

    def test_empty(self):
        for objective in ("sum", "bottleneck"):
            r = solve_assignment(np.zeros((0, 0)), objective)
            assert r.pairs == () and r.cost == 0.0
        # checked as on any other matrix
        with pytest.raises(ValueError, match="unknown objective 'median'"):
            solve_assignment(np.zeros((0, 0)), objective="median")

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


SQUARE_COSTS = st.sampled_from(range(7)).flatmap(lambda n: st.lists(
    st.one_of(st.integers(0, 4).map(float), st.floats(0, 10), st.just(INF)),
    min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v, dtype=float).reshape(n, n)))


@given(SQUARE_COSTS)
def test_oracle_matchings_match_brute_force(M):
    # the oracle's own bottleneck search, which every p = inf check of the
    # pruned and sparse paths compares the library with, and its subset
    # dynamic program, against every permutation
    want = brute_force_assignment(M.tolist(), "bottleneck")
    assert exhaustive_matching(M.tolist(), INF) == want
    assert exhaustive_matching(M.tolist(), 1.0) == pytest.approx(
        brute_force_assignment(M.tolist()), rel=1e-12)
    if math.isinf(want):
        with pytest.raises(InfeasibleError):
            dense_bottleneck(M)
    else:
        assert dense_bottleneck(M) == want


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
            for make in TRANSFORMS:
                A, B = make(K), make(L)
                pa, sa = points_and_slacks(A)
                pb, sb = points_and_slacks(B)
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
        # a negative slack (a negative RPT persistence, a PT or PD birth
        # below its death) is refused under pad-origin too, which used to
        # match (1, -2) to the origin at 2 and (3, 1) to (50, 2) at 47
        ok = RPTSet((RPTFeature(50.0, 2.0),))
        negative = RPTSet((RPTFeature(1.0, -2.0), RPTFeature(3.0, 1.0)))
        pairs = [(negative, ok), (RPTSet((RPTFeature(1.0, -INF),)), ok),
                 (PTSet((PTFeature(1.0, 1.0, 3.0),), ()),
                  PTSet((PTFeature(5.0, 2.0, 1.0),), ())),
                 (PDSet(np.array([[1.0, 3.0]])), PDSet(np.array([[2.0, 1.0]])))]
        for bad, good in pairs:
            for slack in (DIAGONAL, PAD_ORIGIN):
                for p in (1, 2, INF):
                    for X, Y in ((bad, good), (good, bad)):
                        with pytest.raises(ValueError,
                                           match="^slack must not be negative$"):
                            wasserstein(X, Y, p, slack)


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


def lone_edges(raw, n: int):
    """The lone kept edges (i, j) of the dense prune oracle's matrix ``raw``,
    whose first n rows are points of the first side: finite cells of its
    n×m edge block alone in their row and their column of that block, by
    ascending i."""
    edges = np.isfinite(raw[:n, :len(raw) - n])
    i, j = np.nonzero(edges)
    lone = (edges.sum(axis=1)[i] == 1) & (edges.sum(axis=0)[j] == 1)
    return i[lone], j[lone]


def assert_same_instance(A, B):
    """The library's pruned instance for A and B equals the dense prune
    oracle's exactly, at every p of GRID_P, once the oracle's lone kept
    edges are settled: each lone edge (i, j) with its ends' copies, rows i
    and n + j and columns j and m + i of the oracle's matrix, is whole
    connected parts of it; the settled costs are the oracle's dropped
    slacks, in order, then the first and then the second matched cost of
    each lone edge, in some order of the edges, each pair an optimal
    matching of its edge's part; and the rest of the oracle's matrix is the
    instance: its finite cells, each once and ascending, with their values.
    The scaled values scatter into the oracle's scaled rest."""
    (pa, sa), (pb, sb) = points_and_slacks(A), points_and_slacks(B)
    P, s = _points(A, B)
    found = _candidates(_index(A), _index(B))
    for p in GRID_P:
        N, cells, vals, settled = _pruned(found, s, len(pa), p)
        want, want_dropped = dense_pruned_matrix(pa, sa, pb, sb, p)
        # the oracle keeps rows per point: with the first side doubled it
        # keeps each of that side's rows twice and the second side's once
        n = len(dense_pruned_matrix(np.concatenate((pa, pa)), sa + sa, pb,
                                    sb, p)[0]) - len(want)
        m = len(want) - n
        i, j = lone_edges(want, n)
        rows, cols = np.concatenate((i, n + j)), np.concatenate((j, m + i))
        finite = np.flatnonzero(np.isfinite(want))
        for part_rows, part_cols in connected_parts(len(want), finite):
            inside = [*np.isin(part_rows, rows), *np.isin(part_cols, cols)]
            assert all(inside) or not any(inside)
        # the settled costs
        d, k = len(want_dropped), i.size
        assert len(settled) == d + 2 * k
        assert settled[:d] == want_dropped
        cost = max if math.isinf(p) else functools.partial(p_norm, p=p)
        pairs = list(zip(settled[d:d + k], settled[d + k:]))
        wrong = np.ones((k, k))  # 0 where pair a is an optimum of edge e
        for e in range(k):
            (c, si), (sj, zero) = want[np.ix_((i[e], n + j[e]),
                                              (j[e], m + i[e]))].tolist()
            best = min(cost((c, zero)), cost((si, sj)))
            for a, pair in enumerate(pairs):
                if pair in ((c, zero), (si, sj)) and \
                        cost(pair) == pytest.approx(best, rel=1e-12):
                    wrong[a, e] = 0.0
        assert not wrong[linear_sum_assignment(wrong)].any()
        # the rest, renumbered
        rest = np.delete(np.delete(want, rows, axis=0), cols, axis=1)
        assert np.array_equal(cells, np.flatnonzero(np.isfinite(rest)))
        assert np.array_equal(vals, rest.ravel()[cells])
        assert np.array_equal(_dense(N, cells, vals), rest)
        if not math.isinf(p):
            scaled = outcome(dense_scaled, rest, p)
            got = outcome(_scaled, N, cells, vals, p)
            if isinstance(scaled, type):
                assert got is scaled
            else:
                assert np.array_equal(_dense(N, cells, got), scaled)


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
        # on either path: the cells of each dense matrix and the edges of
        # each sparse graph solved, for every kind.  The prune settles the
        # whole PT instance at this size, its lone kept edges included, so
        # no PT matrix has a cell; RPT is solved in dense blocks alone, one
        # per few connected parts of what is left, while a PD part of 197
        # rows goes sparse
        n = len(pa.features) + len(pb.features)
        solved, graphs = [], []
        dense, graph = metrics._dense, metrics._graph
        monkeypatch.setattr(metrics, "_dense", lambda N, cells, vals: (
            solved.append(N * N), dense(N, cells, vals))[1])
        monkeypatch.setattr(metrics, "_graph", lambda N, cells, data: (
            graphs.append(cells.size), graph(N, cells, data))[1])
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            for p in (2, INF):
                solved.clear()
                graphs.clear()
                wasserstein(A, B, p, DIAGONAL)
                assert sum(solved + graphs) < n * n / 4, (A, p)
                assert max(solved, default=0) < metrics._SPARSE_ROWS ** 2, \
                    (A, p)
                assert bool(graphs) == isinstance(A, PDSet), (A, p)
                assert (sum(solved) == 0) == isinstance(A, PTSet), (A, p)

    @pytest.mark.parametrize("kind, p", [(0, 2), (0, INF), (1, 2), (1, INF)],
                             ids=["2", "inf", "rpt-2", "rpt-inf"])
    def test_memory_below_one_block(self, kind, p):
        # candidate edges replace the n×m sup block: the peak of one call
        # stays below that block alone; nearly every RPT point survives the
        # prune, and the solve of each connected part, in dense blocks of
        # fewer than _SPARSE_ROWS rows or sparse, keeps it below the block
        # too
        pa, pb = (kinds_of(q)[kind] for q in self.spectrum_pts(800))
        block = 8 * len(pa.features) * len(pb.features)
        wasserstein(pa, pb, p, DIAGONAL)
        tracemalloc.start()
        try:
            wasserstein(pa, pb, p, DIAGONAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block, (peak, block)


UNMATCHABLE = ("no finite-cost matching: an infinite coordinate has no "
               "partner, or a cost exceeds the largest double")


@contextmanager
def sparse_everywhere():
    """Send every nonempty pruned instance to the sparse solve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_SPARSE_ROWS", 1)
        yield


def assert_sparse_matches_dense(A, B):
    """Diagonal-slack W_p of A and B through the sparse solve equals the
    unpruned dense oracle's at every p of GRID_P, or both find no finite
    matching, the library with its own message."""
    for p in GRID_P:
        want = outcome(dense_wasserstein, A, B, p)
        with sparse_everywhere():
            if isinstance(want, float):
                assert wasserstein(A, B, p, DIAGONAL) == \
                    pytest.approx(want, rel=1e-9, abs=0.0)
            else:
                assert want is UnmatchableInfinityError
                with pytest.raises(UnmatchableInfinityError,
                                   match=re.escape(UNMATCHABLE)):
                    wasserstein(A, B, p, DIAGONAL)


class TestSparseSolve:
    """The sparse solve against the dense oracle on instances of every size,
    though the library sends only large ones to it."""

    @given(grid_pts(), grid_pts())
    def test_matches_dense_oracle(self, pa, pb):
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            assert_sparse_matches_dense(A, B)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases(self, case):
        A, B = EDGE_CASES[case]
        assert_sparse_matches_dense(A, B)
        assert_sparse_matches_dense(B, A)

    def test_null_decoded(self):
        for kind, extra in enumerate(NULL_DECODED):
            K = random_morse_set(GenParams(peak_count_range=(3, 3), seed=kind))
            other = TRANSFORMS[kind](K)
            for A, B in ((extra, extra), (extra, other), (other, extra)):
                assert_sparse_matches_dense(A, B)

    def test_solvers_see_canonical_graphs(self, monkeypatch):
        # a pair in reach of both ends lies in both windows but must be kept
        # once: a duplicate cell makes the sparse solvers go wrong or abort
        calls = []
        for name in ("maximum_bipartite_matching",
                     "min_weight_full_bipartite_matching"):
            def spy(graph, *args, _real=getattr(csgraph, name), _name=name,
                    **kwargs):
                rows = np.arange(graph.shape[0]).repeat(np.diff(graph.indptr))
                flat = rows * graph.shape[1] + graph.indices
                assert (np.diff(flat) > 0).all(), _name  # sorted, each once
                calls.append(_name)
                return _real(graph, *args, **kwargs)
            monkeypatch.setattr(csgraph, name, spy)
        pa, pb = TestPrunedMatching.spectrum_pts()
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            P, s = _points(A, B)
            i, j, *_ = _candidates(_index(A), _index(B))
            assert np.unique(i * len(P) + j).size == i.size
            for p in (1, 2, INF):
                want = wasserstein(A, B, p, DIAGONAL)
                with sparse_everywhere():
                    assert wasserstein(A, B, p, DIAGONAL) == \
                        pytest.approx(want, rel=1e-9)
        assert set(calls) == {"maximum_bipartite_matching",
                              "min_weight_full_bipartite_matching"}

    @pytest.mark.parametrize("p", [1, 2, INF])
    def test_zero_costs_are_silent(self, p):
        # identical diagrams and zero-slack points give 0-cost edges and
        # slacks, which the sparse solver would drop with a warning
        pa, _ = TestPrunedMatching.spectrum_pts()
        flat = RPTSet(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 2.0]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for A in (*kinds_of(pa), flat):
                assert wasserstein(A, A, p, DIAGONAL) == 0.0
                with sparse_everywhere():
                    assert wasserstein(A, A, p, DIAGONAL) == 0.0
        assert caught == []

    # the import, extract and every transform need numpy only; a dense
    # solve loads scipy's assignment extension alone, and its value is
    # pinned bit for bit; the 200-peak RPT splits into dense blocks, and
    # only a connected part of at least _SPARSE_ROWS rows imports a scipy
    # package
    SCIPY_ON_FIRST_SOLVE = """
import contextlib, io, sys
import numpy as np
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import morsepeak
from morsepeak import cli, metrics
assert not scipy(), scipy()[:3]
csv, out, rpt, chain = sys.argv[1:]
for argv in (["extract", csv],
             ["transform", "--kind", "pt", "--svg", out + ".svg", csv],
             ["transform", "--kind", "rpt", "--format", "csv", csv],
             ["transform", "--kind", "pd", csv]):
    assert cli.main(argv + ["-o", out]) == 0
    assert not scipy(), (argv, scipy()[:3])
one = out + ".csv"  # the Morse-set distance takes one segment per input
with open(one, "w") as f:
    f.write("0,0\\n1,3\\n2,1\\n3,5\\n4,0\\n")
with contextlib.redirect_stdout(io.StringIO()) as d:
    assert cli.main(["distance", one, one, "--kind", "morse"]) == 0
assert d.getvalue() == "0\\n" and not scipy(), ("distance", scipy()[:3])
K = morsepeak.random_morse_set(morsepeak.GenParams(seed=0))
A, B = (morsepeak.persistence_transformation(S)
        for S in (K, morsepeak.perturb(K, 0.1, 1)))
print(morsepeak.wasserstein(A, B).hex(), "scipy.optimize" in sys.modules)
for path in (rpt, chain):  # 200 peaks a side, then a part of 110 rows
    with np.load(path) as pair:
        morsepeak.wasserstein(*map(morsepeak.RPTSet, (pair["a"], pair["b"])))
    print("scipy.sparse.csgraph" in sys.modules,
          "scipy.optimize" in sys.modules)
import scipy.optimize
print(metrics._lsap() is scipy.optimize.linear_sum_assignment)
"""

    def test_import_leaves_sparse_graphs_unloaded(self, tmp_path):
        package_root = str(Path(morsepeak.__file__).resolve().parent.parent)
        golden = Path(__file__).parent / "golden" / "two_segments.csv"
        rpt, long = tmp_path / "rpt.npz", tmp_path / "chain.npz"
        pa, pb = TestPrunedMatching.spectrum_pts()
        np.savez(rpt, a=kinds_of(pa)[1].array, b=kinds_of(pb)[1].array)
        a, b = chain(metrics._SPARSE_ROWS)
        np.savez(long, a=a.array, b=b.array)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCIPY_ON_FIRST_SOLVE, str(golden),
             str(tmp_path / "out"), str(rpt), str(long)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": package_root})
        assert proc.stdout == ("0x1.050b4190cb566p-4 False\n"
                               "False False\nTrue False\nTrue\n"), proc.stderr

    # one diagram_matching op of the benchmark (PT W2, PT W-inf and RPT W2
    # between two 200-peak signals of its pool), over every pair of the
    # pool, and the TINY pair at p = 60, whose least cost underflows, so
    # that _scaled scales by a dense bottleneck search of the 6-row
    # instance: no scipy.sparse module is loaded, and the values are pinned
    BENCHMARK_OP = """
import math, sys
import numpy as np
from perfbench.inputs import spectrum_pool
from morsepeak import (RPTSet, extract_critical_points, metrics,
                       persistence_transformation,
                       reduced_persistence_transformation, wasserstein)
sets = [extract_critical_points(s)[0] for s in spectrum_pool(301, 10, 200, 24)]
pt = [persistence_transformation(s) for s in sets]
rpt = [reduced_persistence_transformation(s) for s in sets]
ops = [(wasserstein(pt[i], pt[j], 2.0), wasserstein(pt[i], pt[j], math.inf),
        wasserstein(rpt[i], rpt[j], 2.0))
       for i in range(10) for j in range(i + 1, 10)]
print(len(ops), ops[0][0].hex(), ops[0][2].hex())
A, B = (RPTSet(np.array(x)) for x in eval(sys.argv[1]))
P, s = metrics._points(A, B)
found = metrics._candidates(metrics._index(A), metrics._index(B))
N, cells, vals, _ = metrics._pruned(found, s, 3, 60.0)
metrics._scaled(N, cells, vals, 60.0)
print(N, wasserstein(A, B, 60.0).hex())
print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
"""

    def test_benchmark_op_leaves_sparse_unloaded(self):
        package_root = Path(morsepeak.__file__).resolve().parent.parent
        repo_root = Path(__file__).resolve().parent.parent  # for perfbench
        tiny = repr([TestScaleSafety.TINY_A.array.tolist(),
                     TestScaleSafety.TINY_B.array.tolist()])
        proc = subprocess.run(
            [sys.executable, "-c", self.BENCHMARK_OP, tiny],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                (str(package_root), str(repo_root)))})
        assert proc.stdout.splitlines() == [
            "45 0x1.e453e11fa1aa1p+3 0x1.37c7aa2f3a88ap+4",
            "6 0x1.0f8df566626dap-20", "[]"], proc.stderr


def chain(rows: int, x0: float = 0.0) -> tuple[RPTSet, RPTSet]:
    """Two RPT sets whose pruned instance is one part of ``rows`` rows: the
    points alternate between the sides one apart along x from x0, each of
    slack 1, so each meets only its neighbours, at cost 1."""
    a, b = (RPTSet(np.array([[x0 + x, 1.0] for x in range(k, rows, 2)]))
            for k in (0, 1))
    return a, b


def joined(*sets: RPTSet) -> RPTSet:
    return RPTSet(np.concatenate([s.array for s in sets]))


# split sizes that send the parts of grid_pts instances down every route
SPLIT_ROWS = (3, 5, 8)


def assert_split_exact(A, B):
    """At every p of GRID_P and every split size of SPLIT_ROWS, the split of
    the pruned instance of A and B is exact: its parts are the connected
    parts of the breadth-first oracle; each instance it returns is whole
    parts, taken in order of their least row, with fewer rows than the
    split size or one part alone; those instances mapped back are exactly
    the pruned cells and values; and the distance through it equals the
    dense oracle's, or both find no finite matching."""
    P, s = _points(A, B)
    n = len(A.array)
    found = _candidates(_index(A), _index(B))
    for p in GRID_P:
        N, cells, vals, _ = _pruned(found, s, n, p)
        if not N:
            continue
        rows_of = cells // N
        parts = connected_parts(N, cells)
        least = np.empty(2 * N, dtype=int)
        for rows, cols in parts:
            nodes = rows + [N + c for c in cols]
            least[nodes] = min(nodes)
        assert np.array_equal(metrics._parts(N, rows_of, cells % N), least)
        want = outcome(dense_wasserstein, A, B, p)
        for split in SPLIT_ROWS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(metrics, "_SPARSE_ROWS", split)
                got = outcome(wasserstein, A, B, p, DIAGONAL)
                if any(len(r) != len(c) for r, c in parts):
                    with pytest.raises(InfeasibleError):
                        metrics._split(N, cells, vals)
                    assert got is want is UnmatchableInfinityError
                    continue
                blocks = metrics._split(N, cells, vals)
            if isinstance(want, float):
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
            else:
                assert got is want
            solved = iter(parts)
            mapped, kept = [], []
            for k, local, v in blocks:
                rows, cols, taken = [], [], 0
                while len(rows) < k:
                    r, c = next(solved)
                    rows, cols, taken = rows + r, cols + c, taken + 1
                assert len(rows) == k and (k < split or taken == 1)
                assert (np.diff(local) > 0).all()
                R, C = np.sort(rows), np.sort(cols)
                mapped.append(R[local // k] * N + C[local % k])
                kept.append(v)
            assert next(solved, None) is None
            back = np.concatenate(mapped)
            order = back.argsort()
            assert np.array_equal(back[order], cells)
            assert np.array_equal(np.concatenate(kept)[order], vals)


class TestSplit:
    """A pruned instance of at least ``_SPARSE_ROWS`` rows is solved one
    connected part at a time: smaller parts packed into dense blocks,
    larger ones sparse."""

    @given(grid_pts(), grid_pts())
    def test_parts_match_the_pruned_instance(self, pa, pb):
        for A, B in zip(kinds_of(pa), kinds_of(pb)):
            assert_split_exact(A, B)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_cases(self, case):
        A, B = EDGE_CASES[case]
        assert_split_exact(A, B)
        assert_split_exact(B, A)

    def test_lone_edge_at_a_prune_tie(self):
        # c = 3 = s_i + s_j: each edge is kept at p = 1 only, and both
        # matchings of its part cost 3; the prune settles both lone edges,
        # whatever the instance's size, so nothing is left to split
        A, B = SETTLE_CASES["prune tie"]
        P, s = _points(A, B)
        found = _candidates(_index(A), _index(B))
        N, cells, vals, settled = _pruned(found, s, 2, 1.0)
        assert (N, cells.size, vals.size) == (0, 0, 0)
        assert sorted(settled) in ([0.0, 0.0, 3.0, 3.0], [0.0, 1.0, 2.0, 3.0],
                                   [1.0, 1.0, 2.0, 2.0])
        assert sum(settled) == 6.0
        assert wasserstein(A, B, 1, DIAGONAL) == 6.0 == \
            dense_wasserstein(A, B, 1)

    @pytest.mark.parametrize("split", [3, metrics._SPARSE_ROWS])
    def test_essential_without_partner_next_to_solvable_parts(self, split):
        # a part of 120 rows, one of 6, and an essential point of A with
        # no kept edge: a row of its own and no column
        (a, b), (c, d) = chain(120, 10.0), chain(6, 500.0)
        A = joined(RPTSet(np.array([[0.0, INF]])), a, c)
        B = joined(b, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_SPARSE_ROWS", split)
            for p in (1, 2, INF):
                for X, Y in ((A, B), (B, A)):
                    with pytest.raises(UnmatchableInfinityError,
                                       match=re.escape(UNMATCHABLE)):
                        wasserstein(X, Y, p, DIAGONAL)

    @pytest.mark.parametrize("rows", [metrics._SPARSE_ROWS - 1,
                                      metrics._SPARSE_ROWS])
    def test_a_part_of_split_rows_goes_sparse(self, monkeypatch, rows):
        # one chain of the given rows and one of three rows far from it
        (a, b), (c, d) = chain(rows), chain(3, 1000.0)
        A, B = joined(a, c), joined(b, d)
        seen = []
        for name in ("_matched", "_bottleneck"):
            def spy(N, cells, vals, *rest, _real=getattr(metrics, name)):
                seen.append((N, metrics._sparse(N, cells)))
                return _real(N, cells, vals, *rest)
            monkeypatch.setattr(metrics, name, spy)
        for p in (2, INF):
            seen.clear()
            assert wasserstein(A, B, p, DIAGONAL) == \
                pytest.approx(dense_wasserstein(A, B, p), rel=1e-9)
            assert sorted(seen) == sorted(
                [(3, False), (rows, rows >= metrics._SPARSE_ROWS)]), p

    def test_sparse_everywhere_reaches_both_solvers(self, monkeypatch):
        calls = []
        for name in ("maximum_bipartite_matching",
                     "min_weight_full_bipartite_matching"):
            real = getattr(csgraph, name)
            monkeypatch.setattr(csgraph, name, lambda *a, _real=real,
                                _name=name, **k: (calls.append(_name),
                                                  _real(*a, **k))[1])
        pa, pb = TestPrunedMatching.spectrum_pts()
        A, B = kinds_of(pa)[1], kinds_of(pb)[1]
        # by default the 200-peak RPT splits into dense blocks alone
        want = [wasserstein(A, B, p, DIAGONAL) for p in (2, INF)]
        assert calls == []
        with sparse_everywhere():
            assert [wasserstein(A, B, p, DIAGONAL) for p in (2, INF)] == \
                pytest.approx(want, rel=1e-9)
        assert set(calls) == {"maximum_bipartite_matching",
                              "min_weight_full_bipartite_matching"}


    def test_part_without_perfect_matching_is_infeasible(self, monkeypatch):
        # essential points meet only each other, and at an infinite cost
        # where their x are more than the largest double apart: 109 of A's
        # reach only B's point at 0, which A's point at 0 joins to 109 of
        # B's.  That part has 110 rows and 110 columns, and so has its
        # mirror of the copies, but neither has a perfect matching: both go
        # to the sparse solve, which finds no full matching
        far = [[-1.7e308, INF]] * 109
        A = RPTSet(np.array(far + [[0.0, INF]]))
        B = RPTSet(np.array([[0.0, INF]] + [[1.7e308, INF]] * 109))
        _, s = _points(A, B)
        N, cells, vals, dropped = _pruned(_candidates(_index(A), _index(B)),
                                          s, 110, 2.0)
        blocks = metrics._split(N, cells, vals)
        assert (N, dropped) == (220, [])
        assert [k for k, *_ in blocks] == [110, 110]
        for block in blocks:
            assert metrics._sparse(*block[:2])
            with pytest.raises(InfeasibleError,
                               match="no full matching exists"):
                metrics._matched(*block, 2.0)
        raised = []
        real = csgraph.min_weight_full_bipartite_matching

        def spy(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except ValueError:
                raised.append(True)
                raise
        monkeypatch.setattr(csgraph, "min_weight_full_bipartite_matching", spy)
        for p in (1, 2):
            for X, Y in ((A, B), (B, A)):
                raised.clear()
                with pytest.raises(UnmatchableInfinityError,
                                   match=re.escape(UNMATCHABLE)):
                    wasserstein(X, Y, p, DIAGONAL)
                assert raised == [True]


SETTLE_CASES = {
    # the prune keeps the edge at p = 2, relative to t = 7.5, and the settle
    # sends both ends to the diagonal, relative to the largest, c: the two
    # matchings' costs differ by rounding only; at p = 1 the edge
    "both slacks finite": (RPTSet(np.array([[0.0, 7.5]])),
                           RPTSet(np.array([[7.730823048033114, 1.875]]))),
    # see TestSplit.test_lone_edge_at_a_prune_tie
    "prune tie": (RPTSet(np.array([[0.0, 1.0], [100.0, 1.0]])),
                  RPTSet(np.array([[3.0, 2.0], [103.0, 2.0]]))),
    # the essential peaks' pair: inf / inf in the comparison
    "both slacks infinite": (RPTSet(np.array([[0.0, INF]])),
                             RPTSet(np.array([[1.0, INF]]))),
    "both slacks infinite, PT": (PTSet(np.array([[0.0, 5.0, -INF]]), ()),
                                 PTSet(np.array([[1.0, 5.5, -INF]]), ())),
    # three lone edges, the essentials' one of them, and a dropped point
    "every edge lone": (RPTSet(np.array([[0.0, 1.0], [10.0, 2.0],
                                         [20.0, INF]])),
                        RPTSet(np.array([[0.5, 1.0], [10.5, 2.5],
                                         [21.0, INF], [40.0, 0.5]]))),
}


class TestSettle:
    """The prune settles each lone kept edge, one whose ends have no other
    kept edge, in any instance: the edge, or both ends to the diagonal."""

    @pytest.mark.parametrize("case", SETTLE_CASES)
    def test_matches_dense_oracle(self, case):
        A, B = SETTLE_CASES[case]
        for X, Y in ((A, B), (B, A)):
            _, s = _points(X, Y)
            found = _candidates(_index(X), _index(Y))
            for p in (1, 2, 3, INF):
                # nothing is left to solve
                assert _pruned(found, s, len(X.array), p)[0] == 0
                assert wasserstein(X, Y, p, DIAGONAL) == pytest.approx(
                    dense_wasserstein(X, Y, p), rel=1e-12, abs=0.0)

    def test_both_sides_of_the_comparison(self):
        A, B = SETTLE_CASES["both slacks finite"]
        c = B.array[0, 0]
        for X, Y in ((A, B), (B, A)):
            _, s = _points(X, Y)
            found = _candidates(_index(X), _index(Y))
            assert _pruned(found, s, 1, 1.0)[3] == [c, 0.0]
            assert sorted(_pruned(found, s, 1, 2.0)[3]) == [1.875, 7.5]

    @pytest.mark.parametrize("slacks", [(INF, 0.5), (0.5, INF)])
    def test_an_infinite_slack_forces_the_edge(self, slacks):
        # an edge of finite cost joins points of matching infinities, so of
        # infinite slack both, or neither: the candidate edge is given
        # here, points (0, 0) and (1, 0) at cost 1
        s = np.array(slacks)
        found = (np.array([0]), np.array([1]), np.array([1.0]),
                 np.array([INF]), np.array([0.5]))
        for p in (1, 2, 3, INF):
            instance = _pruned(found, s, 1, p)
            assert instance[0] == 0 and instance[3] == [1.0, 0.0]
            assert metrics._solve(*instance, p) == 1.0 == \
                brute_force_wasserstein([(0.0, 0.0)], [(1.0, 0.0)],
                                        [slacks[0]], [slacks[1]], p)

    def test_solve_leaves_the_settled_costs(self):
        # _blocks hands each pair one list for all its ps
        settled = [1.0]
        for p in (1, 2, INF):
            metrics._solve(2, np.array([0, 3]), np.array([1.0, 2.0]),
                           settled, p)
        assert settled == [1.0]


class TestIndex:
    """Each set keeps one read-only index, ``metrics._index``, from its
    first diagonal-slack distance, and reuses it with every partner."""

    @staticmethod
    def pool(kind: int, count: int = 10) -> list:
        return [TRANSFORMS[kind](random_morse_set(
            GenParams(peak_count_range=(5, 40), seed=seed)))
            for seed in range(count)]

    @pytest.mark.parametrize("kind", range(3))
    def test_pad_origin_builds_none(self, kind):
        A, B = self.pool(kind, 2)
        for p in (1, 2, INF):
            wasserstein(A, B, p, PAD_ORIGIN)
        assert "_index" not in A.__dict__ and "_index" not in B.__dict__
        wasserstein(A, B, 2, DIAGONAL)
        assert "_index" in A.__dict__ and "_index" in B.__dict__

    def test_stability_trials_build_none(self, monkeypatch):
        built = []
        real = metrics._index
        monkeypatch.setattr(metrics, "_index",
                            lambda X: (built.append(X), real(X))[1])
        run_trials(GenParams(seed=5), trials=10)
        assert built == []
        run_trials(GenParams(seed=5), trials=2, slack=DIAGONAL)
        assert built

    def test_nan_raises_on_every_call(self):
        ok = PTSet((PTFeature(1.0, 3.0, 1.0),), ())
        # -inf birth and -inf death: the slack is NaN
        bad = PTSet((PTFeature(1.0, -INF, -INF),), ())
        for _ in range(3):
            for A, B in ((bad, ok), (ok, bad)):
                with pytest.raises(ValueError, match="NaN"):
                    wasserstein(A, B, 2, DIAGONAL)
        assert bad.__dict__["_index"].nan and not ok.__dict__["_index"].nan

    @pytest.mark.parametrize("kind", range(3))
    def test_equality_and_hash_unchanged(self, kind):
        A, B = self.pool(kind, 2)
        fresh = type(A)(*A._values())
        before = (hash(A), repr(A))
        wasserstein(A, B, 2, DIAGONAL)
        index = A.__dict__["_index"]
        assert (hash(A), repr(A)) == before == (hash(fresh), repr(fresh))
        assert A == fresh and fresh == A and A != B
        assert "_index" not in fresh.__dict__
        assert not any(a.flags.writeable for a in index
                       if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("kind", range(3))
    def test_reuse_matches_a_fresh_copy(self, kind):
        X, *partners = self.pool(kind)
        wasserstein(X, partners[0], 2, DIAGONAL)
        index = X.__dict__["_index"]
        for Y in partners:
            for p in (1, 2, 3, INF):
                for reused, fresh in ((wasserstein(X, Y, p, DIAGONAL),
                                       wasserstein(type(X)(*X._values()), Y,
                                                   p, DIAGONAL)),
                                      (wasserstein(Y, X, p, DIAGONAL),
                                       wasserstein(Y, type(X)(*X._values()),
                                                   p, DIAGONAL))):
                    assert reused.hex() == fresh.hex(), (p, reused, fresh)
        assert X.__dict__["_index"] is index


class TestSolverLoader:
    """``metrics._lsap`` binds scipy's ``linear_sum_assignment`` from its
    extension module alone, or by the public import when that search
    misses; every dense solve goes through it, and both give the same."""

    @staticmethod
    @contextmanager
    def public_import():
        """The loader with its extension search made to miss, so that it
        binds ``scipy.optimize.linear_sum_assignment``, here wrapped to
        count the solves that reach it."""
        import scipy.optimize
        calls = []

        def counted(*args, _real=scipy.optimize.linear_sum_assignment):
            calls.append(args)
            return _real(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "EXTENSION_SUFFIXES", [])
            mp.setattr(scipy.optimize, "linear_sum_assignment", counted)
            metrics._lsap.cache_clear()
            try:
                yield calls
            finally:
                metrics._lsap.cache_clear()

    def test_is_the_public_function(self):
        import scipy.optimize  # as the oracles import it
        metrics._lsap.cache_clear()
        assert metrics._lsap() is scipy.optimize.linear_sum_assignment

    def test_public_import_gives_the_same_distances(self):
        sets = [TestPrunedMatching.spectrum_pts(),
                TestPrunedMatching.spectrum_pts(40, 5)]

        def distances():
            return [wasserstein(A, B, p, slack).hex()
                    for pa, pb in sets
                    for A, B in zip(kinds_of(pa), kinds_of(pb))
                    for slack in (DIAGONAL, PAD_ORIGIN) for p in (1, 2, INF)]
        metrics._lsap.cache_clear()
        want = distances()
        with self.public_import() as calls:
            assert distances() == want
        assert calls

    def test_public_import_gives_the_same_assignments(self):
        rng = np.random.default_rng(24)
        mats = []
        for k in range(400):
            n = int(rng.integers(0, 7))
            # integer costs tie often, uniform ones almost never
            M = (rng.integers(0, 5, (n, n)).astype(float) if k % 2
                 else rng.uniform(0, 10, (n, n)))
            M[rng.uniform(size=(n, n)) < 0.25] = INF
            mats.append(M)

        def solved():
            out = []
            for M in mats:
                for objective in ("sum", "bottleneck"):
                    try:
                        r = solve_assignment(M, objective)
                    except InfeasibleError:
                        out.append(InfeasibleError)
                    else:
                        out.append((r.pairs, r.cost.hex()))
            return out
        metrics._lsap.cache_clear()
        want = solved()
        with self.public_import() as calls:
            assert solved() == want
        assert calls and InfeasibleError in want


class TestInstanceShape:
    """Every instance a solve receives is one list of cells: the flat
    indices of its finite entries in the N×N matrix, integers ascending,
    one per value."""

    @staticmethod
    def spied(monkeypatch) -> list:
        """The (N, cells, vals) of every call of ``_matched`` and
        ``_bottleneck`` from now on."""
        seen = []
        for name in ("_matched", "_bottleneck"):
            def spy(N, cells, vals, *rest, _real=getattr(metrics, name)):
                seen.append((N, cells, vals))
                return _real(N, cells, vals, *rest)
            monkeypatch.setattr(metrics, name, spy)
        return seen

    @staticmethod
    def solve(case: str) -> None:
        # the p = 60 costs of the TINY pair underflow, so the scaling also
        # runs the bottleneck search on the instance
        A, B = TestScaleSafety.TINY_A, TestScaleSafety.TINY_B
        if case == "solve_assignment":
            for M in (np.zeros((0, 0)), [[3.0, INF], [1.0, 2.0]]):
                solve_assignment(M, "bottleneck")
        elif case == "N = 0":
            A = B = PDSet(np.empty((0, 2)))
            for p in (2, INF):
                wasserstein(A, B, p, DIAGONAL)
                wasserstein(A, B, p, PAD_ORIGIN)
        else:
            slack = PAD_ORIGIN if case == "pad-origin" else DIAGONAL
            with pytest.MonkeyPatch.context() as mp:
                if case == "diagonal sparse":
                    mp.setattr(metrics, "_SPARSE_ROWS", 1)
                for p in (2, 60, INF):
                    wasserstein(A, B, p, slack)

    @pytest.mark.parametrize("case", ["pad-origin", "diagonal dense",
                                      "diagonal sparse", "N = 0",
                                      "solve_assignment"])
    def test_cells_ascend_one_per_value(self, monkeypatch, case):
        seen = self.spied(monkeypatch)
        self.solve(case)
        assert seen
        for N, cells, vals in seen:
            assert isinstance(cells, np.ndarray) and cells.dtype.kind == "i"
            assert cells.shape == vals.shape
            assert (np.diff(cells) > 0).all()
            assert not cells.size or 0 <= cells[0] <= cells[-1] < N * N
        assert any(N == 0 for N, *_ in seen) == (case in ("N = 0",
                                                          "solve_assignment"))

    def test_signatures(self):
        # an instance is built for one p; the scaling's fallback search needs
        # only the cells; the split needs no p, and each solve reads its path
        # off the instance; an empty search returns an empty index array
        assert not inspect.isgeneratorfunction(_pruned)
        assert list(inspect.signature(_pruned).parameters) == [
            "found", "s", "n", "p"]
        for f in (_scaled, metrics._matched):
            assert list(inspect.signature(f).parameters) == [
                "N", "cells", "vals", "p"]
        for f in (metrics._split, metrics._bottleneck):
            assert list(inspect.signature(f).parameters) == [
                "N", "cells", "vals"]
        cols, level = metrics._bottleneck(0, np.arange(0), np.empty(0))
        assert isinstance(cols, np.ndarray) and not cols.size and level == 0.0


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


@st.composite
def sampled_pairs(draw):
    """Values of f and g on one grid of n = 3-300 samples, and where the
    grid splits into two segments (None for one): a random walk and a
    perturbation of it, by noise of a drawn size, rounded to whole numbers
    or to 0.1 for some draws, which makes plateaus and equal heights."""
    n = draw(st.integers(3, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.standard_normal(n).cumsum()
    g = f + rng.uniform(-1.0, 1.0, n) * draw(
        st.sampled_from((1e-6, 0.01, 0.3, 2.0)))
    digits = draw(st.sampled_from((None, 0, 1)))
    if digits is not None:
        f, g = f.round(digits), g.round(digits)
    cut = draw(st.none() | st.integers(2, n - 2)) if n >= 4 else None
    bounds = [(0, n)] if cut is None else [(0, cut), (cut, n)]
    # extraction rejects a constant segment
    assume(all(np.ptp(h[a:b]) > 0 for h in (f, g) for a, b in bounds))
    return f, g, bounds


def segment_sets(y, bounds, scale: float = 1.0) -> list[MorseSet]:
    """The Morse sets of the segments of the samples ``scale * y`` at x = 0,
    ``scale``, ``2 scale``, ..., extracted with no plateau tolerance."""
    x = np.arange(len(y), dtype=float) * scale
    y = np.asarray(y) * scale
    return extract_critical_points(SampledSeries.multi(
        [np.column_stack((x[a:b], y[a:b])) for a, b in bounds]), 0.0)


def superlevel_diagram(y, bounds) -> PDSet:
    """extract -> PT -> PD of each segment of the samples ``y`` at x = 0,
    1, ..., with no plateau tolerance, joined over the segments."""
    return join_pd(to_persistence_diagram(persistence_transformation(ms))
                   for ms in segment_sets(y, bounds))


class TestDiagramStability:
    """The classical stability theorems, end to end from the samples: the
    superlevel diagrams of f and g on a path graph (one per segment) are
    within ``||f - g||_inf`` in bottleneck distance (Cohen-Steiner,
    Edelsbrunner & Harer, DCG 2007), and within the p-norm of ``f - g``
    over the vertices and edges in W_p, an edge valued at the min of its
    ends (Skraba & Turner).  Both bounds are attained, so they are compared
    with a relative slack of 1e-12 for rounding, not exactly."""

    @given(sampled_pairs())
    def test_bottleneck_within_sup_norm(self, pair):
        f, g, bounds = pair
        d = wasserstein(superlevel_diagram(f, bounds),
                        superlevel_diagram(g, bounds), INF, DIAGONAL)
        assert d <= np.abs(f - g).max() * (1 + 1e-12)
        if len(bounds) == 1:  # the essential points match each other
            assert d >= abs(f.max() - g.max()) * (1 - 1e-12)

    @given(sampled_pairs())
    def test_wasserstein_within_cell_norm(self, pair):
        f, g, bounds = pair
        A, B = (superlevel_diagram(h, bounds) for h in (f, g))
        edges = [np.minimum(h[a:b - 1], h[a + 1:b]) for h in (f, g)
                 for a, b in bounds]
        k = len(bounds)
        cells = np.abs(np.concatenate(
            [f - g] + [u - v for u, v in zip(edges[:k], edges[k:])]))
        for p in (1, 2, 3):
            bound = math.fsum(cells ** p) ** (1 / p)
            assert wasserstein(A, B, p, DIAGONAL) <= bound * (1 + 1e-12)

    def test_shift_attains_the_sup_norm(self):
        f = np.array([0.0, 2.0, 1.0, 3.0, 0.5, 1.5, 1.5, 0.0])
        bounds = [(0, 8)]
        d = wasserstein(superlevel_diagram(f, bounds),
                        superlevel_diagram(f + 0.25, bounds), INF, DIAGONAL)
        assert d == 0.25


# each transform of a signal cut into segments, joined over the segments
JOINED = (lambda sets: join_pt(map(persistence_transformation, sets)),
          lambda sets: join_rpt(map(reduced_persistence_transformation, sets)),
          lambda sets: join_pd(to_persistence_diagram(
              persistence_transformation(ms)) for ms in sets))


def doubled(ms: MorseSet) -> MorseSet:
    return MorseSet(2.0 * ms.xs, 2.0 * ms.ys, ms.is_max,
                    (2.0 * ms.domain[0], 2.0 * ms.domain[1]))


@st.composite
def metamorphic_pairs(draw):
    """The segments' Morse sets of two signals, ``(K, L)``, and of the same
    signals scaled by 2: a generator set and its perturbation or another
    generator set, scaled point by point; or a random walk and its
    perturbation (``sampled_pairs``), scaled before extraction."""
    if draw(st.booleans()):
        f, g, bounds = draw(sampled_pairs())
        return tuple((segment_sets(f, bounds, scale),
                      segment_sets(g, bounds, scale)) for scale in (1.0, 2.0))
    K, L = (random_morse_set(GenParams(peak_count_range=(1, 12), seed=seed))
            for seed in draw(st.lists(st.integers(0, 2**32 - 1),
                                      min_size=2, max_size=2)))
    if draw(st.booleans()):
        L = perturb(K, draw(st.sampled_from((0.01, 0.5, 3.0))),
                    draw(st.integers(0, 2**32 - 1)))
    return ([K], [L]), ([doubled(K)], [doubled(L)])


def assert_metamorphic(one, two, slacks, rel: float = 0.0):
    """For each transform of the signals ``one`` and of the doubled signals
    ``two``, each slack in ``slacks`` and p = 1, 2, 3 and inf, with A, B
    from ``one`` and 2A, 2B from ``two``: W(2A, 2B) is 2 W(A, B) bit for
    bit; W(B, A) is W(A, B) bit for bit at p = inf and within ``rel`` of it
    at finite p; W_p does not grow with p; or all three raise alike."""
    for make in JOINED:
        A, B = map(make, one)
        A2, B2 = map(make, two)
        for slack in slacks:
            ws = []
            for p in (1, 2, 3, INF):
                w, back, scaled = (outcome(wasserstein, X, Y, p, slack)
                                   for X, Y in ((A, B), (B, A), (A2, B2)))
                where = (type(A).__name__, slack, p, w, back, scaled)
                if isinstance(w, type):
                    assert back is scaled is w, where
                    continue
                assert scaled.hex() == (2.0 * w).hex(), where
                assert back.hex() == w.hex() if math.isinf(p) else \
                    math.isclose(back, w, rel_tol=rel, abs_tol=0.0), where
                ws.append(w)
            assert ws == sorted(ws, reverse=True), (type(A).__name__, slack)


def spectrum_pool(*args):
    """``perfbench.inputs.spectrum_pool``, the diagram_matching pool's
    signals, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("_spectrum_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.spectrum_pool(*args)


class TestMetamorphic:
    """Relations that hold whatever the size, where no dense oracle reaches:
    symmetry, scaling the signals by 2, and W_p non-increasing in p.  The
    candidate search finds each pair from one side's windows, so a swap of
    the sides is where a missing edge would show.

    Symmetry is exact only at p = inf, whose value is one of the costs.  At
    finite p, two matchings can tie in exact arithmetic and differ in the
    rounded sum of their rounded costs, and the solver may pick either one
    on the transposed instance: W(B, A) then differs from W(A, B) by an ulp
    or two, under both slacks (relative differences of at most 2.8e-16 in
    1000 drawn pairs, most at p = 1)."""

    @given(metamorphic_pairs())
    def test_symmetry_scaling_and_order_in_p(self, pairs):
        assert_metamorphic(*pairs, (DIAGONAL, PAD_ORIGIN), rel=1e-15)

    def test_spectrum_pair_at_3200_peaks(self):
        signals = spectrum_pool(7, 2, 3200, 24)
        one, two = ([extract_critical_points(
            [(scale * x, scale * y) for x, y in signal])
            for signal in signals] for scale in (1.0, 2.0))
        assert [len(ms.maxima) for (ms,) in one] == [3200, 3200]
        # symmetric bit for bit at every p on this pair
        assert_metamorphic(one, two, (DIAGONAL,))
