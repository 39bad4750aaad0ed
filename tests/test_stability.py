import concurrent.futures
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from morsepeak import core, metrics, pairing, stability
from morsepeak import (DIAGONAL, PAD_ORIGIN, GenParams, MorseSet,
                       UnmatchableInfinityError, check_stability,
                       morse_distance, perturb, perturb_with_info,
                       random_morse_set, reports_to_json, run_trials,
                       shrink_counterexample, sup_dist, validate)

from oracles import (brute_force_wasserstein, dense_wasserstein,
                     exhaustive_matching, morse_distance_direct,
                     per_entry_cost_matrix, sweep_pairing)

INF = math.inf


@st.composite
def narrow_range(draw) -> tuple[float, float]:
    """An interval 1-64 ulps wide at an offset of up to 1e16."""
    lo = hi = draw(st.floats(-1e16, 1e16))
    for _ in range(draw(st.integers(1, 64))):
        hi = math.nextafter(hi, INF)
    return lo, hi


@st.composite
def gen_params(draw) -> GenParams:
    """Generator parameters with up to 10 peaks, each range ordinary or
    near-degenerate."""
    ordinary = st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)).map(
        lambda t: (t[0], t[0] + t[1]))
    lo_k = draw(st.integers(1, 10))
    return GenParams(peak_count_range=(lo_k, draw(st.integers(lo_k, 10))),
                     domain=draw(st.one_of(ordinary, narrow_range())),
                     height_range=draw(st.one_of(ordinary, narrow_range())),
                     seed=draw(st.integers(0, 2 ** 32)))


class TestGenerator:
    def test_deterministic_in_seed(self):
        p = GenParams(seed=42)
        assert random_morse_set(p) == random_morse_set(p)
        assert random_morse_set(p) != random_morse_set(GenParams(seed=43))

    def test_always_valid(self):
        for seed in range(200):
            ms = random_morse_set(GenParams(peak_count_range=(1, 15), seed=seed))
            assert validate(ms).ok

    def test_respects_params(self):
        params = GenParams(peak_count_range=(3, 5), domain=(-2.0, 7.0),
                           height_range=(1.0, 4.0), seed=9)
        for seed in range(30):
            ms = random_morse_set(GenParams(**{**params.__dict__, "seed": seed}))
            assert 3 <= ms.kappa_plus <= 5
            assert ms.kappa_minus == ms.kappa_plus + 1
            assert ms.domain == (-2.0, 7.0)
            assert all(1.0 <= p.y <= 4.0 for p in ms.points_by_x())

    def test_bad_params(self):
        with pytest.raises(ValueError):
            random_morse_set(GenParams(peak_count_range=(0, 3)))
        with pytest.raises(ValueError):
            random_morse_set(GenParams(domain=(5.0, 5.0)))

    @pytest.mark.parametrize("params", [
        GenParams(domain=(0.0, math.inf)), GenParams(domain=(-math.inf, 0.0)),
        GenParams(height_range=(0.0, math.inf)),
        GenParams(height_range=(math.nan, 1.0)),
        # finite ends, but a draw's span is past the largest double
        GenParams(domain=(-1e308, 1e308)),
        GenParams(height_range=(1e308, 1.7e308))])
    def test_non_finite_ranges(self, params):
        with pytest.raises(ValueError, match="finite"):
            random_morse_set(params)

    @pytest.mark.parametrize("params, name", [
        (GenParams(seed=-5), "seed"),
        # numpy draws the peak count as an int64
        (GenParams(peak_count_range=(1, 10**20)), "peak_count_range"),
        (GenParams(peak_count_range=(1, 2**63)), "peak_count_range")])
    def test_out_of_range_params_named(self, params, name):
        # run_trials checks them even with no trial to run
        for call in (lambda: random_morse_set(params),
                     lambda: run_trials(params, 0)):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                call()

    def test_failed_draw_names_peak_count_range(self, failing_draws):
        with pytest.raises(ValueError, match=r"^peak_count_range too large: "
                           r"cannot draw 100000000000 peaks \("):
            random_morse_set(GenParams(peak_count_range=(10**11, 10**11)))

    def test_draw_failing_at_a_later_trial(self, monkeypatch):
        # the trials before it are evaluated, and the run raises the draw's
        # error, returning no report
        real, evaluated = stability.random_morse_set, []

        def third_fails(params):
            if params.seed == 3 * 1_000_003 + 2 * 3:
                raise ValueError("peak_count_range too large: cannot draw "
                                 "100000000000 peaks (no memory)")
            return real(params)

        real_reports = stability._reports
        monkeypatch.setattr(stability, "random_morse_set", third_fails)
        monkeypatch.setattr(stability, "_reports", lambda pairs, *rest: (
            evaluated.append(len(pairs)), real_reports(pairs, *rest))[1])
        with pytest.raises(ValueError, match=r"^peak_count_range too large: "
                           r"cannot draw 100000000000 peaks \("):
            run_trials(GenParams(seed=3), 10)
        assert evaluated == [3]

    def test_first_failing_trial_raises(self, monkeypatch):
        # a batch builds every PT before any distance or RPT; the error
        # raised is still that of the first trial to fail: trial 2's RPT
        # comes before trial 5's PT
        Ks, real_set = [], stability.random_morse_set
        monkeypatch.setattr(stability, "random_morse_set", lambda params: (
            Ks.append(real_set(params)) or Ks[-1]))
        for name, k in (("persistence_transformation", 5),
                        ("reduced_persistence_transformation", 2)):
            def failing(ms, *args, real=getattr(stability, name), k=k):
                if len(Ks) > k and ms is Ks[k]:
                    raise ValueError(f"trial {k} fails")
                return real(ms, *args)
            monkeypatch.setattr(stability, name, failing)
        with pytest.raises(ValueError, match="^trial 2 fails$"):
            run_trials(GenParams(seed=4), 8)

    @staticmethod
    def bounded_draws(monkeypatch, limit: int = 1000) -> None:
        """Every generator from ``np.random.default_rng`` fails its uniform
        draw number ``limit``, where a redraw loop without a bound spins."""
        real = np.random.default_rng

        def make(seed):
            rng, count = real(seed), itertools.count(1)

            class Bounded:
                integers = rng.integers

                def uniform(self, *args):
                    assert next(count) < limit, "unbounded redraws"
                    return rng.uniform(*args)
            return Bounded()
        monkeypatch.setattr(np.random, "default_rng", make)

    @pytest.mark.parametrize("params, name", [
        # 19 interior positions, 15 doubles strictly inside
        (GenParams(peak_count_range=(10, 10),
                   domain=(1000000000000000.0, 1000000000000002.0)), "domain"),
        (GenParams(domain=(1.0, 1.0000000000000002),
                   peak_count_range=(1, 1)), "domain"),
        # a minimum drawn up to the midpoint ties an adjacent maximum, even
        # where the midpoint lies strictly inside the range
        (GenParams(height_range=(1e16, 1.0000000000000002e16)),
         "height_range"),
        (GenParams(height_range=(1e16, 1.0000000000000004e16)),
         "height_range")])
    def test_degenerate_range_named(self, monkeypatch, params, name):
        self.bounded_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"^{name} .* too narrow: "):
            random_morse_set(params)

    @given(gen_params())
    def test_valid_or_names_the_range(self, params):
        with pytest.MonkeyPatch.context() as mp:
            self.bounded_draws(mp)
            try:
                ms = random_morse_set(params)
            except ValueError as exc:
                assert str(exc).startswith(("domain ", "height_range ")), exc
            else:
                assert validate(ms).ok


class TestPerturb:
    def test_within_budget_and_valid(self):
        for seed in range(50):
            K = random_morse_set(GenParams(seed=seed))
            L, info = perturb_with_info(K, 0.2, seed + 1)
            assert validate(L).ok
            assert 0.0 <= info.shrink <= 1.0
            assert K.kappa_plus == L.kappa_plus
            assert K.kappa_minus == L.kappa_minus
            for p, q in zip(K.points_by_x(), L.points_by_x()):
                assert abs(p.x - q.x) <= 0.2 + 1e-12
                assert abs(p.y - q.y) <= 0.2 + 1e-12
                assert p.kind is q.kind

    def test_zero_epsilon_is_identity(self):
        K = random_morse_set(GenParams(seed=3))
        assert perturb(K, 0.0, 99) == K

    def test_deterministic(self):
        K = random_morse_set(GenParams(seed=3))
        assert perturb(K, 0.1, 5) == perturb(K, 0.1, 5)

    def test_negative_epsilon(self):
        K = random_morse_set(GenParams(seed=3))
        with pytest.raises(ValueError):
            perturb(K, -0.1, 0)

    # from 1e308 on, the span 2 * epsilon of a draw is not finite
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 1e308])
    def test_non_finite_epsilon(self, epsilon):
        K = random_morse_set(GenParams(seed=3))
        with pytest.raises(ValueError, match="finite"):
            perturb_with_info(K, epsilon, 0)

    def test_no_halving_keeps_the_structure(self):
        # two adjacent maxima: no perturbation that keeps the x order
        # passes validation, so K comes back unmoved with shrink 0
        K = MorseSet.build([(1, 5), (2, 4)], [(0, 0), (3, 0)], (0, 3))
        assert validate(K).conditions() == {"Alternation"}
        for seed in range(5):
            L, info = perturb_with_info(K, 0.1, seed)
            assert L is K and info.shrink == 0.0

    def test_bounds_morse_distance_when_ranks_survive(self):
        # all critical values are separated by more than 2*epsilon, so the
        # rank matching pairs each point with its own perturbation and the
        # sup distance stays within the budget
        K = MorseSet.build([(1, 3), (3, 5), (5, 2)],
                           [(0, 0), (2, 1), (4, 0.6), (6, -1)], (0, 6))
        for seed in range(30):
            L = perturb(K, 0.15, seed)
            assert morse_distance(K, L, INF) <= 0.15 + 1e-12


def shifted(ms: MorseSet, dx: float, dy: float) -> MorseSet:
    return MorseSet.build([(p.x + dx, p.y + dy) for p in ms.maxima],
                          [(p.x + dx, p.y + dy) for p in ms.minima],
                          (ms.domain[0] + dx, ms.domain[1] + dx))


class TestCheckStability:
    def test_trivial(self, e1):
        for transform in ("pt", "rpt"):
            r = check_stability(e1, e1, 2, transform)
            assert r.holds and r.lhs == 0.0 and r.rhs == 0.0

    def test_e1_shift(self, e1):
        L = shifted(e1, 0.3, 0.0)
        r = check_stability(e1, L, INF, "pt")
        assert r.holds
        assert r.lhs == pytest.approx(0.3)
        assert r.rhs == pytest.approx(0.3)

    def test_report_fields(self, e1):
        L = shifted(e1, 0.3, 0.0)
        r = check_stability(e1, L, INF, "pt", seed=17)
        assert r.p == INF and r.transform == "pt" and r.slack == PAD_ORIGIN
        assert r.seed == 17 and r.equal_cardinality
        doc = r.to_json_dict()
        assert doc["p"] == "inf" and doc["holds"] is True

    def test_unknown_transform(self, e1):
        with pytest.raises(ValueError, match="unknown transform 'pl'"):
            check_stability(e1, e1, 2, "pl")
        with pytest.raises(ValueError, match="unknown transform 'pl'"):
            run_trials(GenParams(seed=1), trials=2, transforms=("pt", "pl"))

    @pytest.mark.parametrize("p", [0.5, 0, -INF, math.nan])
    def test_bad_p(self, e1, p):
        with pytest.raises(ValueError, match="p must be >= 1"):
            check_stability(e1, e1, p)
        with pytest.raises(ValueError, match="p must be >= 1"):
            run_trials(GenParams(seed=1), trials=2, ps=(1.0, p))

    @pytest.mark.parametrize("slack", [PAD_ORIGIN, DIAGONAL])
    def test_order_changing_pair_breaks_the_bound(self, slack):
        # distinct heights, no point moved by more than 0.173691, but the
        # peaks at x = 5 and 7 swap ranks: the elder pairing and the rank
        # matching of L no longer follow K's, and the PT bound fails at
        # every p, the RPT bound that holds at p = 1 (2^0 = 1) too
        up = np.arange(9) % 2 == 1
        K = MorseSet(np.arange(9.0), np.array(
            [0.60211, 3.001, 1.07544, 5 - 1e-9, 2.062086, 4.999, 0, 5,
             1.80677]), up, (0.0, 8.0))
        lx = [-0.013298, 1.035884, 1.956959, 2.958679, 4, 5, 5.945878, 7,
              8.000192]
        L = MorseSet(np.array(lx), np.array(
            [0.650172, 3.001, 1.092809, 4.963137, 2.124318, 5.067127,
             -0.173691, 4.864688, 1.80677]), up, (lx[0], lx[-1]))
        assert validate(K).ok and validate(L).ok
        assert max(sup_dist(a, b) for a, b in zip(
            K.xy(np.arange(9)).tolist(), L.xy(np.arange(9)).tolist())) \
            <= 0.173691
        assert np.array_equal(K.min_order, L.min_order)
        assert not np.array_equal(K.max_order, L.max_order)

        make = {"pt": pairing.persistence_transformation,
                "rpt": pairing.reduced_persistence_transformation}
        ratios = {(1.0, "pt"): 1.452, (2.0, "pt"): 1.296, (INF, "pt"): 1.118,
                  (1.0, "rpt"): 1.430}
        for (p, transform), ratio in ratios.items():
            r = check_stability(K, L, p, transform, slack)
            assert r.ratio > 1 and not r.holds
            assert r.ratio == pytest.approx(ratio, abs=5e-4)
            assert r.rhs == pytest.approx(morse_distance_direct(K, L, p),
                                          rel=1e-12)
            A, B = make[transform](K), make[transform](L)
            if slack == DIAGONAL:
                want = dense_wasserstein(A, B, p)
            else:  # equal sizes: no padding, every point matched
                never = [INF] * len(A.array)
                want = brute_force_wasserstein(A.array, B.array, never, never,
                                               p)
            assert r.lhs == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed, above", [
        (410172350513386, {("pt", 1.0): 1.00320, ("rpt", 1.0): 1.00409}),
        (295813893439030, {("pt", 1.0): 1.03013, ("pt", 2.0): 1.00161,
                           ("rpt", 1.0): 1.03036, ("rpt", 2.0): 1.00166})])
    def test_reordering_seeds_break_the_bound(self, seed, above):
        # two generated trials: L keeps K's min_order but two peaks swap
        # ranks, and under pad-origin the ratio passes 1 exactly at the
        # (transform, p) in ``above``; under diagonal it never does
        K = random_morse_set(GenParams(seed=seed))
        L = perturb(K, 0.1, seed + 1)
        assert np.array_equal(K.min_order, L.min_order)
        assert not np.array_equal(K.max_order, L.max_order)

        make = {"pt": pairing.persistence_transformation,
                "rpt": pairing.reduced_persistence_transformation}
        for slack, transform, p in itertools.product(
                (PAD_ORIGIN, DIAGONAL), make, (1.0, 2.0, INF)):
            r = check_stability(K, L, p, transform, slack)
            ratio = above.get((transform, p)) if slack == PAD_ORIGIN else None
            if ratio is None:
                assert r.ratio <= 1
            else:
                assert r.ratio > 1 and not r.holds
                assert r.ratio == pytest.approx(ratio, abs=1e-5)
            assert r.rhs == pytest.approx(morse_distance_direct(K, L, p),
                                          rel=1e-12)
            A, B = make[transform](K), make[transform](L)
            if slack == DIAGONAL:
                want = dense_wasserstein(A, B, p)
            else:  # equal sizes: no padding, every point matched
                want = exhaustive_matching(per_entry_cost_matrix(
                    A.array, None, B.array, None, PAD_ORIGIN).tolist(), p)
            assert r.lhs == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p, lhs, ratio", [
        (1.0, INF, 1.0), (2.0, INF, 1.0), (INF, 1.5e308, 0.0)])
    @pytest.mark.parametrize("slack", [PAD_ORIGIN, DIAGONAL])
    def test_infinite_rhs(self, p, lhs, ratio, slack):
        # values near the largest doubles: every rank cost of the maxima
        # overflows, so the right-hand side is infinite at each p and the
        # bound holds; the RPT distance overflows only in its p-sum
        K = MorseSet.build([(1, 1.7e308), (3, 1.6e308), (5, 1.6e308)],
                           [(x, 0) for x in (0, 2, 4, 6)], (0, 6))
        L = MorseSet.build([(x, -1e308) for x in (1, 3, 5)],
                           [(x, -1.1e308) for x in (0, 2, 4, 6)], (0, 6))
        r = check_stability(K, L, p, "rpt", slack)
        assert (r.lhs, r.rhs, r.ratio, r.holds) == (lhs, INF, ratio, True)


class TestRunTrials:
    def test_pt_holds_on_small_run(self):
        reports = run_trials(GenParams(seed=11), trials=40,
                             transforms=("pt",))
        assert len(reports) == 40 * 3
        assert all(r.holds for r in reports)

    def test_deterministic_and_worker_independent(self):
        a = run_trials(GenParams(seed=5), trials=12)
        b = run_trials(GenParams(seed=5), trials=12, max_workers=4)
        assert a == b

    def test_worker_count_is_an_upper_bound(self, monkeypatch):
        # a stand-in pool that records its size and maps serially, so no
        # process is started whatever max_workers asks for
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        params = GenParams(seed=3)
        for trials in (3, 9):
            assert run_trials(params, trials, max_workers=5000) == \
                run_trials(params, trials)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_trials(params, 9, max_workers=5000)
        assert sizes == [3, 4]

    def test_rpt_within_twice_pt(self):
        # the reduced transform's distance never exceeds twice the full one
        for seed in range(25):
            K = random_morse_set(GenParams(seed=seed))
            L = perturb(K, 0.3, seed + 1)
            for p in (1, 2, INF):
                lhs_pt = check_stability(K, L, p, "pt").lhs
                lhs_rpt = check_stability(K, L, p, "rpt").lhs
                assert lhs_rpt <= 2 * lhs_pt + 1e-9

    @pytest.mark.parametrize("slack", [PAD_ORIGIN, DIAGONAL])
    @pytest.mark.parametrize("ps", [(INF, 2, 1.0, 2), (3.5, 1.0, 3.5, INF)])
    def test_equals_check_stability(self, slack, ps):
        # one trial's reports, built in one pass, are the reports of
        # check_stability per (transform, p), field by field and in order
        params = GenParams(seed=9, peak_count_range=(1, 12))
        reports = run_trials(params, trials=8, ps=ps, slack=slack)
        assert [(r.transform, r.p) for r in reports] == \
            8 * [(t, p) for t in ("pt", "rpt") for p in ps]
        for r in reports:
            K, L = stability._perturbed_pair(params, r.seed, 0.1)
            want = check_stability(K, L, r.p, r.transform, slack, seed=r.seed)
            assert repr(r) == repr(want)

    def test_batches_hold_at_most_the_cap(self, monkeypatch):
        # 1-400 peaks: the blocks of 40 trials cannot share one call
        cells = []
        real = metrics._sup

        def spy(us, vs):
            out = real(us, vs)
            cells.append(out.size)
            return out

        monkeypatch.setattr(metrics, "_sup", spy)
        params = GenParams(seed=3, peak_count_range=(1, 400))
        reports = run_trials(params, 40)
        assert len(cells) > 3 and max(cells) <= stability._BATCH_CELLS
        monkeypatch.undo()
        one = []
        for index in range(40):
            seed = 3 * 1_000_003 + 2 * index
            one += stability._reports(
                [stability._perturbed_pair(params, seed, 0.1)],
                (1.0, 2.0, INF), ("pt", "rpt"), PAD_ORIGIN, [seed])
        assert list(map(exact, reports)) == list(map(exact, one))

    def test_json_report(self):
        reports = run_trials(GenParams(seed=2), trials=3, transforms=("pt",),
                             ps=(1.0,))
        doc = json.loads(reports_to_json(reports))
        assert len(doc) == 3
        assert {"lhs", "rhs", "ratio", "holds", "p", "slack", "transform",
                "seed", "equal_cardinality"} <= set(doc[0])

    def test_fixture_persistence(self, tmp_path):
        # rpt at p=inf is known to produce violations; they must be persisted
        reports = run_trials(GenParams(seed=0), trials=60, transforms=("rpt",),
                             ps=(INF,), fixture_dir=str(tmp_path))
        failing = [r for r in reports if not r.holds]
        files = list(tmp_path.glob("stability_*.json"))
        assert len(files) == len(failing)
        for f in files:
            payload = json.loads(f.read_text())
            K = MorseSet.from_json_dict(payload["K"])
            L = MorseSet.from_json_dict(payload["L"])
            p = INF if payload["p"] == "inf" else payload["p"]
            r = check_stability(K, L, p, payload["transform"], payload["slack"])
            assert not r.holds


def exact(r: stability.StabilityReport) -> tuple:
    """A report's fields, its floats by ``float.hex``."""
    return (repr(r), *(float.hex(float(v)) for v in (r.lhs, r.rhs, r.ratio)))


@st.composite
def trial_batches(draw) -> list:
    """1-12 pairs (K, L) of sets of 1-12 peaks: K a generator set, or one
    of integer heights, many of them tied, and L its perturbation by
    epsilon 0 (K itself), 0.1 or 0.5.  Some pairs take their K from
    another pair, so a set may sit in several pairs and pairs may differ
    in their peak counts."""
    pairs = []
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(1, 12))
        seed = draw(st.integers(0, 2 ** 32))
        if draw(st.booleans()):
            K = random_morse_set(GenParams(peak_count_range=(k, k), seed=seed))
        else:  # every minimum below every maximum: always valid
            ys = np.empty(2 * k + 1)
            ys[0::2] = draw(st.lists(st.integers(0, 2), min_size=k + 1,
                                     max_size=k + 1))
            ys[1::2] = draw(st.lists(st.integers(3, 5), min_size=k,
                                     max_size=k))
            K = MorseSet(np.arange(2.0 * k + 1), ys,
                         np.arange(2 * k + 1) % 2 == 1, (0.0, 2.0 * k))
        if pairs and draw(st.booleans()):
            K = pairs[draw(st.integers(0, len(pairs) - 1))][0]
        pairs.append((K, perturb(K, draw(st.sampled_from([0.0, 0.1, 0.5])),
                                 seed + 1)))
    return pairs


def fresh(pairs: list) -> list:
    """The same pairs of new, unpaired sets, a set in several places still
    one object."""
    new = {}
    for ms in (ms for pair in pairs for ms in pair):
        new.setdefault(id(ms), MorseSet(ms.xs, ms.ys, ms.is_max, ms.domain))
    return [(new[id(K)], new[id(L)]) for K, L in pairs]


@given(trial_batches(), st.sampled_from([PAD_ORIGIN, DIAGONAL]))
def test_batch_equals_one_pair_calls(pairs, slack):
    # a batch gives each pair the reports of its own one-pair call, and
    # each value agrees with the oracles
    ps, transforms = (1.0, 2.0, INF), ("pt", "rpt")
    batch = fresh(pairs)
    seeds = list(range(len(pairs)))
    got = stability._reports(batch, ps, transforms, slack, seeds)
    want = [r for pair, seed in zip(fresh(pairs), seeds)
            for r in stability._reports([pair], ps, transforms, slack, [seed])]
    assert list(map(exact, got)) == list(map(exact, want))
    for ms in {id(ms): ms for pair in batch for ms in pair}.values():
        assert {e.peak: e.death for e in pairing.pair(ms).entries} == \
            sweep_pairing(ms)
    make = {"pt": pairing.persistence_transformation,
            "rpt": pairing.reduced_persistence_transformation}
    per_pair = len(ps) * len(transforms)
    for k, (K, L) in enumerate(batch):
        for r in got[k * per_pair:(k + 1) * per_pair]:
            # the oracles sum powers unscaled: equal at p = inf, close at
            # finite p
            close = (lambda v: v) if math.isinf(r.p) else \
                (lambda v: pytest.approx(v, rel=1e-12))
            assert r.rhs == close(morse_distance_direct(K, L, r.p))
            A, B = make[r.transform](K), make[r.transform](L)
            if slack == PAD_ORIGIN and max(len(A.array), len(B.array)) <= 6:
                block = per_entry_cost_matrix(A.array, None, B.array, None,
                                              PAD_ORIGIN)
                assert r.lhs == close(exhaustive_matching(block, r.p))


class TestComputedOnce:
    """A Morse set is validated once and paired once, however often the
    stability checks read it; a batch of trials pairs all its sets in one
    pass, transforms each set once, and builds the sup blocks of all its
    pairs with one ``_sup`` call per transform and its rank costs with one
    more."""

    @staticmethod
    def counted(monkeypatch, module, name):
        seen = []  # keeps every argument alive, so ids are not reused
        real = getattr(module, name)

        def wrapper(ms, *args):
            seen.append(ms)
            return real(ms, *args)

        monkeypatch.setattr(module, name, wrapper)
        return seen

    def test_check_stability(self, monkeypatch):
        validated = self.counted(monkeypatch, core, "validate")
        paired = self.counted(monkeypatch, pairing, "_elder_deaths")
        K = random_morse_set(GenParams(seed=7))
        L = perturb(K, 0.1, 8)
        for p in (1, 2, INF):
            for transform in ("pt", "rpt"):
                check_stability(K, L, p, transform)
        assert sorted(map(id, validated)) == sorted([id(K), id(L)])
        # one elder rule pass, over both sets, in the first call
        assert [list(map(id, sets)) for sets in paired] == [[id(K), id(L)]]

    def test_set_given_twice_is_paired_once(self, monkeypatch):
        # at epsilon 0 each trial's L is its K itself
        paired = self.counted(monkeypatch, pairing, "_elder_deaths")
        reports = run_trials(GenParams(seed=5), trials=3, epsilon=0.0)
        assert all(r.lhs == r.rhs == 0.0 for r in reports)
        assert len(paired) == 1 and len({id(ms) for ms in paired[0]}) == \
            len(paired[0]) == 3

    def test_run_trials(self, monkeypatch):
        # the default cap puts the 20 trials in one batch, a cap of 150
        # cells in batches of a few trials each
        for cap in (stability._BATCH_CELLS, 150):
            with monkeypatch.context() as mp:
                mp.setattr(stability, "_BATCH_CELLS", cap)
                self.assert_computed_once(mp, cap == 150)

    def assert_computed_once(self, monkeypatch, several: bool):
        batches = self.counted(monkeypatch, stability, "_reports")
        validated = self.counted(monkeypatch, core, "validate")
        paired = self.counted(monkeypatch, pairing, "_elder_deaths")
        pts = self.counted(monkeypatch, stability,
                           "persistence_transformation")
        rpts = self.counted(monkeypatch, stability,
                            "reduced_persistence_transformation")
        blocks = self.counted(monkeypatch, metrics, "_sup")
        run_trials(GenParams(seed=5), trials=20)
        assert (len(batches) > 1) == several and len(batches) < 20
        sets = [[ms for pair in batch for ms in pair] for batch in batches]
        everyone = sum(sets, [])
        # each trial's two sets, K and the perturbed L, are validated once
        assert len({id(ms) for ms in everyone}) == len(everyone) == 40
        assert sorted(map(id, validated)) == sorted(map(id, everyone))
        # and paired once, in one elder rule pass per batch
        assert [list(map(id, s)) for s in paired] == \
            [list(map(id, s)) for s in sets]
        # each transform of each set is built once, whatever the ps
        for seen in (pts, rpts):
            assert sorted(map(id, seen)) == sorted(map(id, everyone))
        # per batch, one _sup call per transform for the pad-origin sup
        # blocks of all its pairs, shared by the three ps (pad-origin never
        # reaches _candidates), and one for the rank costs
        assert len(blocks) == 3 * len(batches)


class TestShrink:
    @staticmethod
    def pair():
        K = random_morse_set(GenParams(seed=3))
        return K, perturb(K, 0.1, 4)

    def test_drop_peak_out_of_range_or_at_boundary(self):
        # both peaks sit at an end of the domain
        ms = MorseSet.build([(0, 5), (2, 3)], [(1, 0)])
        assert validate(ms).ok
        for i in (-1, 0, 1, 2):
            assert stability._drop_peak(ms, i) is None

    def test_unexpected_error_raises(self, monkeypatch):
        # a fault in the program is not read as "no violation"
        def broken(ms):
            raise RuntimeError("broken transform")

        monkeypatch.setattr(stability, "persistence_transformation", broken)
        with pytest.raises(RuntimeError, match="broken transform"):
            shrink_counterexample(*self.pair(), 1.0, "pt", PAD_ORIGIN)

    def test_documented_errors_are_no_violation(self, monkeypatch):
        K, L = self.pair()
        invalid = MorseSet(K.xs, K.ys, ~K.is_max, K.domain)
        assert not validate(invalid).ok
        assert shrink_counterexample(K, invalid, 1.0, "pt", PAD_ORIGIN) == \
            (K, invalid)

        def unmatchable(pairs, ps, slack):
            raise UnmatchableInfinityError("no partner")

        monkeypatch.setattr(stability, "_distances", unmatchable)
        assert shrink_counterexample(K, L, 1.0, "pt", PAD_ORIGIN) == (K, L)
