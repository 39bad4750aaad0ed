import concurrent.futures
import json
import math
import os

import pytest

from morsepeak import core, metrics, pairing, stability
from morsepeak import (DIAGONAL, PAD_ORIGIN, GenParams, MorseSet,
                       UnmatchableInfinityError, check_stability,
                       morse_distance, perturb, perturb_with_info,
                       random_morse_set, reports_to_json, run_trials,
                       shrink_counterexample, validate)

INF = math.inf


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
        GenParams(height_range=(math.nan, 1.0))])
    def test_non_finite_ranges(self, params):
        with pytest.raises(ValueError, match="finite"):
            random_morse_set(params)


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

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon(self, epsilon):
        K = random_morse_set(GenParams(seed=3))
        with pytest.raises(ValueError, match="finite"):
            perturb_with_info(K, epsilon, 0)

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


class TestComputedOnce:
    """A Morse set is validated once and paired once, however often the
    stability checks read it; a trial transforms each set and builds each
    sup block once."""

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
        assert sorted(map(id, paired)) == sorted([id(K), id(L)])

    def test_run_trials(self, monkeypatch):
        validated = self.counted(monkeypatch, core, "validate")
        paired = self.counted(monkeypatch, pairing, "_elder_deaths")
        pts = self.counted(monkeypatch, stability,
                           "persistence_transformation")
        rpts = self.counted(monkeypatch, stability,
                            "reduced_persistence_transformation")
        blocks = self.counted(monkeypatch, metrics, "_sup")
        run_trials(GenParams(seed=5), trials=20)
        for seen in (validated, paired):
            assert len({id(ms) for ms in seen}) == len(seen)
        # each trial pairs its two sets, K and the perturbed L
        assert len(paired) == 40
        # and builds each transform of each of them once, whatever the ps
        for seen in (pts, rpts):
            assert sorted(map(id, seen)) == sorted(map(id, paired))
        # one _sup call, the pad-origin sup block, per (trial, transform),
        # shared by the three ps; pad-origin never reaches _candidates
        assert len(blocks) == 20 * 2


class TestShrink:
    @staticmethod
    def pair():
        K = random_morse_set(GenParams(seed=3))
        return K, perturb(K, 0.1, 4)

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

        def unmatchable(A, B, ps, slack):
            raise UnmatchableInfinityError("no partner")

        monkeypatch.setattr(stability, "_distances", unmatchable)
        assert shrink_counterexample(K, L, 1.0, "pt", PAD_ORIGIN) == (K, L)
