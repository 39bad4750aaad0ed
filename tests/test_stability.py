import json
import math

import pytest

from morsepeak import core, pairing
from morsepeak import (PAD_ORIGIN, GenParams, MorseSet, check_stability,
                       morse_distance, perturb, perturb_with_info,
                       random_morse_set, reports_to_json, run_trials, validate)

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
        with pytest.raises(ValueError):
            check_stability(e1, e1, 2, "pl")


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

    def test_rpt_within_twice_pt(self):
        # the reduced transform's distance never exceeds twice the full one
        for seed in range(25):
            K = random_morse_set(GenParams(seed=seed))
            L = perturb(K, 0.3, seed + 1)
            for p in (1, 2, INF):
                lhs_pt = check_stability(K, L, p, "pt").lhs
                lhs_rpt = check_stability(K, L, p, "rpt").lhs
                assert lhs_rpt <= 2 * lhs_pt + 1e-9

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
    stability checks read it."""

    @staticmethod
    def counted(monkeypatch, module, name):
        seen = []  # keeps every argument alive, so ids are not reused
        real = getattr(module, name)

        def wrapper(ms):
            seen.append(ms)
            return real(ms)

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
        run_trials(GenParams(seed=5), trials=20)
        for seen in (validated, paired):
            assert len({id(ms) for ms in seen}) == len(seen)
        # each trial pairs its two sets, K and the perturbed L
        assert len(paired) == 40
