"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
for passing criteria too).

Criterion 3 concerns the reduced transform (RPT).  The constant-1 bound
``d_Wp(R_K, R_L) <= d_p(K, L)`` that holds for the full transform is false
for the RPT at p > 1, so the criterion asserts the bound the README states,
``d_Wp(R_K, R_L) <= 2^(1-1/p) * d_p(K, L)`` (factor 2 at p = inf), checks on a
two-peak pair that this factor is attained, and still prints how many
perturbed pairs break the constant-1 bound.  ``check_stability(...).holds``
tests the constant-1 bound for both transforms, so for the RPT at p > 1 it
is expected to be False on some pairs, and ``morsepeak stability --transform
rpt`` can exit 1 by design.
"""
import math
import time

import numpy as np
import pytest

from morsepeak import (DIAGONAL, PAD_ORIGIN, GenParams, MorseSet,
                       check_stability, denoise, morse_distance, pair,
                       pair_recursive, perturb, persistence_transformation,
                       random_morse_set, solve_assignment,
                       to_persistence_diagram, wasserstein)
from morsepeak.metrics import InfeasibleError
from oracles import (brute_force_assignment, brute_force_wasserstein,
                     points_and_slacks, sweep_diagram, sweep_pairing)

INF = math.inf


def report(num: int, title: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)


def pairing_map(pr):
    return {(e.peak.x, e.peak.y):
            None if e.death is None else (e.death.x, e.death.y)
            for e in pr.entries}


@pytest.fixture(scope="module")
def perturbed_pairs():
    pairs = []
    for i in range(1000):
        K = random_morse_set(GenParams(peak_count_range=(1, 10), seed=i))
        L = perturb(K, 0.1, 1_000_000 + i)
        pairs.append((K, L))
    return pairs


def test_criterion_01_pairing_oracle_equivalence():
    start = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        ms = random_morse_set(GenParams(peak_count_range=(1, 200), seed=i))
        a = pairing_map(pair(ms))
        b = pairing_map(pair_recursive(ms))
        oracle = {(m.x, m.y): None if d is None else (d.x, d.y)
                  for m, d in sweep_pairing(ms).items()}
        if not (a == b == oracle):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(1, "pairing routes agree with the sweep oracle", ok,
           f"{mismatches} mismatches / 1000 sets, {elapsed:.1f} s")
    assert ok


def _stability_checks(pairs, transform):
    """``check_stability`` reports per p, without pairs at infinite distance."""
    checks = {}
    for p in (1.0, 2.0, INF):
        reports = (check_stability(K, L, p, transform, PAD_ORIGIN)
                   for K, L in pairs)
        checks[p] = [r for r in reports if not math.isinf(r.rhs)]
    return checks


def _violations(reports, factor=1.0):
    return [r for r in reports if r.lhs > factor * r.rhs + 1e-9]


def _per_p(values):
    return ", ".join(f"p={p:g}: {v}" for p, v in values.items())


def rpt_factor(p):
    """Constant of the RPT stability bound: 2^(1-1/p), and 2 at p = inf."""
    return 2.0 if math.isinf(p) else 2.0 ** (1.0 - 1.0 / p)


def tight_rpt_pair(eps=0.1):
    """Two-peak pair on which the RPT bound is attained.

    L raises the lower peak (3, 4) by eps and lowers its death minimum
    (2, 1) by eps: its persistence grows by 2 eps, while the Morse-set
    distance moves two points by eps each, 2^(1/p) eps in total.
    """
    K = MorseSet.build([(1, 5), (3, 4)], [(0, 0), (2, 1), (4, 0)])
    L = MorseSet.build([(1, 5), (3, 4 + eps)], [(0, 0), (2, 1 - eps), (4, 0)])
    return K, L


def test_criterion_02_pt_stability(perturbed_pairs):
    checks = _stability_checks(perturbed_pairs, "pt")
    bad = [r for reports in checks.values() for r in _violations(reports)]
    ok = not bad
    report(2, "persistence transformation is stable", ok,
           f"{len(bad)} violations / 3000 checks"
           + (f", worst ratio {max(r.ratio for r in bad):.3f}" if bad else ""))
    assert ok


def test_criterion_03_rpt_stability(perturbed_pairs):
    checks = _stability_checks(perturbed_pairs, "rpt")
    over_factor = {p: len(_violations(rs, rpt_factor(p)))
                   for p, rs in checks.items()}
    over_one = {p: len(_violations(rs)) for p, rs in checks.items()}
    worst = {p: f"{max((r.ratio for r in rs), default=0.0):.3f}"
             for p, rs in checks.items()}

    # the factor is attained, so no smaller constant can hold; at p > 1 the
    # pair also breaks the constant-1 bound that check_stability tests
    K, L = tight_rpt_pair()
    off = []
    for slack in (PAD_ORIGIN, DIAGONAL):
        for p in (1.0, 2.0, 3.0, INF):
            r = check_stability(K, L, p, "rpt", slack)
            if abs(r.ratio - rpt_factor(p)) > 1e-12 or r.holds != (p == 1.0):
                off.append((slack, p, r.ratio, r.holds))

    total = sum(over_factor.values())
    ok = total == 0 and not off
    report(3, "reduced transformation is stable with constant 2^(1-1/p)", ok,
           f"{total} violations / 3000 checks, worst ratio [{_per_p(worst)}]; "
           f"constant-1 bound: {sum(over_one.values())} violations "
           f"[{_per_p(over_one)}]; two-peak pair attains the factor: "
           + (f"no {off}" if off else "yes"))
    assert total == 0, over_factor
    assert not off, off


def test_criterion_04_metric_well_defined():
    bad_symmetry = bad_identity = bad_triangle = bad_definite = 0
    for i in range(1000):
        params = GenParams(peak_count_range=(1, 8), seed=i)
        K = random_morse_set(params)
        # equalized cardinalities: both comparands are perturbations of K
        L = perturb(K, 1.0, 3_000_000 + i)
        M = perturb(K, 2.0, 4_000_000 + i)
        for p in (1.0, 2.0, INF):
            if morse_distance(K, L, p) != morse_distance(L, K, p):
                bad_symmetry += 1
            if morse_distance(K, K, p) != 0.0:
                bad_identity += 1
            if morse_distance(K, M, p) > \
                    morse_distance(K, L, p) + morse_distance(L, M, p) + 1e-9:
                bad_triangle += 1
        if K != L and morse_distance(K, L, 2.0) <= 0.0:
            bad_definite += 1
    ok = bad_symmetry == bad_identity == bad_triangle == bad_definite == 0
    report(4, "Morse-set distance is a metric on its domain", ok,
           f"sym {bad_symmetry}, id {bad_identity}, tri {bad_triangle}, "
           f"def {bad_definite} bad / 1000 triples")
    assert ok


def test_criterion_05_symmetric_pair_discrimination(mirrored_pair):
    F, G = mirrored_pair
    ptf, ptg = map(persistence_transformation, (F, G))
    pd_dist = wasserstein(to_persistence_diagram(ptf),
                          to_persistence_diagram(ptg), INF, DIAGONAL)
    pt_dist = wasserstein(ptf, ptg, INF, DIAGONAL)
    pa, sa = points_and_slacks(ptf)
    pb, sb = points_and_slacks(ptg)
    oracle = brute_force_wasserstein(pa, pb, sa, sb, INF)
    ok = (pd_dist == 0.0 and abs(pt_dist - 2.0) <= 1e-12
          and abs(oracle - 2.0) <= 1e-12)
    report(5, "mirrored pair: diagram blind, transform discriminates", ok,
           f"pd {pd_dist}, pt {pt_dist}, oracle {oracle}")
    assert ok


def test_criterion_06_projection_consistency():
    mismatches = 0
    for i in range(1000):
        ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=i))
        pd = to_persistence_diagram(persistence_transformation(ms))
        if [(q.birth, q.death) for q in pd.points] != sweep_diagram(ms):
            mismatches += 1
    ok = mismatches == 0
    report(6, "diagram projection matches the direct sweep", ok,
           f"{mismatches} mismatches / 1000 sets")
    assert ok


def test_criterion_07_recursion_complexity():
    sizes = [128, 256, 512, 1024, 2048, 4096, 8192]
    times = []
    for n in sizes:
        ms = random_morse_set(GenParams(peak_count_range=(n, n), seed=n))
        runs = []
        for _ in range(3 if n <= 1024 else 1):
            t0 = time.perf_counter()
            pair_recursive(ms)
            runs.append(time.perf_counter() - t0)
        times.append(min(runs))
    slope = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    ok = slope <= 2.3
    report(7, "recursive pairing scales at most quadratically", ok,
           f"log-log slope {slope:.2f}, t(8192)={times[-1]:.2f} s")
    assert ok


def test_criterion_08_pairing_injectivity():
    collisions = 0
    for i in range(10_000):
        ms = random_morse_set(GenParams(peak_count_range=(1, 10), seed=i))
        deaths = [e.death for e in pair(ms).entries if e.death is not None]
        if len(deaths) != len(set(deaths)):
            collisions += 1
    ok = collisions == 0
    report(8, "no death minimum is assigned twice", ok,
           f"{collisions} collisions / 10000 pairings")
    assert ok


def test_criterion_09_denoising():
    rng = np.random.default_rng(99)
    bad = 0
    for i in range(500):
        ms = random_morse_set(GenParams(peak_count_range=(1, 12), seed=i))
        pt = persistence_transformation(ms)
        tau = float(rng.uniform(0, 12))
        kept = denoise(pt, tau)
        want = tuple(f for f in pt.features if f.persistence >= tau)
        if kept.features != want or denoise(kept, tau) != kept \
                or denoise(pt, 0.0) != pt:
            bad += 1
    ok = bad == 0
    report(9, "denoising keeps exactly the persistent features", ok,
           f"{bad} bad / 500 random (set, tau) draws")
    assert ok


def test_criterion_10_assignment_solver_exact():
    rng = np.random.default_rng(123)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 8))
        M = rng.uniform(0, 10, (n, n))
        M[rng.uniform(size=(n, n)) < 0.1] = INF
        for objective in ("sum", "bottleneck"):
            try:
                got = solve_assignment(M, objective=objective).cost
            except InfeasibleError:
                got = INF
            want = brute_force_assignment(M.tolist(), objective)
            exact = got == want or (math.isfinite(got) and math.isfinite(want)
                                    and abs(got - want) <= 1e-9 * max(1, want))
            if not exact:
                bad += 1
    ok = bad == 0
    report(10, "assignment solver equals exhaustive minimum", ok,
           f"{bad} bad / 1000 solves on 500 matrices")
    assert ok
