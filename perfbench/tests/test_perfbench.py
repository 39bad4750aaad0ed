"""Tests of the benchmark itself: its references, its checks and its runs.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""
import json
import math
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import calib
import checks
import inputs
import reference as ref
import run
from conftest import BENCH, ROOT
from morsepeak import cli, metrics, pairing
from morsepeak.core import extract_critical_points
from spans import PER_LAYER

INF = math.inf
QUICK_START = [(0, 0), (1, 3), (2, 1), (3, 5), (4, 0.5), (5, 2), (6, 0)]


def program_transforms(samples):
    (ms,) = extract_critical_points(samples)
    pt = pairing.persistence_transformation(ms)
    rpt = pairing.reduced_persistence_transformation(ms)
    return ms, pt, rpt


def reference_of(samples):
    a = np.array(samples, dtype=float)
    return ref.transforms(*ref.critical_points(a[:, 0], a[:, 1]))


def tie_heavy(seed, n=60):
    """A quantized random signal: plateaus and equal values are common."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 4, n).astype(float)
    y[1] = y[0] + 1  # never constant
    return [(float(i), float(v)) for i, v in enumerate(y)]


# ---------------------------------------------------------------------------
# The references agree with the program


def test_reference_quick_start_signal():
    x, y, kind = ref.critical_points(*np.array(QUICK_START, dtype=float).T)
    assert list(zip(x, y, kind)) == [(0, 0, -1), (1, 3, 1), (2, 1, -1),
                                     (3, 5, 1), (4, 0.5, -1), (5, 2, 1),
                                     (6, 0, -1)]
    t = reference_of(QUICK_START)
    assert sorted(t["pt"]) == [(1.0, 3.0, 1.0), (3.0, 5.0, -INF),
                               (5.0, 2.0, 0.5)]
    ms, pt, rpt = program_transforms(QUICK_START)
    assert sorted((f.x, f.birth, f.death) for f in pt.features) == sorted(t["pt"])
    assert sorted((f.x, f.persistence) for f in rpt.features) == sorted(t["rpt"])
    assert sorted((f.x, f.birth) for f in pt.diagonal) == sorted(t["diagonal"])


@pytest.mark.parametrize("seed", range(60))
def test_reference_pairing_matches_program_with_ties(seed):
    samples = tie_heavy(seed)
    ms, pt, _ = program_transforms(samples)
    t = reference_of(samples)
    assert sorted((f.x, f.birth, f.death) for f in pt.features) == sorted(t["pt"])
    assert len(ms.maxima) + len(ms.minima) == len(t["pt"]) + len(t["diagonal"])


def test_reference_equal_peaks_left_is_elder():
    samples = [(0, 0), (1, 2), (2, 1), (3, 2), (4, 1), (5, 2), (6, 0)]
    t = reference_of(samples)
    assert sorted(t["pt"]) == [(1.0, 2.0, -INF), (3.0, 2.0, 1.0),
                               (5.0, 2.0, 1.0)]
    _, pt, _ = program_transforms(samples)
    assert sorted((f.x, f.birth, f.death) for f in pt.features) == sorted(t["pt"])


@pytest.mark.parametrize("seed", range(20))
def test_reference_distances_match_program(seed):
    a, b = tie_heavy(seed, 40), tie_heavy(seed + 1000, 30)
    _, pa, ra = program_transforms(a)
    _, pb, rb = program_transforms(b)
    ta, tb = reference_of(a), reference_of(b)
    M = ref.diagonal_matrix(ta["pt"], tb["pt"], ref.pt_slack(ta["pt"]),
                            ref.pt_slack(tb["pt"]))
    R = ref.diagonal_matrix(ta["rpt"], tb["rpt"], ref.rpt_slack(ta["rpt"]),
                            ref.rpt_slack(tb["rpt"]))
    for p in (1.0, 2.0):
        assert ref.close(metrics.wasserstein(pa, pb, p), ref.wasserstein(M, p))
        assert ref.close(metrics.wasserstein(ra, rb, p), ref.wasserstein(R, p))
    w_inf = metrics.wasserstein(pa, pb, INF)
    assert w_inf == ref.wasserstein(M, INF)
    assert ref.bottleneck_certified(M, w_inf)


def test_reference_rank_distance_matches_program():
    from morsepeak import GenParams, morse_distance, perturb, random_morse_set
    for seed in range(30):
        K = random_morse_set(GenParams(seed=seed))
        L = perturb(K, 0.1, seed + 1)
        args = [[(q.x, q.y) for q in pts]
                for pts in (K.maxima, K.minima, L.maxima, L.minima)]
        for p in (1.0, 2.0, INF):
            assert ref.close(morse_distance(K, L, p), ref.rank_distance(*args, p))


# ---------------------------------------------------------------------------
# The checks reject wrong answers


@pytest.fixture
def signal_outputs(tmp_path):
    """A CSV file, its reference transforms and the program's CLI outputs."""
    csv = tmp_path / "s.csv"
    csv.write_text(inputs.signal_csv(np.random.default_rng(7), 2, 300))
    for kind in checks.KINDS:
        from ops import transform_argv
        assert cli.main(transform_argv(str(csv), kind, tmp_path, 0)) == 0
    return ref.signal_transforms(csv.read_text()), tmp_path


def test_signal_checks_accept_program_outputs(signal_outputs):
    expected, out = signal_outputs
    assert checks.check_pt(expected, out / "0-pt.json", out / "0-pt.svg") == []
    assert checks.check_rpt_csv(expected, out / "0-rpt.csv") == []
    assert checks.check_pd(expected, out / "0-pd.json") == []
    assert '"features"' in (out / "0-pt.json").read_text()
    assert "null" in (out / "0-pt.json").read_text()


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _swap_two_deaths(rows, col):
    finite = [r for r in rows if r[col] is not None]
    i, j = next((i, j) for i in range(len(finite)) for j in range(len(finite))
                if finite[i][col] != finite[j][col])
    finite[i][col], finite[j][col] = finite[j][col], finite[i][col]


def test_pt_check_rejects_swapped_death_minimum(signal_outputs):
    expected, out = signal_outputs
    _edit_json(out / "0-pt.json", lambda d: _swap_two_deaths(d["features"], 2))
    assert checks.check_pt(expected, out / "0-pt.json", out / "0-pt.svg")


def test_pt_check_rejects_dropped_critical_point(signal_outputs):
    expected, out = signal_outputs
    _edit_json(out / "0-pt.json", lambda d: d["diagonal"].pop())
    assert checks.check_pt(expected, out / "0-pt.json", out / "0-pt.svg")


def test_pt_check_rejects_dropped_svg_marker(signal_outputs):
    expected, out = signal_outputs
    svg = out / "0-pt.svg"
    lines = svg.read_text().splitlines()
    drop = next(i for i, line in enumerate(lines) if line.startswith("<circle"))
    svg.write_text("\n".join(lines[:drop] + lines[drop + 1:]))
    assert checks.check_pt(expected, out / "0-pt.json", svg)


def test_pt_check_rejects_malformed_svg(signal_outputs):
    expected, out = signal_outputs
    svg = out / "0-pt.svg"
    svg.write_text(svg.read_text().replace("</svg>", ""))
    assert checks.check_pt(expected, out / "0-pt.json", svg)


def test_pt_check_rejects_infinity_not_written_as_null(signal_outputs):
    expected, out = signal_outputs
    path = out / "0-pt.json"
    path.write_text(path.read_text().replace("null", "-Infinity"))
    assert checks.check_pt(expected, path, out / "0-pt.svg")


def test_pd_check_rejects_swapped_death(signal_outputs):
    expected, out = signal_outputs
    _edit_json(out / "0-pd.json", lambda d: _swap_two_deaths(d["points"], 1))
    assert checks.check_pd(expected, out / "0-pd.json")


def test_rpt_check_rejects_dropped_row_and_wrong_value(signal_outputs):
    expected, out = signal_outputs
    path = out / "0-rpt.csv"
    rows = path.read_text().splitlines()
    path.write_text("\n".join(rows[:-1]) + "\n")
    assert checks.check_rpt_csv(expected, path)
    x, q = rows[-1].split(",")
    rows[-1] = f"{x},{float(q) * (1 + 1e-6)!r}"
    path.write_text("\n".join(rows) + "\n")
    assert checks.check_rpt_csv(expected, path)


@pytest.fixture
def matching_case():
    a, b = tie_heavy(3, 50), tie_heavy(4, 50)
    _, pa, ra = program_transforms(a)
    _, pb, rb = program_transforms(b)
    got = [metrics.wasserstein(pa, pb, 2.0), metrics.wasserstein(pa, pb, INF),
           metrics.wasserstein(ra, rb, 2.0)]
    ta, tb = reference_of(a), reference_of(b)
    return got, (ta["pt"], tb["pt"], ta["rpt"], tb["rpt"])


def test_match_check_accepts_program(matching_case):
    got, refs = matching_case
    assert checks.check_match(got, *refs) == []


@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("factor", [1 + 1e-6, 1 - 1e-6])
def test_match_check_rejects_distance_off_by_1e6(matching_case, which, factor):
    got, refs = matching_case
    got[which] *= factor
    assert checks.check_match(got, *refs)


def test_match_check_rejects_next_lower_bottleneck(matching_case):
    got, refs = matching_case
    M = ref.diagonal_matrix(refs[0], refs[1], ref.pt_slack(refs[0]),
                            ref.pt_slack(refs[1]))
    got[1] = float(M[M < got[1]].max())
    assert checks.check_match(got, *refs)


def _stability_case():
    from morsepeak import GenParams, perturb, random_morse_set
    from morsepeak.stability import check_stability
    K = random_morse_set(GenParams(seed=5))
    L = perturb(K, 0.1, 6)
    sets = [([(q.x, q.y) for q in s.maxima], [(q.x, q.y) for q in s.minima])
            for s in (K, L)]
    r = check_stability(K, L, 2.0, "pt", "pad-origin", seed=5)
    return {"transform": "pt", "p": 2.0, "slack": "pad-origin",
            "lhs": r.lhs, "rhs": r.rhs, "seed": 5}, sets


def test_report_check_accepts_program():
    r, sets = _stability_case()
    assert checks.check_report(r, *sets) == []


@pytest.mark.parametrize("field", ["lhs", "rhs"])
def test_report_check_rejects_off_by_1e6(field):
    r, sets = _stability_case()
    r[field] *= 1 + 1e-6
    assert checks.check_report(r, *sets)


def test_bound_check_flags_broken_bound():
    r, _ = _stability_case()
    assert checks.bound_fails(r) is None
    r["lhs"] = r["rhs"] * (1 + 1e-6)
    assert checks.bound_fails(r)
    r.update(transform="rpt", p=INF, lhs=2 * r["rhs"])
    assert checks.bound_fails(r) is None
    r["lhs"] = 2 * r["rhs"] * (1 + 1e-6)
    assert checks.bound_fails(r)


def test_stability_note_for_near_tied_peaks():
    """A known trial whose PT bound fails at p = 1 although both sides are
    right: the run stays correct and the failure is reported as a note."""
    from morsepeak import GenParams, perturb, random_morse_set
    from morsepeak.stability import check_stability
    seed = 410172350513386
    K = random_morse_set(GenParams(seed=seed))
    L = perturb(K, 0.1, seed + 1)
    sets = [([(q.x, q.y) for q in s.maxima], [(q.x, q.y) for q in s.minima])
            for s in (K, L)]
    rep = check_stability(K, L, 1.0, "pt", "pad-origin", seed=seed)
    r = {"transform": "pt", "p": 1.0, "slack": "pad-origin", "lhs": rep.lhs,
         "rhs": rep.rhs, "seed": seed}
    assert checks.check_report(r, *sets) == []
    assert checks.bound_fails(r)


# ---------------------------------------------------------------------------
# Speed calibration


def test_calibration_loops_take_time():
    for loop in (calib.op_loop_s, calib.import_loop_s):
        assert 0.0 < calib.median_loop_s(3, loop) < 1.0


def test_op_loops_take_five_passes_on_each_side():
    loops = [float(k) for k in range(20)]  # loops[i] ran just before op i
    per_op = run.op_loops(loops)
    assert len(per_op) == 19
    assert per_op[10] == statistics.median(loops[6:16])
    assert per_op[0] == statistics.median(loops[0:6])
    assert per_op[-1] == statistics.median(loops[14:20])


def _run_result(times, loops, rounds_of):
    return {"times": times, "loops": loops, "failed": 0,
            "round": rounds_of, "maxrss_kb": 2048}


def test_end_to_end_is_stated_at_the_reference_speed():
    ref_s = calib.OP_REFERENCE_S
    # every op takes 20 loop passes, while the machine runs at half speed
    loops = [2 * ref_s] * 31
    r = _run_result([40 * ref_s] * 30, loops, 10)
    m = run.end_to_end([0.5, 0.7, 0.6], r, calib)
    assert m["op_p50_ms"] == pytest.approx(1000 * 20 * ref_s)
    assert m["op_p90_ms"] == pytest.approx(1000 * 20 * ref_s)
    assert m["ops_per_s"] == pytest.approx(1 / (20 * ref_s))
    assert m["setup_s"] == pytest.approx(0.6 * calib.IMPORT_REFERENCE_S)
    assert m["peak_rss_mb"] == 2.0


def test_op_p90_is_taken_over_inputs_not_stalls():
    ref_s = calib.OP_REFERENCE_S
    # ten inputs, input j takes j + 1 loop passes; one op in each round
    # stalls for 50 passes, which the per-input medians leave out
    times = []
    for k in range(3):
        for j in range(10):
            times.append((50 if j == k else j + 1) * ref_s)
    r = _run_result(times, [ref_s] * 31, 10)
    m = run.end_to_end([1.0], r, calib)
    per_input = [float(j + 1) for j in range(10)]
    assert m["op_p90_ms"] == pytest.approx(
        1000 * ref_s * statistics.quantiles(per_input, n=10)[8])


# ---------------------------------------------------------------------------
# Tiny runs of the harness


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", ["signal_transform", "diagram_matching",
                                      "stability_trials"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", trace, "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = _run(["--workload", "stability_trials", "--seed", "4",
                     "--seconds", "0.2", "--trace", "1", "--size", "tiny"])
        assert proc.returncode == 0, proc.stderr
        m = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in m.items()
                       if PER_LAYER[k][1] != "self"})
    assert counts[0] == counts[1]
    assert counts[0]["pairing.pair.calls"] > 0


def test_inputs_repeat_for_a_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for w in ("signal_transform", "diagram_matching", "stability_trials"):
        sa = inputs.write_inputs(w, 9, "tiny", a)
        sb = inputs.write_inputs(w, 9, "tiny", b)
        assert sa.get("gen_seeds") == sb.get("gen_seeds")
    for f in a.iterdir():
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_spectrum_pool_has_exact_feature_count():
    for sig in inputs.spectrum_pool(seed=11, pool=3, features=25,
                                    template_peaks=5):
        (ms,) = extract_critical_points(sig)
        assert len(ms.maxima) == 25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "stability_trials", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
