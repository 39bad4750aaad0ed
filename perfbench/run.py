"""Run one workload of the morsepeak benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree holding ``src/morsepeak``.  The
harness writes the workload's seeded inputs, runs set-up alone a few times
and then the timed workload, each in a fresh single-threaded process, checks
the program's outputs against the references, and prints one JSON object as
the last line of standard output.  With ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run whose
program functions are wrapped by ``spans.py``.  Diagnostics go to standard
error, and every result is also appended to ``.perfbench/results.jsonl``.
"""
from __future__ import annotations

import os

# single-threaded numerics here and, through the environment, in the workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_RUNS = 3   # set-up samples per run: two set-up-only processes + the timed one
MIN_ROUNDS = 3   # so that every input has a median of at least three times
DEADLINE_S = 170.0
LOOP_WINDOW = 5  # calibration passes on each side of an op

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("MORSEPEAK_THREADS", None)  # run_trials stays serial
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict, work: Path, setup_only: bool, deadline: float) -> dict:
    spec = dict(spec, setup_only=setup_only)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(result_path.read_text())


def op_loops(loops: list[float]) -> list[float]:
    """The calibration loop time of each op: the median of the five loop
    passes before it and the five after it.  ``loops[i]`` ran just before
    op ``i`` and ``loops[i + 1]`` just after it."""
    return [statistics.median(loops[max(0, i - LOOP_WINDOW + 1):
                                    i + LOOP_WINDOW + 1])
            for i in range(len(loops) - 1)]


def end_to_end(setups: list[float], r: dict, calib) -> dict:
    """The end-to-end metrics at the reference speeds of ``calib.py``.

    ``setups`` holds each set-up's time divided by its import-like loop
    time; every op time is divided by its op loop time from ``op_loops``.
    ``op_p90_ms`` is taken over the inputs of a round, each at the median
    of its own scaled times, so that it measures the slow inputs and not
    the machine's passing stalls.
    """
    ref = calib.OP_REFERENCE_S
    scaled = [t / c for t, c in zip(r["times"], op_loops(r["loops"]))]
    completed = len(scaled) - r["failed"]
    per_input = [statistics.median(scaled[j::r["round"]])
                 for j in range(r["round"])]
    return {
        "setup_s": calib.IMPORT_REFERENCE_S * statistics.median(setups),
        "ops_per_s": completed / (ref * sum(scaled)),
        "op_p50_ms": 1000.0 * ref * statistics.median(scaled),
        "op_p90_ms": 1000.0 * ref * statistics.quantiles(per_input, n=10)[8],
        "peak_rss_mb": r["maxrss_kb"] / 1024.0,
    }


def wall_figures(setups: list[dict], r: dict) -> dict:
    """The same figures in plain wall time, for the diagnostics."""
    times = r["times"]
    return {
        "wall_setups_s": [s["setup_s"] for s in setups],
        "wall_ops_per_s": (len(times) - r["failed"]) / sum(times),
        "wall_p50_ms": 1000.0 * statistics.median(times),
        "wall_p90_ms": 1000.0 * statistics.quantiles(times, n=10)[8],
        "loop_p50_ms": 1000.0 * statistics.median(r["loops"]),
        "loop_iqr_ms": [1000.0 * q for q in
                        statistics.quantiles(r["loops"], n=4)[::2]],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("signal_transform", "diagram_matching",
                             "stability_trials"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs and no minimum op count, for tests")
    args = ap.parse_args(argv)
    if not (SRC / "morsepeak" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'morsepeak'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import calib
    import inputs
    from checks import CHECKS
    from spans import PER_LAYER

    deadline = time.monotonic() + DEADLINE_S
    work = STATE / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = inputs.write_inputs(args.workload, args.seed, args.size, work)
        spec.update(out_dir=str(work / "out"), seconds=args.seconds,
                    trace=bool(args.trace),
                    min_rounds=MIN_ROUNDS if args.size == "full" else 1,
                    trace_stem=str(STATE / f"trace-{args.workload}"))
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker(spec, work, True, deadline))
        r = run_worker(spec, work, False, deadline)
        setups.append(r)
        t0 = time.perf_counter()
        problems, notes = CHECKS[args.workload](spec, r["outputs"])
        if r["drift"]:
            problems.append(f"{r['drift']} ops gave another answer than the "
                            f"first op on the same input")
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in r["per_layer"].items()}
    else:
        scaled_setups = [s["setup_scaled"] for s in setups]
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in end_to_end(scaled_setups, r, calib).items()}
    result = {"correct": not problems, "attempted": len(r["times"]),
              "failed": r["failed"], "metrics": metrics}
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "size": args.size, "seconds": args.seconds,
            "rounds": len(r["times"]) // r["round"],
            **wall_figures(setups, r),
            "check_s": check_s, "errors": r["errors"],
            "problems": problems[:10], "notes": notes[:10],
            **r.get("summary", {})}
    print(json.dumps(info), file=sys.stderr)
    STATE.mkdir(exist_ok=True)
    with open(STATE / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
