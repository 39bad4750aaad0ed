"""The workload process: set up, then time whole rounds of operations.

Run by ``run.py`` as ``python3 worker.py <spec.json> <result.json>``.  The
spec names the workload, its input files, the run length, whether to trace,
and whether to stop after set-up.  Apart from the calibration loops of
``calib.py`` (small single-threaded numpy calls, no BLAS), the process does
no numpy work of its own, so the only threads it holds are the program's.

Set-up is timed from just before the program is imported to the end of the
untimed warm-up op; reading the harness's input files happens before it.
Every phase of set-up and every op is timed next to a calibration loop, so
that the harness can report each time at the reference speed.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calib
from ops import WORKLOADS

SETUP_CALIBRATIONS = 5  # loop passes before, between and after set-up phases


def timed_rounds(ops, workload, seconds: float, min_rounds: int):
    """Repeat whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` rounds ran.  An op that raises counts as failed.  The
    calibration loop runs before the first op and after every op.  Returns
    per-op seconds, the loop's seconds (one more than ops), failures, the
    first errors, the first record of each op in the round (None if it
    always failed) and the number of later records that differ from it."""
    times: list[float] = []
    loops = [calib.op_loop_s()]
    failed = 0
    errors: list[str] = []
    first: dict = {}
    drift = 0
    deadline = perf_counter() + seconds
    while True:
        for j, op in enumerate(ops):
            t0 = perf_counter()
            try:
                out = op()
            except Exception as exc:  # counted and reported, never silent
                out = None
                if len(errors) < 5:
                    errors.append(f"{type(exc).__name__}: {exc}")
            times.append(perf_counter() - t0)
            loops.append(calib.op_loop_s())
            if out is None:
                failed += 1
                continue
            record = workload.record(out)
            if j not in first:
                first[j] = record
            elif record != first[j]:
                drift += 1
        if perf_counter() >= deadline and len(times) >= min_rounds * len(ops):
            break
    outputs = [first.get(j) for j in range(len(ops))]
    return times, loops, failed, errors, outputs, drift


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[spec["workload"]](spec, out_dir)

    # set-up runs in three phases with the loop before, between and after
    # them; each phase is divided by the mean of the two loops around it
    loops = [calib.median_loop_s(SETUP_CALIBRATIONS, calib.import_loop_s)]
    phases = []
    t0 = perf_counter()
    import morsepeak  # noqa: F401  (the import is part of set-up)
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    phases.append(perf_counter() - t0)
    loops.append(calib.median_loop_s(SETUP_CALIBRATIONS, calib.import_loop_s))
    t0 = perf_counter()
    workload.prepare()
    ops = workload.round()
    phases.append(perf_counter() - t0)
    loops.append(calib.median_loop_s(SETUP_CALIBRATIONS, calib.import_loop_s))
    t0 = perf_counter()
    try:
        ops[0]()  # untimed warm-up
    except Exception:
        pass  # the timed rounds count and report the same failure
    phases.append(perf_counter() - t0)
    loops.append(calib.median_loop_s(SETUP_CALIBRATIONS, calib.import_loop_s))

    result: dict = {
        "setup_s": sum(phases),
        "setup_scaled": sum(t / (0.5 * (a + b))
                            for t, a, b in zip(phases, loops, loops[1:])),
    }
    if not spec["setup_only"]:
        if tracer is not None:
            tracer.reset()
        times, loops, failed, errors, outputs, drift = timed_rounds(
            ops, workload, spec["seconds"], spec["min_rounds"])
        result.update({
            "times": times, "loops": loops, "failed": failed,
            "errors": errors,
            "round": len(ops), "outputs": outputs, "drift": drift,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "summary": (workload.summary() if hasattr(workload, "summary")
                        else {}),
        })
        if tracer is not None:
            result["per_layer"] = tracer.per_layer(len(times))
            result["traced_p50_ms"] = 1000.0 * statistics.median(times)
            tracer.write(Path(spec["trace_stem"]))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
