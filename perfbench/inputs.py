"""Seeded input generation for the three workloads.

Everything here runs in the harness process, before the workload process
starts, so none of it counts towards any metric.  The same seed always gives
byte-identical input files.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Full-size inputs and the tiny ones the benchmark's own tests use.
SIZES = {
    "full": {"csv_files": 6, "segments": 3, "samples": 5000,
             "pool": 10, "features": 200, "template_peaks": 24,
             "stability_ops": 80, "trials": 25},
    "tiny": {"csv_files": 2, "segments": 2, "samples": 200,
             "pool": 3, "features": 12, "template_peaks": 4,
             "stability_ops": 3, "trials": 2},
}

QUANTUM = 0.25  # signal values are multiples of this, so plateaus and ties occur


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def signal_csv(rng: np.random.Generator, segments: int, samples: int) -> str:
    """CSV text with a header and blank-line-separated segments.

    Each segment is a slow random walk plus noise, quantized to QUANTUM, over
    its own disjoint stretch of strictly increasing positions.
    """
    lines = ["x,y"]
    for s in range(segments):
        if s:
            lines.append("")
        x = s * 10 * samples + np.cumsum(rng.uniform(0.5, 1.5, samples))
        walk = np.cumsum(rng.normal(0.0, 0.3, samples))
        y = np.round((walk + rng.normal(0.0, 0.6, samples)) / QUANTUM) * QUANTUM
        lines.extend(f"{a:.3f},{b:.2f}" for a, b in zip(x, y))
    return "\n".join(lines) + "\n"


def spectrum_pool(seed: int, pool: int, features: int,
                  template_peaks: int) -> list[list[list[float]]]:
    """Spectrum-like sampled signals with exactly ``features`` maxima each.

    All signals share one peak template (centres, widths, heights); each
    jitters the centres and heights and adds a ripple.  The signal is built
    from an alternating skeleton of 2F+1 extrema, so extraction finds F
    maxima whatever the seed, and each skeleton edge gets two interior,
    strictly monotone samples.
    """
    trng = _rng(seed, 1)
    centres = trng.uniform(50.0, 950.0, template_peaks)
    widths = trng.uniform(5.0, 25.0, template_peaks)
    heights = trng.uniform(2.0, 20.0, template_peaks)
    out = []
    for s in range(pool):
        rng = _rng(seed, 100 + s)
        c = centres + rng.normal(0.0, 3.0, template_peaks)
        h = heights * rng.uniform(0.8, 1.2, template_peaks)
        n = 2 * features + 1
        step = 1000.0 / (n - 1)
        x = np.linspace(0.0, 1000.0, n) + rng.uniform(-0.3, 0.3, n) * step
        env = (h[None, :] * np.exp(
            -0.5 * ((x[:, None] - c[None, :]) / widths[None, :]) ** 2)).sum(1)
        y = env + rng.uniform(0.05, 1.0, n)
        for k in range(0, n, 2):  # minima sit strictly below both neighbours
            nb = [y[j] for j in (k - 1, k + 1) if 0 <= j < n]
            y[k] = min(nb) - rng.uniform(0.05, 1.0)
        samples = []
        for k in range(n - 1):
            for t in (0.0, 1.0 / 3.0, 2.0 / 3.0):
                samples.append([float(x[k] + t * (x[k + 1] - x[k])),
                                float(y[k] + t * (y[k + 1] - y[k]))])
        samples.append([float(x[-1]), float(y[-1])])
        out.append(samples)
    return out


def stability_seeds(seed: int, count: int) -> list[int]:
    """The fixed sequence of GenParams seeds one round of ops runs through."""
    return [int(v) for v in _rng(seed, 2).integers(0, 2**31, count)]


def write_inputs(workload: str, seed: int, size: str, workdir: Path) -> dict:
    """Write the inputs of one workload under ``workdir``; return its spec."""
    z = SIZES[size]
    spec: dict = {"workload": workload, "seed": seed, "size": size}
    if workload == "signal_transform":
        rng = _rng(seed, 0)
        files = []
        for i in range(z["csv_files"]):
            path = workdir / f"signal{i}.csv"
            path.write_text(signal_csv(rng, z["segments"], z["samples"]))
            files.append(str(path))
        spec["csv"] = files
    elif workload == "diagram_matching":
        pool = spectrum_pool(seed, z["pool"], z["features"], z["template_peaks"])
        path = workdir / "pool.json"
        path.write_text(json.dumps(pool))
        spec["pool"] = str(path)
        spec["pairs"] = [[i, j] for i in range(z["pool"])
                         for j in range(i + 1, z["pool"])]
    elif workload == "stability_trials":
        spec["gen_seeds"] = stability_seeds(seed, z["stability_ops"])
        spec["trials"] = z["trials"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec
