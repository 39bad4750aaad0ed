"""Compare the program's outputs with the references in ``reference.py``.

Each ``check_*`` returns a list of problems; an empty list means every
distinct input of the round was answered correctly.  The workload checks
in ``CHECKS`` also return notes: findings about the inputs that are not
wrong answers, such as a stability trial whose bound fails although the
program computed both sides correctly.  They run in the harness process
after the workload process has ended.
"""
from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import reference as ref
from ops import EPSILON, KINDS

PS = (1.0, 2.0, math.inf)
TRANSFORMS = ("pt", "rpt")


def _num(v, none_as: float) -> float:
    return none_as if v is None else float(v)


def _pt_key(f):
    return (-(f[1] - f[2]), f[0])


def _json(path: Path, problems: list[str]):
    text = path.read_text()
    if "Infinity" in text or "NaN" in text:
        problems.append(f"{path.name}: non-finite value not written as null")
    return json.loads(text)


def check_pt(expected: dict, json_path: Path, svg_path: Path) -> list[str]:
    problems: list[str] = []
    data = _json(json_path, problems)
    got = [(x, _num(b, math.inf), _num(d, -math.inf))
           for x, b, d in data["features"]]
    want = sorted(expected["pt"], key=_pt_key)
    if got != want:
        problems.append(f"{json_path.name}: PT features differ from the "
                        f"reference ({len(got)} vs {len(want)} features)")
    diag = sorted((x, y) for x, y in data["diagonal"])
    if diag != sorted(expected["diagonal"]):
        problems.append(f"{json_path.name}: PT diagonal differs from the reference")
    try:
        root = ET.fromstring(svg_path.read_text())
    except ET.ParseError as exc:
        return problems + [f"{svg_path.name}: not well-formed XML: {exc}"]
    marks = sum(1 for el in root.iter()
                if el.tag.rsplit("}", 1)[-1] in ("circle", "rect")) - 2
    if marks != len(want) + len(expected["diagonal"]):
        problems.append(f"{svg_path.name}: {marks} markers for "
                        f"{len(want) + len(expected['diagonal'])} points")
    return problems


def check_rpt_csv(expected: dict, csv_path: Path) -> list[str]:
    lines = csv_path.read_text().splitlines()
    want = sorted(expected["rpt"], key=lambda f: (-f[1], f[0]))
    if not lines or lines[0] != "x,persistence":
        return [f"{csv_path.name}: header {lines[:1]}"]
    rows = lines[1:]
    if len(rows) != len(want):
        return [f"{csv_path.name}: {len(rows)} rows for {len(want)} features"]
    for row, (x, q) in zip(rows, want):
        a, b = (float(c) for c in row.split(","))
        if not (ref.close(a, x, 1e-11) and ref.close(b, q, 1e-11)):
            return [f"{csv_path.name}: row {row!r} differs from ({x!r}, {q!r})"]
    return []


def check_pd(expected: dict, json_path: Path) -> list[str]:
    problems: list[str] = []
    data = _json(json_path, problems)
    got = sorted((_num(b, math.inf), _num(d, -math.inf)) for b, d in data["points"])
    if got != sorted(expected["pd"]):
        problems.append(f"{json_path.name}: PD points differ from the reference")
    return problems


def check_signal(spec: dict, outputs: list) -> tuple[list[str], list[str]]:
    out = Path(spec["out_dir"])
    problems: list[str] = []
    for i, csv in enumerate(spec["csv"]):
        expected = ref.signal_transforms(Path(csv).read_text())
        for k, kind in enumerate(KINDS):
            stem = out / f"{i}-{kind}"
            if outputs[i * len(KINDS) + k] is None:
                continue  # the op always failed; counted as failed
            if kind == "pt":
                problems += check_pt(expected, stem.with_suffix(".json"),
                                     stem.with_suffix(".svg"))
            elif kind == "rpt":
                problems += check_rpt_csv(expected, stem.with_suffix(".csv"))
            else:
                problems += check_pd(expected, stem.with_suffix(".json"))
    return problems, []


def pool_transforms(samples) -> tuple[list, list]:
    pts, rpts = [], []
    for s in samples:
        a = np.array(s)
        t = ref.transforms(*ref.critical_points(a[:, 0], a[:, 1]))
        pts.append(t["pt"])
        rpts.append(t["rpt"])
    return pts, rpts


def check_match(got: list, pt_a, pt_b, rpt_a, rpt_b) -> list[str]:
    """One diagram_matching op: PT W2, PT bottleneck and RPT W2."""
    pt2, ptinf, rpt2 = got[:3]
    M = ref.diagonal_matrix(pt_a, pt_b, ref.pt_slack(pt_a), ref.pt_slack(pt_b))
    R = ref.diagonal_matrix(rpt_a, rpt_b, ref.rpt_slack(rpt_a),
                            ref.rpt_slack(rpt_b))
    problems = []
    want = ref.wasserstein(M, 2.0)
    if not ref.close(pt2, want):
        problems.append(f"PT W2 {pt2!r}, reference {want!r}")
    if not ref.bottleneck_certified(M, ptinf):
        problems.append(f"PT bottleneck {ptinf!r} has no certificate")
    if ptinf > pt2 * (1 + 1e-12):
        problems.append(f"PT bottleneck {ptinf!r} exceeds PT W2 {pt2!r}")
    want = ref.wasserstein(R, 2.0)
    if not ref.close(rpt2, want):
        problems.append(f"RPT W2 {rpt2!r}, reference {want!r}")
    return problems


def check_matching(spec: dict, outputs: list) -> tuple[list[str], list[str]]:
    pts, rpts = pool_transforms(json.loads(Path(spec["pool"]).read_text()))
    problems = []
    for (a, b), got in zip(spec["pairs"], outputs):
        if got is None:
            continue
        problems += [f"pair {a},{b}: {msg}" for msg in
                     check_match(got, pts[a], pts[b], rpts[a], rpts[b])]
    return problems, []


def check_report(r: dict, K, L) -> list[str]:
    """One stability report against the reference rank distance and the
    reference transform distance."""
    (kmax, kmin), (lmax, lmin) = K, L
    p = float(r["p"])
    rhs = ref.rank_distance(kmax, kmin, lmax, lmin, p)
    problems = []
    if not ref.close(r["rhs"], rhs):
        problems.append(f"rhs {r['rhs']!r}, reference {rhs!r}")
    tk, tl = ref.morse_transforms(kmax, kmin), ref.morse_transforms(lmax, lmin)
    if r["slack"] == "pad-origin":
        M = ref.origin_matrix(tk[r["transform"]], tl[r["transform"]])
    else:
        slack = ref.pt_slack if r["transform"] == "pt" else ref.rpt_slack
        M = ref.diagonal_matrix(tk[r["transform"]], tl[r["transform"]],
                                slack(tk[r["transform"]]),
                                slack(tl[r["transform"]]))
    lhs = ref.wasserstein(M, p)
    if not ref.close(r["lhs"], lhs):
        problems.append(f"lhs {r['lhs']!r}, reference {lhs!r}")
    return problems


def bound_fails(r: dict) -> str | None:
    """PT reports must satisfy lhs <= rhs + tol, RPT reports
    lhs <= 2^(1-1/p) rhs + tol, with tol = 1e-9 max(1, rhs)."""
    p = float(r["p"])
    factor = 1.0 if r["transform"] == "pt" else 2.0 ** (1.0 - 1.0 / p)
    if r["lhs"] <= factor * r["rhs"] + 1e-9 * max(1.0, r["rhs"]):
        return None
    return (f"{r['transform']} bound fails at p={p}: lhs {r['lhs']!r} > "
            f"{factor!r} * rhs {r['rhs']!r}, trial seed {r['seed']}")


def check_stability(spec: dict, outputs: list) -> tuple[list[str], list[str]]:
    """Wrong or missing reports are problems.  A failed bound is a note:
    with near-tied peaks the perturbation can swap their elder order, and
    the constant-1 PT bound then fails by a fraction of a percent although
    both sides agree with the references, on about one trial in 12 000."""
    from morsepeak.stability import GenParams, perturb, random_morse_set

    def coords(points):
        return [(q.x, q.y) for q in points]

    problems, notes = [], []
    for gen_seed, reports in zip(spec["gen_seeds"], outputs):
        if reports is None:
            continue
        if len(reports) != spec["trials"] * len(PS) * len(TRANSFORMS):
            problems.append(f"seed {gen_seed}: {len(reports)} reports for "
                            f"{spec['trials']} trials")
        sets = {}
        for r in reports:
            seed = r["seed"]
            if seed not in sets:
                K = random_morse_set(GenParams(seed=seed))
                L = perturb(K, EPSILON, seed + 1)
                sets[seed] = [(coords(s.maxima), coords(s.minima)) for s in (K, L)]
            problems += [f"seed {gen_seed}, trial seed {seed}, "
                         f"{r['transform']} p={r['p']}: {msg}"
                         for msg in check_report(r, *sets[seed])]
            fail = bound_fails(r)
            if fail:
                notes.append(fail)
        kinds = sorted((r["seed"], r["transform"], float(r["p"])) for r in reports)
        if kinds != sorted((s, t, p) for s in sets for t in TRANSFORMS for p in PS):
            problems.append(f"seed {gen_seed}: reports do not cover "
                            f"PT and RPT at p = 1, 2, inf once per trial")
    return problems, notes


CHECKS = {
    "signal_transform": check_signal,
    "diagram_matching": check_matching,
    "stability_trials": check_stability,
}
