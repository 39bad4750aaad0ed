"""Command-line front end: morsepeak extract|transform|distance|stability.

Exit codes: 2 parse/input error, 3 invalid Morse set, 4 kind mismatch.
Extended reals are printed as "inf"/"-inf"; structured JSON uses null.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

from . import plots
from .core import (InvalidMorseSetError, MorseSet, extract_critical_points,
                   read_csv_series)
from .metrics import (DIAGONAL, PAD_ORIGIN, KindMismatchError, morse_distance,
                      wasserstein)
from .pairing import (PDSet, PTSet, RPTSet, check_tau, denoise, join_pd,
                      join_pt, join_rpt, persistence_transformation,
                      reduced_persistence_transformation,
                      to_persistence_diagram)
from .stability import GenParams, reports_to_json, run_trials

EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_KIND = 4


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _parse_p(token: str) -> float:
    if token.strip().lower() in ("inf", "infinity"):
        return math.inf
    p = float(token)
    if p < 1:
        raise argparse.ArgumentTypeError("p must be >= 1 or 'inf'")
    return p


@contextmanager
def _json_shape(name: str):
    """JSON input of the wrong shape is an input error naming the input."""
    try:
        yield
    except (TypeError, IndexError, OverflowError) as exc:
        source = "stdin" if name == "-" else name
        raise ValueError(f"{source}: JSON of the wrong shape ({exc})") from None


def _load_morse_sets(text: str, plateau_eps: float,
                     name: str) -> list[MorseSet]:
    if text.lstrip().startswith(("{", "[")):
        data = json.loads(text)
        with _json_shape(name):
            return [MorseSet.from_json_dict(d)
                    for d in ([data] if isinstance(data, dict) else data)]
    return extract_critical_points(read_csv_series(text), plateau_eps)


def _dump_rows(doc: dict[str, list[list]]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1)`` for a dict of lists of
    rows of one length: the C encoder writes the scalars, joins the layout."""
    items = []
    for key in sorted(doc):
        rows, head = doc[key], f" {json.dumps(key)}: ["
        if not rows:
            items.append(head + "]")
            continue
        cells = json.dumps(list(chain.from_iterable(rows)))[1:-1].split(", ")
        body = "\n  ],\n  [\n   ".join(
            map(",\n   ".join, zip(*[iter(cells)] * len(rows[0]))))
        items.append(f"{head}\n  [\n   {body}\n  ]\n ]")
    return "{\n" + ",\n".join(items) + "\n}"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_extract(args) -> int:
    sets = extract_critical_points(read_csv_series(_read_input(args.input)),
                                   args.plateau_eps)
    docs = [s.to_json_dict() for s in sets]
    payload = docs[0] if len(docs) == 1 else docs
    _write_output(json.dumps(payload, sort_keys=True, indent=1), args.output)
    return 0


def cmd_transform(args) -> int:
    check_tau(args.tau)  # for every kind, though it filters PT and PD only
    sets = _load_morse_sets(_read_input(args.input), args.plateau_eps,
                            args.input)
    if args.kind == "pt":
        result = join_pt(denoise(persistence_transformation(s), args.tau)
                         for s in sets)
    elif args.kind == "rpt":
        result = join_rpt(reduced_persistence_transformation(s, args.clip_essential)
                          for s in sets)
    else:
        result = join_pd(to_persistence_diagram(
            denoise(persistence_transformation(s), args.tau)) for s in sets)
    if args.svg:
        # looked up on the module at call time, so a wrapped renderer is used
        render = getattr(plots, f"render_{args.kind}")
        Path(args.svg).write_text(render(result))
    _write_output(_to_csv(result) if args.format == "csv"
                  else _dump_rows(result.to_json_dict()), args.output)
    return 0


def _to_csv(result) -> str:
    rows = result.table()
    line = ",".join(["%.12g"] * rows.shape[1])  # writes ±∞ as inf/-inf
    return ("\n".join([",".join(result.columns)] + [line] * len(rows))
            % tuple(rows.ravel().tolist()) + "\n")


def _load_transform(text: str, kind: str, name: str):
    cls = {"pt": PTSet, "rpt": RPTSet, "pd": PDSet}[kind]
    with _json_shape(name):
        return cls.from_json_dict(json.loads(text))


def cmd_distance(args) -> int:
    ta, tb = _read_input(args.a), _read_input(args.b)
    if args.kind == "morse":
        sa = _load_morse_sets(ta, args.plateau_eps, args.a)
        sb = _load_morse_sets(tb, args.plateau_eps, args.b)
        if len(sa) != 1 or len(sb) != 1:
            raise ValueError("morse distance expects single-segment inputs")
        d = morse_distance(sa[0], sb[0], args.p)
    else:
        d = wasserstein(_load_transform(ta, args.kind, args.a),
                        _load_transform(tb, args.kind, args.b),
                        args.p, args.slack)
    sys.stdout.write(format(d, ".12g") + "\n")
    return 0


def cmd_stability(args) -> int:
    params = GenParams(peak_count_range=tuple(args.peaks),
                       domain=tuple(args.domain),
                       height_range=tuple(args.heights),
                       seed=args.seed)
    transforms = ("pt", "rpt") if args.transform == "both" else (args.transform,)
    threads = os.environ.get("MORSEPEAK_THREADS") or "1"
    if not threads.strip().isdecimal():
        raise ValueError(f"MORSEPEAK_THREADS={threads!r} is not a whole number")
    reports = run_trials(params, args.trials, epsilon=args.epsilon,
                         ps=tuple(args.p), transforms=transforms,
                         slack=args.slack, max_workers=int(threads))
    _write_output(reports_to_json(reports), args.output)
    gated = [r for r in reports
             if r.slack == PAD_ORIGIN and r.equal_cardinality]
    return 0 if all(r.holds for r in gated) else 1


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="morsepeak",
        description="Peak persistence transforms and metrics for 1-D signals")
    sub = top.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="CSV -> validated Morse-set JSON")
    ex.add_argument("input", help="CSV path or '-' for stdin")
    ex.add_argument("--plateau-eps", type=float, default=0.0)
    ex.add_argument("-o", "--output", default=None)
    ex.set_defaults(func=cmd_extract)

    tr = sub.add_parser("transform", help="Morse JSON or CSV -> PT/RPT/PD")
    tr.add_argument("input")
    tr.add_argument("--kind", choices=("pt", "rpt", "pd"), required=True)
    tr.add_argument("--tau", type=float, default=0.0,
                    help="drop PT and PD features of persistence < TAU")
    tr.add_argument("--clip-essential", action="store_true")
    tr.add_argument("--plateau-eps", type=float, default=0.0)
    tr.add_argument("--svg", default=None, metavar="PATH")
    tr.add_argument("--format", choices=("json", "csv"), default="json")
    tr.add_argument("-o", "--output", default=None)
    tr.set_defaults(func=cmd_transform)

    di = sub.add_parser("distance", help="distance between two inputs")
    di.add_argument("a")
    di.add_argument("b")
    di.add_argument("--kind", choices=("morse", "pt", "rpt", "pd"),
                    default="morse")
    di.add_argument("--p", type=_parse_p, default=2.0)
    di.add_argument("--slack", choices=(DIAGONAL, PAD_ORIGIN),
                    default=DIAGONAL)
    di.add_argument("--plateau-eps", type=float, default=0.0)
    di.set_defaults(func=cmd_distance)

    st = sub.add_parser("stability", help="randomized stability trials")
    st.add_argument("--trials", type=int, default=100)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--p", type=_parse_p, nargs="+",
                    default=[1.0, 2.0, math.inf])
    st.add_argument("--transform", choices=("pt", "rpt", "both"),
                    default="both")
    st.add_argument("--slack", choices=(DIAGONAL, PAD_ORIGIN),
                    default=PAD_ORIGIN)
    st.add_argument("--epsilon", type=float, default=0.1)
    st.add_argument("--peaks", type=int, nargs=2, default=[1, 10],
                    metavar=("LO", "HI"))
    st.add_argument("--domain", type=float, nargs=2, default=[0.0, 100.0])
    st.add_argument("--heights", type=float, nargs=2, default=[0.0, 10.0])
    st.add_argument("-o", "--output", default="stability-report.json")
    st.set_defaults(func=cmd_stability)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InvalidMorseSetError as exc:
        print(f"morsepeak: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except KindMismatchError as exc:
        print(f"morsepeak: {exc}", file=sys.stderr)
        return EXIT_KIND
    except (ValueError, OSError, KeyError) as exc:
        print(f"morsepeak: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
