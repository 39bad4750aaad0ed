"""Command-line front end: morsepeak extract|transform|distance|stability.

Exit codes: 2 parse/input error (a transform document of another kind than
--kind is one) or an allocation that runs out of memory, 3 invalid Morse set,
1 from stability when a gated trial fails.
Extended reals are printed as "inf"/"-inf"; structured JSON uses null.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import plots
from .core import (InvalidMorseSetError, MorseSet, extract_critical_points,
                   read_csv_series)
from .metrics import DIAGONAL, PAD_ORIGIN, morse_distance, wasserstein
from .pairing import (PDSet, PTSet, RPTSet, check_tau, denoise, join_pt,
                      join_rpt, persistence_transformation,
                      reduced_persistence_transformation,
                      to_persistence_diagram)
from .stability import GenParams, reports_to_json, run_trials

EXIT_PARSE = 2
EXIT_INVALID = 3


def _read_input(path: str) -> str:
    """The text of a file or of stdin, without a leading byte-order mark."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return text.removeprefix("\ufeff")


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text)


def _parse_p(token: str) -> float:
    p = float(token)
    if not p >= 1:  # NaN too
        raise argparse.ArgumentTypeError("p must be >= 1 or 'inf'")
    return p


def _numbers(data) -> None:
    """TypeError if a value of the decoded JSON ``data``, at any depth, is a
    string or a boolean: every cell of a document is a number or null."""
    stack = [data]
    while stack:
        x = stack.pop()
        if isinstance(x, (str, bool)):
            raise TypeError(f"{json.dumps(x)} is not a number")
        stack.extend(x.values() if isinstance(x, dict) else
                     x if isinstance(x, list) else ())


def _load_json(text: str, name: str, decode):
    """``decode`` of the JSON document ``text``.  A syntax error, too deep a
    nesting or a document of the wrong shape, a string or a boolean cell
    included, is an input error naming the input."""
    source = "stdin" if name == "-" else name
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: {exc}") from None
    try:
        _numbers(data)
        return decode(data)
    except (TypeError, IndexError, OverflowError, KeyError,
            ValueError) as exc:
        raise ValueError(f"{source}: JSON of the wrong shape ({exc})") from None


def _load_morse_sets(text: str, plateau_eps: float,
                     name: str) -> list[MorseSet]:
    if text.lstrip().startswith(("{", "[")):
        return _load_json(text, name, lambda data: [
            MorseSet.from_json_dict(d)
            for d in ([data] if isinstance(data, dict) else data)])
    return extract_critical_points(read_csv_series(text), plateau_eps)


def _dump_rows(doc: dict[str, np.ndarray]) -> str:
    """``json.dumps`` of ``doc`` as lists, ``sort_keys=True, indent=1``, for
    a dict of 1-D or 2-D float arrays whose masked cells are written null:
    the C encoder writes the cells, :func:`_list_body` the layout."""
    return "{\n" + ",\n".join(f" {json.dumps(key)}: [{_list_body(doc[key])}]"
                              for key in sorted(doc)) + "\n}"


def _list_body(rows: np.ndarray) -> str:
    """The text between the brackets of one list of ``_dump_rows``; its
    cells die on return, before the next list's are made."""
    if not len(rows):
        return ""
    cells = json.dumps(np.ma.getdata(rows).ravel().tolist())[1:-1].split(", ")
    for i in np.flatnonzero(np.ma.getmaskarray(rows)).tolist():
        cells[i] = "null"
    if rows.ndim == 1:
        return "\n  " + ",\n  ".join(cells) + "\n "
    body = "\n  ],\n  [\n   ".join(
        map(",\n   ".join, zip(*[iter(cells)] * rows.shape[1])))
    return f"\n  [\n   {body}\n  ]\n "


def _dump_sets(sets: list[MorseSet]) -> str:
    """``json.dumps(payload, sort_keys=True, indent=1)`` for the JSON
    document of one Morse set, or the list of them if there are several."""
    docs = [_dump_rows(s._json_arrays()) for s in sets]
    if len(docs) == 1:
        return docs[0]
    # the list nests each document one space deeper
    return "[\n " + ",\n ".join(d.replace("\n", "\n ") for d in docs) + "\n]"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_extract(args) -> int:
    sets = extract_critical_points(read_csv_series(_read_input(args.input)),
                                   args.plateau_eps)
    _write_output(_dump_sets(sets), args.output)
    return 0


def cmd_transform(args) -> int:
    check_tau(args.tau)  # for every kind, though it filters PT and PD only
    sets = _load_morse_sets(_read_input(args.input), args.plateau_eps,
                            args.input)
    if args.kind == "rpt":
        result = join_rpt(reduced_persistence_transformation(s, args.clip_essential)
                          for s in sets)
    else:  # a PD is the PT without positions
        result = join_pt(denoise(persistence_transformation(s), args.tau)
                         for s in sets)
        if args.kind == "pd":
            result = to_persistence_diagram(result)
    if args.svg:
        # looked up on the module at call time, so a wrapped renderer is used
        render = getattr(plots, f"render_{args.kind}")
        Path(args.svg).write_text(render(result))
    _write_output(_to_csv(result) if args.format == "csv"
                  else _dump_rows(result._json_arrays()), args.output)
    return 0


def _to_csv(result) -> str:
    rows = result.table()
    line = ",".join(["%.12g"] * rows.shape[1])  # writes ±∞ as inf/-inf
    return ("\n".join([",".join(result.columns)] + [line] * len(rows))
            % tuple(rows.ravel().tolist()) + "\n")


def _load_transform(text: str, kind: str, name: str):
    cls = {"pt": PTSet, "rpt": RPTSet, "pd": PDSet}[kind]
    return _load_json(text, name, cls.from_json_dict)


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


@cache  # one per process: main calls it for every command
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
    # argparse reads a token as a negative number, not an option, only if
    # this private pattern matches it, and by default it knows no exponent
    # or -inf; no option of this parser looks like one
    st._negative_number_matcher = re.compile(
        r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.I)
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
    except (ValueError, OSError) as exc:
        print(f"morsepeak: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:  # numpy's names the array it could not make
        detail = f" ({exc})" if str(exc) else ""
        print(f"morsepeak: {args.command} ran out of memory{detail}",
              file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
