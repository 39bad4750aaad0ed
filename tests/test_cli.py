import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

import morsepeak
from morsepeak import SampledSeries, extract_critical_points
from morsepeak.cli import _dump_rows, _dump_sets, build_parser, main

E1_CSV = "x,y\n0,0\n1,3\n2,1\n3,5\n4,0.5\n5,2\n6,0\n"


@pytest.fixture
def e1_csv(tmp_path):
    path = tmp_path / "e1.csv"
    path.write_text(E1_CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtract:
    def test_csv_to_json(self, capsys, e1_csv):
        code, out, _ = run(capsys, "extract", e1_csv)
        assert code == 0
        doc = json.loads(out)
        assert doc["maxima"] == [[3.0, 5.0], [1.0, 3.0], [5.0, 2.0]]
        assert doc["domain"] == [0.0, 6.0]

    def test_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(E1_CSV))
        code, out, _ = run(capsys, "extract", "-")
        assert code == 0 and json.loads(out)["domain"] == [0.0, 6.0]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0\nnope,1\n")
        code, _, err = run(capsys, "extract", str(bad))
        assert code == 2 and "morsepeak:" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "extract", str(tmp_path / "absent.csv"))
        assert code == 2

    def test_bad_args_exit_2(self, capsys):
        code, _, _ = run(capsys, "extract")
        assert code == 2

    def test_nan_sample_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("0,0\n1,nan\n2,1\n3,0\n")
        code, out, err = run(capsys, "extract", str(bad))
        assert code == 2 and out == ""
        assert "morsepeak: sample 1 is not finite" in err


class TestTransform:
    def test_pt_json(self, capsys, e1_csv):
        code, out, _ = run(capsys, "transform", e1_csv, "--kind", "pt")
        assert code == 0
        doc = json.loads(out)
        assert doc["features"][0] == [3.0, 5.0, None]
        assert len(doc["diagonal"]) == 4

    def test_pipe_composability(self, capsys, monkeypatch, e1_csv, tmp_path):
        import io
        code, extracted, _ = run(capsys, "extract", e1_csv)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(extracted))
        code, via_json, _ = run(capsys, "transform", "-", "--kind", "pt")
        assert code == 0
        code, via_csv, _ = run(capsys, "transform", e1_csv, "--kind", "pt")
        assert via_json == via_csv

    def test_denoise_tau(self, capsys, e1_csv):
        code, out, _ = run(capsys, "transform", e1_csv, "--kind", "pt",
                           "--tau", "1.8")
        doc = json.loads(out)
        assert [f[0] for f in doc["features"]] == [3.0, 1.0]
        assert doc["diagonal"] == []

    def test_nan_tau_exit_2(self, capsys, e1_csv):
        # checked for RPT too, although only PT and PD are filtered by it
        for kind in ("pt", "rpt", "pd"):
            for tau in ("nan", "-5"):
                code, out, err = run(capsys, "transform", e1_csv, "--kind",
                                     kind, "--tau", tau)
                assert (code, out) == (2, "")
                assert err == "morsepeak: tau must be a nonnegative number\n"

    def test_rpt_csv_inf_token(self, capsys, e1_csv):
        code, out, _ = run(capsys, "transform", e1_csv, "--kind", "rpt",
                           "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "x,persistence"
        assert lines[1] == "3,inf"

    def test_rpt_clip_essential(self, capsys, e1_csv):
        code, out, _ = run(capsys, "transform", e1_csv, "--kind", "rpt",
                           "--clip-essential", "--format", "csv")
        assert out.splitlines()[1] == "3,5"

    @pytest.mark.parametrize("argv, x", [
        (["--kind", "rpt"], 3.0), (["--kind", "rpt", "--clip-essential"], 1.0),
        (["--kind", "pt"], 3.0)])
    def test_persistence_overflow_exit_2(self, capsys, tmp_path, argv, x):
        # every value is finite, but the peak at x=3 spans more than the
        # largest double; with clipping, so does the essential peak at x=1
        path = tmp_path / "span.csv"
        path.write_text("0,-1.7e308\n1,1.7e308\n2,-1.7e308\n3,1.6e308\n"
                        "4,-1.7e308\n")
        code, out, err = run(capsys, "transform", str(path), *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"morsepeak: the peak at x={x} has birth ")
        assert err.endswith(", whose difference is not finite\n")

    def test_pd(self, capsys, e1_csv):
        code, out, _ = run(capsys, "transform", e1_csv, "--kind", "pd")
        doc = json.loads(out)
        assert doc["points"] == [[5.0, None], [3.0, 1.0], [2.0, 0.5]]

    def test_invalid_morse_json_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "domain": [0, 4],
            "maxima": [[1, 2], [3, 6]],
            "minima": [[0, 0], [2, 4], [4, 0]],
        }))
        code, _, err = run(capsys, "transform", str(bad), "--kind", "pt")
        assert code == 3 and "invalid Morse set" in err

    def test_svg_deterministic(self, capsys, e1_csv, tmp_path):
        svgs = []
        for name in ("a.svg", "b.svg"):
            path = tmp_path / name
            run(capsys, "transform", e1_csv, "--kind", "pt",
                "--svg", str(path))
            svgs.append(path.read_bytes())
        assert svgs[0] == svgs[1]
        assert svgs[0].startswith(b"<svg")

    def test_svg_all_kinds(self, capsys, e1_csv, tmp_path):
        for kind in ("pt", "rpt", "pd"):
            path = tmp_path / f"{kind}.svg"
            code, _, _ = run(capsys, "transform", e1_csv, "--kind", kind,
                             "--svg", str(path))
            assert code == 0 and path.read_text().startswith("<svg")

    @pytest.mark.parametrize("kind", ["pt", "rpt", "pd"])
    @pytest.mark.parametrize("rows", [
        # positions and values near the largest doubles: their spans
        # overflow a double, though no persistence does
        "-1.7e308,-1.7e308\n-1.2e308,-1.6e308\n-6e307,-1.7e308\n0,1.7e308\n"
        "6e307,1.4e308\n1.2e308,1.5e308\n1.7e308,1.4e308\n",
        # one peak far out, where 0.5 is below a position's precision
        "1e17,0\n1.0000000000000016e17,1\n1.0000000000000032e17,0\n"],
        ids=["near-max", "far-x"])
    def test_svg_finite_at_extreme_values(self, capsys, tmp_path, kind, rows):
        src, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        src.write_text(rows)
        code, _, _ = run(capsys, "transform", str(src), "--kind", kind,
                         "--svg", str(svg))
        coords = re.findall(r' (?:c?[xy][12]?)="([^"]*)"', svg.read_text())
        assert code == 0 and len(coords) > 4
        assert all(math.isfinite(float(c)) for c in coords), coords


GOLDEN = Path(__file__).resolve().parent / "golden"

# Each case writes the files it names, which must equal the checked-in
# outputs byte for byte.  The fixture has two segments with headers, a
# plateau, tied peak heights and a row with an extra column.
GOLDEN_CASES = {
    "pt-svg": (["transform", "--kind", "pt", "--svg", "{out}/pt.svg",
                "-o", "{out}/pt.json"], ("pt.json", "pt.svg")),
    "pt-tau": (["transform", "--kind", "pt", "--tau", "1",
                "-o", "{out}/pt_tau1.json"], ("pt_tau1.json",)),
    "rpt-csv": (["transform", "--kind", "rpt", "--format", "csv",
                 "-o", "{out}/rpt.csv"], ("rpt.csv",)),
    "rpt-clip": (["transform", "--kind", "rpt", "--format", "csv",
                  "--clip-essential", "-o", "{out}/rpt_clip.csv"],
                 ("rpt_clip.csv",)),
    "pd": (["transform", "--kind", "pd", "-o", "{out}/pd.json"], ("pd.json",)),
    "rpt-svg": (["transform", "--kind", "rpt", "--svg", "{out}/rpt.svg",
                 "-o", "{out}/rpt.json"], ("rpt.svg",)),
    "pd-svg": (["transform", "--kind", "pd", "--svg", "{out}/pd.svg",
                "-o", "{out}/pd.json"], ("pd.json", "pd.svg")),
    "extract": (["extract", "-o", "{out}/extract.json"], ("extract.json",)),
}


class TestJSONShape:
    """JSON input of the wrong shape is an input error naming the input."""

    @pytest.mark.parametrize("argv, doc", [
        (["transform", "--kind", "pt"], [1, 2]),
        (["transform", "--kind", "rpt"],
         {"maxima": 5, "minima": [], "domain": [0, 1]}),
        (["transform", "--kind", "pt"],
         {"maxima": [[1, 2]], "minima": [[0, 0], [2, 0]], "domain": [0]}),
        (["distance", "--kind", "pt"], {"features": 5, "diagonal": []}),
        (["distance", "--kind", "pd"], [1, 2]),
        # an integer too large for a float
        (["distance", "--kind", "rpt"], {"features": [[1.0, 10**400]]}),
        (["transform", "--kind", "pt"],
         {"maxima": [[1, 10**400]], "minima": [[0, 0], [2, 0]],
          "domain": [0, 2]}),
    ])
    def test_exit_2(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        argv = argv[:1] + [str(path)] * (2 if argv[0] == "distance" else 1) \
            + argv[1:]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"morsepeak: {path}: JSON of the wrong shape")


def masked_rows(width: int):
    """Masked float arrays of ``width`` columns, or 1-D if it is 0."""
    shapes = st.integers(0, 6).map(lambda n: (n, width) if width else (n,))
    return shapes.flatmap(lambda shape: st.builds(
        lambda a, null: np.ma.array(a, mask=null),
        hnp.arrays(float, shape), hnp.arrays(bool, shape)))


@given(st.dictionaries(
    st.sampled_from(["points", "features", "diagonal", "domain"]),
    st.integers(0, 3).flatmap(masked_rows), min_size=1))
def test_dump_rows_matches_json_dumps(doc):
    # MaskedArray.tolist writes a masked cell as None
    lists = {key: a.tolist() for key, a in doc.items()}
    assert _dump_rows(doc) == json.dumps(lists, sort_keys=True, indent=1)


@given(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                         min_size=2, max_size=12), min_size=1, max_size=3),
       st.floats(1e-300, 1e300))
def test_dump_sets_matches_json_dumps(segments, step):
    assume(all(len(set(ys)) > 1 for ys in segments))
    sets = extract_critical_points(SampledSeries.multi(
        [(i * step, y) for i, y in enumerate(ys)] for ys in segments))
    docs = [s.to_json_dict() for s in sets]
    # one set is written as its document, several as a list of them
    assert _dump_sets(sets[:1]) == json.dumps(docs[0], sort_keys=True,
                                              indent=1)
    assert _dump_sets(sets + sets) == json.dumps(docs + docs, sort_keys=True,
                                                 indent=1)


class TestParserCache:
    def test_one_parser(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_leak(self, capsys, tmp_path, e1_csv):
        # main parses with one cached parser: --svg must not carry over
        svg = tmp_path / "a.svg"
        code, _, _ = run(capsys, "transform", e1_csv, "--kind", "pt",
                         "--svg", str(svg), "-o", str(tmp_path / "a.json"))
        assert code == 0 and svg.exists()
        svg.unlink()
        code, out, err = run(capsys, "transform", e1_csv, "--kind", "pt",
                             "-o", str(tmp_path / "b.json"))
        assert (code, out, err) == (0, "", "")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.json", "b.json", "e1.csv"]
        assert (tmp_path / "a.json").read_text() == \
            (tmp_path / "b.json").read_text()


class TestGolden:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_bytes(self, capsys, tmp_path, case):
        argv, files = GOLDEN_CASES[case]
        argv = [a.format(out=tmp_path) for a in argv]
        argv.insert(1, str(GOLDEN / "two_segments.csv"))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, "", "")
        for name in files:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_stability_report_bytes(self, capsys, tmp_path):
        # every trial of this run holds, so it exits 0
        report = tmp_path / "stability_pt.json"
        code, out, err = run(capsys, "stability", "--trials", "4", "--seed",
                             "0", "--transform", "pt", "-o", str(report))
        assert (code, out, err) == (0, "", "")
        assert report.read_bytes() == (GOLDEN / report.name).read_bytes()

    def test_stdout_ends_with_newline(self, capsys):
        code, out, _ = run(capsys, "transform", str(GOLDEN / "two_segments.csv"),
                           "--kind", "pd")
        assert code == 0
        assert out == (GOLDEN / "pd.json").read_text() + "\n"


class TestDistance:
    def test_morse_identity(self, capsys, e1_csv):
        code, out, _ = run(capsys, "distance", e1_csv, e1_csv)
        assert code == 0 and out.strip() == "0"

    def test_pt_bottleneck_mirrored(self, capsys, tmp_path):
        fa = tmp_path / "f.csv"
        fa.write_text("0,0\n1,5\n2,1\n3,3\n4,0\n")
        fb = tmp_path / "g.csv"
        fb.write_text("0,0\n1,3\n2,1\n3,5\n4,0\n")
        ta, tb = tmp_path / "f.json", tmp_path / "g.json"
        for src, dst in ((fa, ta), (fb, tb)):
            run(capsys, "transform", str(src), "--kind", "pt",
                "-o", str(dst))
        code, out, _ = run(capsys, "distance", str(ta), str(tb),
                           "--kind", "pt", "--p", "inf", "--slack", "diagonal")
        assert code == 0 and float(out) == pytest.approx(2.0)
        code, out, _ = run(capsys, "distance", str(fa), str(fb), "--p", "inf")
        assert float(out) == pytest.approx(2.0)

    def test_morse_large_p(self, capsys, tmp_path):
        fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
        fa.write_text("0,0\n1,5\n2,0\n")
        fb.write_text("0,0\n1,10\n2,0\n")
        code, out, err = run(capsys, "distance", str(fa), str(fb),
                             "--kind", "morse", "--p", "1000")
        assert code == 0 and err == "" and float(out) == 5.0

    def test_kind_mismatch_exit_4(self, capsys, e1_csv, tmp_path):
        pt, rpt = tmp_path / "pt.json", tmp_path / "rpt.json"
        run(capsys, "transform", e1_csv, "--kind", "pt", "-o", str(pt))
        run(capsys, "transform", e1_csv, "--kind", "rpt", "-o", str(rpt))
        # declared kind drives parsing, so a schema mismatch surfaces as a
        # parse error; a genuine kind mismatch needs the library API
        code, _, _ = run(capsys, "distance", str(pt), str(rpt), "--kind", "pt")
        assert code == 2

    def test_kind_mismatch_from_library(self):
        from morsepeak import (KindMismatchError, extract_critical_points,
                               persistence_transformation,
                               reduced_persistence_transformation, wasserstein)
        from morsepeak.cli import EXIT_KIND
        (ms,) = extract_critical_points(
            [(0, 0), (1, 3), (2, 1), (3, 5), (4, 0.5), (5, 2), (6, 0)])
        assert EXIT_KIND == 4
        with pytest.raises(KindMismatchError):
            wasserstein(persistence_transformation(ms),
                        reduced_persistence_transformation(ms))

    def test_bad_p_exit_2(self, capsys, e1_csv):
        code, _, _ = run(capsys, "distance", e1_csv, e1_csv, "--p", "0.5")
        assert code == 2

    # an even power used to hide the sign of a negative slack at p = 2
    MALFORMED = {
        "rpt-negative": ("rpt", '{"features": [[1.0, -2.0], [3.0, 1.0]]}',
                         '{"features": [[50.0, 2.0]]}'),
        "rpt-nan": ("rpt", '{"features": [[1.0, NaN], [3.0, 1.0]]}',
                    '{"features": [[50.0, 2.0]]}'),
        "pt-birth-below-death": (
            "pt", '{"features": [[1.0, 1.0, 3.0]], "diagonal": []}',
            '{"features": [[5.0, 2.0, 1.0]], "diagonal": []}'),
        "pt-minus-infinity-birth": (
            "pt", '{"features": [[1.0, -Infinity, null], [2.0, 4.0, 1.0]],'
                  ' "diagonal": []}',
            '{"features": [[5.0, 2.0, 1.0]], "diagonal": []}'),
    }

    @pytest.mark.parametrize("command", ["distance", "stability"])
    def test_unknown_slack_exit_2(self, capsys, e1_csv, command):
        files = [e1_csv, e1_csv] if command == "distance" else []
        code, out, err = run(capsys, command, *files, "--slack", "nearest")
        assert (code, out) == (2, "")
        assert "argument --slack: invalid choice: 'nearest'" in err

    @pytest.mark.parametrize("p", ["1", "2", "inf"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_slack_exit_2(self, capsys, tmp_path, case, p):
        kind, a, b = self.MALFORMED[case]
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text(a)
        fb.write_text(b)
        code, out, err = run(capsys, "distance", str(fa), str(fb),
                             "--kind", kind, "--p", p)
        assert (code, out) == (2, "") and err.startswith("morsepeak: ")

    @pytest.mark.parametrize("p", ["2", "inf"])
    def test_cost_past_the_largest_double_exit_2(self, capsys, tmp_path, p):
        # finite points more than the largest double apart: pad-origin must
        # match them at an infinite cost, without a RuntimeWarning (which
        # fails the suite)
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        fa.write_text('{"features": [[-1.7e308, 1.0]]}')
        fb.write_text('{"features": [[1.7e308, 1.0]]}')
        code, out, err = run(capsys, "distance", str(fa), str(fb), "--kind",
                             "rpt", "--slack", "pad-origin", "--p", p)
        assert (code, out) == (2, "")
        assert err.startswith("morsepeak: ") and err.count("\n") == 1
        assert "largest double" in err


class TestStability:
    def test_report_and_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "stability", "--trials", "10",
                         "--transform", "pt", "--p", "1", "2", "inf",
                         "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert len(doc) == 30
        assert all(r["holds"] for r in doc)

    def test_threads_env(self, capsys, tmp_path, monkeypatch):
        base = tmp_path / "a.json"
        code, _, _ = run(capsys, "stability", "--trials", "8",
                         "--transform", "pt", "-o", str(base))
        assert code == 0
        monkeypatch.setenv("MORSEPEAK_THREADS", "3")
        multi = tmp_path / "b.json"
        code, _, _ = run(capsys, "stability", "--trials", "8",
                         "--transform", "pt", "-o", str(multi))
        assert code == 0
        assert base.read_text() == multi.read_text()

    @pytest.mark.parametrize("threads", ["abc", "-2", "1.5"])
    def test_bad_threads_env_exit_2(self, capsys, tmp_path, monkeypatch,
                                    threads):
        monkeypatch.setenv("MORSEPEAK_THREADS", threads)
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "stability", "--trials", "2",
                             "-o", str(report))
        assert (code, out) == (2, "") and not report.exists()
        assert err == (f"morsepeak: MORSEPEAK_THREADS={threads!r} "
                       "is not a whole number\n")

    @pytest.mark.parametrize("flag", [
        ["--epsilon", "nan"], ["--epsilon", "inf"], ["--domain", "0", "inf"],
        ["--heights", "0", "inf"]])
    def test_non_finite_parameter_exit_2(self, capsys, tmp_path, flag):
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "stability", "--trials", "2",
                             "-o", str(report), *flag)
        assert (code, out) == (2, "") and not report.exists()
        assert err.startswith("morsepeak: ") and "finite" in err

    def test_negative_trials_exit_2(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "stability", "--trials", "-3",
                             "-o", str(report))
        assert (code, out) == (2, "") and not report.exists()
        assert err == "morsepeak: trials must be nonnegative\n"


class TestEntryPoint:
    @pytest.mark.skipif(shutil.which("morsepeak") is None,
                        reason="morsepeak console script not installed "
                               "(pip install -e . --no-build-isolation)")
    def test_installed_script(self, tmp_path):
        src = tmp_path / "e1.csv"
        src.write_text(E1_CSV)
        proc = subprocess.run(["morsepeak", "extract", str(src)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["domain"] == [0.0, 6.0]

    def test_module_entry_point(self, tmp_path):
        src = tmp_path / "e1.csv"
        src.write_text(E1_CSV)
        # the package's own location, not the working directory
        package_root = str(Path(morsepeak.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-m", "morsepeak", "extract", str(src)],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["domain"] == [0.0, 6.0]

    def test_script_target(self):
        # the console script and ``python -m morsepeak`` call the same main
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            config = tomllib.load(f)
        assert config["project"]["scripts"]["morsepeak"] == "morsepeak.cli:main"
