import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import flipiet.cli
import flipiet.denjoy
import flipiet.io
from flipiet.cli import main
from flipiet.errors import ProbeHitsDiscontinuities
from flipiet.io import (algebraic_from_json, algebraic_to_json, gaps_csv,
                        iet_from_json, iet_to_json, induction_trace_csv,
                        return_words_csv)
from flipiet.polys import IntPolynomial, count_roots, sturm_chain
from flipiet.quintic import (REFERENCE_EIGENVALUES_3DP, bundled_iet,
                             bundled_theta1)
from flipiet.rauzy import rauzy_run
from flipiet.selfsim import associated_matrix


def test_algebraic_roundtrip():
    th1 = bundled_theta1()
    v = th1 * th1 - th1 / 3
    obj = algebraic_to_json(v)
    back = algebraic_from_json(obj)
    assert back.coords == v.coords
    assert back.field.minpoly.coeffs == v.field.minpoly.coeffs


def test_iet_roundtrip_exact():
    E = bundled_iet()
    obj = iet_to_json(E)
    s = json.dumps(obj)
    back = iet_from_json(json.loads(s))
    assert back.sp == E.sp
    for a, b in zip(back.lengths, E.lengths):
        assert a.coords == b.coords
    assert json.dumps(iet_to_json(back)) == s      # bit-exact round trip


def test_iet_roundtrip_rational():
    from flipiet.iet import IetSpec
    E = IetSpec((Fraction(1, 3), Fraction(2, 3)), (2, 1), origin=Fraction(1, 7))
    back = iet_from_json(iet_to_json(E))
    assert back.lengths == E.lengths and back.origin == E.origin


def test_iet_from_json_reads_floats_exactly():
    # a JSON float is read as its exact Fraction, never as a float exchange,
    # and the exact spec round-trips as p/q strings
    obj = json.loads('{"lengths": [0.25, 0.1, 1], "origin": -0.5,'
                     ' "signed_permutation": [-3, 1, 2]}')
    E = iet_from_json(obj)
    assert not E.float_mode
    assert E.lengths == (Fraction(1, 4), Fraction(0.1), Fraction(1))
    assert all(type(v) is Fraction for v in (*E.lengths, E.origin))
    assert E.origin == Fraction(-1, 2)
    text = json.dumps(iet_to_json(E))
    back = iet_from_json(json.loads(text))
    assert (back.lengths, back.origin, back.sp) == (E.lengths, E.origin, E.sp)
    assert json.dumps(iet_to_json(back)) == text
    assert iet_to_json(E)["lengths"][1] == "3602879701896397/36028797018963968"


def test_trace_csv_format():
    steps = rauzy_run(bundled_iet(), 2)
    text = induction_trace_csv(steps)
    lines = text.splitlines()
    assert lines[0] == "k,p,t"
    assert lines[1] == "0,-5 -3 2 1 -4,1"
    assert lines[2] == "1,4 -5 -3 2 1,0"
    assert lines[3] == "2,5 -2 -4 3 1,"


def test_return_words_csv_format():
    E = bundled_iet()
    th1 = bundled_theta1()
    one = E.lengths[0].field.rational(1, th1.embedding)
    _, its = associated_matrix(E, (E.origin, one / th1))
    text = return_words_csv(its)
    lines = text.splitlines()
    assert lines[0] == "i,N,I"
    assert lines[1] == "1,4,1 5 1 4"
    assert lines[5] == "5,6,1 5 2 1 5 4"


def test_cli_selfsim_exit_zero(tmp_path, capsys):
    rc = main(["selfsim", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "selfsim_report.json").read_text())
    assert report["mismatches"] == []
    assert (tmp_path / "induction_trace.csv").exists()
    assert (tmp_path / "return_words.csv").exists()


def test_cli_eval(capsys):
    rc = main(["eval", "--x", "1/10", "--digits", "6"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.900000"


def test_cli_eval_inverse(capsys):
    rc = main(["eval", "--x", "0.9", "--inverse"])
    assert rc == 0
    assert abs(float(capsys.readouterr().out.strip()) - 0.1) < 1e-12


@pytest.mark.parametrize("argv, message", [
    (["--x", "7/3"], "point 7/3 lies outside the domain [0, 1]"),
    (["--x", "2.0"], "point 2.0 lies outside the domain [0, 1]"),
    (["--x=-1/2", "--inverse"], "point -1/2 lies outside the domain [0, 1]"),
    (["--x", "1/1"], "point 1 lies on a discontinuity"),
    (["--x", "0.0", "--inverse"], "point 0.0 lies on a discontinuity")])
def test_cli_eval_names_a_point_outside_the_domain(argv, message, capsys):
    # exact and float points beyond either end of the domain, and its two
    # ends, which are discontinuities: exit 3 with the point as given
    assert main(["eval", *argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_orbit_from_outside_the_domain_stops_at_once(capsys):
    # the orbit records the hit and raises nothing
    assert main(["orbit", "--x", "2.0", "--steps", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "config": {"steps": 3, "x": 2.0}, "points": [2.0], "word": [],
        "terminated_at_discontinuity": 0}


def test_cli_orbit(tmp_path):
    rc = main(["orbit", "--x", "0.1", "--steps", "5", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "orbit.json").read_text())
    assert len(rep["points"]) == 6
    assert abs(rep["points"][1] - 0.9) < 1e-12


def test_cli_spectral(tmp_path):
    rc = main(["spectral", "--digits", "3", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "spectral_report.json").read_text())
    assert rep["roots"] == ["7.829", "1.588", "1.000", "0.358", "0.225"]
    assert rep["perron_vector_decimal"] == ["0.380", "0.091", "0.070",
                                            "0.170", "0.289"]
    assert rep["verdict"] == "qualifies"


# SHA-256 of each search report minus its config, as the census found
# them: a change to the walk that keeps its results keeps these
SEARCH_REPORT_DIGESTS = {
    (2, True, 10):
        "adf6fa9c65bac321a9f68cfe9b10afdd60fe08152784b586f35f5acebfabe7e3",
    (2, False, 10):
        "a16c6b19d75e3e03439633b0dea16437b8e24553826b049aa9ba871f0958237d",
    (3, True, 10):
        "8a341e1ac2b93b681b7ba3400aacaec0330912bf95eaa45fd207a97f642ad9e4",
    (3, False, 10):
        "c87faea54df7e6a597a81e9bee796530378061999098f327d20450892d47f80d",
    (4, True, 10):
        "b54a83f41aa3ab856a54d778d45ca2d057953504caebea6b00766cf71bfde65b",
    (4, False, 10):
        "a743dfefd104aabe9b678df3612ebbb116fdc2b3d49952ec8fe305bfa01ea150",
    (5, True, 10):
        "f8336315af60df65bd156ab09ddbc223d0762ed228fafab651f0a2d3ccc1c759",
    (5, False, 10):
        "c662a8c891a15a654ad3a33883aa1aad11d041247b6e1b45032a45496c5d1775",
    (6, True, 10):
        "4ec1a0eb204377b1b969b50d19b4fdc154d22fa50e4017b61eaa41b126742ed8",
    (6, False, 10):
        "8bfa548cc7a20cbaf13b7831a2429727e5ee7273ef86bfcf531d6ac898cdded7",
    (5, True, 14):
        "825b8e8653aec5138ae0d48b25e81b1795ae8671897f846935a86e56bf910799",
    (6, True, 12):
        "912b7b45f875efc3430e02898295be938b313e9f8ccc74e6f278a6aa8cce5856",
    (7, True, 8):
        "f4e99d909c7f0242f779db0e99fa20b12048e3d899217d4c4031034f314a0ae0",
}


def test_cli_search_small(tmp_path):
    rc = main(["search", "--n", "2", "--max-len", "4", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "search_report.json").read_text())
    assert rep["nodes"] == 3
    assert rep["cycles_checked"] == 2          # the two self loops
    assert rep["qualifying"] == []


def test_cli_search_reports_screen_reasons(tmp_path):
    # the paper's census: every cycle's screen verdict and every absent edge
    rc = main(["search", "--n", "5", "--max-len", "14", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "search_report.json").read_text())
    assert rep["screen_reasons"] == {"qualifies": 24,
                                     "not_quasi_positive": 35832,
                                     "no_real_theta2_gt1": 108,
                                     "not_conjugate": 0}
    assert sum(rep["screen_reasons"].values()) == rep["cycles_checked"]
    assert len(rep["qualifying"]) == 24
    assert all(c["validation"] == "ok" for c in rep["qualifying"])
    assert rep["absent_edges"] == {"target outside node class": 768}


@pytest.mark.parametrize("n, require_flips, max_len",
                         list(SEARCH_REPORT_DIGESTS))
def test_cli_search_reports_keep_their_digests(n, require_flips, max_len,
                                               tmp_path):
    argv = ["search", "--n", str(n), "--max-len", str(max_len),
            "--out", str(tmp_path)]
    assert main(argv + ([] if require_flips else ["--no-flips"])) == 0
    report = json.loads((tmp_path / "search_report.json").read_text())
    del report["config"]
    text = json.dumps(report, sort_keys=True).encode()
    assert (hashlib.sha256(text).hexdigest()
            == SEARCH_REPORT_DIGESTS[n, require_flips, max_len])



def test_cli_wandering_small_windows_report_or_exit_3(capsys):
    # a window too small to give each piece an interior gap pair (at N = 9,
    # piece 3) is a DivergentGaps error, exit 3, never a traceback
    codes = {N: main(["wandering", "--gaps", str(N), "--probe-steps", "10000"])
             for N in range(1, 13)}
    assert set(codes.values()) <= {0, 1, 3}
    assert codes[9] == 3
    assert "piece 3 has no interior gap pair" in capsys.readouterr().err


def test_cli_reports_list_roots_descending(tmp_path):
    assert main(["spectral", "--digits", "3", "--out", str(tmp_path)]) == 0
    assert main(["wandering", "--gaps", "200", "--probe-steps", "10000",
                 "--digits", "3", "--out", str(tmp_path)]) in (0, 1)
    spectral = json.loads((tmp_path / "spectral_report.json").read_text())
    wandering = json.loads(
        (tmp_path / "wandering_certificate.json").read_text())
    assert spectral["roots"] == list(REFERENCE_EIGENVALUES_3DP)
    assert wandering["spectral"]["roots"] == list(REFERENCE_EIGENVALUES_3DP)


def test_cli_wandering_small(tmp_path):
    rc = main(["wandering", "--gaps", "400", "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "wandering_certificate.json").read_text())
    cert = rep["certificate"]
    assert cert["disjoint"] is True
    assert cert["affine_ok"] is True
    assert cert["semiconjugacy_skipped"] == 0
    assert "tail_estimate" not in cert and 0 < rep["tail_estimate"] < 1
    assert set(rep["ergodic_probe"]) == {"steps", "max_deviation_from_lengths",
                                         "cross_seed_spread", "retries"}
    assert (tmp_path / "gaps.csv").exists()
    lines = (tmp_path / "gaps.csv").read_text().splitlines()
    assert lines[0] == "n,symbol,orbit_point,gap_length,position"
    assert len(lines) == 802


def test_gaps_csv_rows():
    gs = SimpleNamespace(half_width=1, symbols=(3, 1, 2),
                         orbit_points=(0.1, 0.25, Fraction(1, 3)),
                         gap_lengths=(1e-3, 2e-17, 0.5),
                         positions=(0.0, 0.125, 1.0))
    fh = io.StringIO()
    gaps_csv(gs, fh)
    assert fh.getvalue() == ("n,symbol,orbit_point,gap_length,position\n"
                             "-1,3,0.1,0.001,0.0\n"
                             "0,1,0.25,2e-17,0.125\n"
                             "1,2,0.3333333333333333,0.5,1.0\n")


def test_cli_wandering_without_out_writes_no_gaps(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("gaps.csv rendered without --out")

    monkeypatch.setattr(flipiet.cli, "gaps_csv", refuse)
    rc = main(["wandering", "--gaps", "50", "--probe-steps", "10000"])
    assert rc in (0, 1)
    assert json.loads(capsys.readouterr().out)["qualifies"] is True


def test_cli_gap_dump_is_gaps_csv_of_the_built_system(tmp_path, monkeypatch):
    # 10,001 rows, more than one chunk: the CLI's gaps.csv is the dump of
    # the gap system it built
    built, original = [], flipiet.denjoy.gap_system_build

    def build(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(flipiet.denjoy, "gap_system_build", build)
    assert 2 * 5000 + 1 > flipiet.io._GAPS_CHUNK
    assert main(["wandering", "--gaps", "5000", "--probe-steps", "10000",
                 "--out", str(tmp_path)]) == 0
    fh = io.StringIO()
    gaps_csv(built[-1], fh)
    assert (tmp_path / "gaps.csv").read_bytes() == fh.getvalue().encode()


def test_cli_failed_gap_writer_raises_and_writes_no_certificate(tmp_path,
                                                                monkeypatch):
    # a dump that raises propagates its OSError; no certificate is written
    # and the partial gaps.csv is removed
    def fail(gs, fh):
        fh.write("n,symbol,orbit_point,gap_length,position\n")
        raise OSError("No space left on device")

    monkeypatch.setattr(flipiet.cli, "gaps_csv", fail)
    with pytest.raises(OSError, match="No space left on device"):
        main(["wandering", "--gaps", "50", "--probe-steps", "10000",
              "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_cli_failed_stage_leaves_no_files(tmp_path, monkeypatch, capsys):
    # a stage that raises after gaps.csv was opened leaves the files of a
    # run that raised before it: no gaps.csv, no certificate
    def stuck(*args, **kwargs):
        raise ProbeHitsDiscontinuities("orbit kept hitting discontinuities")

    monkeypatch.setattr(flipiet.denjoy, "ergodic_probe", stuck)
    assert main(["wandering", "--gaps", "5000", "--out", str(tmp_path)]) == 3
    assert "orbit kept hitting discontinuities" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_bad_out_fails_before_the_stages(tmp_path, monkeypatch):
    # an --out that names a file fails when gaps.csv is opened, before the
    # certificate's stages run
    def refuse(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(flipiet.denjoy, "verify_wandering", refuse)
    (tmp_path / "taken").write_text("")
    with pytest.raises(FileExistsError):
        main(["wandering", "--gaps", "50", "--probe-steps", "10000",
              "--out", str(tmp_path / "taken")])


def test_cli_renders_each_report_once(tmp_path, monkeypatch, capsys):
    # a report is rendered when it is written or printed, and only then
    renders = []

    def counted(render):
        def wrapper(*args):
            renders.append(render.__name__)
            return render(*args)
        return wrapper

    for name in ("induction_trace_csv", "return_words_csv"):
        monkeypatch.setattr(flipiet.cli, name, counted(getattr(flipiet.cli, name)))
    assert main(["induct"]) == 0
    assert renders == ["induction_trace_csv"]
    assert capsys.readouterr().out.startswith("k,p,t\n")
    renders.clear()
    assert main(["selfsim"]) == 0
    assert renders == []
    assert main(["selfsim", "--out", str(tmp_path)]) == 0
    assert sorted(renders) == ["induction_trace_csv", "return_words_csv"]


def _after_cli_import(openblas_threads, code):
    """What code prints, stripped, in a fresh interpreter after import
    flipiet.cli, started with OPENBLAS_NUM_THREADS set to openblas_threads
    (None: unset)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     os.pardir, "src")
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run([sys.executable, "-c", "import os, flipiet.cli\n" + code],
                          env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_cli_import_starts_no_openblas_thread():
    # numpy starts no OpenBLAS worker thread: flipiet makes no threaded BLAS call
    assert _after_cli_import(None, "print(next(line for line in open("
                             "'/proc/self/status') if line.startswith("
                             "'Threads:')))") == "Threads:\t1"


def test_cli_import_keeps_the_users_openblas_threads():
    assert _after_cli_import("2", "print(os.environ['OPENBLAS_NUM_THREADS'])") == "2"


def test_cli_wandering_that_does_not_qualify(tmp_path):
    # the golden-mean rotation, signed permutation (2, 1) with lengths the
    # Perron vector of its cycle of types (1, 0), is self-similar, but its
    # other eigenvalue is below 1: the screen fails and nothing is blown up
    from flipiet.iet import IetSpec
    from flipiet.io import save_iet
    from flipiet.polys import mat_mul
    from flipiet.rauzy import typed_move
    from flipiet.spectral import perron_data
    (_, m1), (_, m0) = typed_move((2, 1), 1), typed_move((2, 1), 0)
    spec, out = tmp_path / "golden.json", tmp_path / "out"
    save_iet(IetSpec(perron_data(mat_mul(m1, m0)).perron[1], (2, 1)), str(spec))
    assert main(["wandering", "--spec", str(spec), "--out", str(out)]) == 1
    rep = json.loads((out / "wandering_certificate.json").read_text())
    assert rep["qualifies"] is False
    assert rep["spectral"]["verdict"] == "no_real_theta2_gt1"
    assert "certificate" not in rep
    assert not (out / "gaps.csv").exists()


def test_cli_spec_file_roundtrip(tmp_path, capsys):
    from flipiet.io import save_iet
    from flipiet.iet import IetSpec
    E = IetSpec((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    path = tmp_path / "spec.json"
    save_iet(E, str(path))
    rc = main(["eval", "--spec", str(path), "--x", "1/4", "--digits", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "3/4"


def test_saved_root_intervals_isolate_and_round_trip(tmp_path, capsys):
    # an algebraic length is written with the interval its embedding holds
    # at the time; that interval isolates the root for the minimal
    # polynomial, and the spec reads back to the same exchange, whose
    # embedding narrows only inside the written interval
    from flipiet.io import save_iet
    E = bundled_iet()
    path = tmp_path / "spec.json"
    save_iet(E, str(path))
    spec = json.loads(path.read_text())
    back = iet_from_json(spec)
    for v, w in zip(back.lengths, spec["lengths"]):
        lo, hi = (Fraction(s) for s in w["embedding"])
        chain = sturm_chain(IntPolynomial(tuple(w["minpoly"])))
        assert lo < hi and count_roots(chain, lo, hi) == 1
        assert list(v.field.minpoly.coeffs) == w["minpoly"]
        assert lo <= v.embedding.lo <= v.embedding.hi <= hi
    assert [v.coords for v in back.lengths] == [v.coords for v in E.lengths]
    for argv in ([], ["--spec", str(path)]):
        assert main(["eval", "--x", "1/10", *argv]) == 0
    bundled, loaded = capsys.readouterr().out.split()
    assert bundled == loaded


@pytest.mark.parametrize("argv", [["eval", "--x", "foo"], ["eval", "--x", "1/0"],
                                  ["eval", "--x", "0.3/2"], ["eval", "--x", "nan"],
                                  ["eval", "--x", "inf"], ["orbit", "--x", "nan"],
                                  ["orbit", "--x", "1e999"], ["orbit", "--x", "1/3"]])
def test_cli_rejects_a_malformed_or_infinite_point(argv, capsys):
    # not a number, a zero or non-integer denominator, NaN or infinity, and
    # a fraction where orbit takes floats: usage errors, not tracebacks,
    # discontinuity hits or NaN orbits
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --x" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, '{"lengths": ["1/2", "1/2"]',
                                  '{"lengths": ["1/2", "1/2"]}', "[1, 2]"])
def test_cli_spec_that_is_no_spec_is_a_usage_error(tmp_path, capsys, text):
    # a missing file, broken JSON, a missing key, not an object
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["selfsim", "--spec", str(path)])
    assert exc.value.code == 2
    assert "--spec" in capsys.readouterr().err


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["search"])            # missing required --n
    assert exc.value.code == 2


def test_cli_parser_survives_a_usage_error(capsys):
    # the parser is built once per process; a failed parse leaves it intact
    assert flipiet.cli.build_parser() is flipiet.cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--x", "1/10", "--digits", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["eval", "--x", "1/10", "--digits", "6"]) == 0
    assert capsys.readouterr().out.strip() == "0.900000"


def test_cli_construction_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lengths": ["1/2", "1/2"],
                               "signed_permutation": [2, 1], "origin": "0"}))
    rc = main(["wandering", "--spec", str(bad), "--gaps", "100",
               "--max-len", "6"])
    assert rc == 3


@pytest.mark.parametrize("spec", [
    {"signed_permutation": [2.7, -1]}, {"signed_permutation": ["2", "-1"]},
    {"signed_permutation": [True, -2]}, {"lengths": [True, "1/2"]},
    {"origin": False}, {"lengths": "12"}])
def test_cli_spec_value_of_the_wrong_kind_is_a_usage_error(tmp_path, capsys,
                                                          spec):
    # a float, string or bool entry is not read as int(entry), a bool
    # length or origin is not read as 1 or 0, and a string of lengths is not
    # read digit by digit (as 1 and 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"lengths": ["1/2", "1/2"],
                                "signed_permutation": [2, -1], **spec}))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--spec", str(path), "--x", "1/10"])
    assert exc.value.code == 2
    assert "TypeError" in capsys.readouterr().err


def test_cli_spec_with_a_repeated_entry_is_a_construction_error(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"lengths": ["1/2", "1/2"],
                                "signed_permutation": [1, 1]}))
    assert main(["eval", "--spec", str(path), "--x", "1/10"]) == 3


def test_cli_probe_stuck_on_discontinuities_exits_3(monkeypatch, capsys):
    # an orbit that keeps hitting breakpoints is a typed library error
    monkeypatch.setattr(flipiet.denjoy, "_orbit_counts", lambda *args: None)
    rc = main(["wandering", "--gaps", "50", "--probe-steps", "10000"])
    assert rc == 3
    assert "orbit kept hitting discontinuities" in capsys.readouterr().err


def test_cli_rejects_nonpositive_settings():
    with pytest.raises(SystemExit) as exc:
        main(["wandering", "--gaps", "-5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "0"])
    assert exc.value.code == 2
    # and a probe below the ergodic probe's floor of 10^4 steps
    with pytest.raises(SystemExit) as exc:
        main(["wandering", "--probe-steps", "9999"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["search", "--n", "1"], ["search", "--n", "9"],
                                  ["search", "--n", "5", "--max-len", "21"]])
def test_cli_search_bounds_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_spectral_reads_a_matrix_file(tmp_path):
    # the bundled matrix from a file gives the default report but its config
    from flipiet.quintic import MATRIX
    path = tmp_path / "m.json"
    path.write_text(json.dumps(MATRIX))
    reports = []
    for argv in ([], ["--matrix", str(path)]):
        out = tmp_path / str(len(reports))
        assert main(["spectral", *argv, "--out", str(out)]) == 0
        reports.append(json.loads((out / "spectral_report.json").read_text()))
        reports[-1].pop("config")
    assert reports[0] == reports[1]


# spectral --matrix reports minus config, as SHA-256 of their canonical
# JSON, recorded before the kernel's sieve, isolation, screen and exact
# strings moved to integers: the bundled matrix; a census product screened
# not_conjugate, with cp (t - 1)(t^2 - 3t + 1)(t^3 - 8t^2 + 6t - 1); and
# two products of the n = 5 graph, with cp (t - 1)^2 (t^3 - 8t^2 - 4t + 1)
# and (t^2 - 10t + 1)(t^3 - t + 1)
SPECTRAL_REPORTS = {
    "bundled": (
        ((2, 4, 6, 5, 2), (0, 2, 1, 1, 1), (0, 0, 3, 2, 0), (1, 2, 2, 2, 1),
         (1, 3, 5, 4, 2)),
        "fd78b951316f9ce0624b5da90b2802cc7e39b9b6217aae261014e7495f3b9d74"),
    "not_conjugate": (
        ((2, 1, 1, 1, 1, 1), (1, 2, 0, 0, 0, 0), (1, 0, 2, 1, 2, 1),
         (1, 0, 2, 2, 2, 1), (1, 0, 2, 1, 3, 1), (2, 2, 1, 1, 1, 1)),
        "aa3ef873c6a5f334e6a2a10eeb7f92c55d69fd5f8fdaf9d90f24fee13d70e9ed"),
    "square_of_t_minus_1": (
        ((4, 9, 6, 3, 2), (1, 3, 2, 0, 0), (0, 0, 0, 0, 1), (2, 4, 3, 2, 0),
         (2, 4, 3, 1, 1)),
        "4e7acf8ddf43a77682a95bfdc6256c8a159d2774a002957a9803f9256b72eb86"),
    "quadratic_times_cubic": (
        ((2, 4, 4, 3, 2), (1, 2, 2, 1, 2), (0, 1, 1, 0, 0), (1, 2, 3, 2, 2),
         (3, 7, 6, 4, 3)),
        "29bad6514f38b5d24e964b434174e9629abd801d9646ef797591e85028225257"),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_REPORTS))
def test_spectral_report_bytes_are_pinned(tmp_path, name):
    from flipiet.quintic import MATRIX
    matrix, sha = SPECTRAL_REPORTS[name]
    assert (matrix == MATRIX) == (name == "bundled")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix))
    assert main(["spectral", "--matrix", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectral_report.json").read_text())
    report.pop("config")
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == sha


@pytest.mark.parametrize("text", ["[[1, 2, 3], [4, 5, 6]]", "[]", "[[1, 2], 3]",
                                  "[[1, 1], [1, 1.5]]", "[[true, 1], [1, 1]]",
                                  "[[1, 1], [1, 1]"])
def test_cli_spectral_rejects_a_malformed_matrix(tmp_path, capsys, text):
    # non-square, empty, ragged, a float entry, a bool entry, broken JSON
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--matrix", str(path)])
    assert exc.value.code == 2
    assert "--matrix" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["wandering", "--jobs", "2"],
                                  ["orbit", "--x", "0.1", "--digits", "3"],
                                  ["eval", "--x", "1/10", "--out", "d"]])
def test_cli_rejects_options_the_subcommand_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_cli_induct_stdout(capsys):
    rc = main(["induct", "--steps", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("k,p,t\n0,-5 -3 2 1 -4,1\n")


def test_cli_reports_are_deterministic(tmp_path):
    # byte-identical output for identical settings (the embedded config echoes
    # the out directory, so mask that one field)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["wandering", "--gaps", "300", "--probe-steps", "10000",
                 "--out", str(a)]) in (0, 1)
    assert main(["wandering", "--gaps", "300", "--probe-steps", "10000",
                 "--out", str(b)]) in (0, 1)
    ja = json.loads((a / "wandering_certificate.json").read_text())
    jb = json.loads((b / "wandering_certificate.json").read_text())
    assert ja["config"]["probe_steps"] == 10000
    ja["config"].pop("out")
    jb["config"].pop("out")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)
    assert (a / "gaps.csv").read_bytes() == (b / "gaps.csv").read_bytes()


def test_cli_search_report_is_deterministic(tmp_path):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["search", "--n", "4", "--max-len", "10",
                     "--out", str(out)]) == 0
        texts.append((out / "search_report.json").read_text()
                     .replace(str(out), "OUT"))
    assert texts[0] == texts[1]
