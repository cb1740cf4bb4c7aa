import json
import math
import os
import subprocess
import sys
import time
from bisect import bisect_right

import numpy as np
import pytest

from ncdist import QutritChart, haar_unitary, qutrit_distance, random_kernel
from ncdist.cli import _fmt, main
from ncdist.core import CHAMBER_TOL, chamber_mask
from ncdist.geometry import QUTRIT_FACTOR, REGIONS, _cut_frame, _cut_projection

SQRT3 = math.sqrt(3.0)
PI_THIRD = "1.0471975511965976"
QUBIT_PI = f"{(1 + SQRT3) / 2},{(1 - SQRT3) / 2}"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_state(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CHILD_SCRIPT = """
import contextlib, io, json, sys, traceback, warnings
from ncdist.cli import main
warnings.simplefilter("always")
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""


def run_in_one_child(flags, argvs):
    """(exit code, stdout, stderr) of `ncdist.cli.main` on each argv, all in
    one `python *flags` child: a fresh interpreter, as `-m ncdist` gets,
    without one start-up per case. Every warning is shown, and an uncaught
    exception becomes that call's traceback on stderr with code 1."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", CHILD_SCRIPT, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


class TestKernelCommand:
    def test_zeta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--zeta", "0")
        assert code == 0
        data = json.loads(out)
        assert data["pi"] == pytest.approx([1.0, 1.0, -1.0], abs=1e-14)
        assert data["residual_trace"] <= 1e-14
        assert data["residual_square"] <= 1e-13

    def test_zeta_pi_third_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--zeta", "1.0471975512")
        assert code == 0
        data = json.loads(out)
        assert data["pi"] == pytest.approx([5 / 3, -1 / 3, -1 / 3], abs=1e-9)

    def test_zeta_degrees_alias(self, capsys):
        code1, out1, _ = run_cli(capsys, "kernel", "--n", "3", "--zeta-degrees", "60")
        code2, out2, _ = run_cli(capsys, "kernel", "--n", "3", "--zeta", PI_THIRD)
        assert code1 == code2 == 0
        assert json.loads(out1)["pi"] == pytest.approx(json.loads(out2)["pi"], abs=1e-12)

    def test_explicit_pi_list(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--pi", "1,1,-1")
        assert code == 0
        assert json.loads(out)["pi"] == [1.0, 1.0, -1.0]

    def test_invalid_pi_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "kernel", "--n", "4", "--pi", "2.0,0.5,-0.5,-1.0"
        )
        assert code == 2
        assert out == ""
        assert "master equations" in err

    @pytest.mark.parametrize("pi", ["1,,2", "1,1,-1,", ""], ids=["inner", "trailing", "empty"])
    def test_empty_pi_entry_rejected(self, capsys, pi):
        code, out, err = run_cli(capsys, "kernel", "--n", "3", "--pi", pi)
        assert code == 2
        assert out == ""
        assert err == "error: --pi expects a comma-separated list of numbers\n"

    def test_unicode_minus_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "3", "--pi", "1,1,−1")
        assert code == 0

    def test_seed_source(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--n", "5", "--seed", "7")
        assert code == 0
        data = json.loads(out)
        assert len(data["pi"]) == 5
        assert data["residual_trace"] <= 1e-12

    def test_zeta_needs_qutrit(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--n", "4", "--zeta", "0")
        assert code == 2
        assert "n = 3" in err

    def test_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "kernel", "--n", "3", "--zeta", "0", "--seed", "1")
        assert code == 2
        assert "exactly one" in err

    def test_missing_subcommand_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2


class TestIndicatorCommand:
    def test_classical_spectrum(self, capsys, tmp_path):
        state = write_state(
            tmp_path, "mixed.json", {"n": 3, "spectrum": [1 / 3, 1 / 3, 1 / 3]}
        )
        code, out, _ = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        assert code == 0
        data = json.loads(out)
        assert data["classical"] is True
        assert data["distance_paper"] == 0.0
        assert data["region"] == "OQR"

    def test_band_spectrum(self, capsys, tmp_path):
        state = write_state(tmp_path, "band.json", {"n": 3, "spectrum": [0.7, 0.2, 0.1]})
        code, out, _ = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        assert code == 0
        data = json.loads(out)
        assert data["w"] == pytest.approx(-0.4, abs=1e-12)
        assert data["distance_paper"] == pytest.approx(0.3, abs=1e-9)
        assert data["region"] == "QRST"
        assert data["distance_frobenius"] == pytest.approx(
            data["distance_paper"] / math.sqrt(1.5), abs=1e-12
        )
        assert data["nearest_spectrum"] == pytest.approx([0.5, 0.3, 0.2], abs=1e-8)

    def test_pure_state(self, capsys, tmp_path):
        state = write_state(tmp_path, "pure.json", {"n": 3, "spectrum": [1, 0, 0]})
        code, out, _ = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        data = json.loads(out)
        assert code == 0
        assert data["w"] == pytest.approx(-1.0, abs=1e-12)
        assert data["region"] == "BRS"
        assert data["distance_paper"] == pytest.approx(0.75, abs=1e-9)

    def test_matrix_payload(self, capsys, tmp_path):
        rng = np.random.default_rng(61)
        u = haar_unitary(3, rng)
        m = (u * np.array([0.7, 0.2, 0.1])) @ u.conj().T
        state = write_state(
            tmp_path,
            "matrix.json",
            {"n": 3, "matrix_re": m.real.tolist(), "matrix_im": m.imag.tolist()},
        )
        code, out, _ = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        assert code == 0
        data = json.loads(out)
        assert data["distance_paper"] == pytest.approx(0.3, abs=1e-8)

    def test_chamber_edge_spectrum(self, capsys, tmp_path):
        state = write_state(
            tmp_path, "edge.json", {"n": 3, "spectrum": [0.5 + 1e-12, 0.5, -1e-12]}
        )
        code, out, _ = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        assert code == 0
        assert json.loads(out)["distance_paper"] <= 1e-11

    def test_general_dimension_has_null_region(self, capsys, tmp_path):
        state = write_state(
            tmp_path, "n4.json", {"n": 4, "spectrum": [0.9, 0.1, 0.0, 0.0]}
        )
        code, out, _ = run_cli(capsys, "indicator", "--state", state, "--seed", "3")
        assert code == 0
        assert json.loads(out)["region"] is None

    def test_both_payloads_rejected(self, capsys, tmp_path):
        state = write_state(
            tmp_path,
            "both.json",
            {"n": 3, "spectrum": [1, 0, 0], "matrix_re": [[1]], "matrix_im": [[0]]},
        )
        code, _, err = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        assert code == 2
        assert "exactly one payload" in err

    def test_missing_kernel_rejected(self, capsys, tmp_path):
        state = write_state(tmp_path, "s.json", {"n": 3, "spectrum": [1, 0, 0]})
        code, _, err = run_cli(capsys, "indicator", "--state", state)
        assert code == 2

    def test_malformed_json_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "indicator", "--state", str(path), "--zeta", "0")
        assert code == 2

    @pytest.mark.parametrize("n", [3.7, True], ids=["float", "bool"])
    def test_non_integer_n_rejected(self, capsys, tmp_path, n):
        state = write_state(tmp_path, "n.json", {"n": n, "spectrum": [0.5, 0.3, 0.2]})
        code, out, err = run_cli(capsys, "indicator", "--state", state, "--zeta", "0")
        assert code == 2
        assert out == ""
        assert "'n' must be an integer" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([0.5, 0.3, 0.2], "state file must be a JSON object with an 'n' field"),
            ({"spectrum": [0.5, 0.3, 0.2]}, "state file must be a JSON object with an 'n' field"),
            ({"n": 3, "spectrum": [0.6, 0.4]}, "spectrum has 2 entries, expected n=3"),
            ({"n": 2, "spectrum": [0.5, 0.3, 0.2]}, "spectrum has 3 entries, expected n=2"),
            ({"n": 2, "matrix_re": [[0.5, 0.0], [0.0, 0.5]]},
             "matrix payload needs both 'matrix_re' and 'matrix_im'"),
            ({"n": 2, "matrix_im": [[0.0, 0.0], [0.0, 0.0]]},
             "matrix payload needs both 'matrix_re' and 'matrix_im'"),
            ({"n": 1, "matrix_re": [[1.0]], "matrix_im": [[0.0]]},
             "dimension must be at least 2"),
        ],
        ids=["list", "no_n", "short_spectrum", "long_spectrum", "re_only", "im_only",
             "one_by_one_matrix"],
    )
    def test_malformed_state_file_rejected(self, capsys, tmp_path, payload, message):
        state = write_state(tmp_path, "s.json", payload)
        code, out, err = run_cli(capsys, "indicator", "--state", state, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "indicator", "--state", str(tmp_path / "nope.json"), "--zeta", "0"
        )
        assert code == 2


def per_point_scan(zeta, res, convention):
    """The scan's CSV as a per-point writer formats it, one f-string per
    point beyond OQR, from the same `_cut_projection` rows; the reference
    for the scan's one-call-per-row writer. Also returns the run shape of
    each row with chamber points, as (run nonempty) for OQR, AQT, QRST, BRS."""
    xi3 = [(SQRT3 / 2.0) * i / (res - 1) for i in range(res)]
    xi3_text = [_fmt(x) for x in xi3]
    bounds = [x / SQRT3 - CHAMBER_TOL for x in xi3]
    frame = _cut_frame(zeta)
    text, shapes = ["xi3,xi8,region,distance\n"], []
    for j in range(res):
        xi8 = 0.5 * j / (res - 1)
        y = _fmt(xi8)
        m = bisect_right(bounds, xi8)
        ends, d = _cut_projection(xi3[:m], xi8, frame)
        if convention == "frobenius":
            d = [v / QUTRIT_FACTOR for v in d]
        i0 = ends[0]
        zero = f",{y},OQR,0\n"
        text.append(zero.join([*xi3_text[:i0], ""]))
        for region, lo, hi in zip(REGIONS[1:], ends, (*ends[1:], m)):
            mid = f",{y},{region.value},"
            run = zip(xi3_text[lo:hi], d[lo - i0 : hi - i0])
            text += [f"{x}{mid}{v:.12g}\n" for x, v in run]
        if m:
            shapes.append(tuple(lo < hi for lo, hi in zip((0, *ends), (*ends, m))))
    return "".join(text).encode("ascii"), shapes


class TestScanCommand:
    def test_small_scan_layout(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys,
            "scan",
            "--zeta",
            "0",
            "--resolution",
            "5",
            "--output",
            str(out_path),
        )
        assert code == 0
        assert out == ""
        lines = out_path.read_text().splitlines()
        assert lines[0] == "xi3,xi8,region,distance"
        rows = [line.split(",") for line in lines[1:]]
        # 5x5 grid, chamber keeps the lower-triangular half: 15 points
        assert len(rows) == 15
        for xi3, xi8, region, distance in rows:
            if region == "OQR":
                assert float(distance) == 0.0
            assert region != "AQT"

    def test_zeta_pi_third_line(self, capsys, tmp_path):
        out_path = tmp_path / "scan3.csv"
        code, _, _ = run_cli(
            capsys,
            "scan",
            "--zeta",
            PI_THIRD,
            "--resolution",
            "41",
            "--output",
            str(out_path),
        )
        assert code == 0
        for line in out_path.read_text().splitlines()[1:]:
            xi3, xi8, region, distance = line.split(",")
            if float(xi8) <= 0.25:
                assert region == "OQR"

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "scan", "--zeta", "0.3", "--resolution", "20", "--output", str(a))
        run_cli(capsys, "scan", "--zeta", "0.3", "--resolution", "20", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_floats_capped_at_12_significant_digits(self, capsys, tmp_path):
        def significant_digits(field):
            return len(field.split("e")[0].lstrip("-").replace(".", "").lstrip("0"))

        out_path = tmp_path / "fmt.csv"
        run_cli(capsys, "scan", "--zeta", "0", "--resolution", "7", "--output", str(out_path))
        for line in out_path.read_text().splitlines()[1:]:
            fields = line.split(",")
            for field in (fields[0], fields[1], fields[3]):
                assert significant_digits(field) <= 12

    def test_resolution_200_under_five_seconds(self, capsys, tmp_path):
        start = time.perf_counter()
        code, _, _ = run_cli(
            capsys, "scan", "--zeta", "0.3", "--resolution", "200",
            "--output", str(tmp_path / "big.csv"),
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 5.0

    def test_resolution_bounds(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "scan", "--zeta", "0", "--resolution", "1",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "resolution" in err

    @pytest.mark.parametrize("convention", ["paper", "frobenius"])
    @pytest.mark.parametrize("res", [2, 60, 201])
    def test_rows_match_closed_form(self, capsys, tmp_path, res, convention):
        """The row-wise scan prints what the one-point closed form gives, at
        zeta = 0, 0.7 and pi/3, where cos(zeta + pi/6) is about 6e-17. The
        angles run inside each case, so each resolution and convention
        keeps one test id."""
        for zeta in (0.0, 0.7, math.pi / 3.0):
            out_path = tmp_path / f"scan_{zeta!r}.csv"
            code, _, _ = run_cli(
                capsys, "scan", "--zeta", repr(zeta), "--resolution", str(res),
                "--convention", convention, "--output", str(out_path),
            )
            assert code == 0
            expected = ["xi3,xi8,region,distance"]
            for j in range(res):
                for i in range(res):
                    c = QutritChart((SQRT3 / 2.0) * i / (res - 1), 0.5 * j / (res - 1))
                    if chamber_mask(c.xi3, c.xi8):
                        r = qutrit_distance(c, zeta)
                        d = r.distance_paper if convention == "paper" else r.distance_frobenius
                        expected.append(f"{_fmt(c.xi3)},{_fmt(c.xi8)},{r.region.value},{_fmt(d)}")
            assert len(expected) == 1 + res * (res + 1) // 2
            assert out_path.read_text().splitlines() == expected, zeta

    def test_rows_match_per_point_writer(self, capsys, tmp_path):
        """The one `%` call per row writes the bytes of the per-point
        writer, at seeded angles and the two ends of the range, in both
        conventions, on rows of every run shape."""
        seeded = np.random.default_rng(2020).uniform(0.0, math.pi / 3.0, 4).tolist()
        shapes = {}
        for zeta in (0.0, math.pi / 3.0, *seeded):
            for res in (2, 3, 97, 401):
                for convention in ("paper", "frobenius"):
                    out_path = tmp_path / "scan.csv"
                    code, _, _ = run_cli(
                        capsys, "scan", "--zeta", repr(zeta), "--resolution", str(res),
                        "--convention", convention, "--output", str(out_path),
                    )
                    assert code == 0
                    expected, row_shapes = per_point_scan(zeta, res, convention)
                    assert out_path.read_bytes() == expected, (zeta, res, convention)
                    shapes.setdefault(zeta, set()).update(row_shapes)
        # a row with OQR points lies below Q, so it has no AQT run, and a
        # row beyond the triangle ends on edge OB past R, in BRS: the
        # fullest rows hold three runs, and BRS is empty only with them all
        every = set().union(*shapes.values())
        assert (True, False, False, False) in every
        assert (False, True, True, True) in every
        assert (True, False, True, True) in shapes[0.0]  # AQT empty
        assert (False, True, False, True) in shapes[math.pi / 3.0]  # QRST empty

    def test_invalid_zeta_leaves_no_file(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        for zeta in ("2", "nan"):
            code, _, err = run_cli(
                capsys, "scan", "--zeta", zeta, "--resolution", "5", "--output", str(out_path)
            )
            assert code == 2, zeta
            assert "zeta" in err, zeta
            assert not out_path.exists(), zeta

    def test_needs_an_angle(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "scan", "--resolution", "5", "--output", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: scan needs --zeta or --zeta-degrees\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("option", [["--seed", "3"], ["--pi", "1,1,-1"]])
    def test_takes_only_the_angle(self, capsys, tmp_path, option):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "scan", "--zeta", "0", *option, "--resolution", "5",
            "--output", str(out_path),
        )
        assert code == 2
        assert option[0] in err
        assert not out_path.exists()

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "scan", "--zeta", "0", "--resolution", "5",
            "--output", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2


class TestPolytopeCommand:
    def test_qutrit_pi_third(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--n", "3", "--zeta", PI_THIRD)
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert np.allclose(
            data["chart_vertices"], [[0, 0], [0, 0.25], [0.4330127, 0.25]], atol=1e-6
        )

    def test_qutrit_zeta_zero(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--n", "3", "--zeta", "0")
        data = json.loads(out)
        assert np.allclose(
            data["chart_vertices"], [[0, 0], [0, 0.5], [0.2165064, 0.125]], atol=1e-6
        )

    def test_qubit_segment(self, capsys):
        code, out, _ = run_cli(capsys, "polytope", "--n", "2", "--pi", QUBIT_PI)
        assert code == 0
        data = json.loads(out)
        assert "chart_vertices" not in data
        assert np.allclose(
            data["vertices"],
            [[0.5, 0.5], [(3 + SQRT3) / 6, (3 - SQRT3) / 6]],
            atol=1e-9,
        )

    def test_invalid_kernel(self, capsys):
        code, _, err = run_cli(capsys, "polytope", "--n", "3", "--pi", "1,0,0")
        assert code == 2


class TestSampleMinCommand:
    def test_maximally_mixed_gap_zero(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 3, "spectrum": [1 / 3, 1 / 3, 1 / 3]}))
        code, out, _ = run_cli(
            capsys, "sample-min", "--state", str(path), "--zeta", "0.5",
            "--samples", "100",
        )
        assert code == 0
        data = json.loads(out)
        assert data["gap"] == pytest.approx(0.0, abs=1e-12)

    def test_band_state_reaches_floor(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"n": 3, "spectrum": [0.7, 0.2, 0.1]}))
        code, out, _ = run_cli(
            capsys, "sample-min", "--state", str(path), "--zeta", "0",
            "--samples", "1000", "--seed", "1",
        )
        data = json.loads(out)
        assert code == 0
        assert data["w_analytic"] == pytest.approx(-0.4, abs=1e-12)
        assert data["w_sampled"] == pytest.approx(-0.4, abs=1e-12)
        assert data["gap"] >= 0.0

    def test_sampled_never_below_analytic(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"n": 4, "spectrum": [0.6, 0.3, 0.1, 0.0]}))
        code, out, _ = run_cli(
            capsys, "sample-min", "--state", str(path), "--pi",
            "1.3991823880442613,0.9720595428627341,-0.4052313494033677,-0.9660105815036275",
            "--samples", "500", "--seed", "9",
        )
        assert code == 0
        data = json.loads(out)
        assert data["w_sampled"] >= data["w_analytic"] - 1e-9


@pytest.mark.parametrize("command", ["kernel", "indicator", "polytope", "sample-min"])
def test_negative_seed_names_the_option(capsys, tmp_path, command):
    state = write_state(tmp_path, "s.json", {"n": 3, "spectrum": [0.7, 0.2, 0.1]})
    argv = {
        "kernel": ["kernel", "--n", "3"],
        "indicator": ["indicator", "--state", state],
        "polytope": ["polytope", "--n", "3"],
        "sample-min": ["sample-min", "--state", state, "--zeta", "0"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("command", ["kernel", "indicator", "polytope", "sample-min", "scan"])
def test_both_angle_options_exit_two(capsys, tmp_path, command):
    """--zeta and --zeta-degrees together name both options, in every
    command that takes them, and scan writes no file."""
    state = write_state(tmp_path, "s.json", {"n": 3, "spectrum": [0.7, 0.2, 0.1]})
    out_path = tmp_path / "x.csv"
    argv = {
        "kernel": ["kernel", "--n", "3"],
        "indicator": ["indicator", "--state", state],
        "polytope": ["polytope", "--n", "3"],
        "sample-min": ["sample-min", "--state", state],
        "scan": ["scan", "--resolution", "5", "--output", str(out_path)],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--zeta", "0", "--zeta-degrees", "0")
    assert code == 2
    assert out == ""
    assert err == "error: give either --zeta or --zeta-degrees, not both\n"
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["kernel", "indicator", "polytope", "sample-min"])
def test_kernel_past_float_range_exits_two(capsys, tmp_path, command):
    """A --pi whose partial sums pass the float range is a master-equation
    violation, not an overflow traceback."""
    state = write_state(tmp_path, "s.json", {"n": 3, "spectrum": [0.7, 0.2, 0.1]})
    argv = {
        "kernel": ["kernel", "--n", "3"],
        "indicator": ["indicator", "--state", state],
        "polytope": ["polytope", "--n", "3"],
        "sample-min": ["sample-min", "--state", state],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--pi", "1e308,1e308,-1e308")
    assert code == 2
    assert out == ""
    assert err == (
        "error: master equations violated: |sum(pi) - 1| = inf, |sum(pi^2) - n| = inf\n"
    )


@pytest.mark.parametrize("command", ["kernel", "polytope"])
def test_dimension_one_kernel_exits_two(capsys, command):
    """Every n below 2 names the dimension, not the count of values, for an
    explicit and a random kernel. The random kernel checks n before numpy
    loads, so the refusal leaves numpy unloaded; that runs in a child
    process, because the test suite itself imports numpy."""
    for source in (["--pi", "1"], ["--seed", "3"]):
        for n in ("1", "0", "-5"):
            code, out, err = run_cli(capsys, command, "--n", n, *source)
            assert code == 2
            assert out == ""
            assert err == "error: kernel dimension must be at least 2\n"
    argv = [command, "--n", "1", "--seed", "3"]
    script = (
        "import sys\n"
        "from ncdist.cli import main\n"
        f"print(main({argv!r}), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.stdout == "2 False\n"
    assert proc.stderr == "error: kernel dimension must be at least 2\n"


@pytest.mark.parametrize("command", ["kernel", "polytope"])
def test_unallocatable_dimension_exits_two(capsys, command):
    """A random kernel at n = 10**15 needs 7.11 PiB, which no address space
    can map, so numpy refuses it at once with a MemoryError; that is
    invalid input, not a traceback."""
    code, out, err = run_cli(capsys, command, "--n", str(10**15), "--seed", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["indicator", "sample-min"])
def test_deeply_nested_state_exits_two(capsys, tmp_path, command):
    """A spectrum nested past the JSON decoder's recursion limit is invalid
    input, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text('{"n": 3, "spectrum": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(capsys, command, "--state", str(path), "--zeta", "0")
    assert code == 2
    assert out == ""
    assert err == "error: state file is nested too deeply to read\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ncdist", "kernel", "--n", "3", "--zeta", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pi"] == [1.0, 1.0, -1.0]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_non_finite_input_exits_two(tmp_path, flags):
    """NaN fails every comparison, so it needs its own check; the check must
    not be an assert, which -O strips. Non-finite matrix entries are
    rejected before numpy's eigensolver can warn or fail on them."""
    state = write_state(tmp_path, "nan.json", {"n": 4, "spectrum": [math.nan, 0.5, 0.25, 0.25]})
    csv = tmp_path / "nan.csv"
    runs = [
        (["kernel", "--n", "3", "--pi", "nan,nan,nan"], "error: "),
        (["indicator", "--state", state, "--seed", "3"], "error: "),
        (["kernel", "--n", "3", "--zeta", "nan"], "error: zeta=nan outside"),
        (["scan", "--zeta", "nan", "--resolution", "4", "--output", str(csv)], "error: zeta=nan"),
        (
            ["scan", "--zeta-degrees", "nan", "--resolution", "4", "--output", str(csv)],
            "error: zeta=nan",
        ),
    ]
    for name, (i, j, value) in {
        "nan_diagonal": (0, 0, math.nan),
        "nan_off_diagonal": (0, 1, math.nan),
        "inf_off_diagonal": (0, 1, math.inf),
        "inf_diagonal": (0, 0, math.inf),
    }.items():
        re = [[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]
        re[i][j] = re[j][i] = value
        path = write_state(
            tmp_path, f"{name}.json", {"n": 3, "matrix_re": re, "matrix_im": [[0.0] * 3] * 3}
        )
        runs.append(
            (["indicator", "--state", path, "--zeta", "0"], "error: matrix entries must be finite")
        )
    results = run_in_one_child(flags, [argv for argv, _ in runs])
    for (argv, prefix), (code, out, err) in zip(runs, results, strict=True):
        assert code == 2, (argv, err)
        assert out == ""
        assert err.startswith(prefix), err
        assert "Warning" not in err
    assert not csv.exists()


def test_numpy_free_commands_leave_numpy_unloaded(tmp_path):
    """Importing the package and the CLI, and commands that run no array
    code, start without numpy, and without fractions, which only the
    oracle uses. These include `polytope` with `--zeta` or `--pi`, whose
    vertices are integer arithmetic, `scan`, whose closed form runs in
    plain floats, and every command given a negative `--seed`, which exits
    2 before numpy loads. Nor do they load dataclasses or inspect, unless
    the interpreter's start-up already did.
    Runs in a child process, because the test suite itself imports numpy."""
    s3 = write_state(tmp_path, "s3.json", {"n": 3, "spectrum": [0.7, 0.2, 0.1]})
    s8 = write_state(
        tmp_path, "s8.json", {"n": 8, "spectrum": [0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05]}
    )
    pi8 = ",".join(repr(v) for v in random_kernel(8, 5).values)
    commands = [
        ["indicator", "--state", s3, "--zeta", "0"],
        ["indicator", "--state", s8, "--pi", pi8],
        ["kernel", "--n", "3", "--zeta", "0"],
        ["polytope", "--n", "3", "--zeta", "0"],
        ["polytope", "--n", "2", "--pi", QUBIT_PI],
        ["scan", "--zeta", "0", "--convention", "frobenius", "--resolution", "30",
         "--output", str(tmp_path / "a.csv")],
        ["scan", "--zeta-degrees", "30", "--resolution", "30", "--output", str(tmp_path / "b.csv")],
        ["kernel", "--n", "3", "--seed", "-1"],
        ["indicator", "--state", s3, "--seed", "-1"],
        ["polytope", "--n", "3", "--seed", "-1"],
        ["sample-min", "--state", s3, "--zeta", "0", "--seed", "-1"],
    ]
    script = (
        "import sys\n"
        "slow = {'dataclasses', 'inspect'}\n"
        "preloaded = slow & set(sys.modules)\n"
        "import ncdist\n"
        "import ncdist.cli\n"
        f"codes = [ncdist.cli.main(argv) for argv in {commands!r}]\n"
        "print(codes, 'numpy' in sys.modules, 'fractions' in sys.modules)\n"
        "print(sorted(slow & set(sys.modules) - preloaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == "[0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2] False False"
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_state_entries_must_be_json_numbers(tmp_path, flags):
    """Booleans, numeric strings, a bare number, nested lists and integers
    past the float range are not spectrum or matrix entries: each exits 2
    with a message, never with a traceback or as the numbers float() would
    make of them."""
    zeros = [[0.0] * 3 for _ in range(3)]
    diagonal = [[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]]
    payloads = {
        "bool_spectrum": {"n": 3, "spectrum": [True, False, False]},
        "string_spectrum": {"n": 3, "spectrum": ["0.5", "0.3", "0.2"]},
        "number_spectrum": {"n": 3, "spectrum": 5},
        "nested_spectrum": {"n": 3, "spectrum": [[0.5], 0.3, 0.2]},
        "bool_matrix_re": {"n": 3, "matrix_re": [[True, False, False], [False] * 3, [False] * 3],
                           "matrix_im": zeros},
        "bool_matrix_im": {"n": 3, "matrix_re": diagonal, "matrix_im": [[False] * 3] * 3},
        "number_matrix": {"n": 3, "matrix_re": 5, "matrix_im": zeros},
        "ragged_matrix": {"n": 3, "matrix_re": [[0.5, 0.0, 0.0], [0.0, 0.3], [0.0, 0.0, 0.2]],
                          "matrix_im": zeros},
        "huge_int_spectrum": {"n": 3, "spectrum": [10**400, 0, 0]},
        "huge_int_matrix": {"n": 3, "matrix_re": [[10**400, 0, 0], [0, 0, 0], [0, 0, 0]],
                            "matrix_im": zeros},
    }
    argvs = [
        ["indicator", "--state", write_state(tmp_path, f"{name}.json", payload), "--zeta", "0"]
        for name, payload in payloads.items()
    ]
    results = run_in_one_child(flags, argvs)
    for name, (code, out, err) in zip(payloads, results, strict=True):
        assert code == 2, (name, err)
        assert out == ""
        assert err.startswith("error: "), (name, err)
        assert "must be" in err and "Traceback" not in err
