"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all);
the assertion carries the same condition so a failure is also red.
"""

import math
import os
import time

import numpy as np

from conftest import random_chamber_chart, random_density_matrix, random_spectrum
from ncdist import (
    MetricConvention,
    QutritChart,
    Region,
    Spectrum,
    absolute_radius,
    bruteforce_project,
    chart_from_spectrum,
    distance_general,
    haar_unitary,
    is_classical,
    metric_convert,
    positivity_polytope,
    project_to_classical,
    qutrit_distance,
    qutrit_kernel,
    random_kernel,
    spectrum_from_chart,
    spectrum_from_matrix,
    tangent_spectrum,
    wigner_floor,
    wigner_value,
)
from ncdist.cli import main as cli_main

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{status}]: {label}{suffix}")


def test_criterion_1_closed_form_vs_projector():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(10_000):
        c = random_chamber_chart(rng)
        z = float(rng.random()) * ZETA_MAX
        d_closed = qutrit_distance(c, z).distance_paper
        d_general = distance_general(spectrum_from_chart(c), qutrit_kernel(z)).distance_paper
        worst = max(worst, abs(d_closed - d_general))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, "closed form vs exact projector on 1e4 pairs", ok,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence():
    """The exact projector against the exact rational oracle, to 1e-14 in
    distance. Agreement at this level needs inputs off the classical
    tolerance band: for a floor in [-1e-12, 0) project_to_classical returns
    r unchanged while the oracle still projects (5.8e-14 apart at
    qutrit_kernel(1e-13) and r = (0.5, 0.5, 0)). Random spectra do not land
    in that band."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(1000):
            r = random_spectrum(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            p_proj = project_to_classical(r, k)
            p_kkt = bruteforce_project(r, k)
            d_proj = math.dist(r.values, p_proj.values)
            d_kkt = math.dist(r.values, p_kkt.values)
            worst = max(worst, abs(d_proj - d_kkt))
    ok = worst <= 1e-14
    report(2, "exact projector vs rational KKT oracle on 4x1e3 pairs", ok,
           f"worst gap {worst:.2e}")
    assert ok


def test_criterion_3_master_equations():
    worst_trace = worst_square = 0.0
    for i in range(1000):
        res_trace, res_square = qutrit_kernel(ZETA_MAX * i / 999).residuals()
        worst_trace = max(worst_trace, res_trace)
        worst_square = max(worst_square, res_square)
    grid_ok = worst_trace <= 1e-14 and worst_square <= 1e-13

    worst_random = 0.0
    for n in range(2, 11):
        for seed in range(100):
            worst_random = max(worst_random, *random_kernel(n, seed).residuals())
    random_ok = worst_random <= 1e-12

    ok = grid_ok and random_ok
    report(3, "master-equation residuals (grid and random kernels)", ok,
           f"grid {worst_trace:.1e}/{worst_square:.1e}, random {worst_random:.1e}")
    assert grid_ok
    assert random_ok


def test_criterion_4_tangency():
    worst_floor = worst_gap = 0.0
    for n in range(2, 9):
        for seed in range(100):
            k = random_kernel(n, seed)
            t = tangent_spectrum(k)
            worst_floor = max(worst_floor, abs(wigner_floor(t, k)))
            gap_frob = math.sqrt(math.fsum((v - 1.0 / n) ** 2 for v in t.values))
            gap_paper = metric_convert(
                gap_frob, n, MetricConvention.FROBENIUS, MetricConvention.PAPER
            )
            worst_gap = max(
                worst_gap,
                abs(gap_frob - absolute_radius(n, MetricConvention.FROBENIUS)),
                abs(gap_paper - absolute_radius(n, MetricConvention.PAPER)),
            )
    exact_qutrit = absolute_radius(3, MetricConvention.PAPER) == 0.25
    ok = worst_floor <= 1e-12 and worst_gap <= 1e-12 and exact_qutrit
    report(4, "tangent states touch the absolute-positivity ball", ok,
           f"floor {worst_floor:.1e}, radius gap {worst_gap:.1e}")
    assert worst_floor <= 1e-12
    assert worst_gap <= 1e-12
    assert exact_qutrit


def test_criterion_5_absolute_positivity_ball():
    rng = np.random.default_rng(105)
    inside_ok = True
    for _ in range(10_000):
        # chamber cut to chart norm <= 0.25 is the polar sector between the
        # chamber edges, so sample it directly
        phi = math.pi / 6 + float(rng.random()) * math.pi / 3
        rho = 0.25 * math.sqrt(float(rng.random()))
        c = QutritChart(rho * math.cos(phi), rho * math.sin(phi))
        z = float(rng.random()) * ZETA_MAX
        inside_ok = inside_ok and is_classical(spectrum_from_chart(c), qutrit_kernel(z))

    tight_ok = True
    for i in range(100):
        z = ZETA_MAX * i / 99
        ang = z + math.pi / 6
        c = QutritChart(0.26 * math.cos(ang), 0.26 * math.sin(ang))
        tight_ok = tight_ok and not is_classical(spectrum_from_chart(c), qutrit_kernel(z))

    ok = inside_ok and tight_ok
    report(5, "ball of radius 1/4 is classical and tight to 0.01", ok)
    assert inside_ok
    assert tight_ok


def test_criterion_6_supporting_hyperplane():
    rng = np.random.default_rng(106)
    worst_violation = -math.inf
    worst_optimum = 0.0
    for i in range(10_000):
        n = 2 + i % 4
        rho = random_density_matrix(rng, n)
        k = random_kernel(n, int(rng.integers(0, 1 << 30)))
        u = haar_unitary(n, rng)
        floor = wigner_floor(spectrum_from_matrix(rho), k)
        worst_violation = max(worst_violation, floor - wigner_value(rho, u, k))
        # eigh columns pair increasing eigenvalues with decreasing kernel
        # values: the opposite-order optimum
        _, vecs = np.linalg.eigh(rho)
        worst_optimum = max(worst_optimum, abs(wigner_value(rho, vecs, k) - floor))
    ok = worst_violation <= 1e-10 and worst_optimum <= 1e-10
    report(6, "floor supports all sampled Wigner values, attained by pairing", ok,
           f"violation {worst_violation:.1e}, optimum gap {worst_optimum:.1e}")
    assert worst_violation <= 1e-10
    assert worst_optimum <= 1e-10


def test_criterion_7_figure_reproduction(tmp_path):
    cases = [
        ("0", "scan_zeta_0.csv"),
        ("0.5235987755982988", "scan_zeta_pi_over_6.csv"),
        ("1.0471975511965976", "scan_zeta_pi_over_3.csv"),
    ]
    bytes_ok = True
    for zeta_arg, golden_name in cases:
        out = tmp_path / golden_name
        code = cli_main(
            ["scan", "--zeta", zeta_arg, "--resolution", "200", "--output", str(out)]
        )
        golden = open(os.path.join(GOLDEN_DIR, golden_name), "rb").read()
        bytes_ok = bytes_ok and code == 0 and out.read_bytes() == golden

    rows = open(os.path.join(GOLDEN_DIR, "scan_zeta_0.csv")).read().splitlines()[1:]
    no_aqt = all(row.split(",")[2] != "AQT" for row in rows)

    poly = positivity_polytope(qutrit_kernel(0.0))
    charts = poly.to_json_dict()["chart_vertices"]
    expected = [[0.0, 0.0], [0.0, 0.5], [SQRT3 / 8, 0.125]]
    poly_ok = all(
        abs(a - b) <= 1e-10 for got, want in zip(charts, expected) for a, b in zip(got, want)
    )

    ok = bytes_ok and no_aqt and poly_ok
    report(7, "golden scans byte-identical; degenerate cut at zeta=0", ok)
    assert bytes_ok
    assert no_aqt
    assert poly_ok


def test_criterion_8_unitary_invariance():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        rho = random_density_matrix(rng, 3)
        u = haar_unitary(3, rng)
        k = random_kernel(3, int(rng.integers(0, 1 << 30)))
        d1 = distance_general(spectrum_from_matrix(rho), k).distance_paper
        d2 = distance_general(spectrum_from_matrix(u @ rho @ u.conj().T), k).distance_paper
        worst = max(worst, abs(d1 - d2))
    ok = worst <= 1e-10
    report(8, "indicator invariant under conjugation via matrix input", ok,
           f"worst gap {worst:.1e}")
    assert ok


def test_criterion_9_pure_state_extremes():
    pure = Spectrum((1.0, 0.0, 0.0))

    res0 = distance_general(pure, qutrit_kernel(0.0))
    brute0 = bruteforce_project(pure, qutrit_kernel(0.0))
    d0_brute = metric_convert(
        math.dist(pure.values, brute0.values), 3,
        MetricConvention.FROBENIUS, MetricConvention.PAPER,
    )
    ok0 = (
        abs(res0.floor - (-1.0)) <= 1e-12
        and abs(res0.distance_paper - 0.75) <= 1e-10
        and abs(d0_brute - 0.75) <= 1e-10
    )

    res3 = distance_general(pure, qutrit_kernel(ZETA_MAX))
    brute3 = bruteforce_project(pure, qutrit_kernel(ZETA_MAX))
    d3_brute = metric_convert(
        math.dist(pure.values, brute3.values), 3,
        MetricConvention.FROBENIUS, MetricConvention.PAPER,
    )
    ok3 = (
        abs(res3.floor - (-1.0 / 3.0)) <= 1e-12
        and abs(res3.distance_paper - 0.5) <= 1e-10
        and abs(d3_brute - 0.5) <= 1e-10
    )

    ok = ok0 and ok3
    report(9, "pure-state extremes at both moduli endpoints", ok,
           f"zeta=0: w={res0.floor:.4f} d={res0.distance_paper:.4f}; "
           f"zeta=pi/3: w={res3.floor:.4f} d={res3.distance_paper:.4f}")
    assert ok0
    assert ok3
