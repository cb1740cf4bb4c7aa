import math
from fractions import Fraction

import numpy as np
import pytest

import ncdist.geometry
from conftest import cut_points, random_chamber_chart
from ncdist import (
    DimensionMismatch,
    MetricConvention,
    ModuliOutOfRange,
    OutOfChamber,
    QutritChart,
    Region,
    absolute_radius,
    classify_region,
    kernel_from_spectrum,
    metric_convert,
    positivity_polytope,
    qutrit_anchor_points,
    qutrit_kernel,
    random_kernel,
    tangent_spectrum,
    wigner_floor,
)
from ncdist.cli import _parse_pi
from ncdist.geometry import _TIE_TOL, _chart_floor
from ncdist.wigner import CLASSICAL_TOL

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0


def exact_vertices(kernel) -> list[list[str]]:
    """The polytope's vertices by the textbook construction in rational
    arithmetic, each coordinate rounded once, as sorted float.hex lists:
    the chamber vertices v_k with floor >= -CLASSICAL_TOL, plus
    v_i + t (v_j - v_i) on each edge whose floors lie below -CLASSICAL_TOL
    and above CLASSICAL_TOL."""
    n = kernel.n
    a = [Fraction(x) for x in reversed(kernel.values)]
    tol = Fraction(CLASSICAL_TOL)
    chamber = []
    for k in range(1, n + 1):
        chamber.append([Fraction(1, k)] * k + [Fraction(0)] * (n - k))
    floors = []
    for v in chamber:
        w = Fraction(0)
        for ai, vi in zip(a, v):
            w += ai * vi
        floors.append(w)
    points = [v for v, w in zip(chamber, floors) if w >= -tol]
    for i in range(n):
        for j in range(i + 1, n):
            wi, wj = floors[i], floors[j]
            if min(wi, wj) < -tol and max(wi, wj) > tol:
                t = wi / (wi - wj)
                points.append([vi + t * (vj - vi) for vi, vj in zip(chamber[i], chamber[j])])
    rounded = []
    for p in points:
        hexes = [float(x).hex() for x in p]
        if hexes not in rounded:
            rounded.append(hexes)
    return sorted(rounded)


def polytope_bits(kernel) -> list[list[str]]:
    return sorted([x.hex() for x in v.values] for v in positivity_polytope(kernel).vertices)


class TestPositivityPolytope:
    def test_qutrit_at_pi_third(self):
        p = positivity_polytope(qutrit_kernel(ZETA_MAX))
        expected = [
            (1 / 3, 1 / 3, 1 / 3),
            (5 / 12, 5 / 12, 1 / 6),
            (2 / 3, 1 / 6, 1 / 6),
        ]
        assert len(p.vertices) == 3
        for v, e in zip(p.vertices, expected):
            assert v.values == pytest.approx(e, abs=1e-12)

    def test_qutrit_at_zero_keeps_degenerate_corner(self):
        p = positivity_polytope(qutrit_kernel(0.0))
        expected = [
            (1 / 3, 1 / 3, 1 / 3),
            (0.5, 0.5, 0.0),
            (0.5, 0.25, 0.25),
        ]
        assert len(p.vertices) == 3
        for v, e in zip(p.vertices, expected):
            assert v.values == pytest.approx(e, abs=1e-12)
        charts = p.to_json_dict()["chart_vertices"]
        assert charts[0] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert charts[1] == pytest.approx([0.0, 0.5], abs=1e-12)
        assert charts[2] == pytest.approx([SQRT3 / 8, 0.125], abs=1e-12)

    def test_qutrit_at_zero_is_exact(self):
        vertices = [v.values for v in positivity_polytope(qutrit_kernel(0.0)).vertices]
        assert vertices == [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.5, 0.25, 0.25)]

    def test_random_kernels_match_exact_reference(self):
        for n in range(2, 13):
            for seed in range(6):
                k = random_kernel(n, 100 * n + seed)
                assert polytope_bits(k) == exact_vertices(k), (n, seed)

    def test_qutrit_angles_match_exact_reference(self):
        zetas = [0.0, ZETA_MAX, *np.random.default_rng(35).uniform(0.0, ZETA_MAX, 200)]
        for zeta in zetas:
            k = qutrit_kernel(float(zeta))
            assert polytope_bits(k) == exact_vertices(k), zeta

    def test_qubit_segment(self):
        k = kernel_from_spectrum(((1 + SQRT3) / 2, (1 - SQRT3) / 2), 2)
        p = positivity_polytope(k)
        assert len(p.vertices) == 2
        assert p.vertices[0].values == pytest.approx((0.5, 0.5), abs=1e-12)
        assert p.vertices[1].values == pytest.approx(
            ((3 + SQRT3) / 6, (3 - SQRT3) / 6), abs=1e-12
        )

    def test_barycenter_always_inside(self):
        for n in range(2, 8):
            k = random_kernel(n, n)
            p = positivity_polytope(k)
            barycenter = (1.0 / n,) * n
            assert any(
                v.values == pytest.approx(barycenter, abs=1e-12) for v in p.vertices
            )

    def test_vertices_satisfy_halfspaces(self):
        rng = np.random.default_rng(32)
        for n in range(2, 9):
            for _ in range(20):
                k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                p = positivity_polytope(k)
                for v in p.vertices:
                    assert wigner_floor(v, k) >= -1e-10

    def test_vertices_pairwise_distinct(self):
        rng = np.random.default_rng(33)
        for n in range(2, 9):
            for _ in range(20):
                k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                vs = [v.as_array() for v in positivity_polytope(k).vertices]
                for i in range(len(vs)):
                    for j in range(i + 1, len(vs)):
                        assert float(np.linalg.norm(vs[i] - vs[j])) > 1e-9

    def test_no_two_vertices_coincide(self):
        """The polytope keeps every corner and cut point it makes, with no
        pass that drops duplicates, so no two may be equal, bit for bit:
        seeded random kernels at n = 2..64 and qutrit kernels at 0, pi/3
        and seeded angles, where the degenerate ends put corners on the
        cut."""
        rng = np.random.default_rng(36)
        kernels = [
            random_kernel(n, int(rng.integers(0, 1 << 30)))
            for n in range(2, 65)
            for _ in range(10)
        ]
        zetas = [0.0, ZETA_MAX, *rng.uniform(0.0, ZETA_MAX, 500).tolist()]
        kernels += [qutrit_kernel(z) for z in zetas]
        for k in kernels:
            vertices = [v.values for v in positivity_polytope(k).vertices]
            assert len(set(vertices)) == len(vertices), k.values

    def test_qutrit_vertices_ascend_in_chart(self):
        """The qutrit vertices are sorted by (r1 - r2, -r3), which must give
        strictly ascending charts (xi3, xi8): qutrit kernels at and within
        1e-13 of both ends and at seeded angles, seeded random kernels, and
        kernels parsed from --pi text as the CLI parses them."""
        rng = np.random.default_rng(37)
        zetas = [0.0, 1e-13, ZETA_MAX - 1e-13, ZETA_MAX, *rng.uniform(0.0, ZETA_MAX, 500).tolist()]
        kernels = [qutrit_kernel(z) for z in zetas]
        kernels += [random_kernel(3, seed) for seed in range(200)]
        texts = ["1,1,-1", "1,1,−1", "-1,1,1"]
        for _ in range(200):
            u = rng.standard_normal(3)
            u -= u.mean()
            u *= math.sqrt(3.0 - 1.0 / 3.0) / np.linalg.norm(u)
            texts.append(",".join(repr(1.0 / 3.0 + float(x)) for x in u))
        kernels += [kernel_from_spectrum(_parse_pi(t), 3) for t in texts]
        for k in kernels:
            charts = positivity_polytope(k).to_json_dict()["chart_vertices"]
            assert all(a < b for a, b in zip(charts, charts[1:])), k.values

    def test_vertices_ascend_by_value(self):
        rng = np.random.default_rng(38)
        for n in (2, *range(4, 65)):
            for _ in range(10):
                k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                vertices = [v.values for v in positivity_polytope(k).vertices]
                assert all(a < b for a, b in zip(vertices, vertices[1:])), k.values

    def test_qutrit_vertices_are_charted_once_for_output(self, monkeypatch):
        """The sort needs no chart; the output charts each vertex once."""
        calls = []
        chart = ncdist.geometry.chart_from_spectrum

        def counting(r):
            calls.append(r)
            return chart(r)

        monkeypatch.setattr(ncdist.geometry, "chart_from_spectrum", counting)
        for zeta in (0.0, 0.3, ZETA_MAX):
            p = positivity_polytope(qutrit_kernel(zeta))
            assert calls == []
            p.to_json_dict()
            assert calls == list(p.vertices)
            calls.clear()

    def test_new_vertices_sit_on_the_cut(self):
        rng = np.random.default_rng(34)
        for n in range(2, 9):
            for _ in range(20):
                k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                for v in positivity_polytope(k).vertices:
                    w = wigner_floor(v, k)
                    assert abs(w) <= 1e-10 or w > 0


class TestAbsoluteRadius:
    def test_qutrit_values(self):
        assert absolute_radius(3, MetricConvention.PAPER) == pytest.approx(0.25, abs=1e-15)
        assert absolute_radius(3, MetricConvention.FROBENIUS) == pytest.approx(
            1 / math.sqrt(24), abs=1e-15
        )

    def test_qubit_value(self):
        assert absolute_radius(2, MetricConvention.PAPER) == pytest.approx(
            SQRT3 / 3, abs=1e-15
        )

    def test_conventions_differ_by_metric_factor(self):
        for n in range(2, 9):
            paper = absolute_radius(n, MetricConvention.PAPER)
            frob = absolute_radius(n, MetricConvention.FROBENIUS)
            assert metric_convert(
                frob, n, MetricConvention.FROBENIUS, MetricConvention.PAPER
            ) == pytest.approx(paper, abs=1e-15)

    def test_convention_given_by_value(self):
        for n in range(2, 9):
            for convention in MetricConvention:
                expected = absolute_radius(n, convention)
                assert absolute_radius(n, convention.value) == expected
        with pytest.raises(ValueError):
            absolute_radius(3, "bogus")

    @pytest.mark.parametrize("n", [1, 0])
    def test_rejects_dimension_below_two(self, n):
        with pytest.raises(DimensionMismatch):
            absolute_radius(n, MetricConvention.PAPER)


class TestTangentSpectrum:
    def test_degenerate_qutrit_kernel(self):
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert tangent_spectrum(k).values == pytest.approx((0.5, 0.25, 0.25), abs=1e-15)

    def test_pi_third_kernel(self):
        k = kernel_from_spectrum((5 / 3, -1 / 3, -1 / 3), 3)
        assert tangent_spectrum(k).values == pytest.approx(
            (5 / 12, 5 / 12, 1 / 6), abs=1e-15
        )

    def test_qubit_kernel(self):
        k = kernel_from_spectrum(((1 + SQRT3) / 2, (1 - SQRT3) / 2), 2)
        t = tangent_spectrum(k)
        assert t.values == pytest.approx(((3 + SQRT3) / 6, (3 - SQRT3) / 6), abs=1e-15)
        assert wigner_floor(t, k) == pytest.approx(0.0, abs=1e-15)

    def test_tangency_on_random_kernels(self):
        """Floor zero and barycenter gap equal to the ball radius."""
        for n in range(2, 9):
            for seed in range(30):
                k = random_kernel(n, seed)
                t = tangent_spectrum(k)
                assert abs(wigner_floor(t, k)) <= 1e-12
                gap = math.sqrt(math.fsum((v - 1.0 / n) ** 2 for v in t.values))
                assert abs(gap - absolute_radius(n, MetricConvention.FROBENIUS)) <= 1e-12


class TestAnchorPoints:
    def test_zeta_zero_degeneracy(self):
        a = qutrit_anchor_points(0.0)
        assert (a.Q.xi3, a.Q.xi8) == pytest.approx((0.0, 0.5), abs=1e-12)
        assert (a.R.xi3, a.R.xi8) == pytest.approx((SQRT3 / 8, 0.125), abs=1e-12)

    def test_zeta_pi_third(self):
        a = qutrit_anchor_points(ZETA_MAX)
        assert (a.Q.xi3, a.Q.xi8) == pytest.approx((0.0, 0.25), abs=1e-12)
        assert (a.R.xi3, a.R.xi8) == pytest.approx((SQRT3 / 4, 0.25), abs=1e-12)

    def test_zeta_pi_sixth(self):
        a = qutrit_anchor_points(math.pi / 6)
        assert (a.Q.xi3, a.Q.xi8) == pytest.approx((0.0, 1 / (2 * SQRT3)), abs=1e-12)
        assert (a.R.xi3, a.R.xi8) == pytest.approx((0.25, 1 / (4 * SQRT3)), abs=1e-12)

    def test_corners_are_fixed(self):
        for z in (0.0, 0.4, ZETA_MAX):
            a = qutrit_anchor_points(z)
            assert (a.O.xi3, a.O.xi8) == (0.0, 0.0)
            assert (a.A.xi3, a.A.xi8) == (0.0, 0.5)
            assert (a.B.xi3, a.B.xi8) == (SQRT3 / 2, 0.5)

    def test_q_and_r_sit_on_the_cut_line(self):
        for i in range(100):
            z = ZETA_MAX * i / 99
            a = qutrit_anchor_points(z)
            ang = z + math.pi / 6
            for pt in (a.Q, a.R):
                p = pt.xi3 * math.cos(ang) + pt.xi8 * math.sin(ang)
                assert abs(p - 0.25) <= 1e-14

    def test_q_on_edge_oa_and_r_on_edge_ob(self):
        for i in range(100):
            z = ZETA_MAX * i / 99
            a = qutrit_anchor_points(z)
            assert a.Q.xi3 == 0.0
            assert 0.25 - 1e-12 <= a.Q.xi8 <= 0.5 + 1e-12
            assert abs(a.R.xi8 - a.R.xi3 / SQRT3) <= 1e-14

    def test_out_of_range(self):
        with pytest.raises(ModuliOutOfRange):
            qutrit_anchor_points(-0.5)


class TestClassifyRegion:
    def test_barycenter_is_classical(self):
        for z in (0.0, 0.3, ZETA_MAX):
            assert classify_region(QutritChart(0.0, 0.0), z) is Region.OQR

    def test_corner_b_projects_past_r(self):
        assert classify_region(QutritChart(SQRT3 / 2, 0.5), math.pi / 6) is Region.BRS

    def test_interior_point_in_band(self):
        assert classify_region(QutritChart(0.2, 0.4), math.pi / 6) is Region.QRST

    def test_corner_a_projects_past_q(self):
        assert classify_region(QutritChart(0.0, 0.5), ZETA_MAX) is Region.AQT

    def test_boundary_ties(self):
        # on the cut line at zeta = pi/3 the coordinate p equals xi8 exactly
        assert classify_region(QutritChart(0.1, 0.25), ZETA_MAX) is Region.OQR
        # foot exactly at Q and exactly at R
        assert classify_region(QutritChart(0.0, 0.3), ZETA_MAX) is Region.AQT
        assert classify_region(QutritChart(SQRT3 / 4, 0.3), ZETA_MAX) is Region.BRS

    def test_no_aqt_when_q_coincides_with_a(self):
        rng = np.random.default_rng(35)
        for _ in range(5000):
            c = random_chamber_chart(rng)
            assert classify_region(c, 0.0) is not Region.AQT

    def test_rejects_out_of_chamber(self):
        with pytest.raises(OutOfChamber):
            classify_region(QutritChart(0.4, 0.1), 0.2)

    def test_rejects_bad_zeta(self):
        with pytest.raises(ModuliOutOfRange):
            classify_region(QutritChart(0.0, 0.0), 1.5)


def floats_around(x: float, k: int) -> list[float]:
    """The 2k + 1 consecutive floats centred on x."""
    for _ in range(k):
        x = math.nextafter(x, -math.inf)
    out = [x]
    for _ in range(2 * k):
        out.append(math.nextafter(out[-1], math.inf))
    return out


class TestCutProjection:
    @pytest.mark.parametrize("zeta", [0.0, math.pi / 6, ZETA_MAX, 0.5819])
    def test_array_call_matches_scalar_calls(self, zeta):
        """One call on each whole row, the points sharing one xi8 sorted
        ascending, equals the one-point calls on each point, bit for bit,
        on seeded grid rows and on clusters around the three thresholds:
        7 x 3 consecutive floats (xi8, xi3) around the rounded root
        p = 1/4 + 0.75e-12 of floor = -1e-12, whose float below is the last
        classical p, and one-ulp clusters around s = s_Q - tie and
        s = s_R + tie."""
        rng = np.random.default_rng(71)
        xi3 = [float(x) for x in rng.random(400) * SQRT3 / 2]
        xi8 = [float(x) for x in 0.5 * np.repeat(rng.random(4), 100)]
        a = zeta + math.pi / 6
        s_q = 0.25 * math.tan(math.pi / 3 - zeta)
        s_r = -0.25 * math.tan(zeta)
        # xi8 steps as well as xi3: at zeta = pi/3, cos a is about 6e-17,
        # so xi3 barely moves p
        edge = 0.25 + 0.75 * CLASSICAL_TOL
        x3 = edge * math.cos(a) - 0.5 * (s_q + s_r) * math.sin(a)
        x8 = (edge - x3 * math.cos(a)) / math.sin(a)
        start = len(xi3)
        for u8 in floats_around(x8, 3):
            for u3 in floats_around(x3, 1):
                xi3.append(u3)
                xi8.append(u8)
        clusters = [(start, len(xi3))]
        for p, s in ((0.3, s_q - _TIE_TOL), (0.3, s_r + _TIE_TOL)):
            x3 = p * math.cos(a) - s * math.sin(a)
            x8 = p * math.sin(a) + s * math.cos(a)
            start = len(xi3)
            for d3 in (-1, 0, 1):
                for d8 in (-1, 0, 1):
                    xi3.append(x3 + d3 * float(np.spacing(x3)))
                    xi8.append(x8 + d8 * float(np.spacing(x8)))
            clusters.append((start, len(xi3)))

        rows: dict[float, list[int]] = {}
        for k, x8 in enumerate(xi8):
            rows.setdefault(x8, []).append(k)
        by_row = [None] * len(xi3)
        for x8, ks in rows.items():
            ks.sort(key=xi3.__getitem__)
            for k, point in zip(ks, cut_points([xi3[k] for k in ks], x8, zeta), strict=True):
                by_row[k] = point
        one_point = [cut_points([x3], x8, zeta) for x3, x8 in zip(xi3, xi8)]
        assert all(len(out) == 1 for out in one_point)
        assert by_row == [out[0] for out in one_point]
        # OQR exactly where the floor of the point's own p is classical, so
        # that an edge moved by one float, on both paths alike, fails here
        oqr = [_chart_floor(float.fromhex(point[4])) >= -CLASSICAL_TOL for point in by_row]
        assert [point[0] == 0 for point in by_row] == oqr
        code = [c for c, _, _, _, _ in by_row]
        assert all(isinstance(c, int) for c in code)
        # each cluster straddles its threshold: OQR/QRST, AQT/QRST, BRS/QRST;
        # the edge cluster so holds an OQR and a non-OQR point
        for (lo, hi), pair in zip(clusters, ({0, 2}, {1, 2}, {3, 2})):
            assert set(code[lo:hi]) == pair
