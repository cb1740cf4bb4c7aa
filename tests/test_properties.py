"""Property tests, most under the derandomized `hypothesis` profile of
conftest.py. The general projector: n = 2 to 6, random kernels and qutrit
kernels at random and degenerate zeta, spectra with zeros, ties and
admitted negative tails, and seeded matrix input under unitary
conjugation. The qutrit closed form: ascending rows with repeated entries
and one-ulp clusters at its three thresholds."""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import cut_points, random_spectrum
from ncdist import (
    Spectrum,
    bruteforce_project,
    chart_from_spectrum,
    distance_general,
    haar_unitary,
    is_classical,
    qutrit_distance,
    qutrit_kernel,
    random_kernel,
    spectrum_from_matrix,
    wigner_floor,
)
from ncdist.distance import _KernelData, _project_cut
from ncdist.geometry import _TIE_TOL, _cut_frame, _cut_projection
from ncdist.wigner import CLASSICAL_TOL

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0

zetas = st.one_of(st.sampled_from([0.0, ZETA_MAX]), st.floats(0.0, ZETA_MAX))


@st.composite
def spectra(draw, n):
    """A spectrum of n entries from non-negative weights, which may tie or
    vanish; its last entry is held at -t, t up to 1e-12 as Spectrum
    admits, for some draws."""
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w[:-1]) > 0.0)
    )
    weights.sort(reverse=True)
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-12)))
    if t == 0.0:
        total = math.fsum(weights)
        return Spectrum(tuple(w / total for w in weights))
    head = math.fsum(weights[:-1])
    return Spectrum(tuple(w * (1.0 + t) / head for w in weights[:-1]) + (-t,))


@st.composite
def cases(draw, ns=st.integers(2, 6)):
    """(r, kernel): at n = 3 a qutrit kernel at a random or degenerate
    zeta, else a seeded random kernel."""
    n = draw(ns)
    if n == 3 and draw(st.booleans()):
        kernel = qutrit_kernel(draw(zetas))
    else:
        kernel = random_kernel(n, draw(st.integers(0, (1 << 30) - 1)))
    return draw(spectra(n)), kernel


@st.composite
def pairs(draw):
    """(r1, r2, kernel): r2 a second spectrum of r1's n, or a point on the
    segment toward it, down to 1e-9 of the way."""
    r1, kernel = draw(cases())
    s = draw(spectra(r1.n))
    t = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0), st.floats(0.0, 1e-9)))
    # a + t (b - a) can round an ulp past min(a, b), which would take an
    # admitted -1e-12 tail out of Spectrum's range
    mix = (max(a + t * (b - a), min(a, b)) for a, b in zip(r1.values, s.values))
    return r1, Spectrum(tuple(mix)), kernel


#: rounding allowance of the 1-Lipschitz bound: twice the worst excess,
#: 4.4e-16, over two runs of 20,000 random (not derandomized) `pairs` draws
LIPSCHITZ_SLACK = 2**-50


@given(cases())
def test_nearest_is_ordered_and_classical(case):
    r, k = case
    res = distance_general(r, k)
    assert is_classical(res.nearest, k)
    if not res.classical:
        x = _project_cut(r.values, _KernelData(k), wigner_floor(r, k))
        assert all(u >= v for u, v in zip(x, x[1:])) and x[-1] >= 0.0
        assert res.nearest.values == tuple(x)


@given(cases())
def test_nearest_matches_the_exact_oracle(case):
    r, k = case
    res = distance_general(r, k)
    if res.classical:
        return
    exact = bruteforce_project(r, k).values
    assert max(abs(u - v) for u, v in zip(res.nearest.values, exact)) <= 2**-52


@given(spectra(3), zetas)
def test_qutrit_label_matches_the_closed_form(r, zeta):
    general = distance_general(r, qutrit_kernel(zeta))
    assert general.region is qutrit_distance(chart_from_spectrum(r), zeta).region


def _in_classical_band(res) -> bool:
    """Whether a state counts as classical only by the -1e-12 tolerance, so
    its reported distance is 0 rather than its true distance."""
    return res.classical and res.floor < 0.0


@given(pairs())
def test_distance_is_1_lipschitz(pair):
    """The distance to a convex set moves by at most the distance moved.
    States in the classical band report 0 for a true distance of up to
    about 1e-12, so pairs with one of them are left out."""
    r1, r2, k = pair
    res1, res2 = distance_general(r1, k), distance_general(r2, k)
    assume(not (_in_classical_band(res1) or _in_classical_band(res2)))
    gap = math.sqrt(math.fsum((u - v) ** 2 for u, v in zip(r1.values, r2.values)))
    assert abs(res1.distance_frobenius - res2.distance_frobenius) <= gap + LIPSCHITZ_SLACK


@given(cases())
def test_projecting_the_nearest_point_again_returns_it(case):
    r, k = case
    nearest = distance_general(r, k).nearest
    again = distance_general(nearest, k)
    assert again.nearest.values == nearest.values
    assert again.distance_frobenius == 0.0 and again.distance_paper == 0.0


#: twice the worst gap, 8.9e-16, over 1000 states each of seeds 5 to 8
UNITARY_TOL = 2e-15


def test_matrix_input_is_unitarily_invariant():
    """Conjugating a state by a Haar unitary moves neither distance by more
    than UNITARY_TOL nor the classical flag: seeded spectra in a Haar
    basis, 200 states and random kernels at each n = 2 to 6."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for n in range(2, 7):
        for _ in range(200):
            u = haar_unitary(n, rng)
            rho = (u * random_spectrum(rng, n).as_array()) @ u.conj().T
            v = haar_unitary(n, rng)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            a = distance_general(spectrum_from_matrix(rho), k)
            b = distance_general(spectrum_from_matrix(v @ rho @ v.conj().T), k)
            assert a.classical == b.classical
            worst = max(
                worst,
                abs(a.distance_paper - b.distance_paper),
                abs(a.distance_frobenius - b.distance_frobenius),
            )
    assert worst <= UNITARY_TOL


@st.composite
def cut_rows(draw):
    """(row, xi8, zeta): an ascending row of chart xi3 values with repeated
    entries and, for some draws, runs of consecutive floats around the
    points of the row's line where p = 1/4 + 0.75e-12 (the rounded root of
    floor = -1e-12), s = s_Q - tie and s = s_R + tie."""
    zeta = draw(zetas)
    xi8 = draw(st.floats(0.0, 0.5))
    row = draw(st.lists(st.floats(0.0, SQRT3 / 2), max_size=12))
    cos_a, sin_a, s_q, s_r = _cut_frame(zeta)
    centres = (
        (0.25 + 0.75 * CLASSICAL_TOL - xi8 * sin_a) / cos_a,
        (xi8 * cos_a - (s_q - _TIE_TOL)) / sin_a,
        (xi8 * cos_a - (s_r + _TIE_TOL)) / sin_a,
    )
    for centre in centres:
        if draw(st.booleans()):
            x = centre
            for _ in range(draw(st.integers(0, 8))):
                x = math.nextafter(x, -math.inf)
            for _ in range(draw(st.integers(1, 17))):
                row.append(x)
                x = math.nextafter(x, math.inf)
    if row:
        row += draw(st.lists(st.sampled_from(row), max_size=6))
    row.sort()
    return row, xi8, zeta


def _point_rule(x: float, xi8: float, frame) -> int:
    """Region code of one point by the closed form's tests in turn, on its
    own p and s: the reference the runs must reproduce. A point is
    classical when its floor 1/3 - (4/3) p is >= -1e-12."""
    cos_a, sin_a, s_q, s_r = frame
    p = x * cos_a + xi8 * sin_a
    s = xi8 * cos_a - x * sin_a
    if 1.0 / 3.0 - (4.0 / 3.0) * p >= -1e-12:
        return 0
    if s >= s_q - _TIE_TOL:
        return 1
    return 3 if s <= s_r + _TIE_TOL else 2


@given(cut_rows())
def test_row_runs_match_one_point_calls(case):
    """The closed form on a whole ascending row equals its one-point calls
    bit for bit, its run ends are ordered within the row, and each point's
    region is the one its own tests give."""
    row, xi8, zeta = case
    frame = _cut_frame(zeta)
    (i0, i1, i2), d = _cut_projection(row, xi8, frame)
    assert 0 <= i0 <= i1 <= i2 <= len(row)
    assert len(d) == len(row) - i0
    points = cut_points(row, xi8, zeta)
    assert points == [pt for x in row for pt in cut_points([x], xi8, zeta)]
    assert [code for code, *_ in points] == [_point_rule(x, xi8, frame) for x in row]
