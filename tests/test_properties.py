"""Property tests of the general projector under the derandomized
`hypothesis` profile of conftest.py: n = 2 to 6, random kernels and qutrit
kernels at random and degenerate zeta, spectra with zeros, ties and
admitted negative tails."""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from ncdist import (
    Spectrum,
    bruteforce_project,
    chart_from_spectrum,
    distance_general,
    is_classical,
    qutrit_distance,
    qutrit_kernel,
    random_kernel,
    wigner_floor,
)
from ncdist.distance import _project_cut

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
        x = _project_cut(r.values, k.values[::-1], wigner_floor(r, k))
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
