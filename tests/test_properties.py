"""Property tests of the general projector under the derandomized
`hypothesis` profile of conftest.py: n = 2 to 6, random kernels and qutrit
kernels at random and degenerate zeta, spectra with zeros, ties and
admitted negative tails."""

import math

from hypothesis import given
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
