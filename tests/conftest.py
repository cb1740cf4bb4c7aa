"""Shared sampling helpers and the hypothesis profile of the test suite."""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import settings

from ncdist import QutritChart, Spectrum, haar_unitary
from ncdist.geometry import _cut_frame, _cut_point, _cut_projection

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0

#: property tests run a fixed, derandomized set of examples: the same on
#: every run and machine, with no example database written to disk
settings.register_profile(
    "ncdist", derandomize=True, max_examples=150, deadline=None, database=None
)
settings.load_profile("ncdist")


def random_chamber_chart(rng: np.random.Generator) -> QutritChart:
    """Uniform point of the chamber triangle O=(0,0), A=(0,1/2), B=(s3/2,1/2)."""
    u, v = rng.random(), rng.random()
    root = math.sqrt(u)
    return QutritChart(SQRT3 / 2.0 * root * v, 0.5 * root)


def random_spectrum(rng: np.random.Generator, n: int) -> Spectrum:
    """Uniform (Dirichlet) point of the probability simplex, sorted."""
    return Spectrum(tuple(float(x) for x in rng.dirichlet(np.ones(n))))


def random_density_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random mixed state: uniform spectrum conjugated by a Haar unitary."""
    r = random_spectrum(rng, n)
    u = haar_unitary(n, rng)
    return (u * r.as_array()) @ u.conj().T


def cut_points(row, xi8, zeta) -> list[tuple]:
    """Per point of an ascending row, from one `_cut_projection` call:
    region code, then float.hex of the nearest point's coordinates, the
    distance and the line coordinate p. The nearest point and p come from
    the point's own `_cut_point` call, whose code must be the row's."""
    ends, d = _cut_projection(row, xi8, _cut_frame(zeta))
    out = []
    for k, x in enumerate(row):
        code = bisect_right(ends, k)
        own_code, _, p, (n3, n8) = _cut_point(x, xi8, zeta)
        assert own_code == code
        dist = d[k - ends[0]] if code else 0.0
        out.append((code, n3.hex(), n8.hex(), dist.hex(), p.hex()))
    return out
