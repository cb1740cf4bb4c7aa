"""Positivity geometry: the Wigner-positivity polytope inside the ordered
eigenvalue simplex, the absolute-positivity ball with its tangent state,
and the qutrit region decomposition."""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate

from .core import (
    SQRT3,
    Frozen,
    MetricConvention,
    QutritChart,
    Spectrum,
    chart_from_spectrum,
    require_chamber,
)
from .errors import DimensionMismatch
from .kernel import KernelSpectrum, check_zeta
from .wigner import CLASSICAL_TOL

#: chart-plane counterpart of CLASSICAL_TOL: the floor equals
#: 1/3 - (4/3) p, so floor >= -CLASSICAL_TOL reads p <= 1/4 + OQR_TOL
OQR_TOL = 0.75 * CLASSICAL_TOL

#: ties on the foot position resolve toward Q and R (boundary cases agree
#: on the distance, so the label is a reporting choice)
_TIE_TOL = 1e-12


class Region(Enum):
    """Qutrit chamber regions, named by the anchor points bounding them."""

    OQR = "OQR"  # classical triangle, distance zero
    AQT = "AQT"  # nearest classical point is Q
    QRST = "QRST"  # nearest classical point is the orthogonal foot
    BRS = "BRS"  # nearest classical point is R


#: regions by the code `_cut_projection` returns
REGIONS = (Region.OQR, Region.AQT, Region.QRST, Region.BRS)


class Polytope(Frozen):
    """Wigner-positivity polytope by its vertices: the ordered simplex cut
    by the halfspace wigner_floor >= 0.

    Vertices are stored in a deterministic order: by chart coordinates for
    qutrits, lexicographically otherwise. Each coordinate is the exact cut
    of the float kernel, correctly rounded, so it does not depend on the
    BLAS build.
    """

    __slots__ = ("n", "vertices")
    n: int
    vertices: tuple[Spectrum, ...]

    def __init__(self, n: int, vertices: tuple[Spectrum, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", vertices)

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "vertices": [list(v.values) for v in self.vertices]}
        if self.n == 3:
            charts = [chart_from_spectrum(v) for v in self.vertices]
            out["chart_vertices"] = [[c.xi3, c.xi8] for c in charts]
        return out


class QutritAnchors(Frozen):
    """Chart positions of the chamber corners and the cut endpoints."""

    __slots__ = ("O", "A", "B", "Q", "R")
    O: QutritChart
    A: QutritChart
    B: QutritChart
    Q: QutritChart
    R: QutritChart

    def __init__(
        self, O: QutritChart, A: QutritChart, B: QutritChart, Q: QutritChart, R: QutritChart
    ):
        object.__setattr__(self, "O", O)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


def positivity_polytope(kernel: KernelSpectrum) -> Polytope:
    """Cut the ordered-simplex chamber with the positivity halfspace.

    The chamber simplex has vertices v_k = (1/k, ..., 1/k, 0, ..., 0) for
    k = 1..n. The cut keeps the vertices with floor >= -CLASSICAL_TOL and
    adds one vertex per edge whose end floors lie below -CLASSICAL_TOL and
    above CLASSICAL_TOL. The result is never empty: the barycenter has
    floor 1/n.

    Scaled by their largest denominator, a power of two, the kernel and the
    tolerance are integers, and so are the prefix sums s_k = k floor(v_k).
    The cut on the edge v_k v_l (k < l) is (s_k - s_l) / den in entries
    1..k and s_k / den in entries k+1..l, with den = l s_k - k s_l != 0.
    So each coordinate is the exact cut, correctly rounded by one integer
    division, with no numpy or BLAS.
    """
    n = kernel.n
    ratios = [x.as_integer_ratio() for x in (CLASSICAL_TOL, *reversed(kernel.values))]
    scale = max(d for _, d in ratios)
    tol, *a = (p * (scale // d) for p, d in ratios)
    sums = [0, *accumulate(a)]
    # +1 above the band |floor| <= CLASSICAL_TOL, -1 below it, 0 inside
    side = [(s > k * tol) - (s < -k * tol) for k, s in enumerate(sums)]

    points = [(1.0 / k,) * k + (0.0,) * (n - k) for k in range(1, n + 1) if side[k] >= 0]
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            if side[k] * side[l] < 0:
                den = l * sums[k] - k * sums[l]
                head, tail = (sums[k] - sums[l]) / den, sums[k] / den
                points.append((head,) * k + (tail,) * (l - k) + (0.0,) * (n - l))

    vertices = [Spectrum(p) for p in dict.fromkeys(points)]
    if n == 3:
        vertices.sort(key=lambda v: (chart_from_spectrum(v).xi3, chart_from_spectrum(v).xi8))
    else:
        vertices.sort(key=lambda v: v.values)
    return Polytope(n=n, vertices=tuple(vertices))


def absolute_radius(n: int, convention: MetricConvention) -> float:
    """Radius of the ball around the maximally mixed state whose members are
    classical for every kernel of dimension n."""
    if n < 2:
        raise DimensionMismatch("dimension must be at least 2")
    r = math.sqrt(n + 1.0) / (n * n - 1.0)
    if convention is MetricConvention.FROBENIUS:
        return r * math.sqrt((n - 1.0) / n)
    return r


def tangent_spectrum(kernel: KernelSpectrum) -> Spectrum:
    """State where the zero level of the Wigner floor touches the
    absolute-positivity ball: spectrum (n - pi_n, n - pi_{n-1}, ..., n - pi_1) / (n^2 - 1)."""
    n = kernel.n
    denom = float(n * n - 1)
    return Spectrum(tuple((n - p) / denom for p in reversed(kernel.values)))


def qutrit_anchor_points(zeta: float) -> QutritAnchors:
    """Chamber corners O, A, B plus the cut endpoints Q (on edge OA) and
    R (on edge OB) for the given moduli angle."""
    z = check_zeta(zeta)
    sec_q = 1.0 / math.cos(z - math.pi / 3.0)
    sec_r = 1.0 / math.cos(z)
    return QutritAnchors(
        O=QutritChart(0.0, 0.0),
        A=QutritChart(0.0, 0.5),
        B=QutritChart(SQRT3 / 2.0, 0.5),
        Q=QutritChart(0.0, 0.25 * sec_q),
        R=QutritChart(SQRT3 / 8.0 * sec_r, 0.125 * sec_r),
    )


def _square(x):
    """x * x as an exact sum hi + lo (Veltkamp split); floats or arrays."""
    c = 134217729.0 * x  # 2**27 + 1
    top = c - (c - x)
    rest = x - top
    xx = x * x
    return xx, ((top * top - xx) + 2.0 * top * rest) + rest * rest


def _hypot(x, y):
    """Correctly rounded sqrt(x^2 + y^2) for floats or arrays of one shape,
    with |x| and |y| zero or in [1e-150, 1e150].

    np.hypot is one ulp off on about 0.6 % of inputs, which can move the
    12th printed digit of a scan; math.hypot takes no arrays. One Newton
    step from h = sqrt(x*x + y*y) on the residual x^2 + y^2 - h^2, summed
    from exact products, matches math.hypot bit for bit (the tests compare
    them). h = 0 only where x = y = 0, and there the step adds 0/1.
    """
    xx, ex = _square(x)
    yy, ey = _square(y)
    s = xx + yy
    b = s - xx
    h = s**0.5
    hh, eh = _square(h)
    # s - hh is exact (Sterbenz): h*h is within a few ulps of s
    resid = (s - hh) + ((((xx - (s - b)) + (yy - b)) + ex + ey) - eh)
    return h + resid / (2.0 * h + (h == 0.0))


def _cut_projection(xi3, xi8, zeta: float):
    """Region code, nearest classical point, chart-plane distance and line
    coordinate p of chamber points, for a validated zeta.

    xi3 and xi8 are floats or float arrays of one shape, and the results
    `(code, (nearest_xi3, nearest_xi8), d_paper, p)` have that shape;
    `code` indexes REGIONS. In the frame of the cut line, with p along
    (cos a, sin a), s along (-sin a, cos a) and a = zeta + pi/6, the
    classical boundary is the segment RQ of the line p = 1/4, from
    s_R = -tan(zeta)/4 to s_Q = tan(pi/3 - zeta)/4. The distance is 0 for
    p <= 1/4 and hypot(p - 1/4, s - clamp(s, s_R, s_Q)) otherwise.
    Boundary ties resolve to OQR on the line, AQT at Q and BRS at R.

    The pieces are selected by multiplying with the 0/1 masks `inside`,
    `beyond`, `aqt`, `brs` and `band` (comparison results or their
    complement, one of aqt, brs and band true at each point), not by
    branching. Multiplying a finite float by 0 or 1 and adding 0 is exact,
    so the same operations serve Python floats and arrays and give
    bit-identical results for both.
    """
    ang = zeta + math.pi / 6.0
    cos_a, sin_a = math.cos(ang), math.sin(ang)
    s_q = 0.25 * math.tan(math.pi / 3.0 - zeta)
    s_r = -0.25 * math.tan(zeta)
    p = xi3 * cos_a + xi8 * sin_a
    s = xi8 * cos_a - xi3 * sin_a
    beyond = p > 0.25 + OQR_TOL
    inside = 1 - beyond
    aqt = s >= s_q - _TIE_TOL
    brs = s <= s_r + _TIE_TOL
    band = (s < s_q - _TIE_TOL) & (s > s_r + _TIE_TOL)
    s_near = aqt * s_q + brs * s_r + band * s
    code = beyond * (aqt + 3 * brs + 2 * band)
    nearest = (
        beyond * (0.25 * cos_a - s_near * sin_a) + inside * xi3,
        beyond * (0.25 * sin_a + s_near * cos_a) + inside * xi8,
    )
    return code, nearest, beyond * _hypot(p - 0.25, s - s_near), p


def _band_region(x, a) -> Region:
    """Region of a nonclassical qutrit from its nearest point x, for the
    kernel a ascending, under the tie rule of :func:`_cut_projection`.
    Along the cut segment x1 - x2 grows from 0 at Q by (2 a3 - a1 - a2) /
    (2 sqrt 3) = (2/sqrt 3) sin(zeta + pi/6) per unit chart-plane length,
    and x2 - x3 from 0 at R by (a2 + a3 - 2 a1) / (2 sqrt 3)."""
    a1, a2, a3 = a
    if x[0] - x[1] <= (2.0 * a3 - a1 - a2) / (2.0 * SQRT3) * _TIE_TOL:
        return Region.AQT
    if x[1] - x[2] <= (a2 + a3 - 2.0 * a1) / (2.0 * SQRT3) * _TIE_TOL:
        return Region.BRS
    return Region.QRST


def classify_region(c: QutritChart, zeta: float) -> Region:
    """Which piece of the chamber decomposition a chart point falls in."""
    z = check_zeta(zeta)
    require_chamber(c)
    return REGIONS[_cut_projection(c.xi3, c.xi8, z)[0]]
