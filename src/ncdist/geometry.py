"""Positivity geometry: the Wigner-positivity polytope inside the ordered
eigenvalue simplex, the absolute-positivity ball with its tangent state,
and the qutrit region decomposition."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import accumulate

from .core import (
    SQRT3,
    Frozen,
    MetricConvention,
    QutritChart,
    Spectrum,
    chart_from_spectrum,
    conversion_factor,
    require_chamber,
)
from .errors import DimensionMismatch
from .kernel import KernelSpectrum, check_zeta
from .wigner import CLASSICAL_TOL, floor_is_classical

#: ties on the foot position resolve toward Q and R (boundary cases agree
#: on the distance, so the label is a reporting choice)
_TIE_TOL = 1e-12


class Region(Enum):
    """Qutrit chamber regions, named by the anchor points bounding them."""

    OQR = "OQR"  # classical triangle, distance zero
    AQT = "AQT"  # nearest classical point is Q
    QRST = "QRST"  # nearest classical point is the orthogonal foot
    BRS = "BRS"  # nearest classical point is R


#: regions by code, in the order of `_cut_projection`'s runs
REGIONS = tuple(Region)


class Polytope(Frozen):
    """Wigner-positivity polytope by its vertices: the ordered simplex cut
    by the halfspace wigner_floor >= 0.

    Vertices ascend by their values, or at n = 3 by (r1 - r2, -r3), the
    order of their charts. Each coordinate is the exact cut of the float
    kernel, correctly rounded, so it does not depend on the BLAS build.
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
    division, with no numpy or BLAS. Each point is non-increasing, so it
    is a Spectrum bit for bit, and the points are sorted once: by value, or
    at n = 3 by (r1 - r2, -r3). Both chart coordinates are monotone in that
    key under rounding, so the two orders differ only if two distinct
    vertices' charts collide by rounding, which no measured kernel did.
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

    points.sort(key=(lambda p: (p[0] - p[1], -p[2])) if n == 3 else None)
    return Polytope(n=n, vertices=tuple(map(Spectrum, points)))


def absolute_radius(n: int, convention: MetricConvention | str) -> float:
    """Radius of the ball around the maximally mixed state whose members are
    classical for every kernel of dimension n; `convention` is a
    MetricConvention member or its value, any other raises ValueError."""
    if n < 2:
        raise DimensionMismatch("dimension must be at least 2")
    r = math.sqrt(n + 1.0) / (n * n - 1.0)
    if MetricConvention(convention) is MetricConvention.FROBENIUS:
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


def _cut_frame(zeta: float) -> tuple[float, float, float, float]:
    """The cut line's frame for a validated zeta: cos a, sin a, s_Q and
    s_R, with a = zeta + pi/6 (see :func:`_cut_projection`)."""
    ang = zeta + math.pi / 6.0
    s_q = 0.25 * math.tan(math.pi / 3.0 - zeta)
    s_r = -0.25 * math.tan(zeta)
    return math.cos(ang), math.sin(ang), s_q, s_r


def _chart_floor(p: float) -> float:
    """Wigner floor of a qutrit at line coordinate p (see :func:`_cut_projection`)."""
    return 1.0 / 3.0 - (4.0 / 3.0) * p


#: d_paper / d_frobenius for qutrits, the constant of every closed-form result
QUTRIT_FACTOR = conversion_factor(3)


def _cut_projection(xi3, xi8: float, frame) -> tuple[tuple[int, int, int], list[float]]:
    """Region runs and chart-plane distances of the chamber points (x, xi8)
    for x in xi3, an ascending row of floats, in the frame `_cut_frame`
    gives for the moduli angle.

    In the frame of the cut line, with p along (cos a, sin a), s along
    (-sin a, cos a) and a = zeta + pi/6, the classical boundary is the
    segment RQ of the line p = 1/4, from s_R = -tan(zeta)/4 to
    s_Q = tan(pi/3 - zeta)/4. A point is classical (OQR, code 0) when its
    floor >= -1e-12, :func:`floor_is_classical` of :func:`_chart_floor`
    itself; beyond that it
    is AQT (1) when s >= s_Q - tie, BRS (3) when s <= s_R + tie, and
    QRST (2) otherwise. The distance is 0 on OQR and
    hypot(p - 1/4, s - clamp(s, s_R, s_Q)) beyond it, which on the band is
    p - 1/4. Boundary ties resolve to OQR on the line, AQT at Q and BRS at
    R; `code` indexes REGIONS.

    Along an ascending row p rises and s falls, also in rounded arithmetic:
    cos a >= 6e-17 > 0 and sin a >= 1/2 for every valid zeta, and rounding
    a product or a sum is monotone, so the floor never rises either. So
    each test holds on a prefix or a suffix of the row, and the four
    regions are four consecutive runs, found by bisection on the same
    expressions. Returns the run ends `(i0, i1, i2)`: points [0, i0) are
    OQR, [i0, i1) AQT, [i1, i2) QRST and [i2, len) BRS. Then the distances
    of the points from i0 on, in row order; those of OQR are 0 and left
    out. A scan computes the frame once and passes each grid row;
    :func:`_cut_point` reads a one-point row.
    """
    cos_a, sin_a, s_q, s_r = frame
    q_tie, r_tie = s_q - _TIE_TOL, s_r + _TIE_TOL
    p8, s8 = xi8 * sin_a, xi8 * cos_a
    n = len(xi3)
    i0 = bisect_left(xi3, True, key=lambda x: not floor_is_classical(_chart_floor(x * cos_a + p8)))
    if i0 == n:  # the whole row is classical
        return (n, n, n), []

    def neg_s(x):
        # -(s8 - x * sin_a) exactly, as rounding is symmetric; it rises
        # along the row, so s >= q_tie on a prefix and s <= r_tie on a suffix
        return x * sin_a - s8

    i1 = bisect_right(xi3, -q_tie, i0, key=neg_s)
    i2 = bisect_left(xi3, -r_tie, i1, key=neg_s)
    hypot = math.hypot
    # empty runs are skipped, which keeps a one-point row cheap
    d = []
    if i0 < i1:
        d += [hypot(x * cos_a + p8 - 0.25, s8 - x * sin_a - s_q) for x in xi3[i0:i1]]
    if i1 < i2:
        d += [x * cos_a + p8 - 0.25 for x in xi3[i1:i2]]
    if i2 < n:
        d += [hypot(x * cos_a + p8 - 0.25, s8 - x * sin_a - s_r) for x in xi3[i2:]]
    return (i0, i1, i2), d


def _cut_point(x: float, xi8: float, zeta: float) -> tuple[int, float, float, tuple[float, float]]:
    """Region code (an index into REGIONS), chart-plane distance, line
    coordinate p and nearest classical point of the chamber point (x, xi8)
    for a validated zeta, read off a one-point row of :func:`_cut_projection`:
    the nearest point is the point itself on OQR, else the foot (1/4, s) on
    the cut line with s held at s_Q on AQT and at s_R on BRS."""
    frame = _cut_frame(zeta)
    ends, d = _cut_projection((x,), xi8, frame)
    # a one-point row's code is the number of its run ends at 0
    code = ends.count(0)
    cos_a, sin_a, s_q, s_r = frame
    p = x * cos_a + xi8 * sin_a
    if code == 0:
        return code, 0.0, p, (x, xi8)
    s = s_q if code == 1 else s_r if code == 3 else xi8 * cos_a - x * sin_a
    return code, d[0], p, (0.25 * cos_a - s * sin_a, 0.25 * sin_a + s * cos_a)


def _band_region(x, kernel_values) -> Region:
    """Region of a nonclassical qutrit from its nearest point x, for the
    kernel's own non-increasing values a3 >= a2 >= a1, under the tie rule
    of :func:`_cut_projection`. Along the cut segment x1 - x2 grows from 0
    at Q by (2 a3 - a1 - a2) / (2 sqrt 3) = (2/sqrt 3) sin(zeta + pi/6) per
    unit chart-plane length, and x2 - x3 from 0 at R by (a2 + a3 - 2 a1) /
    (2 sqrt 3)."""
    a3, a2, a1 = kernel_values
    if x[0] - x[1] <= (2.0 * a3 - a1 - a2) / (2.0 * SQRT3) * _TIE_TOL:
        return Region.AQT
    if x[1] - x[2] <= (a2 + a3 - 2.0 * a1) / (2.0 * SQRT3) * _TIE_TOL:
        return Region.BRS
    return Region.QRST


def classify_region(c: QutritChart, zeta: float) -> Region:
    """Which piece of the chamber decomposition a chart point falls in."""
    z = check_zeta(zeta)
    require_chamber(c)
    return REGIONS[_cut_point(c.xi3, c.xi8, z)[0]]
