"""The nonclassicality distance indicator: exact qutrit closed form, exact
projection onto the positivity polytope for general dimension (a search for
the multiplier of its one halfspace, floor >= 0, solved on its final linear
piece, on pooled blocks), and an exact rational active-set oracle."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Iterable, NamedTuple, Sequence

from .core import QutritChart, Spectrum, conversion_factor, require_chamber, spectrum_from_chart
from .errors import DimensionMismatch, InfeasibleModel
from .geometry import REGIONS, Region, _band_region, _cut_projection
from .kernel import KernelSpectrum, check_zeta
from .wigner import CLASSICAL_TOL, wigner_floor


@dataclass(frozen=True)
class IndicatorResult:
    """Outcome of the nonclassicality distance computation for one state.

    Distances come in both conventions; `region` is populated for qutrits
    only. `floor` is the exact Wigner floor of the input state and
    `classical` is the floor >= -1e-12 predicate.
    """

    distance_paper: float
    distance_frobenius: float
    region: Region | None
    nearest: Spectrum
    floor: float
    classical: bool


def qutrit_distance(c: QutritChart, zeta: float) -> IndicatorResult:
    """Closed-form nonclassicality distance of a qutrit chart point.

    Zero on the classical triangle OQR; distance to the cut line on the
    band QRST; distance to the endpoint Q or R beyond the band. Values are
    Euclidean in the chart plane, which is the PAPER convention; the
    FROBENIUS value is the same number scaled by sqrt(2/3).

    `classical` is the chart-plane test p <= 1/4 + 0.75e-12. Its floor
    1/3 - (4/3) p is within 1e-15 of :func:`wigner_floor`, so it can differ
    from :func:`distance_general` only at the -1e-12 seam: the spectrum
    (0.4540878927130961, 0.37376698805893516, 0.17214511922796888) at zeta
    0.6545984418925018 has floor -0.99992e-12 here, -1.00008e-12 there.
    """
    z = check_zeta(zeta)
    require_chamber(c)
    code, nearest_xy, d_paper, p = _cut_projection(c.xi3, c.xi8, z)
    region = REGIONS[code]
    floor = 1.0 / 3.0 - (4.0 / 3.0) * p
    classical = region is Region.OQR
    nearest_chart = c if classical else QutritChart(*nearest_xy)
    return IndicatorResult(
        distance_paper=d_paper,
        distance_frobenius=d_paper / conversion_factor(3),
        region=region,
        nearest=spectrum_from_chart(nearest_chart),
        floor=floor,
        classical=classical,
    )


def _pool(values: Iterable[float]) -> tuple[list[float], list[int]]:
    """Pool adjacent violators: the block means and counts of the Euclidean
    projection onto the non-increasing cone.

    Scan left to right keeping block means non-increasing, merging blocks
    whenever a new mean exceeds the one before it. Adjacent blocks may end
    with equal means.
    """
    means: list[float] = []
    counts: list[int] = []
    for v in values:
        mean, count = float(v), 1
        while means and means[-1] < mean:
            mean = (means[-1] * counts[-1] + mean * count) / (counts[-1] + count)
            count += counts[-1]
            means.pop()
            counts.pop()
        means.append(mean)
        counts.append(count)
    return means, counts


def _expand(means: Iterable[float], counts: Iterable[int]) -> list[float]:
    """The vector whose runs are the blocks: each mean repeated count times."""
    out: list[float] = []
    for mean, count in zip(means, counts):
        out.extend([mean] * count)
    return out


def _threshold(u: Iterable[float]) -> float:
    """Shift theta of the Euclidean projection onto the probability simplex,
    for entries u in non-increasing order: the largest theta keeping the
    positive part of u - theta summing to one."""
    theta = 0.0
    csum = 0.0
    for j, uj in enumerate(u, start=1):
        csum += uj
        t = (csum - 1.0) / j
        if uj - t > 0.0:
            theta = t
        else:
            break
    return theta


def project_monotone_nonincreasing(values: Sequence[float]) -> list[float]:
    """Euclidean projection onto the non-increasing cone, by pool adjacent
    violators."""
    return _expand(*_pool(values))


def project_simplex(values: Sequence[float]) -> list[float]:
    """Euclidean projection onto the probability simplex.

    Sorted threshold method: shift everything by the largest theta keeping
    the positive part summing to one, then clip at zero.
    """
    theta = _threshold(sorted(values, reverse=True))
    return [max(float(v) - theta, 0.0) for v in values]


def project_halfspace(values: Sequence[float], normal: Sequence[float]) -> list[float]:
    """Euclidean projection onto {x : normal . x >= 0} (rank-one update)."""
    s = math.fsum(v * a for v, a in zip(values, normal))
    if s >= 0.0:
        return [float(v) for v in values]
    scale = s / math.fsum(a * a for a in normal)
    return [float(v) - scale * a for v, a in zip(values, normal)]


class _Point(NamedTuple):
    """One evaluation of x(lam) and of the linear piece of g through it."""

    lam: float
    x: list[float]
    g: float
    piece: tuple[int, ...]
    slope: float


def _point_at(
    lam: float, x: list[float], means: Iterable[float], counts: Iterable[int], a: Sequence[float]
) -> _Point:
    """Read g(lam) = a . x and its linear piece off one evaluation.

    The piece is fixed by the pooled blocks (means and counts) inside the
    simplex support of x, a prefix of the blocks since x is non-increasing;
    adjacent blocks of equal mean count as one. Along the piece x moves by
    the block means of a minus their support mean, so the slope is the
    block-size-weighted spread of those block means, a non-negative sum
    without cancellation.
    """
    ends: list[int] = []
    m = 0
    previous = math.nan
    for mean, count in zip(means, counts):
        if x[m] <= 0.0:
            break
        if mean == previous:
            ends[-1] += count
        else:
            ends.append(m + count)
        m += count
        previous = mean
    mean_t = math.fsum(a[:m]) / m
    slope = 0.0
    start = 0
    for end in ends:
        slope += (end - start) * (math.fsum(a[start:end]) / (end - start) - mean_t) ** 2
        start = end
    return _Point(lam, x, math.fsum(map(operator.mul, x, a)), tuple(ends), slope)


def _evaluate(r: Sequence[float], a: Sequence[float], lam: float) -> _Point:
    """x(lam) = project_simplex(project_monotone_nonincreasing(r + lam a))
    and its piece of g, found on the pooled blocks of r + lam a without
    expanding them before the threshold."""
    means, counts = _pool([v + lam * w for v, w in zip(r, a)])
    theta = _threshold(chain.from_iterable(map(repeat, means, counts)))
    x = _expand([max(mean - theta, 0.0) for mean in means], counts)
    return _point_at(lam, x, means, counts, a)


def _full_pooling(r: Sequence[float], a: Sequence[float]) -> float:
    """The least lam >= 0 at which r + lam a pools into one block: every
    prefix mean of r + lam a is at most its total mean. With a ascending,
    the prefix means of a lie below mean(a), so prefix k binds at
    (mean_k(r) - mean(r)) / (mean(a) - mean_k(a))."""
    n = len(r)
    mean_r = math.fsum(r) / n
    mean_a = math.fsum(a) / n
    lam = 0.0
    sum_r = sum_a = 0.0
    for k in range(1, n):
        sum_r += r[k - 1]
        sum_a += a[k - 1]
        gap = mean_a - sum_a / k
        if gap > 0.0:
            lam = max(lam, (sum_r / k - mean_r) / gap)
    return lam


def _project_cut(r: Sequence[float], a: Sequence[float]) -> list[float]:
    """Exact projection of an ordered r with a . r < 0 onto the ordered
    simplex cut by the halfspace a . x >= 0.

    By the KKT conditions the answer is x(lam) = project_simplex(
    project_monotone_nonincreasing(r + lam a)) at a lam > 0 where the
    nondecreasing, piecewise linear g(lam) = a . x(lam) vanishes. The
    bracket g(lower) < 0 < g(upper) is known without evaluating x: at
    lam = 0, x = r on r's own piece, and at the full-pooling multiplier
    (:func:`_full_pooling`) r + lam a pools into one block, so x is
    uniform and g = sum(a) / n = 1 / n. Each step is a Newton step on the
    piece of the lower, else the upper end when it lands strictly inside
    the bracket, else bisection; the first is Newton from lam = 0. A
    Newton step that lands on the piece it came from solved that piece,
    so its point is exact to rounding; so is an end whose Newton
    correction rounds to nothing. The loop also ends once the bracket
    holds no float between its ends.

    Each step is one evaluation of x(lam) (:func:`_evaluate`). The tests
    hold every call up to n = 64 to at most 8 steps, with degenerate
    kernels, near-pure, pure and flat spectra; typical calls take 2 or 3.
    """
    n = len(r)
    lower = _point_at(0.0, list(r), r, repeat(1), a)
    upper = _Point(_full_pooling(r, a), [1.0 / n] * n, math.fsum(a) / n, (n,), 0.0)
    while upper.g > 0.0:
        for source in (lower, upper):
            step = source.lam - source.g / source.slope if source.slope > 0.0 else math.nan
            if step == source.lam:
                return source.x
            if lower.lam < step < upper.lam:
                break
        else:
            source = None
            step = 0.5 * (lower.lam + upper.lam)
            if not lower.lam < step < upper.lam:
                break
        point = _evaluate(r, a, step)
        if source is not None and point.piece == source.piece:
            return point.x
        if point.g < 0.0:
            lower = point
        else:
            upper = point
    return upper.x


def project_to_classical(r: Spectrum, kernel: KernelSpectrum) -> Spectrum:
    """Euclidean projection of an ordered spectrum onto the classical set.

    The classical set is the chamber cut by the floor >= 0 halfspace, whose
    normal is the kernel in ascending order. This is the nearest point of
    :func:`distance_general`, so a classical spectrum is returned unchanged.
    """
    return distance_general(r, kernel).nearest


def distance_general(r: Spectrum, kernel: KernelSpectrum) -> IndicatorResult:
    """Nonclassicality distance of a state in any dimension.

    Classical states (floor >= -1e-12) report distance zero and themselves
    as nearest point; everything else is projected onto the positivity
    polytope. For n = 3 only a classical state is OQR; a nonclassical one
    takes the region of its nearest point under the closed form's tie rule:
    AQT within 1e-12 of Q along the cut segment, BRS within 1e-12 of R.
    """
    floor = wigner_floor(r, kernel)
    classical = floor >= -CLASSICAL_TOL
    if classical:
        nearest = r
        d_frob = 0.0
    else:
        nearest = Spectrum(tuple(_project_cut(r.values, kernel.values[::-1])))
        d_frob = math.sqrt(
            math.fsum((a - b) ** 2 for a, b in zip(r.values, nearest.values))
        )
    region = None
    if r.n == 3:
        region = Region.OQR if classical else _band_region(nearest.values, kernel.values[::-1])
    return IndicatorResult(
        distance_paper=d_frob * conversion_factor(r.n),
        distance_frobenius=d_frob,
        region=region,
        nearest=nearest,
        floor=floor,
        classical=classical,
    )


def bruteforce_project(r: Spectrum, kernel: KernelSpectrum) -> Spectrum:
    """Exhaustive active-set projection onto the positivity polytope, in
    exact rational arithmetic: the true projection, correctly rounded. An
    independent check for :func:`project_to_classical` at small n.

    A candidate fixes the tight ordering rows x_j >= x_{j+1}, which pool x
    into blocks, whether the last block is held at 0, and whether the
    halfspace a . x >= 0 (a the kernel ascending) is tight. A free block
    sits at mean_b(r) + nu0 + nu1 mean_b(a); the trace and the tight
    halfspace fix nu0 and nu1 by a 2x2 solve. It is singular only when a
    has one mean on every free block, and then the candidate without the
    halfspace stands in. The partial sums of x_j - r_j - nu0 - nu1 a_j are
    the ordering and sign multipliers. The exact KKT test asks for ordered
    blocks with the last >= 0, a . x >= 0, nu1 >= 0 and no negative partial
    sum. The problem is strictly convex, so the first candidate to pass is
    the projection. In `mask`, bit j of 0 < j < n ends a block after entry
    j, bit 0 holds the last block at 0 and bit n frees the halfspace, so
    the candidates with the halfspace tight, where nonclassical states
    project to, come first.
    """
    from fractions import Fraction

    n = r.n
    if kernel.n != n:
        raise DimensionMismatch(f"spectrum n={n} vs kernel n={kernel.n}")
    if n > 8:
        raise DimensionMismatch("the exhaustive projector supports n <= 8")
    r_q = [Fraction(v) for v in r.values]
    a_q = [Fraction(v) for v in kernel.values[::-1]]
    pr, pa = [0, *accumulate(r_q)], [0, *accumulate(a_q)]
    for mask in range(2 << n):
        tight, zero = not mask >> n & 1, mask & 1
        ends = [j for j in range(1, n) if mask >> j & 1] + [n]
        spans = list(zip([0, *ends], ends))[: len(ends) - zero]
        if not spans:
            continue
        size = spans[-1][1]
        sums = [(pr[e] - pr[s], pa[e] - pa[s], e - s) for s, e in spans]
        nu1 = 0
        if tight:
            det = size * sum(s_a * s_a / k for _, s_a, k in sums) - pa[size] ** 2
            if det == 0:
                continue
            s_ar = sum(s_r * s_a / k for s_r, s_a, k in sums)
            nu1 = -(size * s_ar + pa[size] * (1 - pr[size])) / det
        z = [(s_r + nu1 * s_a) / k for s_r, s_a, k in sums]
        if nu1 < 0 or not all(map(operator.ge, z, z[1:])):
            continue
        nu0 = (1 - pr[size] - nu1 * pa[size]) / size
        x = [v + nu0 for v, (s, e) in zip(z, spans) for _ in range(s, e)] + [0] * (n - size)
        if x[size - 1] < 0 or not tight and sum(map(operator.mul, x, a_q)) < 0:
            continue
        if min(accumulate(v - w - nu0 - nu1 * b for v, w, b in zip(x, r_q, a_q))) >= 0:
            return Spectrum(tuple(map(float, x)))
    raise InfeasibleModel("no candidate passes the KKT test")
