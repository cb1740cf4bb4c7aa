"""The nonclassicality distance indicator: exact qutrit closed form, exact
projection onto the positivity polytope for general dimension (a search for
the multiplier of its one halfspace, floor >= 0, solved on its final linear
piece), and an exhaustive active-set oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    QutritChart,
    Spectrum,
    chart_from_spectrum,
    conversion_factor,
    require_chamber,
    spectrum_from_chart,
)
from .errors import DimensionMismatch, InfeasibleModel
from .geometry import REGIONS, Region, _cut_projection
from .kernel import KernelSpectrum, check_zeta, zeta_from_kernel
from .wigner import CLASSICAL_TOL, is_classical, wigner_floor


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


def project_monotone_nonincreasing(values: Sequence[float]) -> list[float]:
    """Euclidean projection onto the non-increasing cone.

    Pool adjacent violators: scan left to right keeping block means
    non-increasing, merging blocks whenever a new mean exceeds the one
    before it.
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
    out: list[float] = []
    for mean, count in zip(means, counts):
        out.extend([mean] * count)
    return out


def project_simplex(values: Sequence[float]) -> list[float]:
    """Euclidean projection onto the probability simplex.

    Sorted threshold method: shift everything by the largest theta keeping
    the positive part summing to one, then clip at zero.
    """
    u = sorted(values, reverse=True)
    theta = 0.0
    csum = 0.0
    for j, uj in enumerate(u):
        csum += uj
        t = (csum - 1.0) / (j + 1.0)
        if uj - t > 0.0:
            theta = t
        else:
            break
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


def _point_at(lam: float, z: list[float], x: list[float], a: Sequence[float]) -> _Point:
    """Read g(lam) = a . x and its linear piece off one evaluation.

    The piece is fixed by the pooled blocks of z (runs of equal values left
    by the monotone projection) inside the simplex support of x, a prefix
    since z is non-increasing. Along the piece x moves by the block means
    of a minus their support mean, so the slope is the block-size-weighted
    spread of those block means, a non-negative sum without cancellation.
    """
    m = sum(1 for v in x if v > 0.0)
    mean_t = math.fsum(a[:m]) / m
    ends = []
    slope = 0.0
    start = 0
    for i in range(1, m + 1):
        if i == m or z[i] != z[start]:
            slope += (i - start) * (math.fsum(a[start:i]) / (i - start) - mean_t) ** 2
            ends.append(i)
            start = i
    return _Point(lam, x, math.fsum(v * w for v, w in zip(x, a)), tuple(ends), slope)


def _project_cut(r: Sequence[float], a: Sequence[float]) -> list[float]:
    """Exact projection of an ordered r with a . r < 0 onto the ordered
    simplex cut by the halfspace a . x >= 0.

    By the KKT conditions the answer is x(lam) = project_simplex(
    project_monotone_nonincreasing(r + lam a)) at a lam > 0 where the
    nondecreasing, piecewise linear g(lam) = a . x(lam) vanishes. The
    bracket g(lower) < 0 <= g(upper) starts at lam = 0, where x = r, and
    at upper lam = 1, doubled until g >= 0. Each step is a Newton step on
    the piece of the lower, else the upper end when it lands strictly
    inside the bracket, else bisection. A Newton step that lands on the
    piece it came from solved that piece, so its point is exact to
    rounding; so is an end whose Newton correction rounds to nothing. The
    loop also ends once the bracket holds no float between its ends.

    Each step is one project_simplex call. The tests hold every call up
    to n = 64 to at most 12 steps, with degenerate kernels, near-pure,
    pure and flat spectra; typical calls take 3 or 4.
    """

    def evaluate(lam: float) -> _Point:
        z = project_monotone_nonincreasing([v + lam * w for v, w in zip(r, a)])
        return _point_at(lam, z, project_simplex(z), a)

    lower = _point_at(0.0, list(r), list(r), a)
    upper = evaluate(1.0)
    while upper.g < 0.0:
        lower, upper = upper, evaluate(2.0 * upper.lam)
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
        point = evaluate(step)
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
    normal is the kernel in ascending order. The nearest point is found by
    an exact multiplier search over that one halfspace, so its floor is
    zero to rounding. A spectrum that :func:`is_classical` admits, as
    :func:`distance_general` does, is returned unchanged.
    """
    if r.n != kernel.n:
        raise DimensionMismatch(f"spectrum n={r.n} vs kernel n={kernel.n}")
    if is_classical(r, kernel):
        return r
    return Spectrum(tuple(_project_cut(r.values, kernel.values[::-1])))


def distance_general(r: Spectrum, kernel: KernelSpectrum) -> IndicatorResult:
    """Nonclassicality distance of a state in any dimension.

    Classical states (floor >= -1e-12) report distance zero and themselves
    as nearest point; everything else is projected onto the positivity
    polytope. Agrees with :func:`qutrit_distance` for n = 3, whose closed
    form labels the region of a nonclassical qutrit.
    """
    if r.n != kernel.n:
        raise DimensionMismatch(f"spectrum n={r.n} vs kernel n={kernel.n}")
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
        if classical:
            region = Region.OQR
        else:
            c = chart_from_spectrum(r)
            region = REGIONS[_cut_projection(c.xi3, c.xi8, zeta_from_kernel(kernel))[0]]
    return IndicatorResult(
        distance_paper=d_frob * conversion_factor(r.n),
        distance_frobenius=d_frob,
        region=region,
        nearest=nearest,
        floor=floor,
        classical=classical,
    )


def bruteforce_project(r: Spectrum, kernel: KernelSpectrum) -> Spectrum:
    """Exhaustive active-set projection onto the positivity polytope.

    Enumerates every subset of the inequality constraints as a candidate
    active set and solves the equality-constrained least-squares system by
    KKT elimination. Among the feasible candidates it keeps a KKT point,
    one whose active-inequality multipliers are non-negative to 1e-12, and
    breaks ties between them by the distance to the input; a candidate
    with a negative multiplier is kept only when no KKT point is found.
    Exact up to linear-solve rounding; an independent check for
    :func:`project_to_classical` at small n.
    """
    import numpy as np

    n = r.n
    if kernel.n != n:
        raise DimensionMismatch(f"spectrum n={n} vs kernel n={kernel.n}")
    if n > 8:
        raise DimensionMismatch("the exhaustive projector supports n <= 8")
    target = r.as_array()
    rows = np.zeros((n + 1, n))
    for i in range(n - 1):
        rows[i, i], rows[i, i + 1] = 1.0, -1.0
    rows[n - 1, n - 1] = 1.0
    rows[n] = kernel.values[::-1]
    ones = np.ones(n)

    best = None
    best_key = (True, math.inf)
    for mask in range(1 << (n + 1)):
        active = [k for k in range(n + 1) if mask >> k & 1]
        c = np.vstack([ones[None, :], rows[active]])
        d = np.zeros(len(active) + 1)
        d[0] = 1.0
        m = c @ c.T
        rhs = c @ target - d
        try:
            nu = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            nu = np.linalg.lstsq(m, rhs, rcond=None)[0]
        x = target - c.T @ nu
        if abs(float(ones @ x) - 1.0) > 1e-9:
            continue
        if float(np.min(rows @ x)) < -1e-12:
            continue
        # x = target + sum of mu_k rows_k over the active rows, mu = -nu[1:]:
        # a KKT point has mu >= 0; a feasible candidate with a negative
        # multiplier loses to any KKT candidate, however close it lies
        key = (bool(np.any(nu[1:] > 1e-12)), float(np.sum((x - target) ** 2)))
        if key < best_key:
            best_key = key
            best = x
    if best is None:
        raise InfeasibleModel("no feasible active set found")
    return Spectrum(tuple(float(v) for v in best))
