"""The nonclassicality distance indicator. The module holds:

- :class:`IndicatorResult`, the outcome for one state;
- the exact qutrit closed form, :func:`qutrit_distance`;
- the public building blocks :func:`project_monotone_nonincreasing`,
  :func:`project_simplex` and :func:`project_halfspace`;
- the exact projector for general dimension, :func:`distance_general` and
  :func:`project_to_classical`: the search of :func:`_project_cut`, whose
  docstring states the method, its steps :func:`_evaluate`, :func:`_read`
  and :func:`_x`, and :class:`_KernelData`, what it derives from the
  kernel alone, built once per kernel and kept on it;
- the exact rational active-set oracle, :func:`bruteforce_project`.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, compress, repeat
from typing import Iterable, Sequence

from .core import (
    Frozen,
    QutritChart,
    Spectrum,
    _admitted_spectrum,
    conversion_factor,
    require_chamber,
    spectrum_from_chart,
)
from .errors import DimensionMismatch, InfeasibleModel
from .geometry import QUTRIT_FACTOR, REGIONS, Region, _band_region, _chart_floor, _cut_point
from .kernel import KernelSpectrum, check_zeta
from .wigner import floor_is_classical, wigner_floor


class IndicatorResult(Frozen):
    """Outcome of the nonclassicality distance computation for one state.

    Distances come in both conventions; `region` is populated for qutrits
    only. `floor` is the Wigner floor of the input state as computed, not
    exact: :func:`wigner_floor` for :func:`distance_general`, the chart-plane
    1/3 - (4/3) p for :func:`qutrit_distance`. `classical` is not stored:
    it is floor >= -1e-12, :func:`floor_is_classical` of `floor` itself.
    """

    __slots__ = ("distance_paper", "distance_frobenius", "region", "nearest", "floor")
    distance_paper: float
    distance_frobenius: float
    region: Region | None
    nearest: Spectrum
    floor: float

    def __init__(
        self,
        distance_paper: float,
        distance_frobenius: float,
        region: Region | None,
        nearest: Spectrum,
        floor: float,
    ):
        object.__setattr__(self, "distance_paper", distance_paper)
        object.__setattr__(self, "distance_frobenius", distance_frobenius)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "nearest", nearest)
        object.__setattr__(self, "floor", floor)

    @property
    def classical(self) -> bool:
        return floor_is_classical(self.floor)


def qutrit_distance(c: QutritChart, zeta: float) -> IndicatorResult:
    """Closed-form nonclassicality distance of a qutrit chart point.

    Zero on the classical triangle OQR; distance to the cut line on the
    band QRST; distance to the endpoint Q or R beyond the band. Values are
    Euclidean in the chart plane, which is the PAPER convention; the
    FROBENIUS value is the same number scaled by sqrt(2/3).

    `floor` is the chart-plane 1/3 - (4/3) p. A point is OQR, at distance
    0, exactly when it is `classical`: floor >= -1e-12, tested on
    :func:`_chart_floor` itself. The floor is within 1e-15 of
    :func:`wigner_floor`, so the flag can differ from :func:`distance_general`
    only at the -1e-12 seam: the spectrum (0.4540878927130961,
    0.37376698805893516, 0.17214511922796888) at zeta 0.6545984418925018
    has floor -0.99992e-12 here, -1.00008e-12 there. `nearest` is admitted
    by :func:`spectrum_from_chart`, which reorders the foot at R when it
    rounds off edge OB (15,412 of the census's 58,688 non-OQR points).
    """
    z = check_zeta(zeta)
    require_chamber(c)
    code, d_paper, p, nearest_xy = _cut_point(c.xi3, c.xi8, z)
    return IndicatorResult(
        distance_paper=d_paper,
        distance_frobenius=d_paper / QUTRIT_FACTOR,
        region=REGIONS[code],
        nearest=spectrum_from_chart(QutritChart(*nearest_xy)),
        floor=_chart_floor(p),
    )


def _pool(values: Iterable[float]) -> tuple[list[float], list[int]]:
    """Pool adjacent violators: the block means and counts of the Euclidean
    projection onto the non-increasing cone.

    Scan left to right keeping block means non-increasing, merging blocks
    whenever a new mean exceeds the one before it. Adjacent blocks may end
    with equal means.

    A merged mean is the count-weighted mean of the two blocks, not a
    difference of prefix sums as in :func:`_evaluate`: the two round apart.
    On 20,000 seeded Gaussian inputs of 1 to 64 entries the prefix-sum
    form changed the output bits of 17,367, and its worst error against
    exact pooling was 1.8e-15, against 3.8e-16 for this one.
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
    means, counts = _pool(values)
    return _x(accumulate(counts), means, 0.0, sum(counts))


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


def _evaluate(
    pr: Sequence[float], pa: Sequence[float], lam: float, ends: Iterable[int]
) -> tuple[list[int], list[float], float]:
    """x(lam) on the prefix of m entries that `ends` spans, on blocks: its
    block ends, their strictly decreasing values and theta. x(lam) is each
    pooled block's mean of r + lam a, less theta, where pooling adjacent
    violators gives the blocks and theta = (pr[m] + lam pa[m] - 1) / m
    makes x sum to one. pr and pa are the prefix sums of r and a, so a
    block's value is its sum of r + lam a over its length, a function of
    its ends alone. The blocks are the face of x, and they fix which
    of g's linear pieces holds the point; :func:`_read` reads g off them.

    Pool adjacent violators starting from the blocks `ends`, which must be
    those of r + lam' a at some lam' <= lam: raising lam only merges
    blocks. Ties pool too, so the block values strictly decrease: distinct
    blocks are distinct pieces of g.
    """
    out: list[int] = []
    values: list[float] = []
    start = 0
    for end in ends:
        value = (pr[end] - pr[start] + lam * (pa[end] - pa[start])) / (end - start)
        while values and values[-1] <= value:
            values.pop()
            out.pop()
            start = out[-1] if out else 0
            value = (pr[end] - pr[start] + lam * (pa[end] - pa[start])) / (end - start)
        out.append(end)
        values.append(value)
        start = end
    return out, values, (pr[start] + lam * pa[start] - 1.0) / start


def _read(
    ends: list[int], values: list[float], theta: float, pa: Sequence[float]
) -> tuple[float, float]:
    """g(lam) = a . x and its slope, read in one pass off the blocks of
    x = value - theta that :func:`_evaluate` returns, with pa the prefix
    sums of a: g sums each block's x times its sum of a.

    While the blocks stay fixed, x moves by the block means of a minus their
    mean over the prefix, so the slope is the block-size-weighted spread of
    those block means, a non-negative sum without cancellation.
    """
    mean_t = pa[ends[-1]] / ends[-1]
    terms: list[float] = []
    slope = 0.0
    start = 0
    for end, value in zip(ends, values):
        sum_a = pa[end] - pa[start]
        terms.append((value - theta) * sum_a)
        slope += (end - start) * (sum_a / (end - start) - mean_t) ** 2
        start = end
    return math.fsum(terms), slope


class _KernelData:
    """What the projector of :func:`distance_general` derives from the
    kernel alone, built on the kernel's first projection and kept in its
    private slot `_projector_data`: `pa`, 0 and the running sums of a, the
    kernel in ascending order, which is the halfspace normal; `slope`, g's
    slope at the start of the search for an r without tied entries; and
    `factor`, d_paper / d_frobenius.

    Such an r starts on n single-entry blocks, so that slope is
    :func:`_read`'s over the ends 1..n, a function of a alone; the block
    values passed to it (a itself) enter only g, which is not kept. A
    plain class: a NamedTuple would cost every `nc` command 0.08 ms of
    import.
    """

    __slots__ = ("pa", "slope", "factor")

    def __init__(self, kernel: KernelSpectrum):
        a = kernel.values[::-1]
        n = len(a)
        self.pa = pa = (0.0, *accumulate(a))
        self.slope = _read(range(1, n + 1), a, 0.0, pa)[1]
        self.factor = conversion_factor(n)


def _project_cut(r: Sequence[float], data: _KernelData, floor: float) -> list[float]:
    """Exact projection of an ordered r with floor = a . r < 0 onto the
    ordered simplex cut by the halfspace a . x >= 0, with a's prefix sums
    from `data`, the kernel's record.

    Leave out the sign row x_n >= 0 at first. By the KKT conditions the
    answer is then x(lam) at a lam > 0 where g(lam) = a . x(lam) vanishes.
    Pool adjacent violators on r + lam a into blocks of non-increasing
    means; x(lam) is each block's mean of r + lam a, less the theta that
    makes x sum to one (:func:`_evaluate`). While the pooled blocks stay
    fixed, g is linear with the slope of :func:`_read`, so its pieces are
    the sets of blocks; raising lam only merges blocks, and a merge can
    only lower that slope. So g is nondecreasing, piecewise linear and
    concave, and a Newton step from a point with g < 0 lands at g <= 0: on
    the blocks it started from, which it has solved, so its point is exact
    to rounding, or on fewer blocks.

    The search starts at lam = 0 without an evaluation, on the pooled
    blocks of r itself: its runs of equal entries, with r's own values.
    There theta shifts r to total one, which Spectrum admits only to within
    1e-12, so g is the floor less theta times sum(a). The slope is
    :func:`_read`'s over the runs, its one formula and order: when every
    run is a single entry, the values are r itself, and the slope depends
    on the kernel alone and is the record's; otherwise the values are r's
    entries at its run ends, and :func:`_read` reads the slope off them.

    The search keeps a step that lands on fewer blocks with g < 0, and
    stops when a step keeps its blocks, at g >= 0, or when the Newton
    correction rounds to nothing. A step pools from the blocks before it
    and can only merge them, so a count of blocks tells the two apart, and
    g and its slope (:func:`_read`) are read only after a step that merges
    blocks, or after a restart: a step that keeps its blocks ends the
    search, which needs only its last value and theta. A zero slope cannot
    occur while g < 0: it gives every block the same mean of a, so
    g = sum(a[:m]) / m on the m entries searched. That is 1 / n > 0 on the
    full problem. After a restart it is at least a . x for the
    projection's first m entries, by Chebyshev's sum inequality (a
    ascending, x non-increasing and summing to one), so at least 0.

    If the final point's last entry is negative, which needs an entry of r
    below 0, it breaks the sign row, so the projection holds that entry at
    0: a single constraint that the optimum without it breaks binds at the
    optimum with it. What is left is the same problem on the prefix before
    that entry, and the search restarts there from lam = 0.

    Each kept step has strictly fewer blocks than the one before, so
    there are at most n evaluations per support and at most n - 1
    restarts. A block's value is read off the prefix sums of r and a, r's
    taken once per call, each step pools from the blocks of the step
    before it, and x is expanded once, at the end.

    The point returned carries what :func:`distance_general` relies on to
    store it as a Spectrum with no second sort or check
    (:func:`_admitted_spectrum`):

    - it is non-increasing: its blocks' values strictly decrease, and
      subtracting one theta keeps their order, though rounding may make
      two adjacent blocks equal;
    - its last entry is >= 0, also after a restart, since a point whose
      last entry is negative is never returned, and the padding is 0.0;
    - no entry is -0.0: value - theta of two equal floats is +0.0;
    - its total is within n * 2**-52 of 1, so every entry lies in
      [0, 1 + n * 2**-52]: theta makes the blocks sum to one up to
      rounding, and the census's states come within half that bound.

    The tests check each of these on seeded, tied and sign-row states up
    to n = 64.
    """
    n = len(r)
    pr = [0.0, *accumulate(r)]
    pa = data.pa
    theta = (pr[n] - 1.0) / n
    ends = [*compress(range(1, n), map(operator.ne, r[1:], r)), n]
    if len(ends) == n:
        values, slope = r, data.slope
    else:
        values = [r[j - 1] for j in ends]
        slope = _read(ends, values, theta, pa)[1]
    lam, g = 0.0, floor - theta * pa[n]
    while True:
        if g < 0.0:
            step = lam - g / slope
            if step != lam:
                count, lam = len(ends), step
                ends, values, theta = _evaluate(pr, pa, lam, ends)
                if len(ends) < count:
                    g, slope = _read(ends, values, theta, pa)
                    continue
        if values[-1] - theta >= 0.0:
            return _x(ends, values, theta, n)
        lam = 0.0
        ends, values, theta = _evaluate(pr, pa, lam, range(1, ends[-1]))
        g, slope = _read(ends, values, theta, pa)


def _x(ends: Iterable[int], values: Sequence[float], theta: float, n: int) -> list[float]:
    """The point x(lam) itself, each block's value - theta over its length,
    padded with zeros to n entries."""
    x: list[float] = []
    start = 0
    for end, value in zip(ends, values):
        x += [value - theta] * (end - start)
        start = end
    x += [0.0] * (n - start)
    return x


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

    The kernel's record for the projector (:class:`_KernelData`) is built
    on its first projection and kept on the kernel, so the many states of
    one kernel share it. The nearest point becomes a Spectrum with no
    second sort or check, by the invariants :func:`_project_cut` states.
    """
    floor = wigner_floor(r, kernel)
    n = len(r.values)
    if floor_is_classical(floor):
        return IndicatorResult(0.0, 0.0, Region.OQR if n == 3 else None, r, floor)
    data = getattr(kernel, "_projector_data", None)
    if data is None:
        data = _KernelData(kernel)
        object.__setattr__(kernel, "_projector_data", data)
    nearest = _admitted_spectrum(tuple(_project_cut(r.values, data, floor)))
    # pow(d, 2), not d * d: the two can round apart, which would move census outputs
    d_frob = math.sqrt(math.fsum(map(pow, map(operator.sub, r.values, nearest.values), repeat(2))))
    region = _band_region(nearest.values, kernel.values) if n == 3 else None
    return IndicatorResult(d_frob * data.factor, d_frob, region, nearest, floor)


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
