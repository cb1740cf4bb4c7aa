import copy
import importlib.util
import json
import math
import operator
import pickle
import re
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest

from conftest import random_chamber_chart, random_spectrum
from ncdist import (
    DimensionMismatch,
    KernelSpectrum,
    NotAState,
    OutOfChamber,
    QutritChart,
    Region,
    Spectrum,
    bruteforce_project,
    chart_from_spectrum,
    classify_region,
    distance_general,
    is_classical,
    kernel_from_spectrum,
    project_monotone_nonincreasing,
    project_simplex,
    project_to_classical,
    qutrit_anchor_points,
    qutrit_distance,
    qutrit_kernel,
    random_kernel,
    spectrum_from_chart,
    wigner_floor,
)
from ncdist.cli import main as cli_main
from ncdist.core import chamber_mask
from ncdist.distance import _evaluate, _KernelData, _pool, _project_cut, _read, _x
from ncdist.geometry import _TIE_TOL, REGIONS, _cut_point

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0
_spec = importlib.util.spec_from_file_location(
    "census", Path(__file__).resolve().parents[1] / "tools" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)
#: steps of the multiplier search: the worst measured on the inputs of
#: test_step_cap_up_to_n_64, and 6 over thirty other seeds of the same mix;
#: _project_cut proves at most n per support
STEP_CAP = 5
#: how far qutrit_distance's chart-plane floor may lie from wigner_floor:
#: twice the worst of test_seam_bound_of_the_two_floors's sweep over two
#: seeds, 5.55e-16 at its seed 10 and 4.44e-16 at seed 2024
SEAM_BOUND = 2 * 5.551115123125783e-16


def frobenius_gap(a: Spectrum, b: Spectrum) -> float:
    return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a.values, b.values)))


def count_evaluations(monkeypatch) -> list:
    """A list that gains one entry per evaluation of x(lam) in the projector:
    lam and the block ends it pooled from."""
    calls = []
    monkeypatch.setattr(
        "ncdist.distance._evaluate",
        lambda pr, pa, lam, ends: calls.append((lam, list(ends))) or _evaluate(pr, pa, lam, ends),
    )
    return calls


def bits(values) -> list[str]:
    """Exact float identity, telling -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def expanded_monotone(values):
    """Pool adjacent violators, expanded to one entry per input entry."""
    means, counts = [], []
    for v in values:
        mean, count = float(v), 1
        while means and means[-1] < mean:
            mean = (means[-1] * counts[-1] + mean * count) / (counts[-1] + count)
            count += counts[-1]
            means.pop()
            counts.pop()
        means.append(mean)
        counts.append(count)
    out = []
    for mean, count in zip(means, counts):
        out.extend([mean] * count)
    return out


def expanded_simplex(values):
    """Sorted threshold method on the expanded entries."""
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


def kernel_data(a):
    """The projector's record of the kernel whose values in ascending order
    are a, built as distance_general builds it."""
    return _KernelData(KernelSpectrum(a))


def prefix_sums(values) -> list[float]:
    """0 and the running sums of values, as the projector takes them."""
    return [0.0, *accumulate(values)]


def cold(r, a, lam):
    """The block evaluator at lam, pooling from r's own entries, and the
    read of g and its slope off its blocks: ends, values, theta, g and
    slope."""
    pa = prefix_sums(a)
    ends, values, theta = _evaluate(prefix_sums(r), pa, lam, range(1, len(r) + 1))
    return (ends, values, theta, *_read(ends, values, theta, pa))


def expanded_point(z, x, a):
    """g, piece and slope read off expanded lists: runs of equal values of
    z. A run's mean of a is a difference of a's prefix sums over its
    length, as in the projector."""
    pa = prefix_sums(a)
    m = len(z)
    mean_t = pa[m] / m
    ends = []
    slope = 0.0
    start = 0
    for i in range(1, m + 1):
        if i == m or z[i] != z[start]:
            slope += (i - start) * ((pa[i] - pa[start]) / (i - start) - mean_t) ** 2
            ends.append(i)
            start = i
    return math.fsum(v * w for v, w in zip(x, a)), tuple(ends), slope


def textbook_evaluation(r, a, lam):
    """x(lam) and its piece by the textbook loops: pool adjacent violators
    by running means, then shift every entry by the excess of the sum over
    one, shared equally."""
    z = expanded_monotone([v + lam * w for v, w in zip(r, a)])
    theta = (math.fsum(z) - 1.0) / len(z)
    x = [v - theta for v in z]
    return x, expanded_point(z, x, a)[1]


def expanded_evaluation(r, a, lam):
    """x(lam), g, piece and slope by loops over the entries, in the
    projector's arithmetic: ties pool, and a pooled block's value is its
    sum of r + lam a, from prefix sums, over its length; the shift is the
    excess of the prefix sums' totals over one, over n; g sums x times the
    sum of a over each pooled block."""
    pr, pa = prefix_sums(r), prefix_sums(a)
    n = len(r)

    def value(s, e):
        return (pr[e] - pr[s] + lam * (pa[e] - pa[s])) / (e - s)

    blocks = []
    for i in range(n):
        blocks.append((i, i + 1))
        while len(blocks) > 1 and value(*blocks[-2]) <= value(*blocks[-1]):
            end = blocks.pop()[1]
            blocks[-1] = (blocks[-1][0], end)
    z = [value(s, e) for s, e in blocks for _ in range(s, e)]
    theta = (pr[n] + lam * pa[n] - 1.0) / n
    x = [v - theta for v in z]
    _, piece, slope = expanded_point(z, x, a)
    g = math.fsum(x[s] * (pa[e] - pa[s]) for s, e in blocks)
    return x, g, piece, slope


def full_pooling(r, a):
    """The least lam >= 0 at which r + lam a pools into one block: every
    prefix mean of r + lam a is at most its total mean. With a ascending,
    the prefix means of a lie below mean(a), so prefix k binds at
    (mean_k(r) - mean(r)) / (mean(a) - mean_k(a))."""
    pr, pa = prefix_sums(r), prefix_sums(a)
    n = len(r)
    lam = 0.0
    for k in range(1, n):
        gap = pa[n] / n - pa[k] / k
        if gap > 0.0:
            lam = max(lam, (pr[k] / k - pr[n] / n) / gap)
    return lam


def two_pass_project_cut(r, a, floor):
    """The projector before its one-pass loop, kept as the bit-for-bit
    reference of `_project_cut`: every evaluation pools, then reads g and
    its slope off its blocks in a second pass, also when the step keeps
    its blocks and ends the search, and the start reads g's terms as well
    as its slope."""
    n = len(r)
    pr, pa = prefix_sums(r), prefix_sums(a)

    def point(lam, ends, values, theta, g=None):
        mean_t = pa[ends[-1]] / ends[-1]
        terms, slope, start = [], 0.0, 0
        for end, value in zip(ends, values):
            sum_a = pa[end] - pa[start]
            terms.append((value - theta) * sum_a)
            slope += (end - start) * (sum_a / (end - start) - mean_t) ** 2
            start = end
        return lam, ends, values, theta, math.fsum(terms) if g is None else g, slope

    def evaluate(lam, ends):
        out, values, start = [], [], 0
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
        return point(lam, out, values, (pr[start] + lam * pa[start] - 1.0) / start)

    theta = (pr[n] - 1.0) / n
    ends = [j for j in range(1, n) if r[j] != r[j - 1]] + [n]
    current = point(0.0, ends, [r[j - 1] for j in ends], theta, floor - theta * pa[n])
    while True:
        lam, ends, _, _, g, slope = current
        if g < 0.0:
            step = lam - g / slope
            if step != lam:
                current = evaluate(step, ends)
                if len(current[1]) < len(ends):
                    continue
        _, ends, values, theta, _, _ = current
        if values[-1] - theta >= 0.0:
            x = [v - theta for v, s, e in zip(values, [0, *ends], ends) for _ in range(s, e)]
            return x + [0.0] * (n - len(x))
        current = evaluate(0.0, range(1, ends[-1]))


class TestQutritDistance:
    def test_classical_origin(self):
        res = qutrit_distance(QutritChart(0.0, 0.0), 0.4)
        assert res.distance_paper == 0.0
        assert res.region is Region.OQR
        assert res.classical

    def test_corner_b_at_zeta_zero(self):
        res = qutrit_distance(QutritChart(SQRT3 / 2, 0.5), 0.0)
        assert res.distance_paper == pytest.approx(0.75, abs=1e-12)
        assert res.region is Region.BRS
        near = chart_from_spectrum(res.nearest)
        assert (near.xi3, near.xi8) == pytest.approx((SQRT3 / 8, 0.125), abs=1e-12)

    def test_band_point_at_zeta_zero(self):
        c = chart_from_spectrum(Spectrum((0.7, 0.2, 0.1)))
        res = qutrit_distance(c, 0.0)
        assert res.distance_paper == pytest.approx(0.3, abs=1e-12)
        assert res.region is Region.QRST
        near = chart_from_spectrum(res.nearest)
        assert (near.xi3, near.xi8) == pytest.approx((0.1732051, 0.2), abs=1e-6)
        assert res.nearest.values == pytest.approx((0.5, 0.3, 0.2), abs=1e-12)

    def test_corner_a_at_zeta_pi_third(self):
        res = qutrit_distance(QutritChart(0.0, 0.5), ZETA_MAX)
        assert res.distance_paper == pytest.approx(0.25, abs=1e-12)
        assert res.region is Region.AQT
        near = chart_from_spectrum(res.nearest)
        assert (near.xi3, near.xi8) == pytest.approx((0.0, 0.25), abs=1e-12)

    def test_conventions_scale_by_metric_factor(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            res = qutrit_distance(random_chamber_chart(rng), float(rng.random()) * ZETA_MAX)
            assert res.distance_paper == pytest.approx(
                math.sqrt(1.5) * res.distance_frobenius, abs=1e-12
            )

    def test_classical_iff_zero_distance_iff_floor(self):
        rng = np.random.default_rng(52)
        for _ in range(2000):
            res = qutrit_distance(random_chamber_chart(rng), float(rng.random()) * ZETA_MAX)
            assert res.classical == (res.distance_paper == 0.0)
            assert res.classical == (res.floor >= -1e-12)

    @pytest.mark.parametrize(
        "xi3, xi8, zeta",
        [
            (0.15813812610572014, 0.20850424295660192, 0.09828952942630335),
            (0.22547938482588353, 0.20063181600533322, 0.7982578356758974),
            (0.07096448849532509, 0.362423741838049, 0.026646843320441177),
        ],
    )
    def test_classical_flag_at_the_seam_float(self, xi3, xi8, zeta):
        """Points whose line coordinate is the float p = 1/4 + 0.75e-12,
        where the floor 1/3 - (4/3) p rounds to -1.0000334e-12: below
        -1e-12, so not classical, not OQR and at a nonzero distance."""
        assert _cut_point(xi3, xi8, zeta)[2] == 0.25 + 0.75e-12
        c = QutritChart(xi3, xi8)
        res = qutrit_distance(c, zeta)
        assert res.floor < -1e-12
        assert not res.classical
        assert res.distance_paper > 0.0
        assert res.region is not Region.OQR
        assert classify_region(c, zeta) is res.region

    def test_rejects_out_of_chamber(self):
        with pytest.raises(OutOfChamber):
            qutrit_distance(QutritChart(0.5, 0.1), 0.2)

    @pytest.mark.parametrize("zeta", [0.0, math.pi / 6, ZETA_MAX])
    def test_chamber_edge_spectrum(self, zeta):
        """Valid spectra with r3 = -1e-12 chart to xi8 = 1/2 + 1.5e-12, past
        xi8 = 1/2 + 1e-12; the closed form takes them and agrees with the
        projection."""
        for values in (
            (0.5 + 1e-12, 0.5, -1e-12),
            (0.5 + 5e-13, 0.5 + 5e-13, -1e-12),  # classical at zeta = 0
            (1.0 + 1e-12, 0.0, -1e-12),
        ):
            r = Spectrum(values)
            res = qutrit_distance(chart_from_spectrum(r), zeta)
            general = distance_general(r, qutrit_kernel(zeta))
            assert res.distance_paper == pytest.approx(general.distance_paper, abs=1e-11)
            assert res.classical == general.classical

    def test_segment_ends_are_the_anchor_points(self):
        """Beyond the band the nearest point is the segment end Q or R that
        qutrit_anchor_points builds independently."""
        rng = np.random.default_rng(62)
        seen = set()
        for _ in range(4000):
            c = random_chamber_chart(rng)
            z = float(rng.random()) * ZETA_MAX
            code, _, _, nearest = _cut_point(c.xi3, c.xi8, z)
            region = REGIONS[code]
            anchors = qutrit_anchor_points(z)
            end = {Region.AQT: anchors.Q, Region.BRS: anchors.R}.get(region)
            if end is None:
                continue
            seen.add(region)
            assert nearest == pytest.approx((end.xi3, end.xi8), abs=1e-15)
        assert seen == {Region.AQT, Region.BRS}


class TestProjectToClassical:
    def test_classical_input_returned_exactly(self):
        r = Spectrum((0.4, 0.35, 0.25))
        k = qutrit_kernel(0.0)
        assert wigner_floor(r, k) >= 0
        assert project_to_classical(r, k) is r

    def test_classical_within_tolerance_returned_exactly(self):
        """The same classical test as distance_general: floor >= -1e-12."""
        r = Spectrum((0.5 + 2.5e-13, 0.3, 0.2 - 2.5e-13))
        k = qutrit_kernel(0.0)
        assert -1e-12 <= wigner_floor(r, k) < 0.0
        assert distance_general(r, k).nearest is r
        assert project_to_classical(r, k) is r

    def test_band_point_lands_on_closed_form_foot(self):
        r = Spectrum((0.7, 0.2, 0.1))
        got = project_to_classical(r, qutrit_kernel(0.0))
        assert got.values == pytest.approx((0.5, 0.3, 0.2), abs=1e-8)

    def test_pure_state_lands_on_r_corner(self):
        got = project_to_classical(Spectrum((1.0, 0.0, 0.0)), qutrit_kernel(0.0))
        assert got.values == pytest.approx((0.5, 0.25, 0.25), abs=1e-8)
        brute = bruteforce_project(Spectrum((1.0, 0.0, 0.0)), qutrit_kernel(0.0))
        assert got.values == pytest.approx(brute.values, abs=1e-8)

    def test_result_is_feasible(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            r = random_spectrum(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            x = project_to_classical(r, k)
            assert is_classical(x, k)
            assert all(a >= b for a, b in zip(x.values, x.values[1:]))

    def test_step_cap_up_to_n_64(self, monkeypatch):
        """Bounded work and an exactly classical result on hard valid
        input: degenerate qutrit kernels, near-pure, pure and flat spectra.
        Steps are counted as evaluations of x(lam), one per step."""
        step_cap = STEP_CAP
        calls = count_evaluations(monkeypatch)
        rng = np.random.default_rng(61)
        worst = 0
        for n in (2, 3, 4, 5, 8, 16, 32, 64):
            for i in range(60):
                if n == 3 and i % 3 == 0:
                    k = qutrit_kernel((0.0, ZETA_MAX)[i % 2])
                else:
                    k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                if i % 6 == 5:
                    m = int(rng.integers(1, n + 1))  # pure for m = 1, flat otherwise
                    r = Spectrum((1.0 / m,) * m + (0.0,) * (n - m))
                else:
                    alpha = (1.0, 0.05, 0.01)[i % 3]
                    r = Spectrum(tuple(float(v) for v in rng.dirichlet(np.full(n, alpha))))
                if wigner_floor(r, k) >= 0.0:
                    continue
                calls.clear()
                x = project_to_classical(r, k)
                worst = max(worst, len(calls))
                assert is_classical(x, k)
        assert 0 < worst <= step_cap

    def test_workload_mix_step_bound(self, monkeypatch):
        """The most evaluations per nonclassical state at each n, on a
        seeded mix of spread (Dirichlet alpha = 1) and near-pure (alpha =
        0.05) spectra with random kernels and the degenerate qutrit kernels,
        are their measured worst: 2, 4 and 5 at n = 3, 8 and 32."""
        bound = {3: 2, 8: 4, 32: 5}
        calls = count_evaluations(monkeypatch)
        rng = np.random.default_rng(63)
        kernels = {n: [random_kernel(n, int(s)) for s in rng.integers(0, 1 << 30, 32)]
                   for n in bound}
        kernels[3][:2] = [qutrit_kernel(0.0), qutrit_kernel(ZETA_MAX)]
        worst = dict.fromkeys(bound, 0)
        for i in range(3000):
            n = (3, 8, 32)[i % 3]
            alpha = (1.0, 0.05)[i // 3 % 2]
            r = Spectrum(tuple(float(v) for v in rng.dirichlet(np.full(n, alpha))))
            k = kernels[n][int(rng.integers(len(kernels[n])))]
            calls.clear()
            distance_general(r, k)
            worst[n] = max(worst[n], len(calls))
        assert all(0 < worst[n] <= bound[n] for n in bound), worst

    @pytest.mark.parametrize(
        "values, pi",
        [
            (
                (0.9999999997280038, 2.719962246948815e-10, 0.0),
                (1.6666666666666667, -0.3333333333333331, -0.3333333333333335),
            ),
            (
                (0.9999894701956213, 1.0529804378633846e-05, 0.0),
                (1.6666666666666667, -0.3333333333333331, -0.3333333333333335),
            ),
            (
                (0.9999999444409482, 5.555905176848776e-08, 0.0),
                (1.666666619108446, -0.3330249000224948, -0.33364171908595136),
            ),
        ],
        ids=["slope-7.7e-32", "zeta-0", "near-zeta-0"],
    )
    def test_near_pure_tail(self, monkeypatch, values, pi):
        """Near-pure states at near-degenerate kernels, where a is nearly
        constant on the support of r. The search reads r's own piece on all
        n entries, so its slope is not small: the first Newton step lands
        on a later piece below the root, and the second on its own piece."""
        calls = count_evaluations(monkeypatch)
        r, k = Spectrum(values), KernelSpectrum(pi)
        assert wigner_floor(r, k) < -1e-12
        x = project_to_classical(r, k)
        assert len(calls) == 2
        assert is_classical(x, k)

    def test_projector_agrees_with_closed_form_without_shortcuts(self):
        """Exercise the raw multiplier search on band points, bypassing the
        classical fast return."""
        rng = np.random.default_rng(54)
        checked = 0
        while checked < 50:
            c = random_chamber_chart(rng)
            z = float(rng.random()) * ZETA_MAX
            closed = qutrit_distance(c, z)
            if closed.region is not Region.QRST:
                continue
            checked += 1
            r = spectrum_from_chart(c)
            k = qutrit_kernel(z)
            x = _project_cut(r.values, _KernelData(k), wigner_floor(r, k))
            assert x == pytest.approx(closed.nearest.values, abs=1e-12)


def evaluation_cases(seed=71):
    """Seeded (r, a) pairs, a the kernel in ascending order: spread,
    near-pure, pure, flat and tied spectra, random kernels and the
    degenerate qutrit kernels, n up to 64."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4, 5, 8, 16, 32, 64):
        kernels = [random_kernel(n, int(s)) for s in rng.integers(0, 1 << 30, 3)]
        if n == 3:
            kernels += [qutrit_kernel(0.0), qutrit_kernel(ZETA_MAX)]
        for k in kernels:
            m = int(rng.integers(2, n + 1))
            counts = rng.integers(0, 4, n).tolist()
            counts[0] += 1
            spectra = [
                rng.dirichlet(np.full(n, 1.0)),
                rng.dirichlet(np.full(n, 0.05)),
                [1.0] + [0.0] * (n - 1),
                [1.0 / m] * m + [0.0] * (n - m),
                [c / sum(counts) for c in counts],  # ties
            ]
            for values in spectra:
                yield Spectrum(tuple(float(v) for v in values)).values, k.values[::-1]


class TestBlockEvaluation:
    """x(lam) and g on the pooled blocks are, bit for bit, the pooling and
    shift on the expanded lists in the same arithmetic; the blocks are the
    piece, the runs of equal values of the textbook loops."""

    def test_matches_expanded_evaluation(self, monkeypatch):
        """At seeded multipliers, at the full-pooling one and at those the
        search visits; and the search's start at lam = 0, on r's runs of
        equal entries: its blocks; its slope, which the search keeps to
        itself, through the first Newton step, lam = 0 - g / slope, by bits
        (a slope one ulp off moves that lam on most starts, and on at least
        half of them here), on starts with and without tied entries, and
        for an r without ties, whose slope is the kernel record's, that
        slope itself by bits; and its g, the floor less the shift times
        sum(a), to 2**-51 of the exact g(0) of the shifted r (the floor's
        products are rounded). Where the search runs, r nonclassical, the blocks are the
        textbook loops' runs at every seeded and visited multiplier, and x
        agrees with theirs to 2 ulps of 1. At lam = 0 and at the
        full-pooling multiplier, which the search never evaluates on all n
        entries, the block sums can split a tie that running means keep."""
        calls = count_evaluations(monkeypatch)
        rng = np.random.default_rng(72)
        checked = textbook = starts = pinned = tied = 0
        for r, a in evaluation_cases():
            pa = prefix_sums(a)
            full = full_pooling(r, a)
            floor = math.fsum(v * w for v, w in zip(r, a))
            calls.clear()
            if floor < 0.0:
                n = len(r)
                theta = (prefix_sums(r)[n] - 1.0) / n
                ends = [j for j in range(1, n) if r[j] != r[j - 1]] + [n]
                _, piece, slope = expanded_point(list(r), list(r), a)
                assert tuple(ends) == piece
                shift = (sum(map(Fraction, r)) - 1) / n
                exact = sum((Fraction(v) - shift) * Fraction(w) for v, w in zip(r, a))
                g = floor - theta * pa[n]
                assert g == pytest.approx(float(exact), rel=0.0, abs=2**-51)
                data = kernel_data(a)
                if len(ends) == n:
                    assert bits((data.slope,)) == bits((slope,))
                _project_cut(r, data, floor)
                lam, first = calls[0]
                assert first == ends and bits((lam,)) == bits((0.0 - g / slope,))
                starts += 1
                tied += len(ends) < n
                pinned += all(
                    0.0 - g / math.nextafter(slope, to) != lam for to in (0.0, math.inf)
                )
            seeded = [*(full * 1.5 * rng.random(10)), *(lam for lam, _ in calls if lam > 0.0)]
            for lam in (0.0, full, *seeded):
                ends, values, theta, g_at, slope_at = cold(r, a, lam)
                x, g, piece, slope = expanded_evaluation(r, a, lam)
                assert bits(_x(ends, values, theta, len(r))) == bits(x)
                assert bits((g_at, slope_at)) == bits((g, slope))
                assert tuple(ends) == piece
                checked += 1
            for lam in seeded if floor < 0.0 else ():
                ends, values, theta, _, _ = cold(r, a, lam)
                x, piece = textbook_evaluation(r, a, lam)
                assert tuple(ends) == piece
                assert _x(ends, values, theta, len(r)) == pytest.approx(x, rel=0.0, abs=2**-51)
                textbook += 1
        assert checked >= 1500 and textbook >= 1200 and starts >= 100
        assert 50 <= tied <= starts - 50
        assert 2 * pinned >= starts

    def test_adjacent_blocks_of_equal_mean_form_one_piece(self):
        r = (0.5, 0.4, 0.6, 0.2)
        a = random_kernel(4, 3).values[::-1]
        assert _pool(r) == ([0.5, 0.5, 0.2], [1, 2, 1])
        ends, values, theta, g_at, slope_at = cold(r, a, 0.0)
        x, g, piece, slope = expanded_evaluation(r, a, 0.0)
        assert tuple(ends) == piece == textbook_evaluation(r, a, 0.0)[1] == (3, 4)
        assert bits(_x(ends, values, theta, 4)) == bits(x)
        assert bits((g_at, slope_at)) == bits((g, slope))

    def test_restart_holds_a_negative_last_entry_at_zero(self, monkeypatch):
        """Spectrum admits entries down to -1e-12, and there the sign row
        x_n >= 0 can bind: the search's point ends in a negative entry, so
        the projector holds it at 0 and restarts from lam = 0 on the prefix
        before it. Here it reaches the exact projection (1/2, 1/2, 0) bit
        for bit, after one restart whose start is the shifted prefix of r,
        and every point it evaluates with g < 0 has a positive slope."""
        calls = count_evaluations(monkeypatch)
        r = Spectrum((0.5 + 2e-12, 0.5 - 1e-12, -1e-12)).values
        a = qutrit_kernel(0.0).values[::-1]
        x = _project_cut(r, kernel_data(a), math.fsum(v * w for v, w in zip(r, a)))
        assert bits(x) == bits((0.5, 0.5, 0.0))
        assert [ends for lam, ends in calls if lam == 0.0] == [[1, 2]]
        pr, pa = prefix_sums(r), prefix_sums(a)
        ends, _, theta = _evaluate(pr, pa, 0.0, [1, 2])
        assert (ends, theta) == ([1, 2], (pr[2] - 1.0) / 2)
        for lam, ends in calls:
            g, slope = _read(*_evaluate(pr, pa, lam, ends), pa)
            assert g >= 0.0 or slope > 0.0

    def test_start_ends_the_search(self, monkeypatch):
        """A floor in [theta sum(a), 0), which only a direct call reaches
        (distance_general projects only floors below -1e-12), gives g(0) >= 0
        at the start: the search ends there without an evaluation, on r's
        own values shifted by theta, bit for bit the two-pass loop's point.
        Here the floor is -8.3e-14 and g(0) is +8.3e-14."""
        calls = count_evaluations(monkeypatch)
        r = Spectrum((0.49999999999979167, 0.3, 0.1999999999997083)).values
        a = qutrit_kernel(0.0).values[::-1]
        floor = math.fsum(v * w for v, w in zip(r, a))
        theta = (prefix_sums(r)[3] - 1.0) / 3
        assert floor < 0.0 <= floor - theta * prefix_sums(a)[3]
        x = _project_cut(r, kernel_data(a), floor)
        assert calls == []
        assert bits(x) == bits(two_pass_project_cut(r, a, floor))
        assert bits(x) == bits(v - theta for v in r)

    def test_start_ends_on_a_negative_last_entry(self, monkeypatch):
        """The start's exit with a negative last entry: it restarts once,
        at lam = 0 on the first n - 1 entries, where g >= 0 ends the search
        again, at the exact projection. It needs an ordered r whose entries
        but the last, shifted by theta, lie in the classical set, which the
        qutrit kernels do not admit (at zeta = 0 it would need r2 > r1); the
        kernel here has largest value 0.97."""
        calls = count_evaluations(monkeypatch)
        k = random_kernel(4, 0)
        r = Spectrum((0.33795872493516826, 0.3310206375323158, 0.3310206375323158, -3e-13)).values
        a = k.values[::-1]
        floor = math.fsum(v * w for v, w in zip(r, a))
        theta = (prefix_sums(r)[4] - 1.0) / 4
        assert floor < 0.0 <= floor - theta * prefix_sums(a)[4] and r[-1] - theta < 0.0
        x = _project_cut(r, _KernelData(k), floor)
        assert calls == [(0.0, [1, 2, 3])]
        assert bits(x) == bits(two_pass_project_cut(r, a, floor))
        assert bits(x) == bits(bruteforce_project(Spectrum(r), k).values)
        assert x[-1] == 0.0

    def test_raising_lam_only_merges_blocks(self):
        """The block ends of r + lam2 a are a subset of those of r + lam1 a
        when lam1 < lam2, a ascending: the warm start of the search. 20,000
        seeded triples at n = 3 to 32, spread and near-pure spectra, lam up
        to 1.5 times the full-pooling multiplier."""
        rng = np.random.default_rng(75)
        triples = 0
        for n in range(3, 33):
            kernels = [random_kernel(n, int(s)) for s in rng.integers(0, 1 << 30, 8)]
            spectra = [*rng.dirichlet(np.ones(n), 334), *rng.dirichlet(np.full(n, 0.05), 334)]
            for i, values in enumerate(spectra):
                r, a = sorted(values.tolist(), reverse=True), kernels[i % 8].values[::-1]
                pr, pa = prefix_sums(r), prefix_sums(a)
                lam1, lam2 = sorted(full_pooling(r, a) * 1.5 * rng.random(2))
                ends = [_evaluate(pr, pa, lam, range(1, n + 1))[0] for lam in (lam1, lam2)]
                assert lam1 < lam2 and set(ends[1]) <= set(ends[0])
                triples += 1
        assert triples >= 20000

    def test_warm_start_matches_cold_pooling(self, monkeypatch):
        """At every multiplier the search visits, pooling from the blocks
        of the step before gives the block ends, and bit for bit the values,
        theta, g and slope, of pooling from r's own entries on the same
        prefix, and the block values strictly decrease; on the evaluation
        cases at two seeds."""
        calls = count_evaluations(monkeypatch)
        checked = pooled = 0
        for r, a in (*evaluation_cases(), *evaluation_cases(76)):
            floor = math.fsum(v * w for v, w in zip(r, a))
            if floor >= 0.0:
                continue
            calls.clear()
            _project_cut(r, kernel_data(a), floor)
            pr, pa = prefix_sums(r), prefix_sums(a)
            for lam, ends in calls:
                warm = _evaluate(pr, pa, lam, ends)
                ref = _evaluate(pr, pa, lam, range(1, ends[-1] + 1))
                (warm_ends, warm_values, _), (ref_ends, ref_values, _) = warm, ref
                assert warm_ends == ref_ends
                assert all(map(operator.gt, warm_values, warm_values[1:]))
                assert bits(warm_values) == bits(ref_values)
                assert bits((warm[2], *_read(*warm, pa))) == bits((ref[2], *_read(*ref, pa)))
                checked += 1
                pooled += len(ends) < len(r)
        assert checked >= 250 and pooled >= 100

    def test_matches_two_pass_projector(self, monkeypatch):
        """The projector returns, bit for bit, the nearest point of the
        two-pass loop that reads g and its slope after every evaluation:
        on the evaluation cases at two seeds and on the sign-row states,
        where the projector restarts."""
        calls = count_evaluations(monkeypatch)
        checked = restarted = 0
        states = [(r.values, k.values[::-1]) for r, k in sign_row_states(np.random.default_rng(82))]
        for r, a in (*evaluation_cases(), *evaluation_cases(76), *states):
            floor = math.fsum(v * w for v, w in zip(r, a))
            if floor >= 0.0:
                continue
            calls.clear()
            x = _project_cut(r, kernel_data(a), floor)
            assert bits(x) == bits(two_pass_project_cut(r, a, floor))
            checked += 1
            restarted += any(lam == 0.0 for lam, _ in calls)
        assert checked >= 450 and restarted >= 100

    def test_kept_blocks_are_not_read(self, monkeypatch):
        """g and its slope are read once after each evaluation that merges
        blocks and after each restart, and never after an evaluation that
        keeps its blocks, which ends the search; at the start they are read
        once, before any evaluation, when r has tied entries, and never
        when it has none, whose slope is the kernel record's; on the
        evaluation cases at two seeds and on the sign-row states."""
        events = []

        def evaluate(pr, pa, lam, ends):
            ends = list(ends)
            point = _evaluate(pr, pa, lam, ends)
            # a restart, at lam = 0, or a step that merged blocks
            events.append("merge" if lam == 0.0 or len(point[0]) < len(ends) else "keep")
            return point

        def read(ends, values, theta, pa):
            events.append("read")
            return _read(ends, values, theta, pa)

        monkeypatch.setattr("ncdist.distance._evaluate", evaluate)
        monkeypatch.setattr("ncdist.distance._read", read)
        kept = tied = 0
        states = [(r.values, k.values[::-1]) for r, k in sign_row_states(np.random.default_rng(82))]
        for r, a in (*evaluation_cases(), *evaluation_cases(76), *states):
            floor = math.fsum(v * w for v, w in zip(r, a))
            if floor >= 0.0:
                continue
            data = kernel_data(a)
            ties = any(map(operator.eq, r, r[1:]))
            events.clear()
            _project_cut(r, data, floor)
            assert (events[:1] == ["read"]) == ties
            assert events.count("read") == events.count("merge") + ties and events[-1] != "merge"
            assert all(b == "read" for a, b in zip(events, events[1:]) if a == "merge")
            kept += events.count("keep")
            tied += ties
        assert kept >= 550 and tied >= 100

    def test_public_projections_match_expanded_loops(self):
        """project_monotone_nonincreasing and project_simplex expand the
        shared block helpers with the same bits as the loops on the
        expanded lists, on unsorted, tied, integer, empty and signed-zero
        input."""
        rng = np.random.default_rng(73)
        inputs = [[0, 1], [1, 0, 0], [2, 2, -1, 3], [], [-0.0], [0.0, -0.0], [-0.0, 1, -0.0]]
        for n in (1, 2, 3, 5, 8, 16, 64):
            inputs += [
                rng.normal(size=n).tolist(),
                np.round(rng.normal(size=n), 1).tolist(),
                rng.dirichlet(np.ones(n)).tolist(),
                rng.integers(-2, 3, n).tolist(),
            ]
        for y in inputs:
            assert bits(project_monotone_nonincreasing(y)) == bits(expanded_monotone(y))
            assert bits(project_simplex(y)) == bits(expanded_simplex(y))


def sign_row_states(rng):
    """Seeded spectra near both facets of the classical set, at n = 2 to
    6: the last entry is -t, t in (0, 1e-12], which Spectrum admits, and
    the floor lies in (-4e-12, -1e-12). Each mixes a Dirichlet state (alpha
    1 or 0.05) of that last entry with the flat or the pure state of it,
    whichever puts the floor in between. Such states exist only where the
    flat one is classical to O(t), that is where the mean of a over the
    first n - 1 entries is at least about 0, so where the kernel's largest
    value is at most 1: the random kernels of that kind at n = 4 to 6, and
    the qutrit kernel at zeta = 0 (largest value 1). At n = 2 the one
    kernel has largest value (1 + sqrt 3) / 2, so there are none."""
    states = []
    for n in range(2, 7):
        kernels = [qutrit_kernel(0.0)] if n == 3 else []
        if n > 3:
            seeds = iter(rng.integers(0, 1 << 30, 4000))
            while len(kernels) < 4:
                k = random_kernel(n, int(next(seeds)))
                if k.values[0] <= 1.0:
                    kernels.append(k)
        for k in kernels:
            a = np.array(k.values[::-1])
            for i in range(16 if n > 3 else 32):
                t = 1e-12 * (1.0 - rng.random())
                floor = -1e-12 * (1.0 + 3.0 * rng.random())
                tail = np.append(np.full(n - 1, t / (n - 1)), -t)
                dirichlet = rng.dirichlet(np.full(n - 1, (1.0, 0.05)[i % 2]))
                mix = np.append(np.sort(dirichlet)[::-1], 0.0) + tail
                end = np.append(np.full(n - 1, 1.0 / (n - 1)), 0.0) + tail
                if float(mix @ a) > floor:
                    end = np.eye(n)[0] + tail
                s = (floor - float(end @ a)) / float((mix - end) @ a)
                states.append((Spectrum(tuple(s * mix + (1.0 - s) * end)), k))
    return states


class TestBruteforceProject:
    def test_rejects_dimension_above_eight(self):
        with pytest.raises(DimensionMismatch):
            bruteforce_project(Spectrum((1.0 / 9.0,) * 9), random_kernel(9, 1))

    def test_classical_input_is_fixed_point(self):
        r = Spectrum((0.4, 0.35, 0.25))
        assert bruteforce_project(r, qutrit_kernel(0.0)).values == pytest.approx(
            r.values, abs=1e-12
        )

    def test_matches_projector_on_band_example(self):
        r = Spectrum((0.7, 0.2, 0.1))
        k = qutrit_kernel(0.0)
        assert bruteforce_project(r, k).values == pytest.approx(
            project_to_classical(r, k).values, abs=1e-10
        )

    def test_matches_projector_on_pure_state(self):
        r = Spectrum((1.0, 0.0, 0.0))
        k = qutrit_kernel(ZETA_MAX)
        assert bruteforce_project(r, k).values == pytest.approx(
            project_to_classical(r, k).values, abs=1e-10
        )

    def test_matches_projector_at_nearly_degenerate_kernel(self):
        """Near-singular and singular active-set solves. Near zeta = 0 the
        inequality slack of a floating-point oracle admitted an infeasible,
        closer candidate. The triple-degenerate n = 4 kernel pooled x2 = x3
        and landed 9.6e-13 off. At zeta = 0 the answer is a single free block,
        whose 2x2 solve is singular, and a floating-point solve put -1.7e-17
        in place of its zero. In the last case the sign row binds and the
        projector restarts; a search that pairs r's floor with the piece of
        r's support, not of all its entries, stops 3.1e-13 off."""
        cases = [
            ((0.9127848, 0.0436076, 0.0436076), qutrit_kernel(1e-9), None),
            (
                (0.9999999999975858, 2.1649878121222725e-12, 2.4921185742063285e-13,
                 3.2362404234351486e-21),
                KernelSpectrum((0.8090169943749475,) * 3 + (-1.4270509831248424,)),
                (0.36180339887498947, 0.21273220037636376, 0.21273220037444798,
                 0.21273220037419877),
            ),
            ((0.5 + 2e-12, 0.5 - 1e-12, -1e-12), qutrit_kernel(0.0), (0.5, 0.5, 0.0)),
            (
                (0.3434420011199697, 0.3309780356226282, 0.325579963258144,
                 -7.418823449294765e-13),
                KernelSpectrum((0.933174998859618, 0.8211454313202434, 0.6645703034300652,
                                -1.4188907336099261)),
                None,
            ),
        ]
        for values, k, exact in cases:
            r = Spectrum(values)
            got = bruteforce_project(r, k)
            assert got.values == pytest.approx(project_to_classical(r, k).values, abs=1e-15)
            if exact is not None:
                assert bits(got.values) == bits(exact)

    def test_sign_row_holds_the_last_entry_at_zero(self):
        """A classical state just past the chamber edge, r4 = -1e-12, lies
        outside the polytope by the sign row alone: its projection holds
        r4 at 0 and spreads the excess over the rest. project_to_classical
        returns it unchanged, as classical within tolerance."""
        r = Spectrum((0.34, 0.33 + 1e-12, 0.33, -1e-12))
        k = KernelSpectrum((0.8090169943749475,) * 3 + (-1.4270509831248424,))
        got = bruteforce_project(r, k).values
        assert got[-1] == 0.0
        assert got[:3] == pytest.approx([v - 1e-12 / 3 for v in r.values[:3]], abs=1e-15)

    def test_picks_the_kkt_candidate_at_a_rounding_tie(self):
        """Near zeta = 0 the corner R and the band foot lie at squared
        distances that differ by rounding; only the foot has non-negative
        multipliers."""
        r = Spectrum((0.9999999988682899, 1.1232692108667924e-09, 8.440848132354456e-12))
        k = KernelSpectrum((1.0000000000000486, 0.9999999999999515, -1.0))
        assert bruteforce_project(r, k).values == pytest.approx(
            project_to_classical(r, k).values, abs=1e-15
        )

    def test_oracle_equivalence_across_dimensions(self):
        """Distances agree to 1e-14 on random states. Agreement at this level
        needs nonclassical inputs, floor < -1e-12, or classical ones: for a
        floor in [-1e-12, 0) project_to_classical returns r unchanged while
        the oracle still projects, so at qutrit_kernel(1e-13) and
        r = (0.5, 0.5, 0) the two lie 5.8e-14 apart. Random spectra do not
        land in that sliver."""
        rng = np.random.default_rng(55)
        for n in (2, 3, 4, 5):
            for _ in range(50):
                r = random_spectrum(rng, n)
                k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                d1 = frobenius_gap(r, project_to_classical(r, k))
                d2 = frobenius_gap(r, bruteforce_project(r, k))
                assert abs(d1 - d2) <= 1e-14


    def test_worst_component_gap_is_pinned(self, monkeypatch):
        """The projector's worst component gap to the exact oracle is its
        measured worst: 2**-52, the spacing of floats in [0.5, 1). The sweep
        is seeded, at n = 2 to 6: random kernels and, at n = 3, the
        degenerate ones at zeta = 0 and pi/3, with Dirichlet alpha = 1, 0.05
        and 0.01, pure, flat and tied spectra; spectra of total 1 +- 9e-13,
        which Spectrum admits and the projection brings to one (the qubit
        state below landed 2.6e-13 off from a search whose start ignored
        the total); and the sign-row states of sign_row_states, which make
        the projector restart."""
        calls = count_evaluations(monkeypatch)
        rng = np.random.default_rng(81)
        cases = []
        for n in range(2, 7):
            kernels = [random_kernel(n, int(s)) for s in rng.integers(0, 1 << 30, 40)]
            if n == 3:
                kernels[:20] = [qutrit_kernel(0.0), qutrit_kernel(ZETA_MAX)] * 10
            for k in kernels:
                m = int(rng.integers(2, n + 1))
                counts = rng.integers(0, 4, n).tolist()
                counts[0] += 1
                for values in (
                    *(rng.dirichlet(np.full(n, alpha)) for alpha in (1.0, 0.05, 0.01)),
                    [1.0] + [0.0] * (n - 1),
                    [1.0 / m] * m + [0.0] * (n - m),
                    [c / sum(counts) for c in counts],
                ):
                    cases.append((Spectrum(tuple(float(v) for v in values)), k))
        cases.append((Spectrum((0.9320932573442293, 0.06790674265667072)), random_kernel(2, 0)))
        rng = np.random.default_rng(83)
        for i in range(150):
            n = int(rng.integers(2, 6))
            values = rng.dirichlet(np.ones(n)) * (1.0 + (-9e-13, 9e-13)[i % 2])
            cases.append((Spectrum(tuple(float(v) for v in values)), random_kernel(n, i)))
        cases += sign_row_states(np.random.default_rng(82))
        worst = 0.0
        checked = 0
        for r, k in cases:
            if is_classical(r, k):
                continue
            x = project_to_classical(r, k).values
            exact = bruteforce_project(r, k).values
            worst = max(worst, *(abs(u - v) for u, v in zip(x, exact)))
            checked += 1
        assert worst <= 2**-52
        restarts = sum(lam == 0.0 for lam, _ in calls)
        assert checked >= 1300 and restarts >= 50


class TestDistanceGeneral:
    def test_maximally_mixed_is_classical(self):
        for n in range(2, 7):
            res = distance_general(Spectrum((1.0 / n,) * n), random_kernel(n, n))
            assert res.distance_paper == 0.0
            assert res.classical

    def test_classical_state_returns_itself(self):
        """A classical state returns at once: both distances +0.0, the
        state itself as nearest point, and the region OQR at n = 3 only;
        for the maximally mixed state and for one whose floor lies in
        [-1e-12, 0), a mix of it with the pure state."""
        for n in range(2, 9):
            k = random_kernel(n, 100 + n)
            a1 = k.values[-1]
            s = (1.0 / n + 0.5e-12) / (1.0 / n - a1)  # floor -0.5e-12
            band = Spectrum(tuple(s * (i == 0) + (1.0 - s) / n for i in range(n)))
            assert -1e-12 <= wigner_floor(band, k) < 0.0
            for r in (Spectrum((1.0 / n,) * n), band):
                res = distance_general(r, k)
                assert bits((res.distance_paper, res.distance_frobenius)) == bits((0.0, 0.0))
                assert res.nearest is r
                assert res.region is (Region.OQR if n == 3 else None)
                assert res.floor == wigner_floor(r, k) and res.classical

    def test_qutrit_band_example(self):
        res = distance_general(Spectrum((0.7, 0.2, 0.1)), qutrit_kernel(0.0))
        assert res.distance_paper == pytest.approx(0.3, abs=1e-9)
        assert res.region is Region.QRST
        assert res.floor == pytest.approx(-0.4, abs=1e-12)

    def test_tied_face_stays_tied(self):
        """r = (0.6, 0.2, 0.2) at zeta = 0 projects onto the face x2 = x3,
        to (1/2, 1/4, 1/4). The search starts on r's tie as one block and
        only merges blocks, so the two entries stay equal, within 2**-54 of
        the oracle's."""
        r, k = Spectrum((0.6, 0.2, 0.2)), qutrit_kernel(0.0)
        res = distance_general(r, k)
        x = res.nearest.values
        assert x[1] == x[2]
        assert bits(bruteforce_project(r, k).values) == bits((0.5, 0.25, 0.25))
        assert x == pytest.approx((0.5, 0.25, 0.25), rel=0.0, abs=2**-54)
        assert res.region is Region.BRS

    def test_pure_qubit_state(self):
        k = kernel_from_spectrum(((1 + SQRT3) / 2, (1 - SQRT3) / 2), 2)
        res = distance_general(Spectrum((1.0, 0.0)), k)
        expected = math.sqrt(2.0) * (3 - SQRT3) / 6  # gap to the tangent state
        assert res.distance_frobenius == pytest.approx(expected, abs=1e-9)
        assert res.distance_frobenius > 0
        brute = bruteforce_project(Spectrum((1.0, 0.0)), k)
        assert res.nearest.values == pytest.approx(brute.values, abs=1e-8)

    @pytest.mark.parametrize("zeta", [0.0, math.pi / 6.0, ZETA_MAX])
    def test_chamber_edge_spectrum(self, zeta):
        """A valid spectrum whose chart point sits just past the chamber
        edge (within the Spectrum tolerance) gets a distance and a label."""
        r = Spectrum((0.5 + 1e-12, 0.5, -1e-12))
        res = distance_general(r, qutrit_kernel(zeta))
        corner = qutrit_distance(QutritChart(0.0, 0.5), zeta)  # the state (1/2, 1/2, 0)
        assert res.distance_paper == pytest.approx(corner.distance_paper, abs=1e-11)
        assert res.region is not None

    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(56)
        for _ in range(500):
            c = random_chamber_chart(rng)
            z = float(rng.random()) * ZETA_MAX
            d1 = qutrit_distance(c, z).distance_paper
            d2 = distance_general(spectrum_from_chart(c), qutrit_kernel(z)).distance_paper
            assert abs(d1 - d2) <= 1e-8

    def test_zero_exactly_on_classical_set(self):
        rng = np.random.default_rng(57)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            r = random_spectrum(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            res = distance_general(r, k)
            assert res.classical == (res.floor >= -1e-12)
            assert res.classical == (res.distance_paper == 0.0)

    def test_nearest_point_is_classical(self):
        rng = np.random.default_rng(58)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            r = random_spectrum(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            res = distance_general(r, k)
            assert is_classical(res.nearest, k)

    def test_one_lipschitz(self):
        rng = np.random.default_rng(59)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            r1 = random_spectrum(rng, n)
            r2 = random_spectrum(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            d1 = distance_general(r1, k).distance_frobenius
            d2 = distance_general(r2, k).distance_frobenius
            assert abs(d1 - d2) <= frobenius_gap(r1, r2) + 1e-9

    def test_continuity_in_zeta(self):
        c = QutritChart(0.4, 0.45)
        steps = 400
        h = ZETA_MAX / steps
        prev = qutrit_distance(c, 0.0).distance_paper
        for i in range(1, steps + 1):
            cur = qutrit_distance(c, i * h).distance_paper
            assert abs(cur - prev) <= 10 * h
            prev = cur

    def test_nonclassical_seam_state_is_not_oqr(self):
        """The floor, just below -1e-12, decides that this state is not
        classical, although qutrit_distance's chart-plane floor
        1/3 - (4/3) p, rounded differently, calls it classical. A
        nonclassical state takes the region of its nearest point under the
        Q/R tie rule, never OQR."""
        r = Spectrum((0.4540878927130961, 0.37376698805893516, 0.17214511922796888))
        res = distance_general(r, qutrit_kernel(0.6545984418925018))
        assert not res.classical
        assert res.region is Region.QRST

    def test_seam_labels_follow_the_classical_flag(self):
        """States whose floor lies within a few ulps of -1e-12, placed along
        the cut segment at random zeta: OQR exactly when the floor says
        classical, whatever the chart-plane test would say."""
        rng = np.random.default_rng(61)
        flags = set()
        for _ in range(2000):
            z = float(rng.random()) * ZETA_MAX
            ang = z + math.pi / 6.0
            s_q, s_r = 0.25 * math.tan(ZETA_MAX - z), -0.25 * math.tan(z)
            s = s_r + (s_q - s_r) * float(rng.random())
            # floor = 1/3 - (4/3) p, so p = 1/4 + 0.75e-12 is the seam
            p = 0.25 + 0.75e-12 + 2e-16 * float(rng.standard_normal())
            c = QutritChart(p * math.cos(ang) - s * math.sin(ang),
                            p * math.sin(ang) + s * math.cos(ang))
            res = distance_general(spectrum_from_chart(c), qutrit_kernel(z))
            assert (res.region is Region.OQR) == res.classical
            flags.add(res.classical)
        assert flags == {True, False}

    def test_region_consistency_between_paths(self):
        """The closed form and the projector agree on the region, on the
        floor to 1e-15 and on the classical flag: uniform chart points and
        Dirichlet alpha = 0.05 spectra, at random zeta and at 0 and pi/3.
        The closed form's floor 1/3 - (4/3) p was measured within 4.4e-16 of
        wigner_floor over 60k seeded states, so the flags can differ only
        for a floor that close to -1e-12 (test_nonclassical_seam_state_is_not_oqr)."""
        rng = np.random.default_rng(60)
        cases = [(random_chamber_chart(rng), float(rng.random()) * ZETA_MAX) for _ in range(500)]
        for z in (0.0, ZETA_MAX):
            cases += [(random_chamber_chart(rng), z) for _ in range(250)]
        for z in (0.0, ZETA_MAX, None):
            for _ in range(250):
                r = Spectrum(tuple(float(x) for x in rng.dirichlet([0.05] * 3)))
                cases.append((chart_from_spectrum(r), float(rng.random()) * ZETA_MAX if z is None else z))
        for c, z in cases:
            closed = qutrit_distance(c, z)
            general = distance_general(spectrum_from_chart(c), qutrit_kernel(z))
            assert closed.region is general.region
            assert abs(closed.floor - general.floor) <= 1e-15
            assert closed.classical == general.classical

    def test_seam_bound_of_the_two_floors(self):
        """qutrit_distance decides `classical` on its chart-plane floor
        1/3 - (4/3) p, distance_general on wigner_floor, so their flags can
        differ only where the two floors straddle -1e-12. The floors stay
        within SEAM_BOUND of each other on 62,000 uniform chamber points,
        1000 at each of zeta = 0, pi/3 and 60 seeded angles."""
        rng = np.random.default_rng(10)
        worst = 0.0
        for z in [0.0, ZETA_MAX, *rng.uniform(0.0, ZETA_MAX, 60).tolist()]:
            k = qutrit_kernel(z)
            for _ in range(1000):
                c = random_chamber_chart(rng)
                gap = abs(qutrit_distance(c, z).floor - wigner_floor(spectrum_from_chart(c), k))
                worst = max(worst, gap)
        assert worst <= SEAM_BOUND

    def test_region_tie_rule_on_the_general_path(self):
        """distance_general reads a nonclassical qutrit's region off its
        nearest point; it must agree with the closed form's tie rule, which
        resolves a foot within _TIE_TOL of Q (a chart-plane length) to AQT
        and within _TIE_TOL of R to BRS. Feet at (1 +- 0.01) _TIE_TOL inside
        Q and R, at least 1e-3 past the cut line and inside the chamber (at
        zeta = 0, Q is the corner A and has no such points), and near-pure
        states, which land within ulps of R at zeta 0 and pi/3."""
        rng = np.random.default_rng(62)
        states = []
        for z in [0.0, ZETA_MAX / 2, ZETA_MAX] + [float(v) * ZETA_MAX for v in rng.random(5)]:
            ang = z + math.pi / 6.0
            s_q, s_r = 0.25 * math.tan(ZETA_MAX - z), -0.25 * math.tan(z)
            for t in (0.99 * _TIE_TOL, 1.01 * _TIE_TOL):
                for s in (s_q - t, s_r + t):
                    for p in 0.251 + 0.05 * rng.random(20):
                        c = QutritChart(p * math.cos(ang) - s * math.sin(ang),
                                        p * math.sin(ang) + s * math.cos(ang))
                        if chamber_mask(c.xi3, c.xi8):
                            states.append((spectrum_from_chart(c), z))
        for z in (0.0, ZETA_MAX):
            states += [(Spectrum(tuple(float(x) for x in rng.dirichlet([0.01] * 3))), z)
                       for _ in range(500)]
        seen = set()
        for r, z in states:
            general = distance_general(r, qutrit_kernel(z))
            assert general.region is qutrit_distance(chart_from_spectrum(r), z).region
            seen.add(general.region)
        assert seen == {Region.AQT, Region.QRST, Region.BRS}


class TestKernelRecord:
    """distance_general keeps the projector's record of a kernel
    (_KernelData) in the kernel's private slot, built on its first
    projection: the kernel's value semantics do not see it, and results do
    not depend on whether it was already there."""

    def test_kernel_with_a_record_acts_as_a_fresh_one(self):
        def fields(data):
            return bits((*data.pa, data.slope, data.factor))

        k, fresh = random_kernel(8, 5), random_kernel(8, 5)
        assert not distance_general(Spectrum((1.0,) + (0.0,) * 7), k).classical
        assert fields(k._projector_data) == fields(_KernelData(fresh))
        with pytest.raises(AttributeError):
            fresh._projector_data
        assert k == fresh and hash(k) == hash(fresh) and repr(k) == repr(fresh)
        assert pickle.dumps(k) == pickle.dumps(fresh)
        for twin in (pickle.loads(pickle.dumps(k)), copy.copy(k), copy.deepcopy(k)):
            assert type(twin) is KernelSpectrum and twin is not k and twin == k
            with pytest.raises(AttributeError):
                twin._projector_data
        for name in ("values", "_projector_data"):
            with pytest.raises(AttributeError):
                setattr(k, name, None)
            with pytest.raises(AttributeError):
                delattr(k, name)
        assert k.values == fresh.values and fields(k._projector_data) == fields(_KernelData(fresh))

    def test_cold_and_warm_calls_agree(self):
        """Every field, floats by float.hex, of a first call on a fresh
        kernel, which builds the record, equals that of a second call on
        the same kernel and of a call on a kernel that earlier states
        warmed: on the census's quick `general` states, which share one
        kernel object among the states of each kernel, and on every
        evaluation case with tied entries, whose start reads its slope off
        r's runs rather than the record."""
        cases = [(values, k) for _, k, values in census.general_states(True)]
        for r, a in evaluation_cases():
            if any(map(operator.eq, r, r[1:])):
                cases.append((r, KernelSpectrum(a)))
        projected = tied = 0
        for values, k in cases:
            r = Spectrum(tuple(values))
            fresh = KernelSpectrum(k.values)
            cold = census.general_record(distance_general(r, fresh))
            assert census.general_record(distance_general(r, fresh)) == cold
            assert census.general_record(distance_general(r, k)) == cold
            projected += not cold[4]
            tied += not cold[4] and any(map(operator.eq, r.values, r.values[1:]))
        assert projected >= 250 and tied >= 100


class TestAdmittedNearestPoint:
    """distance_general stores the projector's point as a Spectrum with no
    second sort or check (_admitted_spectrum). That rests on the point
    being what Spectrum would keep bit for bit, and these tests check it
    wherever the projector runs: on the census's quick `general` states, on
    sign-row states, which make it restart, and on tied states up to
    n = 64. Values from outside still go through Spectrum's checks."""

    def test_nearest_point_is_already_admitted(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        cases = [(Spectrum(tuple(values)), k) for _, k, values in census.general_states(True)]
        cases += sign_row_states(np.random.default_rng(81))
        for r, a in evaluation_cases():
            if any(map(operator.eq, r, r[1:])):
                cases.append((Spectrum(r), KernelSpectrum(a)))
        projected = tied = restarts = 0
        for r, k in cases:
            calls.clear()
            res = distance_general(r, k)
            if res.classical:
                continue
            x = res.nearest.values
            n = len(x)
            assert type(x) is tuple and len(x) == r.n
            assert bits(x) == bits(Spectrum(x).values)
            assert all(map(operator.ge, x, x[1:])) and x[-1] >= 0.0
            assert "-0x0.0p+0" not in bits(x)
            assert abs(math.fsum(x) - 1.0) <= n * 2**-52
            projected += 1
            tied += any(map(operator.eq, r.values, r.values[1:]))
            restarts += any(lam == 0.0 for lam, _ in calls)
        assert projected >= 500 and tied >= 120 and restarts >= 120

    @pytest.mark.parametrize(
        "values, message",
        [
            ((0.6, 0.5, -0.1), "outside [0, 1]"),
            ((1.5, -0.25, -0.25), "outside [0, 1]"),
            ((math.nan, 0.5, 0.5), "must be finite"),
            ((math.inf, 0.0, 0.0), "must be finite"),
            ((0.5, 0.3, 0.1), "sum to"),
        ],
    )
    def test_outside_values_are_still_checked(self, tmp_path, capsys, values, message):
        with pytest.raises(NotAState, match=re.escape(message)):
            Spectrum(values)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 3, "spectrum": list(values)}))
        assert cli_main(["indicator", "--state", str(path), "--zeta", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_unordered_input_is_sorted(self, tmp_path, capsys):
        assert Spectrum((0.1, 0.7, 0.2)).values == (0.7, 0.2, 0.1)
        outputs = []
        for values in ((0.1, 0.7, 0.2), (0.7, 0.2, 0.1)):
            path = tmp_path / "state.json"
            path.write_text(json.dumps({"n": 3, "spectrum": list(values)}))
            assert cli_main(["indicator", "--state", str(path), "--zeta", "0.3"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].err == ""
        assert json.loads(outputs[0].out)["classical"] is False
