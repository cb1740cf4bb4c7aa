import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from conftest import random_chamber_chart, random_spectrum
from ncdist import (
    DimensionMismatch,
    IndicatorResult,
    KernelSpectrum,
    MetricConvention,
    NonHermitian,
    NotAState,
    OutOfChamber,
    Polytope,
    QutritChart,
    Region,
    Spectrum,
    chart_from_spectrum,
    distance_general,
    haar_unitary,
    metric_convert,
    positivity_polytope,
    qutrit_anchor_points,
    qutrit_distance,
    qutrit_kernel,
    random_kernel,
    spectrum_from_chart,
    spectrum_from_matrix,
)
from ncdist.core import chamber_mask

SQRT3 = math.sqrt(3.0)


class TestSpectrum:
    def test_sorts_non_increasing(self):
        s = Spectrum((0.1, 0.7, 0.2))
        assert s.values == (0.7, 0.2, 0.1)
        assert s.n == 3

    def test_rejects_bad_sum(self):
        with pytest.raises(NotAState):
            Spectrum((0.5, 0.4, 0.2))

    def test_rejects_out_of_range(self):
        with pytest.raises(NotAState):
            Spectrum((1.2, -0.2))

    def test_rejects_dimension_one(self):
        with pytest.raises(DimensionMismatch):
            Spectrum((1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotAState):
            Spectrum((bad, 0.5, 0.5))

    def test_tolerates_rounding_noise(self):
        s = Spectrum((1.0 - 1e-13, 1e-13, -1e-14))
        assert s.n == 3


class TestSpectrumFromMatrix:
    def test_maximally_mixed(self):
        s = spectrum_from_matrix(np.eye(3) / 3.0)
        assert s.values == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_diagonal_is_sorted(self):
        s = spectrum_from_matrix(np.diag([0.1, 0.7, 0.2]))
        assert s.values == (0.7, 0.2, 0.1)

    def test_conjugation_recovers_spectrum(self):
        rng = np.random.default_rng(11)
        u = haar_unitary(3, rng)
        m = (u * np.array([0.7, 0.2, 0.1])) @ u.conj().T
        s = spectrum_from_matrix(m)
        assert s.values == pytest.approx((0.7, 0.2, 0.1), abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            r = random_spectrum(rng, 4)
            u = haar_unitary(4, rng)
            m = (u * r.as_array()) @ u.conj().T
            assert spectrum_from_matrix(m).values == pytest.approx(r.values, abs=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        u = haar_unitary(5, rng)
        m = (u * np.full(5, 0.2)) @ u.conj().T
        assert spectrum_from_matrix(m).values == spectrum_from_matrix(m.copy()).values

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(NonHermitian):
            spectrum_from_matrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(NotAState):
            spectrum_from_matrix(np.diag([0.5, 0.5, 0.5]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAState):
            spectrum_from_matrix(np.diag([1.2, -0.2, 0.0]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            spectrum_from_matrix(np.ones((2, 3)))

    def test_rejects_one_by_one(self):
        with pytest.raises(DimensionMismatch):
            spectrum_from_matrix(np.ones((1, 1)))


class TestChart:
    def test_maximally_mixed_at_origin(self):
        c = chart_from_spectrum(Spectrum((1 / 3, 1 / 3, 1 / 3)))
        assert (c.xi3, c.xi8) == (0.0, 0.0)

    def test_pure_state_at_corner_b(self):
        c = chart_from_spectrum(Spectrum((1.0, 0.0, 0.0)))
        assert c.xi3 == pytest.approx(SQRT3 / 2, abs=1e-15)
        assert c.xi8 == pytest.approx(0.5, abs=1e-15)

    def test_rank_two_edge_at_corner_a(self):
        c = chart_from_spectrum(Spectrum((0.5, 0.5, 0.0)))
        assert (c.xi3, c.xi8) == pytest.approx((0.0, 0.5), abs=1e-15)

    def test_chart_needs_qutrit(self):
        with pytest.raises(DimensionMismatch):
            chart_from_spectrum(Spectrum((0.6, 0.4)))

    def test_spectrum_from_chart_examples(self):
        assert spectrum_from_chart(QutritChart(0.0, 0.0)).values == pytest.approx(
            (1 / 3, 1 / 3, 1 / 3), abs=1e-15
        )
        assert spectrum_from_chart(QutritChart(SQRT3 / 2, 0.5)).values == pytest.approx(
            (1.0, 0.0, 0.0), abs=1e-15
        )
        assert spectrum_from_chart(QutritChart(0.0, 0.25)).values == pytest.approx(
            (5 / 12, 5 / 12, 1 / 6), abs=1e-15
        )

    @pytest.mark.parametrize(
        "xi3,xi8", [(-0.1, 0.3), (0.3, 0.1), (0.0, 0.6), (0.0, 0.5 + 2e-12)]
    )
    def test_out_of_chamber_rejected(self, xi3, xi8):
        with pytest.raises(OutOfChamber):
            spectrum_from_chart(QutritChart(xi3, xi8))

    @pytest.mark.parametrize(
        "xi3,xi8",
        [(SQRT3 * (0.5 + 1e-12), 0.5), (SQRT3 / 2 + 1e-12, 0.5 + 1.5e-12)],
        ids=["r3-below-interval", "r1-above-interval"],
    )
    def test_admitted_points_beyond_corner_b(self, xi3, xi8):
        assert chamber_mask(xi3, xi8)
        r = spectrum_from_chart(QutritChart(xi3, xi8))
        assert r.values == pytest.approx((1.0, 0.0, 0.0), abs=3e-12)

    def test_admitted_points_near_edges_and_corners(self):
        """Every chart point the chamber admits converts, however its
        tolerances add up; within 4e-12 of each edge and corner."""
        rng = np.random.default_rng(22)
        corners = [(0.0, 0.0), (0.0, 0.5), (SQRT3 / 2, 0.5)]
        admitted = 0
        for k, (x0, y0) in enumerate(corners):
            x1, y1 = corners[(k + 1) % 3]
            for t in list(rng.random(3000)) + [0.0] * 1000:
                dx, dy = rng.uniform(-4e-12, 4e-12, 2)
                xi3, xi8 = x0 + t * (x1 - x0) + dx, y0 + t * (y1 - y0) + dy
                if not chamber_mask(xi3, xi8):
                    continue
                admitted += 1
                back = chart_from_spectrum(spectrum_from_chart(QutritChart(xi3, xi8)))
                assert abs(back.xi3 - xi3) <= 5e-12
                assert abs(back.xi8 - xi8) <= 5e-12
        assert admitted > 4000

    def test_round_trip_on_random_chamber_points(self):
        rng = np.random.default_rng(21)
        for _ in range(10_000):
            c = random_chamber_chart(rng)
            back = chart_from_spectrum(spectrum_from_chart(c))
            assert abs(back.xi3 - c.xi3) <= 1e-14
            assert abs(back.xi8 - c.xi8) <= 1e-14


class TestMetricConvert:
    def test_frobenius_to_paper_factor(self):
        d = metric_convert(1.0, 3, MetricConvention.FROBENIUS, MetricConvention.PAPER)
        assert d == pytest.approx(math.sqrt(1.5), abs=1e-15)

    def test_identity_conversion(self):
        assert metric_convert(0.5, 7, MetricConvention.PAPER, MetricConvention.PAPER) == 0.5

    def test_origin_to_cut_line_distance(self):
        d = metric_convert(
            math.sqrt(2 / 3) / 4, 3, MetricConvention.FROBENIUS, MetricConvention.PAPER
        )
        assert d == pytest.approx(0.25, abs=1e-15)

    def test_round_trip(self):
        for n in range(2, 9):
            for d in (0.0, 0.3, 1.7):
                back = metric_convert(
                    metric_convert(d, n, MetricConvention.PAPER, MetricConvention.FROBENIUS),
                    n,
                    MetricConvention.FROBENIUS,
                    MetricConvention.PAPER,
                )
                assert abs(back - d) <= 1e-15

    def test_rejects_negative_distance(self):
        for d in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                metric_convert(d, 3, MetricConvention.PAPER, MetricConvention.FROBENIUS)

    def test_rejects_dimension_one(self):
        with pytest.raises(DimensionMismatch):
            metric_convert(1.0, 1, MetricConvention.PAPER, MetricConvention.PAPER)

    def test_conventions_given_by_value(self):
        """The enum's string values, which --convention takes, convert as
        the members do; any other value raises."""
        for source in MetricConvention:
            for target in MetricConvention:
                expected = metric_convert(1.0, 3, source, target)
                assert metric_convert(1.0, 3, source.value, target.value) == expected
                assert metric_convert(1.0, 3, source.value, target) == expected
        for bad in (("frobenius", "bogus"), ("bogus", "paper"), ("bogus", "bogus")):
            with pytest.raises(ValueError):
                metric_convert(1.0, 3, *bad)


def value_objects() -> dict:
    """One instance of each immutable value type, built afresh per call."""
    r = Spectrum((0.7, 0.2, 0.1))
    k = qutrit_kernel(0.3)
    return {
        "state": r,
        "qutrit_kernel": k,
        "random_kernel": random_kernel(5, 7),
        "result": distance_general(r, k),
        "classical_result": qutrit_distance(QutritChart(0.1, 0.2), 0.3),
        "polytope": positivity_polytope(k),
        "chart": chart_from_spectrum(r),
        "anchors": qutrit_anchor_points(0.3),
    }


def fields(obj) -> list[str]:
    """Field names of a value type, from its constructor's signature."""
    return list(inspect.signature(type(obj)).parameters)


def derived(obj) -> list[str]:
    """Names of the public read-only properties of a value type, computed
    from its fields."""
    return [k for k, v in vars(type(obj)).items() if isinstance(v, property) and k[0] != "_"]


class TestValueTypes:
    def test_result_has_a_region(self):
        assert value_objects()["result"].region in (Region.AQT, Region.QRST, Region.BRS)

    def test_results_cover_both_flags(self):
        """The derived flag reads True on the closed form's result and False
        on the projection's, so the tests below see both values."""
        objs = value_objects()
        assert derived(objs["result"]) == ["classical"]
        assert (objs["classical_result"].classical, objs["result"].classical) == (True, False)

    @pytest.mark.parametrize(
        "clone",
        [
            lambda v: pickle.loads(pickle.dumps(v)),
            lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle_protocol_0", "copy", "deepcopy"],
    )
    @pytest.mark.parametrize("name", sorted(value_objects()))
    def test_pickle_and_copy_round_trip(self, name, clone):
        value = value_objects()[name]
        back = clone(value)
        assert type(back) is type(value)
        assert back == value
        names = fields(value) + derived(value)
        assert [getattr(back, f) for f in names] == [getattr(value, f) for f in names]

    @pytest.mark.parametrize("name", sorted(value_objects()))
    def test_equal_values_compare_and_hash_equal(self, name):
        a, b = value_objects()[name], value_objects()[name]
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_other_types_compare_unequal(self):
        s = Spectrum((0.5, 0.3, 0.2))
        assert s != (0.5, 0.3, 0.2)
        assert (0.5, 0.3, 0.2) != s
        assert s.__eq__((0.5, 0.3, 0.2)) is NotImplemented
        assert QutritChart(0.0, 0.5) != (0.0, 0.5)

    @pytest.mark.parametrize("name", sorted(value_objects()))
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = value_objects()[name]
        for f in fields(value) + derived(value):
            before = getattr(value, f)
            with pytest.raises(AttributeError):
                setattr(value, f, before)
            with pytest.raises(AttributeError):
                delattr(value, f)
            assert getattr(value, f) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_keyword_and_positional_construction(self):
        r = Spectrum((0.5, 0.3, 0.2))
        assert Spectrum(values=(0.2, 0.3, 0.5)) == r
        assert KernelSpectrum(values=(1.0, 1.0, -1.0)) == KernelSpectrum((1.0, -1.0, 1.0))
        assert QutritChart(xi3=0.1, xi8=0.4) == QutritChart(0.1, 0.4)
        assert Polytope(n=3, vertices=(r,)) == Polytope(3, (r,))
        args = (0.2, 0.1, Region.QRST, r, -0.01)
        result = IndicatorResult(*args)
        assert IndicatorResult(**dict(zip(fields(result), args))) == result
        assert [getattr(result, f) for f in fields(result)] == list(args)

    def test_repr(self):
        assert repr(Spectrum((0.2, 0.3, 0.5))) == "Spectrum(values=(0.5, 0.3, 0.2))"
        assert repr(QutritChart(0, 0.5)) == "QutritChart(xi3=0.0, xi8=0.5)"
        assert repr(Polytope(2, ())) == "Polytope(n=2, vertices=())"
