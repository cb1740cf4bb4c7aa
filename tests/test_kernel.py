import math

import numpy as np
import pytest

from ncdist import (
    DimensionMismatch,
    MasterEquationViolated,
    ModuliOutOfRange,
    kernel_from_spectrum,
    qutrit_kernel,
    random_kernel,
    zeta_from_kernel,
)

SQRT3 = math.sqrt(3.0)
ZETA_MAX = math.pi / 3.0


class TestQutritKernel:
    def test_zeta_zero(self):
        assert qutrit_kernel(0.0).values == pytest.approx((1.0, 1.0, -1.0), abs=1e-15)

    def test_zeta_pi_third(self):
        assert qutrit_kernel(ZETA_MAX).values == pytest.approx(
            (5 / 3, -1 / 3, -1 / 3), abs=1e-15
        )

    def test_zeta_pi_sixth(self):
        expected = ((1 + 2 * SQRT3) / 3, 1 / 3, (1 - 2 * SQRT3) / 3)
        assert qutrit_kernel(math.pi / 6).values == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("zeta", [-0.001, ZETA_MAX + 0.001, 2.0, math.nan])
    def test_out_of_range(self, zeta):
        with pytest.raises(ModuliOutOfRange):
            qutrit_kernel(zeta)

    def test_decimal_endpoint_is_clamped(self):
        # 11-digit rendition of pi/3 overshoots the endpoint by ~3e-12
        k = qutrit_kernel(1.0471975512)
        assert k.values == pytest.approx((5 / 3, -1 / 3, -1 / 3), abs=1e-9)

    def test_residuals_on_grid(self):
        for i in range(1000):
            k = qutrit_kernel(ZETA_MAX * i / 999)
            res_trace, res_square = k.residuals()
            assert res_trace <= 1e-14
            assert res_square <= 1e-13

    def test_continuity_on_grid(self):
        grid = [ZETA_MAX * i / 999 for i in range(1000)]
        spacing = grid[1] - grid[0]
        prev = qutrit_kernel(grid[0]).values
        for z in grid[1:]:
            cur = qutrit_kernel(z).values
            assert max(abs(a - b) for a, b in zip(cur, prev)) <= 3 * spacing
            prev = cur


class TestKernelFromSpectrum:
    def test_qubit_solution(self):
        k = kernel_from_spectrum(((1 + SQRT3) / 2, (1 - SQRT3) / 2), 2)
        assert k.values[0] == pytest.approx((1 + SQRT3) / 2, abs=1e-15)

    def test_degenerate_qutrit_solution(self):
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert k.values == (1.0, 1.0, -1.0)

    def test_rejects_master_equation_violation(self):
        with pytest.raises(MasterEquationViolated) as err:
            kernel_from_spectrum((0.5, 0.5, 0.0), 3)
        assert err.value.residual_trace == pytest.approx(0.0, abs=1e-15)
        assert err.value.residual_square == pytest.approx(2.5, abs=1e-15)

    @pytest.mark.parametrize(
        "values",
        [(math.nan,) * 3, (math.nan, 1.0, -1.0), (math.inf, 1.0, -1.0), (math.inf, -math.inf, 1.0)],
    )
    def test_rejects_non_finite(self, values):
        with pytest.raises(MasterEquationViolated):
            kernel_from_spectrum(values, 3)

    @pytest.mark.parametrize(
        "values, residuals",
        [
            ((1e308, 1e308, -1e308), (math.inf, math.inf)),
            ((1.3e154, 1.3e154, 1.0), (2.6e154, math.inf)),
        ],
    )
    def test_rejects_sums_past_float_range(self, values, residuals):
        """Finite values whose sum or sum of squares overflows in fsum are
        reported with an inf residual."""
        with pytest.raises(MasterEquationViolated) as err:
            kernel_from_spectrum(values, 3)
        assert (err.value.residual_trace, err.value.residual_square) == residuals

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel_from_spectrum((1.0, 1.0, -1.0), 4)

    def test_rejects_dimension_one_by_name(self):
        """One value for n = 1 has the right length; the error names the
        dimension, as it does for n = 0 and n = -5."""
        for n in (1, 0, -5):
            with pytest.raises(DimensionMismatch, match="^kernel dimension must be at least 2$"):
                kernel_from_spectrum((1.0,), n)

    def test_accepts_hand_typed_decimals(self):
        k = kernel_from_spectrum((1.3660254038, -0.3660254038), 2)
        assert k.n == 2


class TestRandomKernel:
    def test_qubit_is_unique_up_to_order(self):
        expected = ((1 + SQRT3) / 2, (1 - SQRT3) / 2)
        for seed in (0, 1, 42, 999):
            assert random_kernel(2, seed).values == pytest.approx(expected, abs=1e-12)

    def test_deterministic_per_seed(self):
        assert random_kernel(3, 42).values == random_kernel(3, 42).values

    def test_residual_contract(self):
        for n, seed in ((3, 42), (5, 7)):
            res_trace, res_square = random_kernel(n, seed).residuals()
            assert res_trace <= 1e-12
            assert res_square <= 1e-12

    def test_validates_across_dimensions(self):
        for n in range(2, 11):
            for seed in range(100):
                k = random_kernel(n, seed)
                revalidated = kernel_from_spectrum(k.values, n)
                assert revalidated.values == k.values


class TestZetaFromKernel:
    def test_round_trip(self):
        for i in range(200):
            z = ZETA_MAX * i / 199
            assert zeta_from_kernel(qutrit_kernel(z)) == pytest.approx(z, abs=1e-12)

    def test_random_qutrit_kernels_are_in_family(self):
        for seed in range(50):
            k = random_kernel(3, seed)
            z = zeta_from_kernel(k)
            assert qutrit_kernel(z).values == pytest.approx(k.values, abs=1e-9)

    def test_needs_qutrit(self):
        with pytest.raises(DimensionMismatch):
            zeta_from_kernel(random_kernel(4, 0))
