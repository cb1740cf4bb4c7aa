import itertools
import math

import numpy as np
import pytest

from conftest import random_chamber_chart, random_density_matrix, random_spectrum
from ncdist import (
    DimensionMismatch,
    NonHermitian,
    Spectrum,
    chart_from_spectrum,
    haar_unitary,
    is_classical,
    kernel_from_spectrum,
    qutrit_kernel,
    random_kernel,
    sampled_min,
    spectrum_from_chart,
    spectrum_from_matrix,
    wigner_floor,
    wigner_value,
)
from ncdist import wigner
from ncdist.wigner import _BLOCK, _GS_MAX_N, _block_values, _block_work, _haar

ZETA_MAX = math.pi / 3.0
#: sample counts on both sides of the sampler's block boundaries
BLOCK_EDGES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7)
#: dimensions on both sides of the switch between the two block paths
SWITCH_EDGES = (_GS_MAX_N, _GS_MAX_N + 1)


def dense_pairing(rho, u, pi):
    """Independent oracle: build U diag(pi) U^H and trace elementwise."""
    n = len(pi)
    delta = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            delta[i, j] = sum(u[i, k] * pi[k] * np.conj(u[j, k]) for k in range(n))
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            total += rho[i, j] * delta[j, i]
    return total.real


class TestWignerValue:
    def test_maximally_mixed_is_one_third(self):
        rng = np.random.default_rng(3)
        k = qutrit_kernel(0.7)
        for _ in range(5):
            u = haar_unitary(3, rng)
            assert wigner_value(np.eye(3) / 3, u, k) == pytest.approx(1 / 3, abs=1e-12)

    def test_diagonal_state_identity_unitary(self):
        rho = np.diag([0.7, 0.2, 0.1])
        k = kernel_from_spectrum((5 / 3, -1 / 3, -1 / 3), 3)
        val = wigner_value(rho, np.eye(3), k)
        assert val == pytest.approx(16 / 15, abs=1e-14)
        assert val == pytest.approx(dense_pairing(rho, np.eye(3), k.values), abs=1e-14)

    def test_permutation_moves_negative_weight(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        perm = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert wigner_value(rho, perm, k) == pytest.approx(-1.0, abs=1e-14)
        assert dense_pairing(rho, perm, k.values) == pytest.approx(-1.0, abs=1e-14)

    def test_matches_dense_oracle_on_random_triples(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            rho = random_density_matrix(rng, n)
            u = haar_unitary(n, rng)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            assert wigner_value(rho, u, k) == pytest.approx(
                dense_pairing(rho, u, k.values), abs=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wigner_value(np.eye(3) / 3, np.eye(3), random_kernel(4, 0))

    def test_nan_residue_is_rejected(self):
        with pytest.raises(NonHermitian):
            wigner_value(np.full((3, 3), math.nan), np.eye(3), qutrit_kernel(0.3))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_haar_stack_matches_single_matrices(n):
    """A block of Haar unitaries is, bit for bit, the unitaries of its
    matrices taken one at a time, so `_haar` on a whole block, the block
    tests' reference, draws what haar_unitary draws one at a time."""
    rng = np.random.default_rng(n)
    z = rng.standard_normal((9, n, n, 2)).view(complex)[..., 0]
    stack = _haar(z)
    for i in range(len(z)):
        assert stack[i].tobytes() == _haar(z[i]).tobytes()


class TestGramSchmidtBlocks:
    """sampled_min's one block evaluator, which computes the Wigner values
    from the Gaussian stack without forming the unitaries: by Gram-Schmidt
    for n <= _GS_MAX_N and by QR above."""

    def test_matches_haar_per_draw(self):
        """Each value is the dense pairing of the unitary _haar makes of the
        same draw, on both orthonormalizers. The bound is about twice the
        worst of 46,000 draws at n = 2..24 against `_haar` and einsum,
        1.02e-15 * max|pi|."""
        rng = np.random.default_rng(11)
        for n in range(2, 25):
            rho = random_density_matrix(rng, n)
            pi = random_kernel(n, int(rng.integers(0, 1 << 30))).as_array()
            z = rng.standard_normal((6, n, n, 2)).view(complex)[..., 0]
            vals = _block_values(z, rho, pi, _block_work(n, len(z)))
            u = _haar(z)
            for b in range(len(z)):
                want = dense_pairing(rho, u[b], pi)
                assert abs(vals[b].real - want) <= 2e-15 * np.abs(pi).max(), (n, b)

    def test_nearly_dependent_columns_stay_orthonormal(self):
        """Column 0 of each draw is a multiple of psi and column 1 lies
        1e-9 from it, so with rho = psi psi^H and pi = (1, 1, 0, ..., 0)
        the value is 1 + |q_0^H q_1|^2: it is 1 only if the two columns
        are orthogonal. One Gram-Schmidt pass leaves |W - 1| up to 1.7e-11
        over 102,400 draws, two do not. The bound is about twice the worst
        of 1.0 million draws at n = 3..12, 1.1e-15. pi_{n-1} = 0, so the
        trace identity that stands in for the last column does not hide
        the check."""
        rng = np.random.default_rng(12)
        for n in range(3, _GS_MAX_N + 1):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi /= np.linalg.norm(psi)
            z = rng.standard_normal((32, n, n, 2)).view(complex)[..., 0]
            scale = rng.standard_normal((32, 2)).view(complex)
            noise = rng.standard_normal((32, n, 2)).view(complex)[..., 0]
            z[:, :, 0] = scale * psi
            z[:, :, 1] = z[:, :, 0] + 1e-9 * noise
            pi = np.zeros(n)
            pi[:2] = 1.0
            rho = np.outer(psi, psi.conj())
            vals = _block_values(z, rho, pi, _block_work(n, len(z)))
            assert np.abs(vals - 1.0).max() <= 2e-15, n

    def test_reused_buffers_match_fresh_ones(self, monkeypatch):
        """sampled_min allocates its arrays once per block length and
        reuses them: each block's values, over three full blocks and a
        short last one, on both sides of the switch, are byte for byte
        those of the block's draws computed on fresh arrays of its own
        length."""
        real, blocks = wigner._real, []

        def watched(vals):
            if vals.ndim:
                blocks.append(vals.real.tobytes())
            return real(vals)

        monkeypatch.setattr(wigner, "_real", watched)
        rng = np.random.default_rng(14)
        samples = 3 * _BLOCK + 100
        for n in (*range(2, _GS_MAX_N), *SWITCH_EDGES):
            rho = random_density_matrix(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            blocks.clear()
            sampled_min(rho, k, samples, n)
            draws = np.random.Generator(np.random.Philox(n))
            counts = [_BLOCK] * 3 + [100]
            assert len(blocks) == len(counts), n
            for got, count in zip(blocks, counts):
                z = draws.standard_normal((count, n, n, 2)).view(complex)[..., 0]
                vals = _block_values(z, rho, k.as_array(), _block_work(n, count))
                assert got == vals.real.tobytes(), (n, count)


class TestWignerFloor:
    def test_maximally_mixed(self):
        assert wigner_floor(Spectrum((1 / 3,) * 3), qutrit_kernel(0.5)) == pytest.approx(
            1 / 3, abs=1e-15
        )

    def test_pure_state_picks_minimal_value(self):
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert wigner_floor(Spectrum((1.0, 0.0, 0.0)), k) == -1.0

    def test_mixed_example(self):
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert wigner_floor(Spectrum((0.7, 0.2, 0.1)), k) == pytest.approx(-0.4, abs=1e-15)

    def test_tangent_state_sits_on_zero(self):
        k = kernel_from_spectrum((5 / 3, -1 / 3, -1 / 3), 3)
        assert wigner_floor(Spectrum((5 / 12, 5 / 12, 1 / 6)), k) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_rearrangement_identity(self):
        """The floor equals the minimum over all pairings of the spectra."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            r = random_spectrum(rng, 3)
            k = random_kernel(3, int(rng.integers(0, 1 << 30)))
            perm_min = min(
                math.fsum(r.values[i] * p[i] for i in range(3))
                for p in itertools.permutations(k.values)
            )
            assert perm_min == wigner_floor(r, k)

    def test_floor_bounds_random_wigner_values(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            rho = random_density_matrix(rng, n)
            u = haar_unitary(n, rng)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            floor = wigner_floor(spectrum_from_matrix(rho), k)
            assert wigner_value(rho, u, k) >= floor - 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            rho = random_density_matrix(rng, n)
            v = haar_unitary(n, rng)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            f1 = wigner_floor(spectrum_from_matrix(rho), k)
            f2 = wigner_floor(spectrum_from_matrix(v @ rho @ v.conj().T), k)
            assert abs(f1 - f2) <= 1e-10

    def test_affine_form_on_chart(self):
        """floor = 1/3 - (4/3)(xi3 cos(z + pi/6) + xi8 sin(z + pi/6))."""
        rng = np.random.default_rng(8)
        for _ in range(2000):
            c = random_chamber_chart(rng)
            z = float(rng.random()) * ZETA_MAX
            ang = z + math.pi / 6
            p = c.xi3 * math.cos(ang) + c.xi8 * math.sin(ang)
            predicted = 1 / 3 - (4 / 3) * p
            actual = wigner_floor(spectrum_from_chart(c), qutrit_kernel(z))
            assert abs(actual - predicted) <= 1e-12


class TestIsClassical:
    def test_maximally_mixed_always_classical(self):
        for seed in range(20):
            k = random_kernel(4, seed)
            assert is_classical(Spectrum((0.25,) * 4), k)

    def test_pure_state_never_classical_for_degenerate_kernel(self):
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert not is_classical(Spectrum((1.0, 0.0, 0.0)), k)

    def test_boundary_state_counts_as_classical(self):
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        assert is_classical(Spectrum((0.5, 0.25, 0.25)), k)


class TestSampledMin:
    def test_maximally_mixed_exact(self):
        k = qutrit_kernel(0.3)
        assert sampled_min(np.eye(3) / 3, k, 50, 0) == pytest.approx(1 / 3, abs=1e-12)

    def test_reaches_floor_through_candidates(self):
        rho = np.diag([0.7, 0.2, 0.1])
        k = kernel_from_spectrum((1.0, 1.0, -1.0), 3)
        val = sampled_min(rho, k, 2000, 1)
        assert val == pytest.approx(-0.4, abs=1e-12)
        assert -0.4 <= val <= -0.35

    def test_never_beats_floor(self):
        rng = np.random.default_rng(9)
        switch = np.random.default_rng(13)
        for samples in BLOCK_EDGES:
            for _ in range(20):
                n = int(rng.integers(2, 5))
                rho = random_density_matrix(rng, n)
                k = random_kernel(n, int(rng.integers(0, 1 << 30)))
                floor = wigner_floor(spectrum_from_matrix(rho), k)
                assert sampled_min(rho, k, samples, 3) >= floor - 1e-9, samples
            for n in SWITCH_EDGES:
                rho = random_density_matrix(switch, n)
                k = random_kernel(n, int(switch.integers(0, 1 << 30)))
                floor = wigner_floor(spectrum_from_matrix(rho), k)
                assert sampled_min(rho, k, samples, 3) >= floor - 1e-9, (samples, n)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        cases = [(random_density_matrix(rng, 3), qutrit_kernel(0.9))]
        cases += [(random_density_matrix(rng, n), random_kernel(n, n)) for n in SWITCH_EDGES]
        for samples in BLOCK_EDGES:
            for rho, k in cases:
                assert sampled_min(rho, k, samples, 7) == sampled_min(rho, k, samples, 7), (
                    samples, k.n,
                )

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sampled_min(np.eye(3) / 3, qutrit_kernel(0.1), 0, 0)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (3, 2), (3,)])
    def test_rejects_state_of_another_shape(self, shape):
        with pytest.raises(DimensionMismatch):
            sampled_min(np.ones(shape) / shape[0], qutrit_kernel(0.1), 10, 0)
