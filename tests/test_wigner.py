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
from ncdist.wigner import _BLOCK, _block_values, _block_work

ZETA_MAX = math.pi / 3.0
#: sample counts on both sides of the sampler's block boundaries
BLOCK_EDGES = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7)
#: large dimensions, where the sampler's work arrays are largest
LARGE_N = (17, 18)


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


@pytest.mark.parametrize("n", range(2, 9))
def test_haar_unitary_is_unitary_and_phase_folded(n):
    """haar_unitary returns a unitary U, and U^H z, for the Gaussian matrix
    z it drew, is upper triangular with a real, positive diagonal: the
    phases of QR's R diagonal are folded into U, which makes U Haar."""
    rng, twin = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(50):
        u = haar_unitary(n, rng)
        z = twin.standard_normal((n, n)) + 1j * twin.standard_normal((n, n))
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-14
        r = u.conj().T @ z
        assert np.abs(np.tril(r, -1)).max() <= 1e-12
        assert np.abs(r.diagonal().imag).max() <= 1e-12
        assert (r.diagonal().real > 0.0).all()


def drawn_values(monkeypatch, rho, kernel, samples, seed):
    """sampled_min's value at every draw, in draw order: the real parts of
    what each `_block_values` call returns, whatever its arguments."""
    exact, blocks = wigner._block_values, []

    def watched(*args):
        vals = exact(*args)
        blocks.append(vals.real.copy())
        return vals

    monkeypatch.setattr(wigner, "_block_values", watched)
    sampled_min(rho, kernel, samples, seed)
    monkeypatch.setattr(wigner, "_block_values", exact)
    return np.concatenate(blocks)


def householder_unitary(g, n):
    """Test-side reference for one draw: the product V = H_0 diag(1, H_1)
    ... of the draw's normals g, of shape (n(n+1)/2 - 1, 2), built from
    dense n x n reflectors; the draw stands for e V. Step k normalizes
    the next n - k complex normals to x and turns x by a phase so that x_0
    is real and non-negative (no turn when x_0 = 0);
    H_k = I - w w^H / (1 + x_0) with w = e_1 + x."""
    z = g[:, 0] + 1j * g[:, 1]
    u, start = np.eye(n, dtype=complex), 0
    for k in range(n - 1):
        x = z[start : start + n - k] / np.linalg.norm(z[start : start + n - k])
        start += n - k
        if x[0] != 0:
            x = x * (abs(x[0]) / x[0])
        w = x.copy()
        w[0] += 1.0
        h = np.eye(n, dtype=complex)
        h[k:, k:] -= np.outer(w, w.conj()) / (1.0 + x[0].real)
        u = u @ h
    return u


def block_args(rho):
    """The eigen-decomposition d, e of rho's Hermitian part, as sampled_min
    makes it: d goes to `_block_values`, and each draw V stands for the
    unitary e V."""
    return np.linalg.eigh((rho + rho.conj().T) / 2.0)


def normals(rng, count, n):
    """One block's normals, in the shape `_block_values` reads."""
    return rng.standard_normal((count, n * (n + 1) // 2 - 1, 2))


class TestBlockValues:
    """sampled_min's one block evaluator, which computes the Wigner values
    from the normals and rho's spectrum by building each draw's product of
    Householder reflectors from the identity."""

    def check_against_reference(self, g, rho, pi):
        n = len(pi)
        d, e = block_args(rho)
        vals = _block_values(g, d, pi, _block_work(n, len(g)))
        assert vals.shape == (len(g),) and np.isfinite(vals).all()
        for b in range(len(g)):
            v = householder_unitary(g[b], n)
            assert np.abs(v @ v.conj().T - np.eye(n)).max() <= 1e-14, (n, b)
            want = dense_pairing(rho, e @ v, pi)
            assert abs(vals[b] - want) <= 2e-15 * np.abs(pi).max(), (n, b)

    def test_matches_reference_per_draw(self):
        """Each value is the dense pairing of e V, for rho's eigenbasis e
        and the V that the test-side reflectors build from the same
        normals. The bound is nearly three times the worst of 2,300 draws
        at n = 2..24 against a long-double reference of e V, 7.0e-16 *
        max|pi| (5.7e-16 on a second set of 2,300)."""
        rng = np.random.default_rng(11)
        for n in range(2, 25):
            rho = random_density_matrix(rng, n)
            pi = random_kernel(n, int(rng.integers(0, 1 << 30))).as_array()
            self.check_against_reference(normals(rng, 6, n), rho, pi)

    def test_zero_leading_entry(self):
        """A reflector whose first normal is exactly 0 + 0i takes phase 1:
        the values stay finite and match the reference, at every step."""
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 8):
            g = normals(rng, 4 * (n - 1), n)
            starts = np.cumsum([0, *range(n, 2, -1)])
            for b in range(len(g)):
                g[b, starts[b % (n - 1)]] = 0.0
            rho = random_density_matrix(rng, n)
            pi = random_kernel(n, int(rng.integers(0, 1 << 30))).as_array()
            self.check_against_reference(g, rho, pi)

    def test_reused_buffers_match_fresh_ones(self, monkeypatch):
        """sampled_min allocates its arrays once per block length and
        reuses them: each block's values, over three full blocks and a
        short last one, are byte for byte those of the block's draws
        computed on fresh arrays of its own length. Each block starts from
        the squared V that the one before left in the reused arrays."""
        rng = np.random.default_rng(14)
        samples = 3 * _BLOCK + 100
        for n in (*range(2, 17), *LARGE_N):
            rho = random_density_matrix(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            got = drawn_values(monkeypatch, rho, k, samples, n)
            draws = np.random.Generator(np.random.Philox(n))
            d, _ = block_args(rho)
            want = []
            for count in [_BLOCK] * 3 + [100]:
                g = normals(draws, count, n)
                want.append(_block_values(g, d, k.as_array(), _block_work(n, count)))
            assert got.tobytes() == np.concatenate(want).tobytes(), n

    def test_draws_do_not_depend_on_block_size(self, monkeypatch):
        """Halving `_BLOCK` splits each Gaussian call in two, but the draws
        and so the values are the same, within rounding."""
        rng = np.random.default_rng(15)
        for n in (2, 3, 8, 17):
            rho = random_density_matrix(rng, n)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            whole = drawn_values(monkeypatch, rho, k, 2 * _BLOCK + 7, n)
            monkeypatch.setattr(wigner, "_BLOCK", _BLOCK // 2)
            halves = drawn_values(monkeypatch, rho, k, 2 * _BLOCK + 7, n)
            monkeypatch.setattr(wigner, "_BLOCK", _BLOCK)
            assert np.abs(whole - halves).max() <= 2e-15 * np.abs(k.as_array()).max(), n

    def test_draws_see_only_the_spectrum(self, monkeypatch):
        """Each draw V stands for e V, with e rho's eigenbasis, so the
        values depend on rho only through its spectrum: with one seed, rho
        and W rho W^H, for a unitary W, give every draw the same value
        within rounding."""
        rng = np.random.default_rng(16)
        for n in (2, 3, 8, 17):
            rho = random_density_matrix(rng, n)
            w = haar_unitary(n, rng)
            k = random_kernel(n, int(rng.integers(0, 1 << 30)))
            plain = drawn_values(monkeypatch, rho, k, 2 * _BLOCK + 7, n)
            turned = drawn_values(monkeypatch, w @ rho @ w.conj().T, k, 2 * _BLOCK + 7, n)
            assert np.abs(plain - turned).max() <= 2e-15 * np.abs(k.as_array()).max(), n


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
            for n in LARGE_N:
                rho = random_density_matrix(switch, n)
                k = random_kernel(n, int(switch.integers(0, 1 << 30)))
                floor = wigner_floor(spectrum_from_matrix(rho), k)
                assert sampled_min(rho, k, samples, 3) >= floor - 1e-9, (samples, n)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        cases = [(random_density_matrix(rng, 3), qutrit_kernel(0.9))]
        cases += [(random_density_matrix(rng, n), random_kernel(n, n)) for n in LARGE_N]
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

    @pytest.mark.parametrize("defect", [1e-9, 1.0, math.nan])
    def test_rejects_non_hermitian_state(self, defect):
        """The state itself must be Hermitian within _IMAG_TOL; a NaN
        entry fails the test too."""
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 1] += defect
        with pytest.raises(NonHermitian):
            sampled_min(rho, qutrit_kernel(0.1), 10, 0)

    def test_admits_rounding_asymmetry(self):
        """An asymmetry well inside _IMAG_TOL is rounding, not a defect."""
        rho = np.eye(3, dtype=complex) / 3
        rho[0, 1] += 1e-12
        assert sampled_min(rho, qutrit_kernel(0.1), 10, 0) == pytest.approx(1 / 3, abs=1e-11)


@pytest.mark.parametrize("n", [3, 8])
def test_draws_have_haar_moments(n, monkeypatch):
    """The draws sample the Haar measure. With t1 = tr rho, t2 = tr rho^2,
    s1 = sum pi and s2 = sum pi^2, the second-order Weingarten formula
    gives E[W] = t1 s1 / n and
    E[W^2] = (t1^2 s1^2 + t2 s2) / (n^2 - 1) - (t1^2 s2 + t2 s1^2) / (n (n^2 - 1)).
    Over 1e5 draws the sample mean and second moment match both within
    five standard errors."""
    rng = np.random.default_rng(30 + n)
    rho = random_density_matrix(rng, n)
    k = random_kernel(n, 40 + n)
    w = drawn_values(monkeypatch, rho, k, 100_000, 50 + n)
    assert len(w) == 100_000
    pi = k.as_array()
    t1, t2 = np.trace(rho).real, np.trace(rho @ rho).real
    s1, s2 = pi.sum(), pi @ pi
    mean = t1 * s1 / n
    second = (t1**2 * s1**2 + t2 * s2) / (n * n - 1) - (t1**2 * s2 + t2 * s1**2) / (n * (n * n - 1))
    for got, want, sd in ((w.mean(), mean, w.std()), ((w * w).mean(), second, (w * w).std())):
        assert abs(got - want) <= 5 * sd / math.sqrt(len(w)), (n, got, want)
