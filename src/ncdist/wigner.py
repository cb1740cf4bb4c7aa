"""Wigner-function values, the phase-space floor in closed form, the
classicality predicate and a Monte-Carlo sampling oracle for the floor.

The oracle draws Haar unitaries by the subgroup algorithm of Stewart
(1980) and Mezzadri (2007), U = H_0 diag(1, H_1) diag(1, 1, H_2) ..., with
H_k the Householder reflector taking e_1 to a normalized complex Gaussian
vector of length n - k up to phase: n(n+1)/2 - 1 normals per draw, not
QR's n^2. A value needs each column u_k only through u_k^H rho u_k. With
e diag(d) e^H rho's Hermitian part and V such a product, U = e V is Haar
as V is, and u_k^H rho u_k = sum_j d_j |V_jk|^2. So `_block_values` builds
the V of a whole block of draws at a time, from the identity, and reads
rho only through its spectrum d."""

from __future__ import annotations

import math
import operator
from typing import Any

from .core import Spectrum
from .errors import DimensionMismatch, NonHermitian
from .kernel import KernelSpectrum

#: a state counts as classical when its floor is above -CLASSICAL_TOL
CLASSICAL_TOL = 1e-12

_IMAG_TOL = 1e-10
#: Haar draws per Gaussian call, and the draws each numpy call of a block
#: serves; the block's V holds n x n x _BLOCK entries. Per sample on one
#: CPU, medians of 8 alternating runs, blocks of 512, 1024 and 2048 took
#: 0.43, 0.34 and 0.33 us at n = 3, 2.9, 2.7 and 2.5 us at n = 8, and 39,
#: 37 and 39 us at n = 24; 2048 would double the work arrays
_BLOCK = 1024


def _block_work(n, count):
    """The work arrays of `_block_values` for blocks of `count` draws at
    dimension n. `sampled_min` makes one set for its full blocks and one
    for a short last block, rather than slicing the longer set: rounding
    can depend on where a value falls in a vectorized loop."""
    import numpy as np

    return (
        np.empty((n, n, count), complex),  # v
        np.empty((n, count), complex),  # x
        np.empty((n, count), complex),  # xc
        np.empty((n, count), complex),  # s
        np.empty((n, count), complex),  # tmp
        np.empty(2 * count),  # sums
        np.empty(count),  # norm
        np.empty(count),  # lead
        np.empty(count, complex),  # phase
    )


def _block_values(g, d, pi, work):
    """Wigner values sum_jk d_j pi_k |V_jk|^2 of a block of Haar draws V,
    for a state whose Hermitian part has the spectrum d, in the arrays
    `work` made by `_block_work(n, count)`. They are the values of the
    Haar draws e V for any eigenbasis e of that part.

    g, of shape (count, n(n+1)/2 - 1, 2), holds each draw's complex normals:
    n for the first reflector, n - 1 for the next, down to 2. Step k takes
    the next n - k normals, normalized and turned by a phase so that the
    first is real and non-negative (phase 1 when it is 0), as x, and
    H_k = I - w w^H / (1 + x_0) with w = e_1 + x. V = H_0 diag(1, H_1) ...
    is built from the right, from the last step to the first: before step
    k the trailing (n - k) x (n - k) block of `v` is diag(1, B), and
    H_k diag(1, B) has first column -x; with t = x_{1..}^H B, the rest of
    its first row is -t and the block below that row B - x_{1..} t /
    (1 + x_0). Then `v` is squared in place. Past the copy of each step's
    normals, every operation runs on contiguous rows of `count` entries,
    and the values are real."""
    import numpy as np

    v, x, xc, s, tmp, sums, norm, lead, phase = work
    n = len(d)
    steps = np.split(g.view(complex)[..., 0], np.cumsum(range(n, 2, -1)), axis=1)
    v[n - 1, n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        r = n - k
        c, xk, xck, sk, tk = v[k:, k:], x[:r], xc[:r], s[: r - 1], tmp[: r - 1]
        np.copyto(xk, steps[k].T)
        sq = tmp[:r].view(float)
        np.square(xk.view(float), out=sq)
        np.sum(sq, axis=0, out=sums)
        np.sqrt(np.add(sums[0::2], sums[1::2], out=norm), out=norm)
        np.abs(xk[0], out=lead)
        phase.fill(1.0)
        np.divide(xk[0].conj(), lead, out=phase, where=lead > 0.0)
        phase /= norm
        xk *= phase
        np.conjugate(xk, out=xck)
        np.negative(xk, out=c[:, 0])
        np.multiply(c[1, 1:], xck[1], out=sk)
        for i in range(2, r):
            np.multiply(c[i, 1:], xck[i], out=tk)
            sk += tk
        np.negative(sk, out=c[0, 1:])
        sk /= np.add(xk[0].real, 1.0, out=lead)
        for i in range(1, r):
            np.multiply(sk, xk[i], out=tk)
            c[i, 1:] -= tk
    sq = v.view(float)
    np.square(sq, out=sq)
    np.matmul(np.outer(d, pi).ravel(), sq.reshape(n * n, -1), out=sums)
    return sums[0::2] + sums[1::2]


def wigner_value(rho, u, kernel: KernelSpectrum) -> float:
    """Wigner value tr[rho U diag(pi) U^H] at the phase-space point
    represented by the unitary U."""
    import numpy as np

    rho_arr = np.asarray(rho, dtype=complex)
    u_arr = np.asarray(u, dtype=complex)
    n = kernel.n
    if rho_arr.shape != (n, n) or u_arr.shape != (n, n):
        raise DimensionMismatch(
            f"state {rho_arr.shape}, unitary {u_arr.shape} and kernel n={n} disagree"
        )
    delta = (u_arr * kernel.as_array()) @ u_arr.conj().T
    val = np.trace(rho_arr @ delta)
    # a NaN residue fails this test too
    if not abs(val.imag) < _IMAG_TOL:
        raise NonHermitian(f"trace has imaginary residue {abs(val.imag):.3e}")
    return float(val.real)


def wigner_floor(r: Spectrum, kernel: KernelSpectrum) -> float:
    """Infimum of the Wigner value of a state over the phase space.

    Pairs the decreasing spectrum with the increasing kernel values,
    sum_i r_i pi_{n+1-i}. No unitary produces a smaller pairing and the
    bound is attained, so this single dot product replaces the infimum.
    The pairing is exact; its value is not. It is a `math.fsum` of rounded
    products, so it can be off by about 1e-16 times the largest |pi_i|:
    the spectrum (0.4540878927130961, 0.37376698805893516,
    0.17214511922796888) at zeta 0.6545984418925018 reads -1.0000750e-12,
    where the exact pairing of those floats is -1.0000777e-12.
    """
    if len(r.values) != len(kernel.values):
        raise DimensionMismatch(f"spectrum n={r.n} vs kernel n={kernel.n}")
    return math.fsum(map(operator.mul, r.values, reversed(kernel.values)))


def floor_is_classical(floor: float) -> bool:
    """The classicality rule, stated once: a Wigner floor counts as
    classical when it is at least -CLASSICAL_TOL."""
    return floor >= -CLASSICAL_TOL


def is_classical(r: Spectrum, kernel: KernelSpectrum) -> bool:
    """Whether the Wigner function of the state stays non-negative, by
    :func:`floor_is_classical`."""
    return floor_is_classical(wigner_floor(r, kernel))


def haar_unitary(n: int, rng: Any) -> Any:
    """Haar-distributed n x n unitary, as a complex numpy array, drawn from
    the numpy Generator rng, which draws the real parts, then the
    imaginary parts: QR of the complex Gaussian matrix, with the phases of
    R's diagonal folded back into Q."""
    import numpy as np

    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = r.diagonal()
    return q * (d / np.abs(d))


def sampled_min(rho, kernel: KernelSpectrum, samples: int, seed: int) -> float:
    """Monte-Carlo floor: minimum Wigner value over Haar-random phase-space
    points and the eigenbasis unitary.

    The eigenbasis unitary realizes the opposite-order pairing, which no
    unitary undercuts, so the analytic floor is reached regardless of the
    sample budget. Deterministic per seed. The state must be Hermitian
    within _IMAG_TOL elementwise; a NaN fails that test. Each block of
    `_BLOCK` draws takes its normals from one Gaussian call, so the draws
    do not depend on the block size, though the values can move by rounding
    with it. Each draw V stands for the unitary e V, with e the
    eigenbasis of rho's Hermitian part, which is Haar as V is; so
    `_block_values` evaluates every block from that part's spectrum alone,
    in arrays allocated once for the full blocks and once for a short last
    block.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("samples must be at least 1")
    rho_arr = np.asarray(rho, dtype=complex)
    n = kernel.n
    if rho_arr.shape != (n, n):
        raise DimensionMismatch(f"state {rho_arr.shape} vs kernel n={n}")
    defect = float(np.abs(rho_arr - rho_arr.conj().T).max())
    if not defect < _IMAG_TOL:
        raise NonHermitian(f"state deviates from Hermitian by {defect:.3e}")
    pi = kernel.as_array()

    # eigh orders eigenvalues increasingly, which pairs them against the
    # decreasing kernel values: exactly the analytic optimum
    d, e = np.linalg.eigh((rho_arr + rho_arr.conj().T) / 2.0)
    best = wigner_value(rho_arr, e, kernel)

    rng = np.random.Generator(np.random.Philox(seed))
    gauss = work = None
    for start in range(0, samples, _BLOCK):
        count = min(_BLOCK, samples - start)
        if gauss is None or len(gauss) != count:
            # the first block, or a short last one: the full blocks' arrays
            # are freed before the short block's are made
            gauss = work = None
            gauss = np.empty((count, n * (n + 1) // 2 - 1, 2))
            work = _block_work(n, count)
        rng.standard_normal(out=gauss)
        best = min(best, float(_block_values(gauss, d, pi, work).min()))
    return best
