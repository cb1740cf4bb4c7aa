"""Wigner-function values, the phase-space floor in closed form, the
classicality predicate and a Monte-Carlo sampling oracle for the floor.

The oracle draws its Haar unitaries in blocks of `_BLOCK`, each from one
Gaussian call, and evaluates every block with one function,
`_block_values`, in arrays allocated once per block length per call. Only
the orthonormalizer is chosen by n: Gram-Schmidt on the whole block up to
`_GS_MAX_N`, numpy's stacked QR above. A value depends on each column only
through q_k q_k^H, so phases do not matter, and the last column's term
follows from the trace: for a unitary, sum_k q_k^H rho q_k = tr rho."""

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
#: serves. Gram-Schmidt's per-column arrays hold n x _BLOCK entries. Per
#: sample on one CPU, best of four rounds, blocks of 256, 512, 1024 and
#: 2048 took 0.57, 0.49, 0.45 and 0.45 us at n = 3 and 4.9, 4.4, 4.7 and
#: 5.0 us at n = 8; in a whole n = 8 command 512 was faster in 8 of 16 runs
_BLOCK = 1024
#: largest n whose blocks are orthonormalized by Gram-Schmidt rather than
#: QR. LAPACK's per-call overhead dominates small matrices, while
#: Gram-Schmidt makes O(n^2) numpy calls of n x _BLOCK entries. Per block,
#: draws excluded, on one CPU, Gram-Schmidt took 0.12, 0.37, 0.52-0.60,
#: 0.77-0.86, 0.95-0.97 and 1.00-1.03 times QR's time at n = 3, 8, 12, 16,
#: 17 and 18 (medians of 10 to 20 alternating runs), 1.6 times at n = 24
_GS_MAX_N = 17


def _real(vals):
    """Real part of numpy Wigner values, after checking that their
    imaginary residue is below _IMAG_TOL; a NaN residue fails the check."""
    imag = float(abs(vals.imag).max())
    if not imag < _IMAG_TOL:
        raise NonHermitian(f"trace has imaginary residue {imag:.3e}")
    return vals.real


def _haar(z):
    """Haar unitaries from complex Gaussian matrices of shape (..., n, n):
    QR, with the phases of each R diagonal folded back into its Q."""
    import numpy as np

    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _block_work(n, count):
    """The work arrays of `_block_values` for blocks of `count` draws of
    n x n matrices. `sampled_min` makes one set for its full blocks and one
    for a short last block, rather than slicing the longer set: rounding
    can depend on where a value falls in a vectorized loop. QR, above
    `_GS_MAX_N`, has no `qc`: it conjugates `q` in place."""
    import numpy as np

    cols = n - 1
    return (
        np.empty((cols, n, count), complex),  # q
        np.empty((cols, n, count), complex) if n <= _GS_MAX_N else None,  # qc
        np.empty((n, count), complex),  # tmp
        np.empty((cols, count), complex),  # coef
        np.empty((2, n, count)),  # sq
        np.empty(count),  # norm
        np.empty((cols, n, count), complex),  # rq
        np.empty((cols, count), complex),  # w
        np.empty(count, complex),  # vals
    )


def _block_values(z, rho, pi, work):
    """Complex Wigner values sum_k pi_k q_k^H rho q_k of the Haar unitaries
    `_haar(z)` of a Gaussian stack z of shape (count, n, n), in the arrays
    `work` made by `_block_work(n, count)`; the result is one of them,
    overwritten by the next call.

    One evaluator, two orthonormalizers of the first n - 1 columns: CGS2
    (classical Gram-Schmidt run twice, for orthogonality to rounding) up to
    `_GS_MAX_N`, numpy's stacked QR above. Each gives `_haar(z)`'s q_k up
    to a phase, which cancels in q_k^H rho q_k, so neither folds R's phases
    back. The last column is never used: for a unitary, sum_k q_k^H rho q_k
    is tr rho, so its term is pi_{n-1} (tr rho - sum_{k<n-1} q_k^H rho q_k).
    """
    import numpy as np

    q, qc, tmp, coef, sq, norm, rq, w, vals = work
    # q[k, i, b]: entry i of column k of draw b
    if qc is None:
        np.copyto(q, np.linalg.qr(z)[0][..., :-1].transpose(2, 1, 0))
    else:
        np.copyto(q, z[..., :-1].transpose(2, 1, 0))
        for k in range(len(q)):
            v = q[k]
            for _ in range(2):
                for j in range(k):
                    np.multiply(qc[j], v, out=tmp)
                    tmp.sum(axis=0, out=coef[j])
                for j in range(k):
                    np.multiply(q[j], coef[j], out=tmp)
                    v -= tmp
            np.square(v.real, out=sq[0])
            np.square(v.imag, out=sq[1])
            np.add(sq[0], sq[1], out=sq[0])
            np.sqrt(sq[0].sum(axis=0, out=norm), out=norm)
            v /= norm
            np.conjugate(v, out=qc[k])
    np.matmul(rho, q, out=rq)
    if qc is None:
        qc = np.conjugate(q, out=q)
    np.multiply(rq, qc, out=rq)
    np.matmul(pi[:-1] - pi[-1], rq.sum(axis=1, out=w), out=vals)
    vals += pi[-1] * np.trace(rho)
    return vals


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
    return float(_real(np.trace(rho_arr @ delta)))


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
    imaginary parts."""
    return _haar(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def sampled_min(rho, kernel: KernelSpectrum, samples: int, seed: int) -> float:
    """Monte-Carlo floor: minimum Wigner value over Haar-random phase-space
    points and the eigenbasis unitary.

    The eigenbasis unitary realizes the opposite-order pairing, which no
    unitary undercuts, so the analytic floor is reached regardless of the
    sample budget. Deterministic per seed;
    each block of `_BLOCK` Haar draws comes from one Gaussian call, so the
    draws do not depend on the block size, though the values can move by
    rounding with it. Every block is evaluated by `_block_values`, whose
    two orthonormalizers, Gram-Schmidt up to `_GS_MAX_N` and QR above,
    agree to rounding on the same draws. Its work arrays and the Gaussian
    buffer are allocated once for the full blocks and once for a short
    last block; only QR's own temporaries are allocated per block.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("samples must be at least 1")
    rho_arr = np.asarray(rho, dtype=complex)
    n = kernel.n
    if rho_arr.shape != (n, n):
        raise DimensionMismatch(f"state {rho_arr.shape} vs kernel n={n}")
    pi = kernel.as_array()

    # eigh orders eigenvalues increasingly, which pairs them against the
    # decreasing kernel values: exactly the analytic optimum
    _, vecs = np.linalg.eigh((rho_arr + rho_arr.conj().T) / 2.0)
    best = wigner_value(rho_arr, vecs, kernel)

    rng = np.random.Generator(np.random.Philox(seed))
    gauss = work = None
    for start in range(0, samples, _BLOCK):
        count = min(_BLOCK, samples - start)
        if gauss is None or len(gauss) != count:
            # the first block, or a short last one: the full blocks' arrays
            # are freed before the short block's are made
            gauss = work = None
            gauss = np.empty((count, n, n, 2))
            work = _block_work(n, count)
        rng.standard_normal(out=gauss)
        vals = _block_values(gauss.view(complex)[..., 0], rho_arr, pi, work)
        best = min(best, float(np.min(_real(vals))))
    return best
