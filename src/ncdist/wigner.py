"""Wigner-function values, the exact phase-space floor, the classicality
predicate and a Monte-Carlo sampling oracle for the floor."""

from __future__ import annotations

import math
from typing import Any

from .core import Spectrum
from .errors import DimensionMismatch, NonHermitian
from .kernel import KernelSpectrum

#: a state counts as classical when its floor is above -CLASSICAL_TOL
CLASSICAL_TOL = 1e-12

_IMAG_TOL = 1e-10
#: Haar draws per standard_normal block, and matrices per QR and einsum
#: call; slicing a block bounds the arrays alive at once without
#: changing the draws
_CHUNK = 32768
_SLICE = 4096


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
    val = complex(np.trace(rho_arr @ delta))
    if abs(val.imag) >= _IMAG_TOL:
        raise NonHermitian(f"trace has imaginary residue {val.imag:.3e}")
    return val.real


def wigner_floor(r: Spectrum, kernel: KernelSpectrum) -> float:
    """Exact infimum of the Wigner value of a state over the phase space.

    Pairs the decreasing spectrum with the increasing kernel values,
    sum_i r_i pi_{n+1-i}. No unitary produces a smaller pairing and the
    bound is attained, so this single dot product replaces the infimum.
    """
    if r.n != kernel.n:
        raise DimensionMismatch(f"spectrum n={r.n} vs kernel n={kernel.n}")
    return math.fsum(a * b for a, b in zip(r.values, kernel.values[::-1]))


def is_classical(r: Spectrum, kernel: KernelSpectrum) -> bool:
    """Whether the Wigner function of the state stays non-negative."""
    return wigner_floor(r, kernel) >= -CLASSICAL_TOL


def haar_unitary(n: int, rng: Any) -> Any:
    """Haar-distributed n x n unitary, as a complex numpy array, drawn from
    the numpy Generator rng.

    QR decomposition of a complex Gaussian matrix, with the phases of the
    R diagonal folded back into Q.
    """
    import numpy as np

    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sampled_min(rho, kernel: KernelSpectrum, samples: int, seed: int) -> float:
    """Monte-Carlo floor: minimum Wigner value over Haar-random phase-space
    points plus two fixed candidates.

    The candidate set always contains the identity and the eigenbasis
    unitary that realizes the opposite-order pairing, so the analytic floor
    is reached regardless of the sample budget. Deterministic per seed.
    """
    import numpy as np

    if samples < 1:
        raise ValueError("samples must be at least 1")
    rho_arr = np.asarray(rho, dtype=complex)
    n = kernel.n
    if rho_arr.shape != (n, n):
        raise DimensionMismatch(f"state {rho_arr.shape} vs kernel n={n}")
    pi = kernel.as_array()

    best = wigner_value(rho_arr, np.eye(n, dtype=complex), kernel)
    # eigh orders eigenvalues increasingly, which pairs them against the
    # decreasing kernel values: exactly the analytic optimum
    _, vecs = np.linalg.eigh((rho_arr + rho_arr.conj().T) / 2.0)
    best = min(best, wigner_value(rho_arr, vecs, kernel))

    rng = np.random.Generator(np.random.Philox(seed))
    remaining = samples
    while remaining > 0:
        count = min(remaining, _CHUNK)
        remaining -= count
        z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal(
            (count, n, n)
        )
        for start in range(0, count, _SLICE):
            q, r = np.linalg.qr(z[start : start + _SLICE])
            d = np.einsum("...ii->...i", r)
            u = q * (d / np.abs(d))[:, None, :]
            vals = np.einsum("bik,ij,bjk,k->b", u.conj(), rho_arr, u, pi, optimize=True)
            imag = float(np.max(np.abs(vals.imag)))
            if imag >= _IMAG_TOL:
                raise NonHermitian(f"sampled trace has imaginary residue {imag:.3e}")
            best = min(best, float(np.min(vals.real)))
    return best
