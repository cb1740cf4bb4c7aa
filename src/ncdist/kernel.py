"""Stratonovich-Weyl kernel spectra: the qutrit moduli family, validation of
the defining trace conditions, and random sampling of solutions."""

from __future__ import annotations

import math
from typing import Sequence

from .core import SQRT3, Frozen, Spectrum, _require_dimension
from .errors import DimensionMismatch, MasterEquationViolated, ModuliOutOfRange

ZETA_MAX = math.pi / 3.0
#: slack accepted on the moduli angle before rejecting; inputs are clamped
ZETA_SLACK = 1e-9

#: admission tolerances for externally supplied kernel spectra
TRACE_TOL = 1e-9
SQUARE_TOL = 1e-8


class KernelSpectrum(Frozen):
    """Eigenvalues of a Stratonovich-Weyl kernel, sorted non-increasing.

    A valid kernel spectrum is finite and satisfies sum(pi) = 1 and
    sum(pi^2) = n; both residuals are checked on construction and reported
    together on failure, as NaN for non-finite values.

    The private slot `_projector_data` holds what the general projector of
    :mod:`ncdist.distance` derives from the kernel alone, set on its first
    use and kept for the kernel's life. It is not a field: equality, hash,
    repr, pickling and copies ignore it.
    """

    __slots__ = ("values", "_projector_data")
    _fields = ("values",)
    values: tuple[float, ...]

    def __init__(self, values: tuple[float, ...]):
        vals = tuple(sorted((float(v) for v in values), reverse=True))
        _require_dimension(len(vals), "kernel dimension")
        if not all(map(math.isfinite, vals)):
            raise MasterEquationViolated(math.nan, math.nan)
        object.__setattr__(self, "values", vals)
        res_trace, res_square = self.residuals()
        if res_trace > TRACE_TOL or res_square > SQUARE_TOL:
            raise MasterEquationViolated(res_trace, res_square)

    n = Spectrum.n
    as_array = Spectrum.as_array

    def residuals(self) -> tuple[float, float]:
        """Absolute residuals of the two trace conditions; a sum that
        overflows on the way reads inf."""
        return _residual(self.values, 1.0), _residual([v * v for v in self.values], self.n)


def _residual(terms: Sequence[float], target: float) -> float:
    """|fsum(terms) - target|, or inf where fsum overflows: its partial sums
    pass the float range, so no admissible kernel is that large."""
    try:
        return abs(math.fsum(terms) - target)
    except OverflowError:
        return math.inf


def check_zeta(zeta: float) -> float:
    """Validate a moduli angle and clamp it into [0, pi/3].

    Values within 1e-9 outside the interval are accepted and clamped, so
    decimal renditions of pi/3 do not get rejected.
    """
    z = float(zeta)
    if not -ZETA_SLACK <= z <= ZETA_MAX + ZETA_SLACK:
        raise ModuliOutOfRange(f"zeta={z} outside [0, {ZETA_MAX}]")
    return min(max(z, 0.0), ZETA_MAX)


def qutrit_kernel(zeta: float) -> KernelSpectrum:
    """Qutrit kernel spectrum at moduli angle zeta in [0, pi/3].

    Returns (1/3) {1 + 2 sqrt(3) sin z + 2 cos z,
                   1 - 2 sqrt(3) sin z + 2 cos z,
                   1 - 4 cos z}
    sorted non-increasing. The endpoints are included: zeta = 0 gives the
    degenerate spectrum (1, 1, -1).
    """
    z = check_zeta(zeta)
    s, c = math.sin(z), math.cos(z)
    p1 = (1.0 + 2.0 * SQRT3 * s + 2.0 * c) / 3.0
    p2 = (1.0 - 2.0 * SQRT3 * s + 2.0 * c) / 3.0
    p3 = (1.0 - 4.0 * c) / 3.0
    return KernelSpectrum((p1, p2, p3))


def kernel_from_spectrum(values: Sequence[float], n: int) -> KernelSpectrum:
    """Validate an externally supplied kernel spectrum of dimension n."""
    _require_dimension(n, "kernel dimension")
    vals = tuple(float(v) for v in values)
    if len(vals) != n:
        raise DimensionMismatch(f"expected {n} values, got {len(vals)}")
    return KernelSpectrum(vals)


def random_kernel(n: int, seed: int) -> KernelSpectrum:
    """Random kernel spectrum of dimension n, reproducible per seed.

    Draws a uniformly random unit vector u in the zero-sum subspace and
    returns 1/n + sqrt(n - 1/n) u, which satisfies both trace conditions by
    construction. The counter-based Philox generator keeps parallel calls
    with distinct seeds independent.
    """
    # before numpy's import, which a refused dimension need not pay
    _require_dimension(n, "kernel dimension")
    import numpy as np

    rng = np.random.Generator(np.random.Philox(seed))
    while True:
        g = rng.standard_normal(n)
        g -= g.mean()
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            break
    radius = math.sqrt(n - 1.0 / n)
    return KernelSpectrum(tuple(1.0 / n + radius * float(v) / norm for v in g))


def zeta_from_kernel(kernel: KernelSpectrum) -> float:
    """Moduli angle of a qutrit kernel spectrum.

    Inverts :func:`qutrit_kernel` through sin z = sqrt(3) (pi1 - pi2) / 4
    and cos z = (1 - 3 pi3) / 4; every valid three-dimensional kernel
    spectrum belongs to the one-parameter family.
    """
    if kernel.n != 3:
        raise DimensionMismatch("the moduli angle is defined for qutrit kernels")
    p1, p2, p3 = kernel.values
    s = SQRT3 * (p1 - p2) / 4.0
    c = (1.0 - 3.0 * p3) / 4.0
    return check_zeta(math.atan2(s, c))
