"""Core numeric types: ordered spectra, the qutrit orbit-space chart and
the two distance conventions."""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter
from typing import Any

from .errors import DimensionMismatch, NonHermitian, NotAState, OutOfChamber

SQRT3 = math.sqrt(3.0)

#: tolerance for algebraic identities on stored values
VALUE_TOL = 1e-12
#: tolerance granted to eigensolver output
EIG_TOL = 1e-10
#: admission tolerance for chamber membership of chart points
CHAMBER_TOL = 1e-12


class Frozen:
    """Base of the immutable value types: fields are the `_fields` of the
    subclass, its `__slots__` unless it names them apart, set once by its
    `__init__` through `object.__setattr__`. A slot outside `_fields` is
    private: set later, also through `object.__setattr__`, and read only
    by the package.

    Instances compare and hash by their field values, within one class
    only, and print as `Name(field=value, ...)`. Assigning or deleting a
    field raises AttributeError. Pickling and copying rebuild an instance
    through its constructor from its fields, since the blocked
    `__setattr__` rules out the default restore of slot state; a private
    slot starts unset again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__
        # the field, or the tuple of fields, in one C call; a Python loop
        # over the fields makes == several times slower
        cls._key = property(attrgetter(*cls._fields))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Spectrum(Frozen):
    """Density-matrix eigenvalues as a non-increasing probability vector.

    Input values may arrive in any order; they are sorted non-increasing on
    construction. Each value must be finite and lie in [0, 1], and the total
    must equal 1, both within 1e-12.

    Values are admitted once: every value from outside goes through this
    constructor, while a tuple the package builds with these properties,
    the general projector's nearest point, becomes a Spectrum through
    :func:`_admitted_spectrum`, with no second sort or check.
    """

    __slots__ = ("values",)
    values: tuple[float, ...]

    def __init__(self, values: tuple[float, ...]):
        vals = tuple(sorted(map(float, values), reverse=True))
        if len(vals) < 2:
            raise DimensionMismatch("spectrum dimension must be at least 2")
        if not all(map(math.isfinite, vals)):
            raise NotAState(f"eigenvalues must be finite: {vals}")
        if vals[0] > 1.0 + VALUE_TOL or vals[-1] < -VALUE_TOL:
            raise NotAState(f"eigenvalues outside [0, 1]: {vals}")
        total = math.fsum(vals)
        if abs(total - 1.0) > VALUE_TOL:
            raise NotAState(f"eigenvalues sum to {total!r}, expected 1")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> Any:
        """The values as a float numpy array."""
        import numpy as np

        return np.array(self.values, dtype=float)


def _admitted_spectrum(
    values: tuple[float, ...], _new=object.__new__, _cls=Spectrum, _set=object.__setattr__
) -> Spectrum:
    """The Spectrum of a tuple the package built and already admitted, one
    that Spectrum(values) would keep bit for bit, stored with no sort and
    no check. The class is bound when the function is defined, so a later
    rebinding of the module global `Spectrum` to a plain function, as the
    benchmark's traced run makes, does not reach it."""
    spectrum = _new(_cls)
    _set(spectrum, "values", values)
    return spectrum


class QutritChart(Frozen):
    """Orbit-space coordinates (xi3, xi8) of an ordered qutrit spectrum.

    Ordered spectra fill the triangle with corners (0, 0), (0, 1/2) and
    (sqrt(3)/2, 1/2); membership is checked by the operations that need it,
    not at construction.
    """

    __slots__ = ("xi3", "xi8")
    xi3: float
    xi8: float

    def __init__(self, xi3: float, xi8: float):
        object.__setattr__(self, "xi3", float(xi3))
        object.__setattr__(self, "xi8", float(xi8))


def chamber_mask(xi3: float, xi8: float) -> bool:
    """Chamber membership of the chart point (xi3, xi8).

    xi3 >= 0 and xi8 >= xi3 / sqrt(3) read r1 >= r2 and r2 >= r3, within
    CHAMBER_TOL. The upper bound reads r3 >= -CHAMBER_TOL and is computed as
    :func:`chart_from_spectrum` computes xi8 = (1 - 3 r3) / 2, so the chart
    of every spectrum Spectrum admits (r3 >= -1e-12) passes it.
    """
    tol = CHAMBER_TOL
    return xi3 >= -tol and xi8 >= xi3 / SQRT3 - tol and xi8 <= (1.0 + 3.0 * tol) / 2.0


def require_chamber(c: QutritChart) -> None:
    if not chamber_mask(c.xi3, c.xi8):
        raise OutOfChamber(
            f"chart point ({c.xi3}, {c.xi8}) lies outside the chamber triangle"
        )


class MetricConvention(Enum):
    """Distance normalization for reported indicator values.

    FROBENIUS is the Hilbert-Schmidt norm between density matrices, which for
    commuting states equals the Euclidean distance between ordered spectra.
    PAPER rescales by sqrt(N/(N-1)) so distances equal Euclidean lengths in
    the (xi3, xi8) chart plane; the absolute-positivity radius takes the
    form sqrt(N+1)/(N^2-1) in this convention. PAPER is the reporting
    default.
    """

    FROBENIUS = "frobenius"
    PAPER = "paper"


def conversion_factor(n: int) -> float:
    """Scale between the conventions: d_paper = factor * d_frobenius."""
    if n < 2:
        raise DimensionMismatch("dimension must be at least 2")
    return math.sqrt(n / (n - 1.0))


def metric_convert(
    d: float, n: int, source: MetricConvention | str, target: MetricConvention | str
) -> float:
    """Convert a finite, non-negative distance between the two conventions,
    given as MetricConvention members or their values; anything else raises
    ValueError."""
    factor = conversion_factor(n)
    source, target = MetricConvention(source), MetricConvention(target)
    if not 0.0 <= d < math.inf:
        raise ValueError("distances are finite and non-negative")
    if source is target:
        return float(d)
    if source is MetricConvention.FROBENIUS:
        return float(d) * factor
    return float(d) / factor


def spectrum_from_matrix(m) -> Spectrum:
    """Eigenvalues of a density matrix, sorted non-increasing.

    The input must be finite, Hermitian within 1e-12 elementwise, have unit
    trace within 1e-10 and be positive semidefinite within 1e-10. Tiny
    negative eigenvalues are clipped at zero and the vector renormalized;
    both adjustments stay inside the admission tolerances.
    """
    import numpy as np

    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionMismatch("dimension must be at least 2")
    # NaN fails every comparison, so it would pass the Hermitian check below
    if not np.isfinite(arr).all():
        raise NotAState("matrix entries must be finite")
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    if defect > 1e-12:
        raise NonHermitian(f"matrix deviates from Hermitian by {defect:.3e}")
    eig = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    trace = float(np.sum(eig))
    if abs(trace - 1.0) > 1e-10:
        raise NotAState(f"trace is {trace!r}, expected 1")
    if float(eig[0]) < -EIG_TOL:
        raise NotAState(f"negative eigenvalue {float(eig[0])!r}")
    clipped = np.clip(eig, 0.0, None)
    clipped /= clipped.sum()
    return Spectrum(tuple(float(v) for v in clipped))


def chart_from_spectrum(r: Spectrum) -> QutritChart:
    """Chart point of an ordered qutrit spectrum.

    xi3 = sqrt(3) (r1 - r2) / 2 and xi8 = (1 - 3 r3) / 2, the inverse of
    :func:`spectrum_from_chart`.
    """
    if r.n != 3:
        raise DimensionMismatch(f"the chart is defined for qutrits, got n={r.n}")
    r1, r2, r3 = r.values
    return QutritChart(SQRT3 * (r1 - r2) / 2.0, (1.0 - 3.0 * r3) / 2.0)


def spectrum_from_chart(c: QutritChart) -> Spectrum:
    """Ordered qutrit spectrum of a chart point inside the chamber.

    r1 = 1/3 + xi3/sqrt(3) + xi8/3, r2 = 1/3 - xi3/sqrt(3) + xi8/3 and
    r3 = 1/3 - 2 xi8/3. Raises OutOfChamber when the point violates the
    chamber inequalities beyond 1e-12. Those tolerances add up near the
    edges, so an admitted point can map up to 3e-12 outside [0, 1]; each
    eigenvalue is held inside Spectrum's [-1e-12, 1 + 1e-12].
    """
    require_chamber(c)
    r1 = 1.0 / 3.0 + c.xi3 / SQRT3 + c.xi8 / 3.0
    r2 = 1.0 / 3.0 - c.xi3 / SQRT3 + c.xi8 / 3.0
    r3 = 1.0 / 3.0 - 2.0 * c.xi8 / 3.0
    return Spectrum(tuple(min(max(v, -VALUE_TOL), 1.0 + VALUE_TOL) for v in (r1, r2, r3)))
