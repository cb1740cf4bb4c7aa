"""Exception types shared across the package."""


class NcdistError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(NcdistError):
    """Operands have incompatible or unsupported dimensions."""


class NonHermitian(NcdistError):
    """Matrix input is not Hermitian within tolerance."""


class NotAState(NcdistError):
    """Matrix or vector fails the density-matrix constraints."""


class OutOfChamber(NcdistError):
    """Chart point lies outside the ordered-spectrum triangle."""


class ModuliOutOfRange(NcdistError):
    """Kernel moduli angle outside the admissible interval."""


class MasterEquationViolated(NcdistError):
    """Kernel spectrum fails the unit-trace or squared-trace condition."""

    def __init__(self, residual_trace: float, residual_square: float):
        self.residual_trace = residual_trace
        self.residual_square = residual_square
        super().__init__(
            f"master equations violated: |sum(pi) - 1| = {residual_trace:.3e}, "
            f"|sum(pi^2) - n| = {residual_square:.3e}"
        )


class InfeasibleModel(NcdistError):
    """Exhaustive active-set search: no candidate passes the KKT test."""
