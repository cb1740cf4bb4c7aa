"""Distance-based nonclassicality for finite-dimensional quantum states.

Quantifies how far a qudit state sits from the set of states whose Wigner
quasiprobability stays non-negative everywhere: an exact piecewise formula
for qutrits, and a convex projection onto the Wigner-positivity polytope in
the ordered eigenvalue simplex for general dimension.
"""

from .core import (
    MetricConvention,
    QutritChart,
    Spectrum,
    chart_from_spectrum,
    conversion_factor,
    metric_convert,
    spectrum_from_chart,
    spectrum_from_matrix,
)
from .distance import (
    IndicatorResult,
    bruteforce_project,
    distance_general,
    project_halfspace,
    project_monotone_nonincreasing,
    project_simplex,
    project_to_classical,
    qutrit_distance,
)
from .errors import (
    DimensionMismatch,
    InfeasibleModel,
    MasterEquationViolated,
    ModuliOutOfRange,
    NcdistError,
    NonHermitian,
    NotAState,
    OutOfChamber,
)
from .geometry import (
    Polytope,
    QutritAnchors,
    Region,
    absolute_radius,
    classify_region,
    positivity_polytope,
    qutrit_anchor_points,
    tangent_spectrum,
)
from .kernel import (
    KernelSpectrum,
    kernel_from_spectrum,
    qutrit_kernel,
    random_kernel,
    zeta_from_kernel,
)
from .wigner import (
    haar_unitary,
    is_classical,
    sampled_min,
    wigner_floor,
    wigner_value,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch",
    "IndicatorResult",
    "InfeasibleModel",
    "KernelSpectrum",
    "MasterEquationViolated",
    "MetricConvention",
    "ModuliOutOfRange",
    "NcdistError",
    "NonHermitian",
    "NotAState",
    "OutOfChamber",
    "Polytope",
    "QutritAnchors",
    "QutritChart",
    "Region",
    "Spectrum",
    "absolute_radius",
    "bruteforce_project",
    "chart_from_spectrum",
    "classify_region",
    "conversion_factor",
    "distance_general",
    "haar_unitary",
    "is_classical",
    "kernel_from_spectrum",
    "metric_convert",
    "positivity_polytope",
    "project_halfspace",
    "project_monotone_nonincreasing",
    "project_simplex",
    "project_to_classical",
    "qutrit_anchor_points",
    "qutrit_distance",
    "qutrit_kernel",
    "random_kernel",
    "sampled_min",
    "spectrum_from_chart",
    "spectrum_from_matrix",
    "tangent_spectrum",
    "wigner_floor",
    "wigner_value",
    "zeta_from_kernel",
]
