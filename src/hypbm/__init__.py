"""Heat kernels, radial laws, and Gaussian-fluctuation rate experiments for
Brownian motion on d-dimensional hyperbolic space.

The radial part R_t of the process satisfies dR = dB + (d-1)/2 coth(R) dt,
grows linearly at rate (d-1)/2, and its normalized fluctuation
(R_t - (d-1)t/2)/sqrt(t) tends to a standard normal. This package evaluates
the transition kernels q_d(t, r) for every d >= 2, the exact tail
probabilities of the normalized fluctuation, and the uniform discrepancy
against the Gaussian tail, whose t^{-1/2} decay rate (and its sharpness at
x = 0) the experiment harness measures; an Euler-Maruyama simulator serves
as an independent Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .calculus import (
    SinhPowerExpansion,
    double_factorial,
    evaluate_expansion,
    millson_identity_value,
    sinh_power_derivative,
)
from .discrepancy import (
    DiscrepancyCurve,
    DiscrepancyRecord,
    RateFit,
    discrepancy_curve,
    rate_fit,
    sharpness_at_zero,
    sharpness_d2_integral,
    sup_discrepancy,
)
from .kernels import (
    Dimension,
    EvaluationPoint,
    KernelError,
    OddKernelExpression,
    build_odd_kernel,
    davies_envelope,
    heat_kernel,
    millson_step_numeric,
    millson_step_symbolic,
)
from .logspace import LogValue
from .quadrature import (
    QuadratureError,
    QuadratureResult,
    QuadratureSpec,
    QuadratureStack,
    integrate_adaptive,
)
from .sim import (
    EmpiricalTail,
    SimulationConfig,
    empirical_tail,
    ks_distance_to_normal,
    simulate_radial,
    simulate_radial_pair,
)
from .tails import (
    TailEstimate,
    direct_kernel_quadrature,
    normal_tail,
    radial_density,
    tail,
)

__all__ = [
    "__version__",
    "SinhPowerExpansion",
    "double_factorial",
    "evaluate_expansion",
    "millson_identity_value",
    "sinh_power_derivative",
    "DiscrepancyCurve",
    "DiscrepancyRecord",
    "RateFit",
    "discrepancy_curve",
    "rate_fit",
    "sharpness_at_zero",
    "sharpness_d2_integral",
    "sup_discrepancy",
    "Dimension",
    "EvaluationPoint",
    "KernelError",
    "OddKernelExpression",
    "build_odd_kernel",
    "davies_envelope",
    "heat_kernel",
    "millson_step_numeric",
    "millson_step_symbolic",
    "LogValue",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureSpec",
    "QuadratureStack",
    "integrate_adaptive",
    "EmpiricalTail",
    "SimulationConfig",
    "empirical_tail",
    "ks_distance_to_normal",
    "simulate_radial",
    "simulate_radial_pair",
    "TailEstimate",
    "direct_kernel_quadrature",
    "normal_tail",
    "radial_density",
    "tail",
]
