"""Gaussian quasi-likelihood estimation for ergodic Levy-driven SDEs.

Simulation of one-dimensional SDEs driven by standardized pure-jump Levy
noise, staged quasi-likelihood fitting of possibly misspecified coefficient
models, and the asymptotic machinery around the fit: exact pseudo-true values,
Gamma / Sigma / V matrices via extended Poisson equations, replication
studies, and residual-moment diagnostics.

The usual entry points:

- ``simulate_euler`` / ``PathConfig`` to draw paths,
- ``estimate_staged`` / ``ModelSpec`` to fit them,
- ``pseudo_true`` (``optimal_values`` for the benchmark fit) and
  ``run_asymptotics`` for the limit theory,
- ``run_mc`` / ``emit_report`` for replication studies,
- ``levy_gqmle.cli`` behind the ``levy-gqmle`` console script.
"""

__version__ = "0.1.0"

from ._util import NumericalError, substream
from .levy import (
    BilateralGamma,
    Brownian,
    LevyLaw,
    NormalInverseGaussian,
    cumulants,
    sample_increments,
    standardization_check,
)
from .coefficients import (
    ConstantDrift,
    ConstantScale,
    LinearDecay,
    MeanRevertLinear,
    RationalSqrt,
)
from .sde import (
    DivergenceError,
    PathConfig,
    SamplePath,
    TrueModel,
    load_path,
    simulate_euler,
    write_path,
)
from .gqmle import (
    EstimateResult,
    ModelSpec,
    estimate_staged,
)
from .asymptotics import (
    AsymptoticsResult,
    epe_solve,
    pseudo_true,
    run_asymptotics,
    sample_invariant,
)
from .moments import residual_moment
from .experiment import (
    CASES,
    ExperimentDesign,
    ExperimentError,
    McSummary,
    benchmark_model,
    emit_report,
    noise_case,
    optimal_values,
    run_mc,
    true_ou,
)

__all__ = [
    "__version__",
    "NumericalError",
    "substream",
    "BilateralGamma",
    "Brownian",
    "LevyLaw",
    "NormalInverseGaussian",
    "cumulants",
    "sample_increments",
    "standardization_check",
    "ConstantDrift",
    "ConstantScale",
    "LinearDecay",
    "MeanRevertLinear",
    "RationalSqrt",
    "DivergenceError",
    "PathConfig",
    "SamplePath",
    "TrueModel",
    "load_path",
    "simulate_euler",
    "write_path",
    "EstimateResult",
    "ModelSpec",
    "estimate_staged",
    "AsymptoticsResult",
    "epe_solve",
    "run_asymptotics",
    "sample_invariant",
    "residual_moment",
    "CASES",
    "ExperimentDesign",
    "ExperimentError",
    "McSummary",
    "benchmark_model",
    "emit_report",
    "noise_case",
    "optimal_values",
    "pseudo_true",
    "run_mc",
    "true_ou",
]
