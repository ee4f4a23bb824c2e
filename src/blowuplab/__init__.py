"""Numerical laboratory for finite-time blow-up growth dynamics.

The package splits into closed forms (:mod:`~blowuplab.closedform`),
an adaptive blow-up aware ODE integrator (:mod:`~blowuplab.ode`), a
reproducible stochastic engine with its ensemble batches
(:mod:`~blowuplab.sde`), ensemble runs and the volatility masking scan
(:mod:`~blowuplab.ensemble`), convergence and trend analysis
(:mod:`~blowuplab.analysis`), a tiny growth-law DSL
(:mod:`~blowuplab.dsl`), and a command line (:mod:`~blowuplab.cli`).
"""

from .closedform import (
    BlowUpTime,
    calibrate_k,
    coupled_gdp_solution,
    exp_phase_solution,
    hyperbolic_blowup_time,
    hyperbolic_solution,
    loglaw_solution,
    phase1_duration,
    powerlaw_blowup_time,
    powerlaw_solution,
    total_singularity_time,
)
from .analysis import (
    FINITE_TIME,
    INCONCLUSIVE,
    INFINITE_TIME,
    BarometerReport,
    ConvergenceVerdict,
    PhasePlan,
    barometer,
    barometer_batch,
    classify_growth_law,
    compose_phases,
)
from .dsl import SystemSpec, as_function, evaluate, parse, pretty_print, to_field
from .ensemble import MaskingPoint, run_ensemble, volatility_masking_scan
from .errors import (
    BindingError,
    BlowupLabError,
    DomainError,
    DslSyntaxError,
    FieldEvaluationError,
    InsufficientDataError,
    LevelOverflowError,
    StiffnessError,
)
from .ode import (
    BlowUpEvent,
    IntegrationOptions,
    Trajectory,
    VectorField,
    estimate_blowup_time,
    integrate,
)
from .sde import (
    EnsembleSpec,
    EnsembleStats,
    ErgodicityReport,
    PathResult,
    StochasticModel,
    em_path,
    ergodic_drift,
    ergodicity_check,
    gbm_model,
    gbm_time_average_exponent,
    hyperbolic_sde_model,
    pathwise_growth_slope,
    simulate_batches,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # closed forms
    "BlowUpTime", "calibrate_k", "exp_phase_solution", "phase1_duration",
    "hyperbolic_solution", "hyperbolic_blowup_time", "total_singularity_time",
    "powerlaw_solution", "powerlaw_blowup_time", "loglaw_solution",
    "coupled_gdp_solution",
    # ode
    "VectorField", "Trajectory", "BlowUpEvent", "IntegrationOptions",
    "integrate", "estimate_blowup_time",
    # sde
    "StochasticModel", "PathResult", "EnsembleSpec", "EnsembleStats",
    "ErgodicityReport", "em_path", "simulate_batches",
    "gbm_model", "gbm_time_average_exponent", "hyperbolic_sde_model",
    "ergodicity_check", "ergodic_drift", "pathwise_growth_slope",
    # ensemble
    "MaskingPoint", "run_ensemble", "volatility_masking_scan",
    # analysis
    "FINITE_TIME", "INFINITE_TIME", "INCONCLUSIVE",
    "ConvergenceVerdict", "BarometerReport", "PhasePlan",
    "classify_growth_law", "barometer", "barometer_batch", "compose_phases",
    # dsl
    "SystemSpec", "parse", "evaluate", "pretty_print", "as_function", "to_field",
    # errors
    "BlowupLabError", "DomainError", "LevelOverflowError", "StiffnessError",
    "FieldEvaluationError", "InsufficientDataError", "DslSyntaxError",
    "BindingError",
]
