"""Relativistic limits on distinguishing orthogonal photon helicity states.

The package computes, for a single-photon wavepacket and an observer
controlling a ball of radius R, the probability of misidentifying which of
two orthogonal helicity states was prepared: detections inside the ball
identify the state perfectly, so the error is set entirely by the
probability p_t of a detection escaping the ball at the measurement time.
Alongside the exact calculus it provides measurement-time optimization,
classical light-cone timing bounds, and a Monte Carlo simulation of the
whole measurement.
"""

from lcdisc.amplitude import (
    TAIL_MASS_BOUND,
    ExponentialFamily,
    GaussianFamily,
    MomentumProfile,
    make_profile,
    momentum_norm,
)
from lcdisc.discrimination import (
    DiscriminationReport,
    OptimalTime,
    Priors,
    build_report,
    optimal_measurement_time,
    outside_probability,
    outside_probability_sweep,
    strategy_error,
    tradeoff_curve,
)
from lcdisc.errors import (
    ConfigError,
    InvalidParameterError,
    InvalidStateError,
    LcdiscError,
    NumericFailureError,
    ResourceLimitError,
)
from lcdisc.lightcone import (
    RulerTiming,
    lorentz_factor,
    ruler_min_time,
    scan_time_ball,
)
from lcdisc.montecarlo import (
    DetectionSampler,
    ErrorEstimate,
    TrialBatch,
    estimate_error,
    philox_uniforms,
    run_trials,
)
from lcdisc.propagation import (
    RadialAmplitude,
    amplitude_on_radii,
    default_r_max,
    inside_probability,
    inside_probability_sweep,
    quantile_radius,
    radial_density_grid,
    sphere_cap_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DetectionSampler",
    "DiscriminationReport",
    "ErrorEstimate",
    "ExponentialFamily",
    "GaussianFamily",
    "InvalidParameterError",
    "InvalidStateError",
    "LcdiscError",
    "MomentumProfile",
    "NumericFailureError",
    "OptimalTime",
    "Priors",
    "RadialAmplitude",
    "ResourceLimitError",
    "RulerTiming",
    "TAIL_MASS_BOUND",
    "TrialBatch",
    "__version__",
    "amplitude_on_radii",
    "build_report",
    "default_r_max",
    "estimate_error",
    "inside_probability",
    "inside_probability_sweep",
    "lorentz_factor",
    "make_profile",
    "momentum_norm",
    "optimal_measurement_time",
    "outside_probability",
    "outside_probability_sweep",
    "philox_uniforms",
    "quantile_radius",
    "radial_density_grid",
    "ruler_min_time",
    "run_trials",
    "scan_time_ball",
    "sphere_cap_weight",
    "strategy_error",
    "tradeoff_curve",
]
