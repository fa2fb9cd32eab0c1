"""Multichannel SAR radial-velocity de-ambiguity toolkit.

A moving target's radial velocity reaches a multichannel along-track radar
through two nested modular folds: pulse-rate sampling folds it by the time
blind speed, and the cross-channel interferometric phase folds the remainder
again by the space blind speed.  This package models that cascade exactly,
classifies system configurations by their fold structure, and retrieves the
true velocity from multi-wavelength folded measurements: by one closed-form
robust Chinese-remainder reconstruction on the reduced moduli in every case
(in case III valid on Theorem 1's reduced range only), and in case III over
the full determinable range by an exact minimax search over the system's fold
cells that answers only when the velocities consistent with the observations
lie within ``2*xi_e`` of one another.  A slow-time phase simulator and a
Monte Carlo harness validate it.
"""

from .errors import (AmbiguousSolutionError, ConfigurationError,
                     EstimationFailure, NoSolutionError)
from .folding import (FoldResult, ModulusPair, blind_speeds, bracket_fold,
                      centered_remainder, doppler_of, forward_fold,
                      forward_fold_grid)
from .system import (CaseId, RadarConfig, TargetMotion, azimuth_shift,
                     classify_case, config_from_dict, load_config,
                     max_azimuth_shift, sweep_determinable_size,
                     unambiguous_range)
from .solvers import (AmbiguityIntegers, FoldedObservation, RetrievalResult,
                      brute_force_oracle, crt_range, crt_solve,
                      fold_per_wavelength, robust_crt, search_retrieve)
from .enumeration import EnumerationReport, determinable_size, size_sweep
from .simulate import (RmseCurve, RmsePoint, SlowTimeCube, estimate_doppler,
                       monte_carlo_rmse, simulate_echo, vsar_estimate_vspace)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityIntegers", "AmbiguousSolutionError", "CaseId",
    "ConfigurationError", "EnumerationReport", "EstimationFailure",
    "FoldResult", "FoldedObservation", "ModulusPair", "NoSolutionError",
    "RadarConfig", "RetrievalResult", "RmseCurve", "RmsePoint",
    "SlowTimeCube", "TargetMotion",
    "azimuth_shift", "blind_speeds", "bracket_fold", "brute_force_oracle",
    "centered_remainder", "classify_case", "config_from_dict", "crt_range",
    "crt_solve", "determinable_size", "doppler_of",
    "estimate_doppler", "fold_per_wavelength", "forward_fold",
    "forward_fold_grid", "load_config", "max_azimuth_shift",
    "monte_carlo_rmse", "robust_crt", "search_retrieve", "simulate_echo",
    "size_sweep", "sweep_determinable_size", "unambiguous_range",
    "vsar_estimate_vspace", "__version__",
]
