"""Slow-time multichannel point-target phase simulator and estimators.

The simulator generates the phase-only narrowband echo of one constant-velocity
point target across a uniform along-track channel array: a second-order Taylor
range model drives the per-pulse, per-channel phase.  The estimators mirror the
measurement chain that produces the cascaded velocity folds: one pulse-rate FFT
of the reference channel measures the folded Doppler, and a cross-channel DFT of
every channel's bin at that Doppler measures the space-folded velocity.  A Monte
Carlo harness quantifies retrieval accuracy against injected measurement error.

The range envelope and migration are deliberately out of scope: this module
validates folding and interferometry, not image formation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSolutionError, EstimationFailure, NoSolutionError
from .folding import centered_remainder, doppler_of, forward_fold_grid
from .solvers import TIE_TOLERANCE, FoldedObservation, search_retrieve
from .system import RadarConfig, TargetMotion

__all__ = [
    "SlowTimeCube",
    "RmsePoint",
    "RmseCurve",
    "simulate_echo",
    "estimate_doppler",
    "vsar_estimate_vspace",
    "monte_carlo_rmse",
]

# Slow-time spectra are padded by this factor for peak interpolation; the
# cross-channel pad is the caller's choice (it sets the velocity quantisation).
SLOW_TIME_PAD = 16

RMSE_CSV_HEADER = "xi_e,rmse,trials,failures"


@dataclass(frozen=True)
class SlowTimeCube:
    """Complex slow-time samples indexed (channel, pulse) plus capture metadata.

    ``doppler_rate`` is the static-scene Doppler rate used for azimuth
    dechirping downstream.
    """

    samples: np.ndarray
    f_p: float
    lam: float
    doppler_rate: float = 0.0

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[0] < 2 or self.samples.shape[1] < 2:
            raise ValueError(f"need a (channels >= 2, pulses >= 2) array, got {self.samples.shape}")


@dataclass(frozen=True)
class RmsePoint:
    """Monte Carlo outcome at one error bound: the RMSE of the returned
    answers and the trials counted as ambiguous, no-solution and silent gross
    errors (see :func:`monte_carlo_rmse`)."""

    xi_e: float
    rmse: float
    trials: int
    ambiguous: int
    no_solution: int
    silent_gross: int

    @property
    def failures(self) -> int:
        """Trials the solver declined: ambiguous plus no-solution."""
        return self.ambiguous + self.no_solution


@dataclass(frozen=True)
class RmseCurve:
    """Retrieval RMSE against the injected error bound."""

    points: tuple

    def to_csv(self) -> str:
        lines = [RMSE_CSV_HEADER]
        for p in self.points:
            lines.append(f"{p.xi_e},{p.rmse},{p.trials},{p.failures}")
        return "\n".join(lines) + "\n"


def slow_time_axis(n_pulses: int, f_p: float) -> np.ndarray:
    """Pulse times centred on the aperture: spans [-T_s/2, T_s/2]."""
    return (np.arange(n_pulses) - (n_pulses - 1) / 2.0) / f_p


def static_doppler_rate(cfg: RadarConfig, lam: float) -> float:
    """Doppler rate of a stationary scatterer at scene centre."""
    return -2.0 * cfg.v_a**2 / (lam * cfg.r_0)


def simulate_echo(cfg: RadarConfig, motion: TargetMotion, lam: float,
                  n_pulses: int, noise_db: float | None = None,
                  seed: int | None = None) -> SlowTimeCube:
    """Phase-only echo of one moving point target on every channel.

    The two-way range follows the second-order Taylor model: a per-channel
    Doppler centroid (target Doppler plus the channel-position term), the
    target Doppler rate, and the static cross-channel quadratic term.
    ``noise_db``, when given, adds complex white noise at that SNR.
    """
    if n_pulses < 2:
        raise ValueError(f"need at least two pulses, got {n_pulses}")
    t = slow_time_axis(n_pulses, cfg.f_p)[None, :]
    m = np.arange(cfg.m_ch, dtype=float)[:, None]
    v_r = motion.radial_velocity(cfg.r_0)
    f_d = doppler_of(v_r, lam)
    f_0 = (cfg.v_a - motion.v_x) * cfg.d / (lam * cfg.r_0)
    f_rt = -2.0 * ((cfg.v_a - motion.v_x) ** 2 + motion.v_y**2) / (lam * cfg.r_0)
    phi = m**2 * cfg.d**2 / (2.0 * cfg.r_0)
    two_way = (2.0 * cfg.r_0
               - lam * (m * f_0 + f_d) * t
               - lam / 2.0 * f_rt * t**2
               + phi)
    samples = np.exp(-2j * np.pi * two_way / lam)
    if noise_db is not None:
        rng = np.random.default_rng(seed)
        sigma = 10.0 ** (-noise_db / 20.0)
        noise = rng.standard_normal(samples.shape) + 1j * rng.standard_normal(samples.shape)
        samples = samples + sigma / np.sqrt(2.0) * noise
    return SlowTimeCube(samples=samples, f_p=cfg.f_p, lam=lam,
                        doppler_rate=static_doppler_rate(cfg, lam))


def _doppler_peak(cube: SlowTimeCube):
    """Dechirp ramp, peak bin of channel 0's padded slow-time FFT (the only
    one taken), ``nfft`` and folded Doppler ``f_hat`` in (-f_p/2, f_p/2].

    A peak not above three times the mean level (zero and NaN spectra
    included) raises.  ``f_hat = -centered_remainder(-peak, nfft)*f_p/nfft``:
    the Nyquist bin reads exactly +f_p/2, the time fold's lower end -v_t/2.
    """
    n = cube.samples.shape[1]
    ramp = np.exp(-1j * np.pi * cube.doppler_rate * slow_time_axis(n, cube.f_p) ** 2)
    nfft = n * SLOW_TIME_PAD
    magnitude = np.abs(np.fft.fft(cube.samples[0] * ramp, nfft))
    peak = int(np.argmax(magnitude))
    if not magnitude[peak] > 3.0 * magnitude.mean():
        raise EstimationFailure(
            f"no spectral peak: max {magnitude[peak]:.3g} is not above three "
            f"times the mean level {magnitude.mean():.3g}")
    f_hat = -centered_remainder(-peak, nfft) * cube.f_p / nfft
    return ramp, peak, nfft, f_hat


def estimate_doppler(cube: SlowTimeCube) -> float:
    """Folded Doppler centroid of the reference channel, in (-f_p/2, f_p/2]."""
    return _doppler_peak(cube)[3]


def vsar_estimate_vspace(cube: SlowTimeCube, cfg: RadarConfig,
                         zero_pad: int = 1000) -> float:
    """Space-folded velocity from the cross-channel DFT at the Doppler peak.

    The cross-channel sample is every channel's dechirped DFT bin at the
    reference channel's peak, one matrix-vector product with the phase index
    ``peak*k mod nfft`` reduced exactly.  Co-registration then shifts every
    channel by its along-track lag ``d/(2*v_a)`` (a phase ramp on the folded
    Doppler ``f_hat``, which imprints the time-folded velocity on the
    interferometric phase), and the static cross-channel quadratic phase is
    removed, leaving a phase linear in the channel index with slope
    ``-2*pi*d*v_time/(lam*v_a)``.  ``f_hat`` is :func:`estimate_doppler`'s, so
    at the Nyquist bin both read the same side of the time fold.

    ``zero_pad`` (at least 1) multiplies the channel count in the spatial DFT
    and sets the velocity quantisation ``v_s / (m_ch * zero_pad)``.  The peak
    bin maps to ``lam/2 * centered_remainder(-peak, nfft) / (nfft*delta_s)``,
    in [-v_s/2, v_s/2) by construction: the Nyquist bin reads -v_s/2.
    """
    if zero_pad < 1:
        raise ValueError(f"zero_pad must be >= 1, got {zero_pad}")
    ramp, doppler_bin, slow_nfft, f_hat = _doppler_peak(cube)
    k = doppler_bin * np.arange(ramp.size) % slow_nfft
    kernel = ramp * np.exp(-2j * np.pi * k / slow_nfft)
    m = np.arange(cube.samples.shape[0], dtype=float)
    delta_s = cfg.d / (2.0 * cfg.v_a)
    coreg = np.exp(2j * np.pi * f_hat * m * delta_s)
    quad = np.exp(1j * np.pi * m**2 * cfg.d**2 / (cube.lam * cfg.r_0))
    vector = (cube.samples @ kernel) * coreg * quad
    nfft = int(vector.size * zero_pad)
    spectrum = np.abs(np.fft.fft(vector, nfft))
    peak = int(np.argmax(spectrum))
    return cube.lam / 2.0 * centered_remainder(-peak, nfft) / (nfft * delta_s)


# ---------------------------------------------------------------------------
# Monte Carlo harness

def _mc_point(cfg: RadarConfig, xi_e: float, xi_index: int, trials: int,
              seed: int) -> RmsePoint:
    v_range = float(cfg.size_report().size)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(xi_index,)))
    truths = rng.uniform(-v_range / 2.0, v_range / 2.0, size=trials)
    observed = np.column_stack([forward_fold_grid(truths, vt, vs)[1]
                                for vt, vs in zip(*cfg.exact_moduli())])
    # Scaled, not drawn on [-xi_e, xi_e]: numpy refuses that interval for
    # xi_e -0.0, and a negative xi_e must reach FoldedObservation's refusal.
    observed += xi_e * rng.uniform(-1.0, 1.0, size=observed.shape)
    squared = []
    ambiguous = no_solution = silent_gross = 0
    for v_r, v_space in zip(truths.tolist(), observed.tolist()):
        try:
            result = search_retrieve(FoldedObservation(v_space, xi_e=xi_e), cfg)
        except AmbiguousSolutionError:
            ambiguous += 1
            continue
        except NoSolutionError:
            no_solution += 1
            continue
        error = result.v_hat - v_r
        squared.append(error ** 2)
        silent_gross += abs(centered_remainder(error, v_range)) > 2 * xi_e + TIE_TOLERANCE
    rmse = float(np.sqrt(np.sum(squared) / len(squared))) if squared else float("nan")
    return RmsePoint(xi_e=float(xi_e), rmse=rmse, trials=trials, ambiguous=ambiguous,
                     no_solution=no_solution, silent_gross=silent_gross)


def monte_carlo_rmse(cfg: RadarConfig, xi_grid, trials: int, seed: int,
                     n_workers: int = 1) -> RmseCurve:
    """Retrieval RMSE of the searching solver per injected error bound.

    Per grid point and trial: draw a velocity uniformly over the determinable
    range, then independent uniform errors in ``[-xi_e, xi_e]``, one per
    wavelength.  The point's velocities are folded exactly per wavelength by
    one :func:`folding.forward_fold_grid` call per wavelength (element for
    element the scalar fold), the errors added, and each trial retrieved by
    :func:`solvers.search_retrieve` on its own.

    Trials the solver reports as ambiguous or unsolvable are counted in
    ``ambiguous`` and ``no_solution`` (their sum is ``failures``) and
    excluded from the RMSE, never silently dropped.  Answers farther than
    ``2*xi_e`` (plus the solvers' tie tolerance) from their truth on the
    circle of the determinable size stay in the RMSE and are also counted in
    ``silent_gross``.

    Each grid point draws from one RNG stream keyed on ``(seed, point)``:
    first all its truths, then all its errors.  A point runs whole in one
    process (at most one worker per point), so its stream, and the curve,
    are bit-identical for any ``n_workers``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    cfg.fold_cells()  # size and compile once here, not in every worker
    jobs = [(cfg, float(xi), i, trials, seed) for i, xi in enumerate(xi_grid)]
    workers = min(n_workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_mc_point, *zip(*jobs)))
    else:
        points = [_mc_point(*job) for job in jobs]
    return RmseCurve(points=tuple(points))
