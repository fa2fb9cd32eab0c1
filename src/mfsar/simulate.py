"""Slow-time multichannel point-target phase simulator and estimators.

The simulator generates the phase-only narrowband echo of one constant-velocity
point target across a uniform along-track channel array: a second-order Taylor
range model drives the per-pulse, per-channel phase.  The estimators mirror the
measurement chain that produces the cascaded velocity folds: a pulse-rate DFT
measures the folded Doppler, and the cross-channel DFT at that Doppler bin
measures the space-folded velocity.  A Monte Carlo harness quantifies the
retrieval accuracy of the searching solver against injected measurement error.

The range envelope and migration are deliberately out of scope: this module
validates folding and interferometry, not image formation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSolutionError, EstimationFailure, NoSolutionError
from .folding import centered_remainder
from .solvers import FoldedObservation, fold_per_wavelength, search_retrieve
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
    xi_e: float
    rmse: float
    trials: int
    failures: int


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
    f_d = -2.0 * v_r / lam
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
    """Dechirped, padded slow-time spectra of all channels, the reference
    channel's peak bin and its folded Doppler ``f_hat`` in (-f_p/2, f_p/2].

    The signed bin comes from the folding kernel, not from ``fftfreq``
    labels: ``f_hat = -centered_remainder(-peak, nfft) * f_p / nfft``, so the
    Nyquist bin reads exactly +f_p/2, i.e. the velocity -v_t/2 at the lower
    end of the time fold's interval, as the model folds it.
    """
    n = cube.samples.shape[1]
    t = slow_time_axis(n, cube.f_p)
    dechirped = cube.samples * np.exp(-1j * np.pi * cube.doppler_rate * t**2)[None, :]
    nfft = n * SLOW_TIME_PAD
    spectra = np.fft.fft(dechirped, nfft, axis=1)
    magnitude = np.abs(spectra[0])
    peak = int(np.argmax(magnitude))
    if magnitude[peak] < 3.0 * magnitude.mean():
        raise EstimationFailure(
            f"no spectral peak: max {magnitude[peak]:.3g} is below three times "
            f"the mean level {magnitude.mean():.3g}")
    f_hat = -centered_remainder(-peak, nfft) * cube.f_p / nfft
    return spectra, peak, f_hat


def estimate_doppler(cube: SlowTimeCube) -> float:
    """Folded Doppler centroid of the reference channel, in (-f_p/2, f_p/2]."""
    return _doppler_peak(cube)[2]


def vsar_estimate_vspace(cube: SlowTimeCube, cfg: RadarConfig,
                         zero_pad: int = 1000) -> float:
    """Space-folded velocity from the cross-channel DFT at the Doppler peak.

    The cross-channel sample at the peak bin is co-registered and
    compensated first.  Co-registration shifts every channel by its
    along-track lag ``d/(2*v_a)`` (a phase ramp on the folded Doppler
    ``f_hat``, which is what imprints the time-folded velocity on the
    interferometric phase), and the static cross-channel quadratic phase is
    removed.  The sample's phase is then linear in the channel index with
    slope ``-2*pi*d*v_time/(lam*v_a)``.  ``f_hat`` is the one
    :func:`estimate_doppler` reports, so at the Nyquist bin both read the
    same side of the time fold.

    ``zero_pad`` multiplies the channel count in the spatial DFT and sets the
    velocity quantisation ``v_s / (m_ch * zero_pad)``.  The peak bin maps
    to ``lam/2 * centered_remainder(-peak, nfft) / (nfft*delta_s)``, which
    lies in [-v_s/2, v_s/2) by construction: the Nyquist bin reads -v_s/2,
    as the model folds it.
    """
    spectra, doppler_bin, f_hat = _doppler_peak(cube)
    m = np.arange(cube.samples.shape[0], dtype=float)
    delta_s = cfg.d / (2.0 * cfg.v_a)
    coreg = np.exp(2j * np.pi * f_hat * m * delta_s)
    quad = np.exp(1j * np.pi * m**2 * cfg.d**2 / (cube.lam * cfg.r_0))
    vector = spectra[:, doppler_bin] * coreg * quad
    nfft = int(vector.size * zero_pad)
    spectrum = np.abs(np.fft.fft(vector, nfft))
    peak = int(np.argmax(spectrum))
    return cube.lam / 2.0 * centered_remainder(-peak, nfft) / (nfft * delta_s)


# ---------------------------------------------------------------------------
# Monte Carlo harness

def _mc_point(cfg: RadarConfig, xi_e: float, xi_index: int, trials: int,
              seed: int) -> RmsePoint:
    n_lam = len(cfg.lambdas)
    v_range = float(cfg.size_report().size)
    squared = []
    failures = 0
    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(xi_index, trial)))
        v_r = rng.uniform(-v_range / 2.0, v_range / 2.0)
        folds = fold_per_wavelength(v_r, cfg)
        errors = rng.uniform(-xi_e, xi_e, size=n_lam) if xi_e > 0 else np.zeros(n_lam)
        obs = FoldedObservation(
            tuple(f.v_space + e for f, e in zip(folds, errors)), xi_e=xi_e)
        try:
            result = search_retrieve(obs, cfg)
        except (AmbiguousSolutionError, NoSolutionError):
            failures += 1
            continue
        squared.append((result.v_hat - v_r) ** 2)
    rmse = float(np.sqrt(np.sum(squared) / len(squared))) if squared else float("nan")
    return RmsePoint(xi_e=float(xi_e), rmse=rmse, trials=trials, failures=failures)


def monte_carlo_rmse(cfg: RadarConfig, xi_grid, trials: int, seed: int,
                     n_workers: int = 1) -> RmseCurve:
    """Retrieval RMSE of the searching solver per injected error bound.

    Per grid point and trial: draw a velocity uniformly over the determinable
    range, fold it exactly per wavelength, add independent uniform errors in
    ``[-xi_e, xi_e]``, retrieve, and accumulate the squared estimate error.
    Trials the solver reports as ambiguous or unsolvable are counted as
    failures and excluded from the RMSE, never silently dropped.

    Every trial owns an RNG substream keyed on ``(seed, point, trial)``, so
    the curve is bit-identical for any ``n_workers``.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cfg.size_report()  # enumerate once here, not in every worker
    jobs = [(cfg, float(xi), i, trials, seed) for i, xi in enumerate(xi_grid)]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            points = list(pool.map(_mc_point, *zip(*jobs)))
    else:
        points = [_mc_point(*job) for job in jobs]
    return RmseCurve(points=tuple(points))
