"""Slow-time simulator, estimators and the Monte Carlo harness."""

import numpy as np
import pytest

from mfsar import (AmbiguousSolutionError, EstimationFailure, FoldedObservation,
                   NoSolutionError, RetrievalResult, SlowTimeCube, TargetMotion,
                   estimate_doppler, fold_per_wavelength, monte_carlo_rmse,
                   search_retrieve, simulate, simulate_echo, vsar_estimate_vspace)
from mfsar.folding import centered_remainder
from mfsar.simulate import SLOW_TIME_PAD, slow_time_axis
from conftest import make_config


def test_simulate_estimate_retrieve_round_trip(reference_config):
    # Noiseless captures on both bands; the spatial estimate is quantised to
    # v_s/(m_ch*1000), well inside xi_e.  -10 and -12 put the Doppler peak on
    # the -f_p/2 bin of band 1 and band 2: the estimate must read the time
    # fold's lower end, -v_t/2, as the model does.
    cfg = reference_config
    rng = np.random.default_rng(5)
    for truth in [*rng.uniform(-59, 59, size=8), -10.0, -12.0]:
        truth = float(truth)
        motion = TargetMotion(v_y=truth, y_0=cfg.r_0)
        measured = []
        for lam, fold in zip(cfg.lambdas, fold_per_wavelength(truth, cfg)):
            v_space = vsar_estimate_vspace(simulate_echo(cfg, motion, lam, 128), cfg)
            assert v_space == pytest.approx(fold.v_space, abs=0.01)
            measured.append(v_space)
        res = search_retrieve(FoldedObservation(tuple(measured), xi_e=0.05), cfg)
        assert res.v_hat == pytest.approx(truth, abs=0.01)


@pytest.mark.parametrize("f_p, v_r, f_hat, v_space", [
    (1200.0, -15.0, 600.0, -3.0),
    (600.0, -7.5, 300.0, 4.5),
])
def test_nyquist_bin_reads_the_lower_end_of_the_time_fold(f_p, v_r, f_hat, v_space):
    # v_r = -v_t/2 puts the noiseless Doppler peak exactly on bin nfft/2.
    # The model folds it to v_time = -v_t/2, i.e. Doppler +f_p/2, and both
    # estimates must read that side exactly, whatever the bin's float label.
    cfg = make_config(d=0.5, f_p=f_p, lambdas=(0.05, 0.06))
    cube = simulate_echo(cfg, TargetMotion(v_y=v_r, y_0=cfg.r_0), 0.05, 100)
    assert fold_per_wavelength(v_r, cfg)[0].v_space == pytest.approx(v_space)
    assert estimate_doppler(cube) == f_hat
    assert vsar_estimate_vspace(cube, cfg) == pytest.approx(v_space, abs=1e-9)


def full_cube_estimates(cube, cfg, zero_pad):
    """Reference: dechirp and FFT every channel, take channel 0's peak, then
    read the cross-channel sample as that column of the spectra."""
    n = cube.samples.shape[1]
    t = slow_time_axis(n, cube.f_p)
    dechirped = cube.samples * np.exp(-1j * np.pi * cube.doppler_rate * t**2)[None, :]
    nfft = n * SLOW_TIME_PAD
    spectra = np.fft.fft(dechirped, nfft, axis=1)
    doppler_bin = int(np.argmax(np.abs(spectra[0])))
    f_hat = -centered_remainder(-doppler_bin, nfft) * cube.f_p / nfft
    m = np.arange(cube.samples.shape[0], dtype=float)
    delta_s = cfg.d / (2.0 * cfg.v_a)
    vector = (spectra[:, doppler_bin] * np.exp(2j * np.pi * f_hat * m * delta_s)
              * np.exp(1j * np.pi * m**2 * cfg.d**2 / (cube.lam * cfg.r_0)))
    nfft_s = vector.size * zero_pad
    peak = int(np.argmax(np.abs(np.fft.fft(vector, nfft_s))))
    return f_hat, cube.lam / 2.0 * centered_remainder(-peak, nfft_s) / (nfft_s * delta_s)


def test_one_bin_estimates_match_the_full_cube_transform(reference_config):
    cfg = reference_config
    rng = np.random.default_rng(11)
    for trial in range(40):
        motion = TargetMotion(v_y=float(rng.uniform(-60, 60)), y_0=cfg.r_0)
        for lam, v_s in zip(cfg.lambdas, cfg.exact_moduli()[1]):
            cube = simulate_echo(cfg, motion, lam, 256, noise_db=10.0, seed=trial)
            for zero_pad in (50, 1000):
                f_ref, v_ref = full_cube_estimates(cube, cfg, zero_pad)
                assert estimate_doppler(cube) == f_ref
                quantum = float(v_s) / (cfg.m_ch * zero_pad)
                v_space = vsar_estimate_vspace(cube, cfg, zero_pad=zero_pad)
                assert abs(centered_remainder(v_space - v_ref, float(v_s))) <= quantum


def test_each_estimate_transforms_one_channel(reference_config, monkeypatch):
    fft, shapes = np.fft.fft, []

    def recording_fft(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recording_fft)
    cfg = reference_config
    cube = simulate_echo(cfg, TargetMotion(v_y=7.0, y_0=cfg.r_0), 0.05, 256)
    estimate_doppler(cube)
    assert shapes == [(256,)]
    shapes.clear()
    vsar_estimate_vspace(cube, cfg)
    assert shapes == [(256,), (cfg.m_ch,)]


@pytest.mark.parametrize("fill", [0.0, np.nan])
def test_cube_without_a_peak_is_refused(reference_config, fill):
    cube = SlowTimeCube(np.full((8, 256), fill, dtype=complex), 800.0, 0.05)
    with pytest.raises(EstimationFailure, match="no spectral peak"):
        estimate_doppler(cube)
    with pytest.raises(EstimationFailure, match="no spectral peak"):
        vsar_estimate_vspace(cube, reference_config)


def test_zero_pad_below_one_is_refused(reference_config):
    cfg = reference_config
    cube = simulate_echo(cfg, TargetMotion(v_y=7.0, y_0=cfg.r_0), 0.05, 64)
    with pytest.raises(ValueError, match="zero_pad"):
        vsar_estimate_vspace(cube, cfg, zero_pad=0)


def test_monte_carlo_is_identical_for_any_worker_count():
    cfg = make_config(lambdas=(0.05, 0.06, 0.07))
    serial = monte_carlo_rmse(cfg, [0.0, 0.1, 0.2], trials=6, seed=3, n_workers=1)
    pooled = monte_carlo_rmse(cfg, [0.0, 0.1, 0.2], trials=6, seed=3, n_workers=2)
    assert serial == pooled
    assert serial.to_csv() == pooled.to_csv()
    assert all(p.failures == 0 and p.rmse <= p.xi_e + 1e-9 for p in serial.points)


def test_monte_carlo_starts_at_most_one_worker_per_point(monkeypatch):
    # A stand-in pool that records its size and maps in this process, so
    # no worker is ever started.
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", FakePool)
    cfg = make_config()
    serial = monte_carlo_rmse(cfg, [0.1, 0.2], trials=3, seed=3)
    assert monte_carlo_rmse(cfg, [0.1, 0.2], trials=3, seed=3, n_workers=100_000) == serial
    assert sizes == [2]
    assert monte_carlo_rmse(cfg, [0.1], trials=3, seed=3, n_workers=100_000).points == \
        serial.points[:1]
    assert sizes == [2]


def test_monte_carlo_rejects_empty_runs(reference_config):
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_rmse(reference_config, [0.1], trials=0, seed=0)


def test_monte_carlo_curve_is_pinned():
    # Measured before the trials of a point were folded in one grid call.
    curve = monte_carlo_rmse(make_config(lambdas=(0.05, 0.06, 0.07)), [0.05, 0.1, 0.3],
                             trials=10, seed=11)
    assert [(p.xi_e, p.rmse, p.trials, p.failures) for p in curve.points] == [
        (0.05, 0.017422843756004985, 10, 0),
        (0.1, 0.029009521883209658, 10, 0),
        (0.3, 0.11331674159557285, 10, 1)]


def test_monte_carlo_folds_each_truth_as_the_scalar_fold(monkeypatch):
    cfg = make_config(lambdas=(0.05, 0.06, 0.07))
    seen = []

    def recording(obs, cfg):
        seen.append(obs)
        return search_retrieve(obs, cfg)

    monkeypatch.setattr(simulate, "search_retrieve", recording)
    monte_carlo_rmse(cfg, [0.0, 0.2], trials=25, seed=4)
    half = float(cfg.size_report().size) / 2
    expected = []
    for point, xi_e in enumerate([0.0, 0.2]):
        for trial in range(25):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=4, spawn_key=(point, trial)))
            folds = fold_per_wavelength(rng.uniform(-half, half), cfg)
            errors = rng.uniform(-xi_e, xi_e, size=3) if xi_e > 0 else np.zeros(3)
            expected.append(FoldedObservation(
                tuple(f.v_space + e for f, e in zip(folds, errors)), xi_e=xi_e))
    assert seen == expected


def test_monte_carlo_counts_each_kind_of_outcome(monkeypatch, reference_config):
    real = monte_carlo_rmse(reference_config, [0.5], trials=60, seed=2).points[0]
    assert real.ambiguous > 0 and real.no_solution == real.silent_gross == 0
    assert real.failures == real.ambiguous

    calls = []

    def stub(obs, cfg):
        calls.append(obs)
        if len(calls) % 3 == 1:
            raise AmbiguousSolutionError("stub")
        if len(calls) % 3 == 2:
            raise NoSolutionError("stub")
        result = search_retrieve(obs, cfg)
        return RetrievalResult(result.v_hat + 1.0, result.integers, result.method,
                               result.residual)

    monkeypatch.setattr(simulate, "search_retrieve", stub)
    point = monte_carlo_rmse(reference_config, [0.1], trials=9, seed=2).points[0]
    assert (point.ambiguous, point.no_solution, point.silent_gross) == (3, 3, 3)
    assert point.failures == 6
    assert point.rmse == pytest.approx(1.0, abs=0.2)
