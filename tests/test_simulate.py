"""Slow-time simulator, estimators and the Monte Carlo harness."""

import numpy as np
import pytest

from mfsar import (FoldedObservation, TargetMotion, fold_per_wavelength,
                   monte_carlo_rmse, search_retrieve, simulate_echo,
                   vsar_estimate_vspace)
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


def test_monte_carlo_is_identical_for_any_worker_count():
    cfg = make_config(lambdas=(0.05, 0.06, 0.07))
    serial = monte_carlo_rmse(cfg, [0.0, 0.1, 0.2], trials=6, seed=3, n_workers=1)
    pooled = monte_carlo_rmse(cfg, [0.0, 0.1, 0.2], trials=6, seed=3, n_workers=2)
    assert serial == pooled
    assert serial.to_csv() == pooled.to_csv()
    assert all(p.failures == 0 and p.rmse <= p.xi_e + 1e-9 for p in serial.points)


def test_monte_carlo_rejects_empty_runs(reference_config):
    with pytest.raises(ValueError, match="trials"):
        monte_carlo_rmse(reference_config, [0.1], trials=0, seed=0)
