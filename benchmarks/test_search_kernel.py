"""Warm timing of the case III search kernel at 2, 3 and 4 bands.

Run with ``python -m pytest benchmarks --benchmark-only``; the directory lies
outside the test suite's ``testpaths``, so a plain ``pytest`` never runs it.

Each round retrieves one fixed seeded batch of observations on a reference
config (d 0.4 m, λ from 0.05 m in 0.01 m steps), after the config's fold
cells have been compiled, so the time is the kernel's alone.  Divide the mean
by ``BATCH`` for the time per call.
"""

import numpy as np
import pytest

from mfsar import (AmbiguousSolutionError, FoldedObservation, RadarConfig,
                   fold_per_wavelength, search_retrieve)

BATCH = 200
XI_E = 0.1


def _batch(bands):
    cfg = RadarConfig(d=0.4, v_a=120.0, f_p=800.0, r_0=10000.0, m_ch=8,
                      lambdas=tuple(round(0.05 + 0.01 * i, 2) for i in range(bands)),
                      t_s=1.0, b_w=80e6, t_pulse=2.25e-6, f_s=100e6)
    half = float(cfg.size_report().size) / 2
    rng = np.random.default_rng(bands)
    batch = []
    for truth in rng.uniform(-half, half, BATCH):
        noise = rng.uniform(-XI_E, XI_E, bands)
        batch.append(FoldedObservation(tuple(
            f.v_space + e for f, e in zip(fold_per_wavelength(float(truth), cfg), noise)),
            xi_e=XI_E))
    cfg.fold_cells()
    return cfg, batch


def _retrieve_all(cfg, batch):
    for obs in batch:
        try:
            search_retrieve(obs, cfg)
        except AmbiguousSolutionError:
            pass


@pytest.mark.parametrize("bands", [2, 3, 4])
def test_warm_search(benchmark, bands):
    cfg, batch = _batch(bands)
    _retrieve_all(cfg, batch)
    benchmark(_retrieve_all, cfg, batch)
