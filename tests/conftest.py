import json

import pytest
from hypothesis import settings

from mfsar import RadarConfig

# The same examples on every run, and no per-example deadline: a slow or busy
# machine must not fail a property that holds.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")

# Dual-band reference system used throughout: channel spacing 0.4 m, platform
# 120 m/s, PRF 800 Hz, carriers 5/6 cm -> blind speeds (20, 15) and (24, 18).
REFERENCE = dict(d=0.4, v_a=120.0, f_p=800.0, r_0=10000.0, m_ch=8,
                 lambdas=(0.05, 0.06), t_s=1.0, b_w=80e6, t_pulse=2.25e-6,
                 f_s=100e6)


def make_config(**overrides) -> RadarConfig:
    params = dict(REFERENCE)
    params.update(overrides)
    return RadarConfig(**params)


@pytest.fixture
def reference_config() -> RadarConfig:
    return make_config()


@pytest.fixture
def config_path(tmp_path):
    """Reference config written to disk for CLI runs."""
    path = tmp_path / "config.json"
    data = dict(REFERENCE)
    data["lambdas"] = list(data["lambdas"])
    path.write_text(json.dumps(data))
    return str(path)
