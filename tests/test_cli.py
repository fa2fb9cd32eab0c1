"""Command-line front end: exit codes, manifests and per-subcommand options."""

import json

import pytest

from mfsar import fold_per_wavelength
from mfsar.cli import (EXIT_AMBIGUOUS, EXIT_CONFIG, EXIT_ESTIMATION,
                       EXIT_NO_SOLUTION, EXIT_OK, main)
from conftest import make_config


def write_config(tmp_path, **overrides) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(make_config(**overrides).to_dict()))
    return str(path)


def obs_args(values):
    return [f"--obs={i}={v!r}" for i, v in enumerate(values, 1)]


class TestExitCodes:
    def test_retrieve_prints_the_folded_truth(self, config_path, capsys):
        folds = fold_per_wavelength(17.0, make_config())
        code = main(["retrieve", "--config", config_path, "--json", "--xi-e", "0.1",
                     *obs_args(f.v_space for f in folds)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["v_hat"] == pytest.approx(17.0)

    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["classify", "--config", str(tmp_path / "missing.json")])
        assert code == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_crt_unfolds_past_the_correctable_bound(self, tmp_path, capsys):
        # Case II, v_s = (10, 12, 14) = 2*(5, 6, 7): the unfolds of these
        # remainders spread by 1.2, past m/2 = 1.
        path = write_config(tmp_path, d=0.6, lambdas=(0.05, 0.06, 0.07))
        code = main(["retrieve", "--config", path, "--method", "crt",
                     *obs_args((0.0, 0.6, 1.2))])
        assert code == EXIT_NO_SOLUTION
        assert "correctable bound" in capsys.readouterr().err

    def test_crafted_tie(self, config_path, capsys):
        # The tie of test_solvers: (3.0, 2.5) at xi_e 6 fits two velocities.
        code = main(["retrieve", "--config", config_path, "--xi-e", "6.0",
                     *obs_args((3.0, 2.5))])
        assert code == EXIT_AMBIGUOUS
        assert "distinct velocities" in capsys.readouterr().err

    def test_echo_buried_in_noise(self, config_path, capsys):
        code = main(["simulate", "--config", config_path, "--vr", "3.0",
                     "--noise-db", "-40", "--seed", "0"])
        assert code == EXIT_ESTIMATION
        assert "no spectral peak" in capsys.readouterr().err


def test_out_writes_a_manifest(tmp_path, config_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--config", config_path, "--vr", "8.36", "--seed", "7",
                 "--json", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["v_r"] == 8.36
    manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["config"] == json.loads(open(config_path).read())
    assert manifest["outputs"] == [str(out)]


def test_only_montecarlo_takes_threads(config_path, capsys):
    code = main(["montecarlo", "--config", config_path, "--threads", "1",
                 "--trials", "2", "--xi-start", "0.1", "--xi-step", "0.1", "--csv"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.startswith("xi_e,rmse,trials,failures\n")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", config_path, "--threads", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


def test_fold_estimated_column_is_the_observed_remainder(tmp_path, capsys):
    # Case I: the space fold leaves the time remainder unchanged.
    path = write_config(tmp_path, d=0.2)
    assert main(["fold", "--config", path, "--grid=-30:30:0.7"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 * 86
    for row in rows:
        _, _, v_time, _, v_space, n_s, estimated = row.split(",")
        assert estimated == v_space == v_time and n_s == "0"


@pytest.mark.parametrize("index", ["0", "3"])
@pytest.mark.parametrize("command", [
    ["simulate", "--vr", "3.0"],
    ["sweep", "--vary", "f_p", "--grid", "700:900:100"],
])
def test_lambda_index_outside_the_config_is_refused(config_path, capsys, command, index):
    code = main([*command, "--config", config_path, "--lambda-index", index])
    assert code == EXIT_CONFIG
    assert f"--lambda-index {index} outside 1..2" in capsys.readouterr().err


def test_grid_below_zero_may_follow_a_space(config_path, capsys):
    assert main(["fold", "--config", config_path, "--grid=-30:30:2.5"]) == EXIT_OK
    attached = capsys.readouterr().out
    assert main(["fold", "--config", config_path, "--grid", "-30:30:2.5"]) == EXIT_OK
    assert capsys.readouterr().out == attached
    assert main(["sweep", "--config", config_path, "--vary", "d",
                 "--grid", "-0.4:0.5:0.1"]) == EXIT_CONFIG
    assert "swept values must be positive" in capsys.readouterr().err


def test_sweep_prints_the_exact_blind_speed(config_path, capsys):
    # v_s = 0.06*120/0.4 = 18 m/s exactly, below v_t at every swept PRF.
    assert main(["sweep", "--config", config_path, "--vary", "f_p",
                 "--grid", "700:900:100", "--lambda-index", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "f_p,size\n700.0,18.0\n800.0,18.0\n"
