"""Command-line front end: exit codes, manifests and per-subcommand options."""

import json
from types import SimpleNamespace

import pytest

import mfsar
from mfsar import cli, fold_per_wavelength, unambiguous_range
from mfsar.cli import (EXIT_AMBIGUOUS, EXIT_CONFIG, EXIT_ESTIMATION,
                       EXIT_NO_SOLUTION, EXIT_OK, build_parser, main)
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

    @pytest.mark.parametrize("xi_e", ["nan", "inf"])
    def test_error_bound_not_finite(self, config_path, capsys, xi_e):
        code = main(["retrieve", "--config", config_path, "--xi-e", xi_e,
                     "--obs", "1=1.0", "--obs", "2=2.0"])
        assert code == EXIT_CONFIG
        assert "xi_e must be a finite number" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        code = main(["classify", "--config", str(tmp_path / "missing.json")])
        assert code == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["d", "f_p", "v_a", "lambdas",
                                       "r_0", "t_s", "b_w", "t_pulse", "f_s"])
    def test_infinite_config_value(self, tmp_path, capsys, field):
        data = make_config().to_dict()
        data[field] = [0.05, float("inf")] if field == "lambdas" else float("inf")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))       # written as Infinity
        assert main(["classify", "--config", str(path)]) == EXIT_CONFIG
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, argv", [
        # Case I, v_t (12.5, 15): the former 1 m/s walk repeated at 76 > v_ub 75.
        (dict(d=0.3, f_p=500.0), ["enumerate", "--pairs", "0.05,0.06"]),
        # Case I, v_t (1.8315, 9.99): no repeat within that walk's cap.
        (dict(d=0.3, f_p=333.0), ["enumerate", "--pairs", "0.011,0.06"]),
        # Case III, v_t (5, 5.4): the search sized its range by the same walk.
        # The exact size is 145/2, and these are the remainders of 17 m/s.
        (dict(lambdas=(0.0125, 0.0135)),
         ["retrieve", "--method", "search", "--xi-e", "0.02", *obs_args((-1.75, 0.8))]),
    ])
    def test_walk_that_cannot_size(self, tmp_path, capsys, overrides, argv):
        # Configs the 1 m/s walk refused with exit 2 are sized exactly now.
        code = main([*argv, "--config", write_config(tmp_path, **overrides)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_ratio_with_a_large_denominator(self, tmp_path, capsys):
        # Case I with ratio 617/1500: a ratio's denominator above 1000 is no
        # reason to refuse a config.  The observations are the folds of 17 m/s.
        path = write_config(tmp_path, d=0.1234)
        assert main(["classify", "--config", path]) == EXIT_OK
        assert capsys.readouterr().out.startswith("Case I\n")
        folds = fold_per_wavelength(17.0, make_config(d=0.1234))
        code = main(["retrieve", "--config", path, "--json", "--xi-e", "0.1",
                     *obs_args(f.v_space for f in folds)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["v_hat"] == pytest.approx(17.0)

    def test_odd_period_is_sized(self, tmp_path, capsys):
        # Case I, v_t (25, 75), v_s (200, 600): v_ub = 75 is odd, and the
        # remainder vector first repeats at +-75/2.
        path = write_config(tmp_path, d=0.03, f_p=1000.0)
        code = main(["enumerate", "--config", path, "--pairs", "0.05,0.15", "--csv"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "0.05,0.15,25,200,75,600,75,75,75"

    def test_fractional_channel_count(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(make_config().to_dict(), m_ch=8.5)))
        assert main(["simulate", "--config", str(path), "--vr", "3.3"]) == EXIT_CONFIG
        assert "m_ch must be a whole number" in capsys.readouterr().err

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
    with open(config_path) as handle:
        assert manifest["config"] == json.load(handle)
    assert manifest["outputs"] == [str(out)]
    assert list(manifest) == ["subcommand", "config", "seed", "outputs", "version"]
    assert manifest["version"] == mfsar.__version__


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


def test_grids_take_whole_steps_before_their_end(config_path, capsys):
    assert main(["sweep", "--config", config_path, "--vary", "d",
                 "--grid", "0.1:0.4:0.1"]) == EXIT_OK
    assert [row.split(",")[0] for row in capsys.readouterr().out.splitlines()] == [
        "d", "0.1", "0.2", "0.3"]
    assert main(["fold", "--config", config_path, "--grid=-0.3:0:0.1"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["-0.3", "-0.2", "-0.1"] * 2
    # 0.3 - 3*0.1 rounds to -0.0.
    assert main(["montecarlo", "--config", config_path, "--trials", "1",
                 "--xi-start", "0.3", "--xi-step", "0.1", "--csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].startswith("0.0,")


@pytest.mark.parametrize("argv", [
    ["simulate", "--vr", "nan"],
    ["simulate", "--vr", "3.0", "--vx", "inf"],
    ["simulate", "--vr", "3.0", "--noise-db", "nan"],
    ["fold", "--vr", "inf"],
    ["fold", "--grid=-inf:0:0.1"],
    ["fold", "--grid=0:1:nan"],
    ["sweep", "--vary", "f_p", "--grid", "700:inf:100"],
    ["montecarlo", "--trials", "1", "--xi-start", "inf"],
    ["montecarlo", "--trials", "1", "--xi-stop=-inf"],
    ["montecarlo", "--trials", "1", "--xi-step", "nan"],
])
def test_non_finite_numbers_are_refused(config_path, capsys, argv):
    assert main([argv[0], "--config", config_path, *argv[1:]]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_sweep_prints_the_exact_blind_speed(config_path, capsys):
    # v_s = 0.06*120/0.4 = 18 m/s exactly, below v_t at every swept PRF.
    assert main(["sweep", "--config", config_path, "--vary", "f_p",
                 "--grid", "700:900:100", "--lambda-index", "2"]) == EXIT_OK
    assert capsys.readouterr().out == "f_p,size\n700.0,18.0\n800.0,18.0\n"


def test_threads_default_to_one_when_montecarlo_runs(config_path, monkeypatch):
    workers = []

    def fake_monte_carlo_rmse(cfg, xi_grid, trials, seed, n_workers):
        workers.append(n_workers)
        return SimpleNamespace(points=[])

    monkeypatch.setattr(cli, "monte_carlo_rmse", fake_monte_carlo_rmse)
    montecarlo = ["montecarlo", "--config", config_path, "--trials", "1"]
    assert main(montecarlo) == EXIT_OK
    assert main([*montecarlo, "--threads", "2"]) == EXIT_OK
    assert workers == [1, 2]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_are_refused(config_path, capsys, threads):
    code = main(["montecarlo", "--config", config_path, "--trials", "1",
                 "--xi-start", "0.1", "--xi-step", "0.1", f"--threads={threads}"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n_workers must be >= 1, got {threads}" in captured.err


@pytest.mark.parametrize("chunk", ["0.05", "0.05,0.06,0.07"])
def test_enumerate_names_a_malformed_pair(config_path, capsys, chunk):
    code = main(["enumerate", "--config", config_path, "--pairs", f"0.03,0.04;{chunk}"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("--pairs takes lambda1,lambda2 pairs separated by ';', "
            f"got {chunk!r}") in captured.err


def test_fold_needs_a_velocity_or_a_grid(config_path, capsys):
    assert main(["fold", "--config", config_path]) == EXIT_CONFIG
    assert "fold needs --vr or --grid" in capsys.readouterr().err


@pytest.mark.parametrize("xi", [
    ["--xi-step", "0"],
    ["--xi-step", "-0.05"],
    ["--xi-start", "0.1", "--xi-stop", "0.3"],
])
def test_montecarlo_refuses_a_bad_xi_grid(config_path, capsys, xi):
    code = main(["montecarlo", "--config", config_path, "--trials", "1", *xi])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad xi grid" in captured.err


def test_montecarlo_text_splits_the_outcomes(config_path, capsys):
    code = main(["montecarlo", "--config", config_path, "--trials", "40",
                 "--xi-start", "0.5", "--xi-step", "0.5", "--xi-stop", "0.5"])
    assert code == EXIT_OK
    curve = mfsar.monte_carlo_rmse(make_config(), [0.5], trials=40, seed=0)
    p = curve.points[0]
    assert p.ambiguous > 0
    assert capsys.readouterr().out == (
        f"xi_e 0.50: rmse {p.rmse:.4f} m/s (40 trials, {p.ambiguous} failures: "
        f"{p.ambiguous} ambiguous, 0 no solution; 0 silent gross)\n")


@pytest.mark.parametrize("xi,grid", [
    ([], [round(1.0 - 0.05 * k, 10) for k in range(21)]),
    (["--xi-start", "0.3", "--xi-step", "0.1"], [0.3, 0.2, 0.1, 0.0]),
    # A third step of 0.6 would reach -0.2.
    (["--xi-step", "0.6"], [1.0, 0.4]),
])
def test_montecarlo_xi_grid_ends_at_its_stop(config_path, monkeypatch, xi, grid):
    grids = []
    monkeypatch.setattr(cli, "monte_carlo_rmse", lambda cfg, xi_grid, **kw:
                        grids.append(xi_grid) or SimpleNamespace(points=[]))
    assert main(["montecarlo", "--config", config_path, "--trials", "1", *xi]) == EXIT_OK
    assert grids == [grid]


class TestObservationCsv:
    def retrieve(self, config_path, *extra):
        return main(["retrieve", "--config", config_path, "--json", "--xi-e", "0.1",
                     *extra])

    def test_answers_as_the_same_obs_do(self, tmp_path, config_path, capsys):
        folds = fold_per_wavelength(17.0, make_config())
        path = tmp_path / "obs.csv"
        path.write_text("lambda,v_space\n" + "".join(
            f"{lam!r},{f.v_space!r}\n" for lam, f in zip((0.05, 0.06), folds)))
        assert self.retrieve(config_path, "--obs-csv", str(path)) == EXIT_OK
        from_csv = capsys.readouterr().out
        assert self.retrieve(config_path, *obs_args(f.v_space for f in folds)) == EXIT_OK
        assert capsys.readouterr().out == from_csv
        assert json.loads(from_csv)["v_hat"] == pytest.approx(17.0)

    @pytest.mark.parametrize("text,message", [
        ("wavelength,v_space\n0.05,1.0\n0.06,2.0\n", "must have header lambda,v_space"),
        ("lambda,v_space\n0.05,1.0\n0.07,2.0\n", "wavelength 0.07 not in config"),
        ("lambda,v_space\n0.05,1.0\n0.06\n", "line 3 has no v_space"),
        (None, "cannot read observations"),
        ("lambda,v_space\n0.05,1.0\n0.06,2.0\n0.05,5.0\n",
         "wavelength 0.05 (index 1) observed twice"),
    ])
    def test_bad_file_is_refused(self, tmp_path, config_path, capsys, text, message):
        path = tmp_path / "obs.csv"
        if text is not None:
            path.write_text(text)
        assert self.retrieve(config_path, "--obs-csv", str(path)) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


    def test_wavelength_observed_by_a_row_and_an_obs(self, tmp_path, config_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text("lambda,v_space\n0.05,1.0\n")
        assert self.retrieve(config_path, "--obs-csv", str(path), "--obs=1=1.0",
                             "--obs=2=2.0") == EXIT_CONFIG
        assert "wavelength 0.05 (index 1) observed twice" in capsys.readouterr().err


class TestRetrieveMethod:
    def retrieve(self, path, truth, cfg, *extra):
        # Case I measures the time remainder, cases II and III the space one.
        time = cfg.ratio() < 1
        folds = fold_per_wavelength(truth, cfg)
        return main(["retrieve", "--config", path, "--json", "--xi-e", "0.1",
                     *obs_args(f.v_time if time else f.v_space for f in folds), *extra])

    def test_crt_in_case3_warns_of_its_range(self, config_path, capsys):
        assert self.retrieve(config_path, 7.0, make_config(), "--method", "crt") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["v_hat"] == pytest.approx(7.0)
        assert payload["method"] == "closed_form_crt"
        assert payload["warnings"] == [
            "reduced-modulus retrieval is only valid for |v_r| < 15 m/s; a true "
            "velocity outside that range aliases into it undetected"]

    def test_crt_in_case1(self, tmp_path, capsys):
        overrides = dict(d=0.2, lambdas=(0.03, 0.04))
        path = write_config(tmp_path, **overrides)
        assert self.retrieve(path, 17.0, make_config(**overrides),
                             "--method", "crt") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["v_hat"] == pytest.approx(17.0)
        assert payload["warnings"] == []

    def test_theorem1_is_not_a_method(self, config_path):
        with pytest.raises(SystemExit) as exc:
            self.retrieve(config_path, 7.0, make_config(), "--method", "theorem1")
        assert exc.value.code == EXIT_CONFIG

    @pytest.mark.parametrize("d,method", [(0.2, "closed_form_crt"),
                                          (0.6, "closed_form_crt"), (0.4, "search")])
    def test_auto_takes_the_closed_form_in_cases_1_and_2(self, tmp_path, capsys, d, method):
        path = write_config(tmp_path, d=d)
        assert self.retrieve(path, 17.0, make_config(d=d), "--method", "auto") == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["v_hat"] == pytest.approx(17.0)
        assert payload["method"] == method
        assert payload["warnings"] == []

    @pytest.mark.parametrize("obs", [
        ["--obs", "1=1.0", "--obs", "1=5.0", "--obs", "2=2.0"],
        ["--obs", "1=1.0", "--obs", "2=2.0", "--obs", "1=1.0"],
    ])
    def test_wavelength_observed_twice(self, config_path, capsys, obs):
        # The second value used to replace the first: 50.0 m/s from 5.0.
        code = main(["retrieve", "--config", config_path, "--xi-e", "0.1", *obs])
        assert code == EXIT_CONFIG
        assert "wavelength 0.05 (index 1) observed twice" in capsys.readouterr().err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_rejected_argv_leaves_the_parser_usable(self, config_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", config_path, "--threads", "1"])
        assert exc.value.code == 2
        folds = fold_per_wavelength(17.0, make_config())
        assert main(["retrieve", "--config", config_path, "--json", "--xi-e", "0.1",
                     *obs_args(f.v_space for f in folds)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["v_hat"] == pytest.approx(17.0)

    def test_obs_do_not_carry_over_between_calls(self, config_path, capsys):
        for truth in (17.0, -23.5):
            folds = fold_per_wavelength(truth, make_config())
            assert main(["retrieve", "--config", config_path, "--json",
                         "--xi-e", "0.1", *obs_args(f.v_space for f in folds)]) == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            assert payload["v_hat"] == pytest.approx(truth)
        # One wavelength short: a leaked --obs from the calls above would fill it.
        assert main(["retrieve", "--config", config_path, "--obs=1=3.0"]) == EXIT_CONFIG
        assert "1 given for 2" in capsys.readouterr().err

    def test_subcommand_is_looked_up_when_main_runs(self, config_path, monkeypatch):
        assert main(["classify", "--config", config_path]) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_retrieve",
                            lambda args, cfg: seen.append(args.obs) or 42)
        assert main(["retrieve", "--config", config_path, "--obs=1=3.0"]) == 42
        assert seen == [["1=3.0"]]


@pytest.mark.parametrize("d", [0.2, 0.4, 0.6])
def test_classify_range_is_each_wavelengths_unambiguous_range(tmp_path, capsys, d):
    cfg = make_config(d=d)
    path = write_config(tmp_path, d=d)
    assert main(["classify", "--config", path, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == {0.2: "I", 0.4: "III", 0.6: "II"}[d]
    assert report["unambiguous_range"] == [list(unambiguous_range(cfg, lam))
                                           for lam in cfg.lambdas]
