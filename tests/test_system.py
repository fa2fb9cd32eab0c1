"""System classification, derived quantities, and the JSON config contract."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mfsar import (CaseId, ConfigurationError, FoldedObservation,
                   ModulusPair, RadarConfig, azimuth_shift, classify_case,
                   config_from_dict, determinable_size, fold_per_wavelength,
                   forward_fold, load_config, max_azimuth_shift,
                   search_retrieve, sweep_determinable_size,
                   unambiguous_range)
from mfsar import enumeration
from conftest import make_config


class TestClassifyCase:
    def test_narrow_spacing_is_case1(self):
        cfg = make_config(d=0.2)
        assert classify_case(cfg) is CaseId.I
        assert cfg.ratio() == Fraction(2, 3)

    def test_dpca_spacing_is_case2(self):
        cfg = make_config(d=0.6)
        assert classify_case(cfg) is CaseId.II
        assert cfg.ratio() == 2

    def test_generic_spacing_is_case3(self):
        cfg = make_config(d=0.4)
        assert classify_case(cfg) is CaseId.III
        assert cfg.ratio() == Fraction(4, 3)

    def test_exactly_one_case_holds(self):
        # The three conditions partition every positive configuration.
        for d in np.linspace(0.05, 1.2, 24):
            case = classify_case(make_config(d=round(float(d), 3)))
            ratio = round(float(d), 3) * 800 / 240
            if ratio < 1:
                assert case is CaseId.I
            elif abs(ratio - round(ratio)) < 1e-9:
                assert case is CaseId.II
            else:
                assert case is CaseId.III

    def test_ratio_with_a_large_denominator_is_accepted(self):
        # Any rationalised d, f_p and v_a give an exact ratio; the sizing's
        # own guards bound its work, not the ratio's denominator.
        cfg = make_config(d=0.1234)
        assert classify_case(cfg) is CaseId.I
        assert cfg.ratio() == Fraction(617, 1500)
        cfg = make_config(d=0.4123)
        assert cfg.ratio() == Fraction(4123, 3000)
        report = cfg.size_report()
        assert report.size == report.v_ub == 120
        assert report.v_lb == Fraction(120, 4123)

    def test_irrational_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config(d=0.4 * np.sqrt(2))

    def test_inputs_rationalised_like_the_solvers(self):
        # 0.4000000001 is not the decimal 2/5 the solvers would use, so the
        # config is rejected rather than classified by a nearby ratio.
        with pytest.raises(ConfigurationError, match="incommensurable"):
            make_config(d=0.4000000001)
        # Six-decimal wavelengths keep their exact value.
        cfg = make_config(lambdas=(0.031067, 0.05))
        assert cfg.exact_moduli()[0][0] == Fraction(31067, 10**6) * 400


class TestDerivedQuantities:
    @pytest.mark.parametrize("d, case_id", [(0.2, CaseId.I), (0.4, CaseId.III),
                                            (0.6, CaseId.II)])
    def test_observed_moduli_follow_the_case(self, d, case_id):
        cfg = make_config(d=d)
        assert classify_case(cfg) is case_id
        vts, vss = cfg.exact_moduli()
        assert cfg.observed_moduli() == (vts if case_id is CaseId.I else vss)

    def test_case_is_classified_once(self, monkeypatch):
        cfg = make_config()
        monkeypatch.setattr(RadarConfig, "ratio", None)
        assert classify_case(cfg) is classify_case(cfg)
        assert classify_case(cfg) is CaseId.III
        assert "_size_report" not in vars(cfg) and "_fold_cells" not in vars(cfg)

    def test_size_report_is_the_enumerated_size(self, reference_config):
        assert reference_config.size_report() == determinable_size(
            *reference_config.exact_moduli())
        assert reference_config.size_report().size == 120

    def test_enumeration_runs_once_per_config(self, monkeypatch):
        calls = []
        real = enumeration.determinable_size

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(enumeration, "determinable_size", counted)
        cfg = make_config()
        assert calls == []      # not at construction
        folds = fold_per_wavelength(17.0, cfg)
        obs = FoldedObservation(tuple(f.v_space for f in folds), xi_e=0.1)
        for _ in range(2):
            assert search_retrieve(obs, cfg).v_hat == pytest.approx(17.0)
        assert len(calls) == 1

    # Cell counts read before the cells were cut from the sizing's table; the
    # two-band pairs are the d 0.4 configs of the benchmark's config sweep.
    @pytest.mark.parametrize("lambdas, count", [((0.05, 0.06), 33),
                                                ((0.05, 0.06, 0.07), 315),
                                                ((0.07, 0.08), 15),
                                                ((0.02, 0.03), 15),
                                                ((0.03, 0.04), 3),
                                                ((0.04, 0.05), 7),
                                                ((0.06, 0.07), 39),
                                                ((0.08, 0.09), 15),
                                                ((0.09, 0.1), 57),
                                                ((0.1, 0.11), 63),
                                                ((0.11, 0.12), 15)])
    def test_fold_cells_refine_every_band_fold(self, lambdas, count):
        cfg = make_config(lambdas=lambdas)
        cells = cfg.fold_cells()
        assert cfg.fold_cells() is cells
        half = float(cfg.size_report().size) / 2
        assert len(cells.lo) == count
        assert cells.lo[0] == -half and cells.hi[-1] == half
        assert (cells.lo[1:] == cells.hi[:-1]).all() and (cells.lo < cells.hi).all()
        vts, vss = cfg.exact_moduli()
        for k, (lo, hi) in enumerate(zip(cells.lo, cells.hi)):
            for i, (vt, vs) in enumerate(zip(vts, vss)):
                pair = ModulusPair(float(vt), float(vs))
                for v in (lo, (lo + hi) / 2, np.nextafter(hi, lo)):
                    fold = forward_fold(v, pair)
                    assert (fold.n_t, fold.n_s) == (cells.n_t[k, i], cells.n_s[k, i])
                assert cells.by_band[i, k] == pytest.approx(
                    fold.n_t * float(vt) + fold.n_s * float(vs))
        # What the search reads on every call, compiled with the cells.
        bands = len(lambdas)
        assert cells.by_band.flags.c_contiguous and cells.by_band.shape == (bands, count)
        assert (cells.widths == cells.hi - cells.lo).all()
        assert cells.moduli.tolist() == [float(m) for m in cfg.observed_moduli()]
        assert cells.wraps.shape == (bands, 3 ** bands)
        assert len({tuple(w) for w in cells.wraps.T}) == 3 ** bands
        assert set(cells.wraps.ravel()) == {-1, 0, 1}
        assert (cells.wrap_shifts == cells.wraps * cells.moduli[:, None]).all()
        assert cells.v_ub == float(cfg.size_report().v_ub)

    def test_fold_table_is_built_once_per_config(self, monkeypatch):
        calls = []
        real = enumeration._fold_table

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(enumeration, "_fold_table", counted)
        cfg = make_config(lambdas=(0.05, 0.06, 0.07))
        cfg.size_report()
        cells = cfg.fold_cells()
        folds = fold_per_wavelength(17.0, cfg)
        obs = FoldedObservation(tuple(f.v_space for f in folds), xi_e=0.1)
        for _ in range(2):
            assert search_retrieve(obs, cfg).v_hat == pytest.approx(17.0)
        assert len(calls) == 1
        # The report keeps the whole period's table; the cells are its rows
        # that meet the determinable range.
        scale, lo, hi, _, _ = cfg.size_report().fold_table
        assert len(lo) > len(cells.lo) and lo[0] == -cfg.size_report().v_ub / 2 * scale

    def test_kept_table_stays_out_of_equality(self, reference_config):
        report = reference_config.size_report()
        bare = enumeration.EnumerationReport(report.size, report.v_lb, report.v_ub,
                                             report.collision_pair)
        assert report.fold_table is not None and bare.fold_table is None
        assert report == bare and hash(report) == hash(bare) and repr(report) == repr(bare)

    def test_cached_size_stays_out_of_equality(self):
        cfg, fresh = make_config(), make_config()
        cfg.size_report()
        assert cfg == fresh and hash(cfg) == hash(fresh)


class TestUnambiguousRange:
    def test_case1(self):
        cfg = make_config(d=0.2, lambdas=(0.03,))
        assert unambiguous_range(cfg, 0.03) == pytest.approx((-6, 6))

    def test_case2(self):
        cfg = make_config(d=0.6, lambdas=(0.03,))
        assert unambiguous_range(cfg, 0.03) == pytest.approx((-3, 3))

    def test_case3(self):
        cfg = make_config()
        assert unambiguous_range(cfg, 0.05) == pytest.approx((-7.5, 7.5))

    def test_wavelength_outside_the_system_rejected(self):
        with pytest.raises(ConfigurationError, match="not one of"):
            unambiguous_range(make_config(), 0.07)


class TestAzimuthShift:
    def test_worked_values(self, reference_config):
        assert azimuth_shift(8.3691, reference_config) == pytest.approx(-697.425)
        assert azimuth_shift(0.0, reference_config) == 0.0
        assert azimuth_shift(-6.5492, reference_config) == pytest.approx(545.77, abs=5e-3)

    def test_odd_and_linear(self, reference_config):
        for v in (0.5, 3.0, 9.9):
            assert azimuth_shift(-v, reference_config) == -azimuth_shift(v, reference_config)
        assert azimuth_shift(2.0, reference_config) == pytest.approx(
            2 * azimuth_shift(1.0, reference_config))

    def test_bounded_by_max_shift(self, reference_config):
        for lam in reference_config.lambdas:
            v_t = lam * reference_config.f_p / 2
            bound = max_azimuth_shift(reference_config, lam)
            for v_time in np.linspace(-v_t / 2, v_t / 2, 33, endpoint=False):
                assert abs(azimuth_shift(float(v_time), reference_config)) <= bound + 1e-9


class TestMaxAzimuthShift:
    def test_values(self, reference_config):
        assert max_azimuth_shift(reference_config, 0.05) == pytest.approx(2500 / 3)
        assert max_azimuth_shift(reference_config, 0.06) == pytest.approx(1000)

    def test_linear_in_wavelength(self, reference_config):
        assert max_azimuth_shift(reference_config, 0.10) == pytest.approx(
            2 * max_azimuth_shift(reference_config, 0.05))


class TestSweepDeterminableSize:
    def test_grows_with_prf_then_saturates(self, reference_config):
        lam = 0.05
        breakpoint_fp = 2 * reference_config.v_a / reference_config.d  # 600 Hz
        below = sweep_determinable_size(reference_config, lam, "f_p", [100, 300, 500])
        sizes = [s for _, s in below]
        assert sizes == pytest.approx([lam * f / 2 for f in (100, 300, 500)])
        assert sizes == sorted(sizes)
        above = sweep_determinable_size(reference_config, lam, "f_p", [700, 900, 2000])
        assert [s for _, s in above] == pytest.approx([15.0, 15.0, 15.0])
        at_break = sweep_determinable_size(reference_config, lam, "f_p",
                                           [breakpoint_fp])[0][1]
        assert at_break == pytest.approx(lam * breakpoint_fp / 2)
        assert at_break == pytest.approx(15.0)

    def test_bad_axis_rejected(self, reference_config):
        with pytest.raises(ConfigurationError):
            sweep_determinable_size(reference_config, 0.05, "r_0", [1.0])

    def test_nonpositive_grid_rejected(self, reference_config):
        with pytest.raises(ConfigurationError):
            sweep_determinable_size(reference_config, 0.05, "d", [0.0])


class TestConfigJson:
    def test_load_roundtrip(self, config_path):
        cfg = load_config(config_path)
        assert cfg.d == 0.4 and cfg.lambdas == (0.05, 0.06)

    def test_unknown_field_rejected(self, tmp_path):
        data = make_config().to_dict()
        data["antenna_gain"] = 30.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="unknown"):
            load_config(path)

    def test_missing_field_rejected(self, tmp_path):
        data = make_config().to_dict()
        del data["f_p"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="missing"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)

    @pytest.mark.parametrize("field, value", [
        ("d", math.inf), ("f_p", math.inf), ("v_a", math.inf),
        ("lambdas", [0.05, math.inf]), ("r_0", math.inf), ("t_s", math.inf),
        ("b_w", math.inf), ("t_pulse", math.inf), ("f_s", math.nan),
    ])
    def test_non_finite_value_rejected(self, field, value):
        data = make_config().to_dict()
        data[field] = value
        with pytest.raises(ConfigurationError, match="not finite"):
            config_from_dict(data)

    @pytest.mark.parametrize("m_ch", [8.5, 1, math.inf, math.nan])
    def test_channel_count_must_be_whole(self, m_ch):
        # 8.5 channels would be simulated as 9.
        data = dict(make_config().to_dict(), m_ch=m_ch)
        with pytest.raises(ConfigurationError, match="m_ch must be a whole number"):
            config_from_dict(data)

    def test_whole_float_channel_count_accepted(self):
        assert config_from_dict(dict(make_config().to_dict(), m_ch=8.0)).m_ch == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_config(m_ch=1)
        with pytest.raises(ConfigurationError):
            make_config(lambdas=(0.06, 0.05))
        with pytest.raises(ConfigurationError):
            make_config(v_a=-120.0)


class TestSawtoothComposition:
    """Folding an ascending velocity ramp reproduces the per-case periodic
    estimated-velocity pattern, with the period the case dictates."""

    def _estimated(self, cfg, lam, v_grid):
        f_p = Fraction(cfg.f_p)
        v_a = Fraction(cfg.v_a)
        d = Fraction(cfg.d).limit_denominator(10**6)
        pair = ModulusPair(lam * f_p / 2, lam * v_a / d)
        case = classify_case(cfg)
        out = []
        for v in v_grid:
            fold = forward_fold(v, pair)
            out.append(fold.v_time if case is CaseId.I else fold.v_space)
        return out

    def test_case1_period_is_time_blind_speed(self):
        cfg = make_config(d=0.2, lambdas=(0.03,))
        grid = [Fraction(k, 4) for k in range(-100, 100)]
        est = self._estimated(cfg, Fraction(3, 100), grid)
        shifted = self._estimated(cfg, Fraction(3, 100),
                                  [v + 12 for v in grid])
        assert est == shifted

    def test_case2_period_is_space_blind_speed(self):
        cfg = make_config(d=0.6, lambdas=(0.03,))
        grid = [Fraction(k, 4) for k in range(-100, 100)]
        est = self._estimated(cfg, Fraction(3, 100), grid)
        shifted = self._estimated(cfg, Fraction(3, 100), [v + 6 for v in grid])
        assert est == shifted
        # and the time blind speed is *not* a period here
        assert est != self._estimated(cfg, Fraction(3, 100), [v + 3 for v in grid])

    def test_case3_period_is_enumerated_size(self):
        cfg = make_config()
        report = determinable_size([20, 24], [15, 18])
        period = int(report.size)
        for lam in (Fraction(1, 20), Fraction(3, 50)):
            grid = [Fraction(k, 2) for k in range(-60, 60)]
            est = self._estimated(cfg, lam, grid)
            shifted = self._estimated(cfg, lam, [v + period for v in grid])
            assert est == shifted
