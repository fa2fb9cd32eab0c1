"""Retrieval solvers: goldens, noise robustness, and failure reporting.

The dense-scan oracle is the authority whenever solvers are cross-checked:
it shares no integer machinery with the reconstruction paths.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mfsar import (AmbiguousSolutionError, CaseId, ConfigurationError,
                   FoldedObservation, ModulusPair, NoSolutionError,
                   brute_force_oracle, classify_case, crt_range, crt_solve,
                   fold_per_wavelength, forward_fold, robust_crt,
                   search_retrieve)
from mfsar import solvers
from conftest import make_config

# Five benchmark targets of the dual-band reference system: true velocity,
# measured remainders, expected folding integers, and the two solver columns
# (search midrange, reduced-modulus closed form).  The closed-form answers for
# the last two are deliberately wrong: those truths sit outside the +-15 m/s
# validity interval of the reduced solver.  Every remainder lies within 0.2
# of the truth's fold, below the config's robustness radius of 0.25 m/s.
BENCHMARK_TARGETS = [
    # (truth, obs1, obs2, n_t1, n_s1, n_t2, n_s2, v_search, v_closed)
    (8.36, -6.5791, 8.3173, 0, 1, 0, 0, 8.3691, 8.3691),
    (13.46, -6.4708, 7.3716, 1, 0, 1, -1, 13.4504, 13.4504),
    (17.01, -3.1730, -6.7979, 1, 0, 1, 0, 17.0146, -12.9855),
    (-11.03, -5.8834, 6.9664, -1, 1, 0, -1, -10.9585, -10.9585),
    (-16.87, 3.1043, 7.1790, -1, 0, -1, 0, -16.8584, 13.1417),
]


@pytest.mark.parametrize("xi_e", [-0.1, np.nan, np.inf, -np.inf])
def test_error_bound_must_be_finite_and_non_negative(xi_e):
    # A nan bound passed the old xi_e < 0 check, and an infinite one made
    # every velocity consistent, so the search guessed an answer.
    with pytest.raises(ValueError, match="xi_e must be a finite number"):
        FoldedObservation((1.0, 2.0), xi_e=xi_e)


class TestRobustCrt:
    def test_reduced_remainder_example(self):
        res = robust_crt([1.8270, -0.7979], [5, 6])
        assert res.v_hat == pytest.approx(-12.9855, abs=5e-4)

    def test_zero_remainders(self):
        res = robust_crt([0.0, 0.0], [5, 6])
        assert res.v_hat == pytest.approx(0.0, abs=1e-12)

    def test_exact_reconstruction(self):
        # centered remainders of 17 modulo 12 and 16
        res = robust_crt([5.0, 1.0], [12, 16])
        assert res.v_hat == pytest.approx(17.0, abs=1e-9)
        assert res.integers.n_t == (1, 1)

    def test_noise_below_quarter_gcd_recovers_integers(self):
        rng = np.random.default_rng(42)
        moduli = [12.0, 16.0]  # common factor 4, tolerance 1 m/s
        for _ in range(300):
            truth = float(rng.uniform(-24, 24))
            noise = rng.uniform(-0.9, 0.9, size=2)
            rems = [float(forward_fold(truth, ModulusPair(m, 1e9)).v_time + e)
                    for m, e in zip(moduli, noise)]
            res = robust_crt(rems, moduli)
            # interior truths: linear recovery within the worst error
            if abs(truth) < 24 - 1.0:
                assert abs(res.v_hat - truth) <= float(np.abs(noise).max()) + 1e-9
                expected = [round((truth - r) / m) for r, m in zip(rems, moduli)]
                assert list(res.integers.n_t) == expected

    def test_averaging_reduces_error(self):
        rng = np.random.default_rng(3)
        errs = []
        for _ in range(500):
            truth = float(rng.uniform(-20, 20))
            noise = rng.uniform(-0.5, 0.5, size=2)
            rems = [forward_fold(truth, ModulusPair(m, 1e9)).v_time + e
                    for m, e in zip([12.0, 16.0], noise)]
            res = robust_crt(rems, [12, 16])
            if abs(res.v_hat - truth) < 5:  # keep linear-recovery trials
                errs.append(res.v_hat - truth)
        # variance of the mean of two independent uniforms: xi^2/6
        assert np.std(errs) == pytest.approx(0.5 / np.sqrt(6), rel=0.15)

    def test_half_lcm_wraps_to_negative_end(self):
        # The answer lies in [-lcm/2, lcm/2) = [-24, 24): a truth at +lcm/2 is
        # identified with -lcm/2, and an estimate pushed across either end by
        # the measurement error (+-0.3 here) wraps to the other end.
        for truth, error, v_hat, n in [(24.0, 0.0, -24.0, (-2, -1)),
                                       (23.9, 0.3, -23.8, (-2, -1)),
                                       (-23.9, -0.3, 23.8, (2, 1))]:
            rems = [forward_fold(truth + error, ModulusPair(m, 1e9)).v_time
                    for m in (12.0, 16.0)]
            res = robust_crt(rems, [12, 16])
            assert res.v_hat == pytest.approx(v_hat, abs=1e-9)
            assert res.integers.n_t == n

    def test_non_coprime_reduction_rejected(self):
        with pytest.raises(ConfigurationError, match="coprime"):
            robust_crt([0.0, 0.0, 0.0], [6, 10, 15])

    def test_incommensurable_moduli_rejected(self):
        with pytest.raises(ConfigurationError):
            robust_crt([0.0, 0.0], [5, 6 * np.sqrt(2)])

    def test_inconsistent_remainders_raise_no_solution(self):
        # No value in range reproduces all three remainders with an error
        # below m/4 = 0.25: a dense scan finds the best worst-modulus error
        # is 0.3.  So the remainders cannot come from one value within the
        # correctable bound.
        rems, moduli = [0.3, -0.3, 0.0], [2, 3, 5]
        grid = np.arange(-15.0, 15.0, 1e-3)
        worst = np.zeros_like(grid)
        for r, m in zip(rems, moduli):
            delta = np.abs(grid - r) % m
            worst = np.maximum(worst, np.minimum(delta, m - delta))
        assert worst.min() == pytest.approx(0.3, abs=1e-3)
        with pytest.raises(NoSolutionError):
            robust_crt(rems, moduli)

    def test_nearly_consistent_remainders_are_solved(self):
        # v = 11 reproduces these remainders to within 0.05 < m/4.
        res = robust_crt([0.95, -0.95, 0.95], [2, 3, 5])
        assert res.v_hat == pytest.approx(11.0, abs=0.05)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_remainder_not_finite(self, bad):
        with pytest.raises(ConfigurationError, match=f"remainder {bad} is not finite"):
            robust_crt([bad, 0.0], [5, 6])

    def test_each_modulus_is_rationalised_once(self, monkeypatch):
        # The float moduli are m*gamma_i of the one factorisation.
        calls = []
        real = solvers.as_fraction
        monkeypatch.setattr(solvers, "as_fraction", lambda v: calls.append(v) or real(v))
        res = robust_crt([-0.5, 0.6], [1.5, 1.6])      # 7 m/s, lcm 24
        assert calls == [1.5, 1.6]
        assert res.v_hat == pytest.approx(7.0, abs=1e-9)
        assert res.integers.n_t == (5, 4)


def rebuilt(res, obs, cfg):
    """Each band's observation unfolded by the reported integers."""
    return [v + n_t * float(vt) + n_s * float(vs) for v, n_t, n_s, vt, vs in
            zip(obs.v_space, res.integers.n_t, res.integers.n_s, *cfg.exact_moduli())]


class TestCrtRange:
    # d 0.2 and 0.25 give case I, 0.6 and 1.2 case II (d 0.8 gives 8/3, case III).
    @pytest.mark.parametrize("d", [0.2, 0.25, 0.6, 1.2])
    @pytest.mark.parametrize("k", range(2, 12))
    def test_is_the_determinable_size_in_cases_1_and_2(self, d, k):
        cfg = make_config(d=d, lambdas=(round(0.01 * k, 2), round(0.01 * (k + 1), 2)))
        assert classify_case(cfg) is not CaseId.III
        assert crt_range(cfg) == cfg.size_report().size

    def test_case1_uses_the_time_moduli(self):
        # Ratio 2/3: lcm(v_t) = lcm(12, 16) = 48, not lcm(v_s)/3 = 24.
        assert crt_range(make_config(d=0.2, lambdas=(0.03, 0.04))) == 48

    def test_refuses_moduli_that_are_not_pairwise_coprime(self):
        # Case I, observed moduli v_t = 16, 24, 36: gammas 4, 6, 9 share factors,
        # so no lcm bounds a range where the closed form holds.
        cfg = make_config(d=0.2, lambdas=(0.04, 0.06, 0.09))
        assert cfg.observed_moduli() == (16, 24, 36)
        with pytest.raises(ConfigurationError, match="pairwise coprime"):
            crt_range(cfg)


class TestSolveCase1:
    def make(self):
        return make_config(d=0.2, lambdas=(0.03, 0.04))

    def test_in_range_identity(self):
        cfg = self.make()
        res = crt_solve(FoldedObservation((5.0, 5.0)), cfg)
        assert res.v_hat == pytest.approx(5.0, abs=1e-9)
        assert res.integers.n_t == (0, 0)

    def test_folded_velocity(self):
        cfg = self.make()
        obs = FoldedObservation(tuple(f.v_time for f in fold_per_wavelength(17.0, cfg)))
        res = crt_solve(obs, cfg)
        assert res.v_hat == pytest.approx(17.0, abs=1e-9)
        assert res.integers.n_t == (1, 1) and res.integers.n_st is None
        oracle = brute_force_oracle(obs, cfg, v_range=48.0, step=0.01)
        assert oracle.v_hat == pytest.approx(17.0, abs=0.01)


class TestSolveCase2:
    def make(self):
        return make_config(d=0.6, lambdas=(0.03, 0.07))

    def test_folded_velocity(self):
        cfg = self.make()
        folds = fold_per_wavelength(17.0, cfg)
        assert [f.v_space for f in folds] == pytest.approx([-1.0, 3.0])
        res = crt_solve(FoldedObservation(tuple(f.v_space for f in folds)), cfg)
        assert res.v_hat == pytest.approx(17.0, abs=1e-9)
        assert res.integers.n_st == (3, 1)
        assert res.integers.n_t == (1, 1)
        assert res.integers.n_s == (1, -1)

    def test_zero(self):
        res = crt_solve(FoldedObservation((0.0, 0.0)), self.make())
        assert res.v_hat == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_remainders_keep_integers(self):
        cfg = self.make()
        rng = np.random.default_rng(11)
        # common factor of the space moduli (6, 14) is 2: tolerate m/8 = 0.25
        for _ in range(100):
            truth = float(rng.uniform(-20, 20))
            folds = fold_per_wavelength(truth, cfg)
            noise = rng.uniform(-0.25, 0.25, size=2)
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(folds, noise)))
            res = crt_solve(obs, cfg)
            # The per-fold split adds up to the recovered aggregate (k = 2).
            assert [s + 2 * t for t, s in zip(res.integers.n_t, res.integers.n_s)] \
                == list(res.integers.n_st)
            if abs(truth) < 21 - 0.5:
                expected = [round((truth - o) / m)
                            for o, m in zip(obs.v_space, (6.0, 14.0))]
                assert list(res.integers.n_st) == expected
                assert abs(res.v_hat - truth) <= float(np.abs(noise).max()) + 1e-9


class TestTheorem1:
    def test_reduced_moduli_and_range(self, reference_config):
        # lcm(15, 18)/3: the space moduli reduced by q = 3.
        assert crt_range(reference_config) == pytest.approx(30.0)

    @pytest.mark.parametrize(
        "truth,obs1,obs2,expected",
        [(t, o1, o2, closed) for t, o1, o2, *_rest, closed in
         [(r[0], r[1], r[2], r[8]) for r in BENCHMARK_TARGETS]])
    def test_closed_form_column(self, reference_config, truth, obs1, obs2, expected):
        res = crt_solve(FoldedObservation((obs1, obs2)), reference_config)
        assert res.v_hat == pytest.approx(expected, abs=5e-4)
        assert res.method == "closed_form_crt"

    def test_out_of_range_truth_is_wrong_by_design(self, reference_config):
        truth = 17.01
        folds = fold_per_wavelength(truth, reference_config)
        res = crt_solve(
            FoldedObservation(tuple(f.v_space for f in folds)), reference_config)
        assert abs(res.v_hat - truth) > 1.0
        # ... but congruent to the truth modulo the reduced range
        assert (res.v_hat - truth) % 30 == pytest.approx(0.0, abs=1e-6) or \
               (truth - res.v_hat) % 30 == pytest.approx(0.0, abs=1e-6)

    def test_integers_follow_the_space_wrap(self, reference_config):
        # v_hat 7.5 folds to n_s 1 on band 1, which rebuilds 22.55.
        obs = FoldedObservation((7.55, 7.45), xi_e=0.2)
        res = crt_solve(obs, reference_config)
        assert res.v_hat == pytest.approx(7.5)
        assert res.integers.n_t == (0, 0) and res.integers.n_s == (0, 0)
        assert rebuilt(res, obs, reference_config) == pytest.approx([7.55, 7.45])

    def test_integers_across_the_time_edge(self):
        # v_hat lies just past the time edge at 8; band 1 observed a velocity
        # below it and needs (n_t, n_s) = (0, 1), not the fold of v_hat.
        cfg = make_config(lambdas=(0.04, 0.05))
        obs = FoldedObservation((-3.9748019156063874, -6.940483297822108), xi_e=0.1)
        res = crt_solve(obs, cfg)
        assert res.v_hat == pytest.approx(8.0424, abs=1e-4)
        assert (res.integers.n_t[0], res.integers.n_s[0]) == (0, 1)
        for v in rebuilt(res, obs, cfg):
            assert abs(v - res.v_hat) <= 2 * obs.xi_e

    def test_integers_rebuild_the_answer(self):
        checked = 0
        for d in (0.4, 0.5, 0.6):
            for lambdas in ((0.05, 0.06), (0.04, 0.05), (0.05, 0.06, 0.07)):
                cfg = make_config(d=d, lambdas=lambdas)
                half = crt_range(cfg) / 2
                for xi in (0.05, 0.1, 0.2):
                    rng = np.random.default_rng(1)
                    for _ in range(60):
                        truth = rng.uniform(-half, half)
                        obs = FoldedObservation(
                            tuple(f.v_space + rng.uniform(-xi, xi)
                                  for f in fold_per_wavelength(truth, cfg)), xi_e=xi)
                        try:
                            res = crt_solve(obs, cfg)
                        except (AmbiguousSolutionError, NoSolutionError):
                            continue
                        if abs(res.v_hat - truth) > xi:
                            continue
                        checked += 1
                        for v in rebuilt(res, obs, cfg):
                            assert abs(v - res.v_hat) <= 2 * xi, (d, lambdas, obs)
        assert checked > 1000


# Closed-form systems for the property below: d picks the case (0.2, 0.25: I;
# 0.6: II; 0.4, 0.45: III) and lambdas are 2 or 3 consecutive hundredths.
@st.composite
def crt_problems(draw):
    d = draw(st.sampled_from([0.2, 0.25, 0.4, 0.45, 0.6]))
    first = draw(st.integers(2, 10))
    bands = draw(st.integers(2, 3))
    cfg = make_config(d=d, lambdas=tuple(round(0.01 * (first + i), 2)
                                         for i in range(bands)))
    try:
        moduli = solvers._reduced_moduli(cfg)
        factor = float(solvers._common_factorisation(moduli)[0])
    except ConfigurationError:          # reduced moduli not pairwise coprime
        assume(False)
    xi = draw(st.floats(0.0, factor / 4, exclude_max=True))
    half = crt_range(cfg) / 2 - xi
    truth = draw(st.floats(-half, half, exclude_max=True))
    errors = draw(st.lists(st.floats(-xi, xi), min_size=bands, max_size=bands))
    case_i = classify_case(cfg) is CaseId.I
    obs = tuple((f.v_time if case_i else f.v_space) + e
                for f, e in zip(fold_per_wavelength(truth, cfg), errors))
    return cfg, truth, FoldedObservation(obs, xi_e=xi), errors, moduli


@given(crt_problems())
@settings(max_examples=300)
def test_crt_solve_recovers_every_case(problem):
    cfg, truth, obs, errors, moduli = problem
    res = crt_solve(obs, cfg)
    assert abs(res.v_hat - truth) <= max(map(abs, errors)) + 1e-9
    for v in rebuilt(res, obs, cfg):
        assert abs(v - res.v_hat) <= 2 * obs.xi_e + 1e-9
    if classify_case(cfg) is CaseId.II:
        assert res.integers.n_st == robust_crt(obs.v_space, moduli).integers.n_t
    else:
        assert res.integers.n_st is None


class TestSearchRetrieve:
    @pytest.mark.parametrize("row", BENCHMARK_TARGETS)
    def test_benchmark_targets(self, reference_config, row):
        # At the default xi_e 0.5, above the radius, rows 0, 1 and 3 each fit
        # a second velocity (13.8691, -11.0496, 54.5415) and are ambiguous.
        truth, obs1, obs2, n_t1, n_s1, n_t2, n_s2, v_search, _ = row
        res = search_retrieve(FoldedObservation((obs1, obs2), xi_e=0.2),
                              reference_config)
        assert res.integers.n_t == (n_t1, n_t2)
        assert res.integers.n_s == (n_s1, n_s2)
        assert res.v_hat == pytest.approx(v_search, abs=1e-3)
        assert abs(res.v_hat - truth) < 0.2

    def test_round_trip_noiseless(self, reference_config):
        for truth in np.arange(-60.0, 60.0, 1.37):
            folds = fold_per_wavelength(float(truth), reference_config)
            obs = FoldedObservation(tuple(f.v_space for f in folds), xi_e=0.0)
            res = search_retrieve(obs, reference_config)
            assert res.v_hat == pytest.approx(float(truth), abs=1e-9)

    def test_requires_case3(self):
        cfg = make_config(d=0.6, lambdas=(0.03, 0.07))
        with pytest.raises(ConfigurationError, match="case III"):
            search_retrieve(FoldedObservation((0.0, 0.0)), cfg)

    def test_crafted_tie_reports_ambiguous(self, reference_config):
        # At xi_e 6, a third or more of the 15 and 18 m/s remainder circles,
        # the velocities within 6 of both remainders (3.0, 2.5) fall into 16
        # separate intervals spread over the whole +-60 m/s range.  The solver
        # must report them, not pick one.
        obs = FoldedObservation((3.0, 2.5), xi_e=6.0)
        with pytest.raises(AmbiguousSolutionError) as err:
            search_retrieve(obs, reference_config)
        assert err.value.candidates is not None

    def test_aliases_outside_the_range_are_not_candidates(self):
        # Determinable size 80 m/s.  Truth 14.678 ties exactly with -41.31,
        # which folds to the same remainders but lies outside +-40.
        cfg = make_config(lambdas=(0.07, 0.08))
        assert cfg.size_report().size == 80
        res = search_retrieve(FoldedObservation((7.7191, -9.3423), xi_e=0.05), cfg)
        assert res.v_hat == pytest.approx(14.68, abs=0.05)

    def test_range_holds_no_aliases(self):
        # v_s (16.5, 19.5): the remainder vector repeats at +-143/4 m/s, so
        # the size is 143/2, not the 286 a 1 m/s walk found.  Over that wider
        # range these seeded truths met aliases: 56 of 500 were declined as
        # ambiguous.
        cfg = make_config(lambdas=(0.055, 0.065))
        assert cfg.size_report().size == Fraction(143, 2)
        rng = np.random.default_rng(3)
        for _ in range(500):
            truth = float(rng.uniform(-35, 35))
            noise = rng.uniform(-0.05, 0.05, size=2)
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(
                fold_per_wavelength(truth, cfg), noise)), xi_e=0.05)
            assert abs(search_retrieve(obs, cfg).v_hat - truth) <= 0.1

    def test_phantom_tuples_do_not_tie_with_the_answer(self):
        # Only velocities that fold back to the observations compete: 39.938
        # fits within 0.013, the runner-up -16.0 only within 0.075 > xi_e.
        cfg = make_config(lambdas=(0.07, 0.08))
        obs = FoldedObservation((-9.0750, 7.9515), xi_e=0.05)
        res = search_retrieve(obs, cfg)
        assert res.v_hat == pytest.approx(39.938, abs=1e-3)
        assert res.residual == pytest.approx(0.01325, abs=1e-6)

    def test_consistent_velocities_far_apart_are_ambiguous(self):
        # Truth 39.997, which fits within 0.029.  -15.985 fits within 0.012,
        # and the velocities up to the range end 40.0 within xi_e: this
        # config's robustness radius is about 0, so the minimiser alone would
        # be silently wrong.
        cfg = make_config(lambdas=(0.07, 0.08))
        obs = FoldedObservation((-8.997079308153488, 8.02633228488439), xi_e=0.05)
        with pytest.raises(AmbiguousSolutionError) as err:
            search_retrieve(obs, cfg)
        assert sorted(err.value.candidates) == pytest.approx([-15.985, 40.0], abs=1e-3)
        # A narrower range leaves one of them; a wider one than the
        # determinable size is refused.
        assert search_retrieve(obs, cfg, 60.0).v_hat == pytest.approx(-15.985, abs=1e-3)
        with pytest.raises(ConfigurationError, match="determinable size"):
            search_retrieve(obs, cfg, 100.0)

    @pytest.mark.parametrize("params", [
        {}, {"lambdas": (0.05, 0.06, 0.07)},
        *({"lambdas": (round(0.01 * k, 2), round(0.01 * (k + 1), 2))}
          for k in range(2, 12))])
    def test_never_scores_worse_than_the_oracle(self, params):
        cfg = make_config(**params)
        half = float(cfg.size_report().size) / 2
        rng = np.random.default_rng(17)
        for _ in range(6):
            folds = fold_per_wavelength(float(rng.uniform(-half, half)), cfg)
            noise = rng.uniform(-0.05, 0.05, size=len(folds))
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(folds, noise)),
                                    xi_e=0.05)
            try:
                residual = search_retrieve(obs, cfg).residual
            except AmbiguousSolutionError:
                continue
            assert residual <= brute_force_oracle(obs, cfg).residual + 1e-9

    def test_inconsistent_third_band_reports_no_solution(self):
        # Bands 1 and 2 fold v = 17; no velocity in the determinable range
        # +-420 also folds to -5.0 in band 3: the oracle's best worst-band
        # error is 1.0 m/s, far above xi_e.
        cfg = make_config(lambdas=(0.05, 0.06, 0.07))
        folds = fold_per_wavelength(17.0, cfg)
        obs = FoldedObservation((folds[0].v_space, folds[1].v_space, -5.0), xi_e=0.1)
        assert brute_force_oracle(obs, cfg).residual > 2 * obs.xi_e
        with pytest.raises(NoSolutionError, match="consistent"):
            search_retrieve(obs, cfg)

    def test_three_band_retrieval(self):
        # Noise stays below this config's robustness radius of 0.25 m/s;
        # above it (at 0.3) remainder vectors of velocities such as -413.49
        # and -293.99 lie only 0.5 apart and any solver may return an alias.
        cfg = make_config(lambdas=(0.05, 0.06, 0.07))
        rng = np.random.default_rng(9)
        for _ in range(25):
            truth = float(rng.uniform(-55, 55))
            folds = fold_per_wavelength(truth, cfg)
            noise = rng.uniform(-0.2, 0.2, size=3)
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(folds, noise)),
                                    xi_e=0.2)
            res = search_retrieve(obs, cfg)
            assert abs(res.v_hat - truth) <= 0.2 + 1e-9

    @pytest.mark.parametrize("v_range", [0.0, -10.0, np.nan, np.inf])
    def test_range_must_be_positive_and_finite(self, reference_config, v_range):
        # Before the check, 0 answered 0.0 and -10 answered -5.0 for truth
        # 3.3, and nan failed inside numpy.
        folds = fold_per_wavelength(3.3, reference_config)
        obs = FoldedObservation(tuple(f.v_space for f in folds), xi_e=0.1)
        with pytest.raises(ConfigurationError, match="positive finite"):
            search_retrieve(obs, reference_config, v_range)

    @pytest.mark.parametrize("params, v_range", [({}, 48.0), ({}, 7.5),
                                                 ({"lambdas": (0.05, 0.06, 0.07)}, 300.0)])
    def test_narrowed_range_agrees_with_the_default(self, params, v_range):
        cfg = make_config(**params)
        rng = np.random.default_rng(5)
        answered = 0
        for _ in range(60):
            truth = float(rng.uniform(-v_range / 2 + 0.5, v_range / 2 - 0.5))
            noise = rng.uniform(-0.1, 0.1, size=len(cfg.lambdas))
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(
                fold_per_wavelength(truth, cfg), noise)), xi_e=0.1)
            try:
                wide = search_retrieve(obs, cfg)
            except AmbiguousSolutionError:
                continue
            answered += 1
            assert search_retrieve(obs, cfg, v_range) == wide
        assert answered >= 50

    # Seeded inputs and the search's answers, to the last bit: a change to
    # the kernel that moves any answer, however little, fails here rather
    # than within a tolerance.
    @pytest.mark.parametrize("lambdas, v_space, xi_e, v_range, answer", [
        ((0.05, 0.06), (5.530629356474644, 8.400229485090959), 0.1, None,
         (-9.534570579217199, 0.06519993569184379, (0, 0), (-1, -1))),
        ((0.05, 0.06), (-6.276390220602103, -8.321797104253257), 0.1, None,
         (33.70090633757232, 0.02270344182557693, (2, 1), (0, 1))),
        ((0.05, 0.06, 0.07), (-5.1806122108103825, 7.721076882026918, -7.28428879263122),
         0.1, None, (349.7675494982792, 0.0518382909104389, (17, 15, 12), (1, -1, 1))),
        ((0.05, 0.06, 0.07), (6.223592476670519, -0.722033788244192, 7.103984818388519),
         0.1, 300.0, (-48.80902448492783, 0.08699069668364956, (-2, -2, -2), (-1, 0, 0))),
        ((0.07, 0.08), (-10.126792949926159, 10.858114839559867), 0.2, None,
         (10.865660944816854, 0.007546105256986735, (0, 0), (1, 0))),
    ])
    def test_answers_are_pinned(self, lambdas, v_space, xi_e, v_range, answer):
        res = search_retrieve(FoldedObservation(v_space, xi_e=xi_e),
                              make_config(lambdas=lambdas), v_range)
        assert (res.v_hat, res.residual, res.integers.n_t, res.integers.n_s) == answer

    def test_ambiguous_candidates_are_pinned(self):
        obs = FoldedObservation((-9.01136248610998, 11.720755186867287), xi_e=0.5)
        with pytest.raises(AmbiguousSolutionError) as err:
            search_retrieve(obs, make_config(lambdas=(0.07, 0.08)))
        assert err.value.candidates == [11.854696350378653, 19.354696350378653]

    def test_observation_shape_validated(self, reference_config):
        with pytest.raises(ValueError, match="observations"):
            search_retrieve(FoldedObservation((1.0,)), reference_config)

    def test_observation_interval_validated(self, reference_config):
        with pytest.raises(ValueError, match="interval"):
            search_retrieve(FoldedObservation((14.0, 0.0), xi_e=0.5),
                            reference_config)


class TestBruteForceOracle:
    def test_case2_integers_are_the_physical_split(self):
        # Of the splits that unfold (1.395, -0.605) onto 5.395, the fold of
        # 5.395 itself: not n_t (0, 0), n_s (1, 1), which reconstructs it too.
        cfg = make_config(d=0.6, lambdas=(0.02, 0.03))
        obs = FoldedObservation((1.395, -0.605))
        oracle = brute_force_oracle(obs, cfg)
        expected = crt_solve(obs, cfg).integers
        assert (oracle.integers.n_t, oracle.integers.n_s) == (expected.n_t, expected.n_s)
        assert oracle.integers.n_t == (1, 0)

    def test_noiseless_scan(self, reference_config):
        truth = 17.01
        folds = fold_per_wavelength(truth, reference_config)
        obs = FoldedObservation(tuple(f.v_space for f in folds), xi_e=0.0)
        res = brute_force_oracle(obs, reference_config, step=0.005)
        assert res.v_hat == pytest.approx(truth, abs=0.005)
        assert res.residual < 0.005

    @pytest.mark.parametrize("kwargs", [
        {"v_range": -5.0}, {"v_range": 0.0}, {"v_range": np.nan}, {"v_range": np.inf},
        {"step": 0.0}, {"step": -0.01}, {"step": np.nan}, {"step": np.inf},
    ])
    def test_range_and_step_must_be_positive_and_finite(self, reference_config, kwargs):
        # Before the check, numpy failed on an empty or unbounded grid, and
        # step inf answered 23.5 after one golden-section pass.
        with pytest.raises(ConfigurationError, match="must be a positive finite number"):
            brute_force_oracle(FoldedObservation((1.0, 2.0)), reference_config, **kwargs)

    def test_zero(self, reference_config):
        res = brute_force_oracle(FoldedObservation((0.0, 0.0)), reference_config)
        assert res.v_hat == pytest.approx(0.0, abs=1e-6)

    def test_bounded_noise_bounded_error(self, reference_config):
        # Noise stays below the reference config's robustness radius of
        # 0.25 m/s; above it, e.g. at 0.4, -9.04 folds to (5.96, 8.96) and
        # -14.51 to (5.49, -8.51), 0.53 apart on the 18 m/s circle, so noise
        # can move an observation nearer the alias.
        rng = np.random.default_rng(21)
        for _ in range(20):
            truth = float(rng.uniform(-59, 59))
            folds = fold_per_wavelength(truth, reference_config)
            noise = rng.uniform(-0.2, 0.2, size=2)
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(folds, noise)),
                                    xi_e=0.2)
            res = brute_force_oracle(obs, reference_config, step=0.01)
            assert abs(res.v_hat - truth) <= 0.2 + 0.01

    def test_agrees_with_search_on_integers(self, reference_config):
        rng = np.random.default_rng(33)
        for _ in range(60):
            truth = float(rng.uniform(-59.0, 59.0))
            folds = fold_per_wavelength(truth, reference_config)
            noise = rng.uniform(-0.5, 0.5, size=2)
            obs = FoldedObservation(tuple(f.v_space + e for f, e in zip(folds, noise)),
                                    xi_e=0.5)
            try:
                searched = search_retrieve(obs, reference_config)
            except (AmbiguousSolutionError, NoSolutionError):
                continue
            oracle = brute_force_oracle(obs, reference_config, step=0.02)
            assert searched.integers.n_t == oracle.integers.n_t
            assert searched.integers.n_s == oracle.integers.n_s
