"""Modular operators: worked values and algebraic invariants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfsar import (ConfigurationError, ModulusPair, blind_speeds, bracket_fold,
                   centered_remainder, doppler_of, forward_fold,
                   forward_fold_grid)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e6,
                            allow_nan=False, allow_infinity=False)
rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
positive_rationals = st.fractions(min_value=Fraction(1, 50), max_value=1000,
                                  max_denominator=50)


class TestBracketFold:
    def test_worked_values(self):
        assert bracket_fold(-6, 9) == -1
        assert bracket_fold(59, 24) == 2
        assert bracket_fold(-60, 24) == -2
        # -82.95/2.1 rounds to -39.5 in floats, but the float -82.95 lies
        # just above -39.5 periods: the exact split is -39 and -1.05.
        assert bracket_fold(-82.95, 2.1) == -39

    def test_zero(self):
        for b in (1, 2.5, 1000):
            assert bracket_fold(0, b) == 0

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ConfigurationError):
            bracket_fold(1.0, 0.0)
        with pytest.raises(ConfigurationError):
            bracket_fold(1.0, -3.0)


class TestCenteredRemainder:
    def test_worked_values(self):
        assert centered_remainder(17, 12) == 5
        assert centered_remainder(5, 9) == -4
        assert centered_remainder(-82.95, 2.1) == pytest.approx(-1.05)

    def test_identity_inside_interval(self):
        for a, b in [(0.0, 4.0), (-2.0, 4.0), (1.99, 4.0), (-0.3, 10.0)]:
            assert centered_remainder(a, b) == a

    def test_half_boundary_folds_up(self):
        # a = b/2 belongs to the next period: remainder -b/2, integer +1.
        assert centered_remainder(2, 4) == -2
        assert bracket_fold(2, 4) == 1

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ConfigurationError):
            centered_remainder(1.0, 0.0)


@given(a=finite_floats, b=positive_floats)
def test_decomposition_float(a, b):
    n = bracket_fold(a, b)
    r = centered_remainder(a, b)
    assert -b / 2 <= r < b / 2
    assert math.isclose(n * b + r, a, rel_tol=1e-9, abs_tol=1e-9 * b)


@given(a=rationals, b=positive_rationals)
def test_decomposition_exact(a, b):
    n = bracket_fold(a, b)
    r = centered_remainder(a, b)
    assert n * b + r == a
    assert -b / 2 <= r < b / 2


@given(a=rationals, b=positive_rationals)
def test_idempotence(a, b):
    r = centered_remainder(a, b)
    assert centered_remainder(r, b) == r


@given(a=rationals, b=positive_rationals, k=st.integers(-50, 50))
def test_shift_invariance(a, b, k):
    assert centered_remainder(a + k * b, b) == centered_remainder(a, b)


class TestBlindSpeeds:
    def test_reference_bands(self):
        pair = blind_speeds(0.05, 800, 120, 0.4)
        assert pair.v_t == pytest.approx(20) and pair.v_s == pytest.approx(15)
        pair = blind_speeds(0.06, 800, 120, 0.4)
        assert pair.v_t == pytest.approx(24) and pair.v_s == pytest.approx(18)

    def test_wider_spacing(self):
        pair = blind_speeds(0.03, 800, 120, 0.6)
        assert pair.v_t == pytest.approx(12) and pair.v_s == pytest.approx(6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            blind_speeds(0.0, 800, 120, 0.4)
        with pytest.raises(ConfigurationError):
            blind_speeds(0.05, 800, -120, 0.4)


class TestForwardFold:
    def test_seventeen_across_three_systems(self):
        f = forward_fold(17, ModulusPair(12, 9))
        assert (f.v_time, f.v_space, f.n_t, f.n_s) == (5, -4, 1, 1)
        f = forward_fold(17, ModulusPair(12, 6))
        assert (f.v_time, f.v_space, f.n_t, f.n_s) == (5, -1, 1, 1)

    def test_fractional_velocity(self):
        f = forward_fold(8.36, ModulusPair(20, 15))
        assert f.v_time == pytest.approx(8.36)
        assert f.v_space == pytest.approx(-6.64)
        assert (f.n_t, f.n_s) == (0, 1)

    @given(v=rationals, vt=positive_rationals, vs=positive_rationals)
    def test_reconstruction_identity(self, v, vt, vs):
        f = forward_fold(v, ModulusPair(vt, vs))
        assert f.v_space + f.n_s * vs + f.n_t * vt == v
        assert -vt / 2 <= f.v_time < vt / 2
        assert -vs / 2 <= f.v_space < vs / 2

    def test_grid_matches_scalar(self):
        grid = np.linspace(-62.0, 62.0, 1241)
        cases = [(grid, 20.0, 15.0, (0, 17, 401, 620, 990, 1240)),
                 (np.array([-82.95]), 2.1, 1e9, (0,))]
        for values, vt, vs, picks in cases:
            v_time, v_space, n_t, n_s = forward_fold_grid(values, vt, vs)
            for i in picks:
                f = forward_fold(float(values[i]), ModulusPair(vt, vs))
                assert v_time[i] == pytest.approx(f.v_time, abs=1e-12)
                assert v_space[i] == pytest.approx(f.v_space, abs=1e-12)
                assert n_t[i] == f.n_t and n_s[i] == f.n_s


class TestDoppler:
    def test_values(self):
        assert doppler_of(0, 0.05) == 0
        assert doppler_of(15, 0.05) == pytest.approx(-600)
        assert doppler_of(-6, 0.06) == pytest.approx(200)

    @given(v=st.floats(min_value=-500, max_value=500, allow_nan=False))
    def test_frequency_velocity_duality(self, v):
        # Folding in frequency then mapping back equals folding in velocity,
        # away from the exact interval boundary (where the two half-open
        # conventions point opposite ways).
        lam, f_p = 0.05, 800.0
        v_t = lam * f_p / 2
        folded_f = centered_remainder(doppler_of(v, lam), f_p)
        v_time = forward_fold(v, ModulusPair(v_t, 1e9)).v_time
        if abs(v_time - (-v_t / 2)) > 1e-6:
            assert folded_f == pytest.approx(doppler_of(v_time, lam), abs=1e-6)
