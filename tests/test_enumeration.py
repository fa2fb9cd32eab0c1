"""Exact determinable-size enumeration: goldens, bounds, and soundness."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mfsar import (ConfigurationError, ModulusPair, determinable_size,
                   forward_fold, lcm_rational, size_sweep)
from mfsar.enumeration import SWEEP_CSV_HEADER, sweep_to_csv
from conftest import make_config


class TestLcmRational:
    def test_integers(self):
        assert lcm_rational([20, 24]) == 120
        assert lcm_rational([15, 18]) == 90

    def test_single_element(self):
        assert lcm_rational([Fraction(7, 3)]) == Fraction(7, 3)

    def test_fractions(self):
        # 3/2 and 5/4: multiples are k*3/2 and j*5/4; the least common is 15/2.
        assert lcm_rational([Fraction(3, 2), Fraction(5, 4)]) == Fraction(15, 2)
        assert lcm_rational([Fraction(3, 2), Fraction(5, 4)]) % Fraction(3, 2) == 0
        assert lcm_rational([Fraction(3, 2), Fraction(5, 4)]) % Fraction(5, 4) == 0

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            lcm_rational([])
        with pytest.raises(ConfigurationError):
            lcm_rational([3, -2])


class TestDeterminableSize:
    def test_reference_band_pair(self):
        rep = determinable_size([20, 24], [15, 18])
        assert (rep.size, rep.v_lb, rep.v_ub) == (120, 30, 120)

    def test_size_can_hit_lower_bound(self):
        rep = determinable_size([12, 16], [9, 12])
        assert (rep.size, rep.v_lb, rep.v_ub) == (12, 12, 48)

    def test_size_can_sit_between_bounds(self):
        rep = determinable_size([28, 32], [21, 24])
        assert (rep.size, rep.v_lb, rep.v_ub) == (80, 56, 224)

    def test_sandwich_bounds(self):
        for vts, vss in [([8, 12], [6, 9]), ([16, 20], [12, 15]),
                         ([36, 40], [27, 30]), ([44, 48], [33, 36])]:
            rep = determinable_size(vts, vss)
            assert rep.v_lb <= rep.size <= rep.v_ub

    def test_collision_soundness(self):
        rep = determinable_size([20, 24], [15, 18])
        earlier, later = rep.collision_pair

        def residues(v):
            out = []
            for vt, vs in ((Fraction(20), Fraction(15)), (Fraction(24), Fraction(18))):
                out.append(forward_fold(v, ModulusPair(vt, vs)).v_space)
            return tuple(out)

        assert residues(earlier) == residues(later)
        assert abs(later - earlier) >= rep.size or abs(later) == rep.size / 2

    def test_uniqueness_inside(self):
        rep = determinable_size([12, 16], [9, 12])
        half = int(rep.size) // 2
        seen = {}
        for v in range(-half + 1, half):
            vec = tuple(forward_fold(Fraction(v), ModulusPair(Fraction(vt), Fraction(vs))).v_space
                        for vt, vs in ((12, 9), (16, 12)))
            assert vec not in seen, f"{v} collides with {seen[vec]}"
            seen[vec] = v

    def test_periodicity_at_upper_bound(self):
        vts, vss = [12, 16], [9, 12]
        v_ub = lcm_rational(vts)
        for v in (Fraction(0), Fraction(5), Fraction(-7), Fraction(13, 2)):
            for vt, vs in zip(vts, vss):
                pair = ModulusPair(Fraction(vt), Fraction(vs))
                assert forward_fold(v, pair).v_space == forward_fold(v + v_ub, pair).v_space

    def test_degenerate_integer_ratio(self):
        # Ratio 2/1 collapses the cascade; the size equals lcm of space moduli.
        rep = determinable_size([12, 28], [6, 14])
        assert rep.size == lcm_rational([6, 14]) == 42
        assert rep.v_lb == rep.size

    def test_mismatched_ratio_rejected(self):
        with pytest.raises(ConfigurationError, match="disagree"):
            determinable_size([20, 24], [15, 16])

    def test_irrational_modulus_rejected(self):
        # sqrt(2)-scaled moduli rationalise to huge denominators; the walk
        # budget guard refuses rather than enumerating millions of steps.
        with pytest.raises(ConfigurationError, match="incommensurable"):
            determinable_size([20 * math.sqrt(2), 24], [15 * math.sqrt(2), 18])

    def test_irrational_ratio_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="disagree"):
            determinable_size([20 * math.sqrt(2), 24], [15, 18])

    def test_single_wavelength_rejected(self):
        with pytest.raises(ConfigurationError):
            determinable_size([20], [15])


def _dict_walk(vts, vss):
    """The walk one candidate at a time, in integers of ``1/scale`` m/s:
    ``(size, collision_pair)`` of the first repeated remainder vector, or
    None when the walk passes ``v_ub/2 + 1`` m/s without one or repeats
    past ``v_ub``."""
    v_ub = lcm_rational(vts)
    scale = math.lcm(*(Fraction(x).denominator for x in vts + vss))
    moduli = [(int(vt * scale), int(vs * scale)) for vt, vs in zip(vts, vss)]

    def centred(a, b):
        return a - b * ((2 * a + b) // (2 * b))

    seen = {}
    v = 0
    while v <= v_ub / 2 + 1:
        for cand in ((v,) if v == 0 else (-v, v)):
            vec = tuple(centred(centred(cand * scale, vt), vs) for vt, vs in moduli)
            if vec in seen:
                size = 2 * Fraction(abs(cand))
                return (size, (seen[vec], cand)) if size <= v_ub else None
            seen[vec] = cand
        v += 1
    return None


@st.composite
def shared_ratio_moduli(draw):
    """2-4 bands ``v_t = p*k*c``, ``v_s = q*k*c``: one ratio p/q, and whole
    or rational moduli as the common factor ``c`` is."""
    ks = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4, unique=True))
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = draw(st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=6))
    return [p * k * c for k in ks], [q * k * c for k in ks]


class TestVectorisedWalk:
    """The numpy walk answers as the walk one candidate at a time does."""

    def assert_same_walk(self, vts, vss):
        expected = _dict_walk(vts, vss)
        if expected is None:
            with pytest.raises(ConfigurationError, match="cannot size"):
                determinable_size(vts, vss)
        else:
            rep = determinable_size(vts, vss)
            assert (rep.size, rep.collision_pair) == expected

    @given(moduli=shared_ratio_moduli())
    def test_matches_the_dict_walk(self, moduli):
        self.assert_same_walk(*moduli)

    def test_integer_moduli(self):
        for vts, vss in [([20, 24], [15, 18]), ([12, 16], [9, 12]), ([28, 32], [21, 24]),
                         ([20, 24, 28], [15, 18, 21]), ([12, 28], [6, 14])]:
            self.assert_same_walk(*([Fraction(v) for v in xs] for xs in (vts, vss)))

    def test_huge_denominator_takes_python_ints(self):
        # Ratio p/q = P/(P - 1) with P = 2**61 - 1: v_s = k*(P-1)/P, so one
        # m/s is P scaled units and the walk's ~60*P passes int64's 2**62.
        big = 2**61 - 1
        vts = [Fraction(20), Fraction(24)]
        vss = [v * Fraction(big - 1, big) for v in vts]
        self.assert_same_walk(vts, vss)
        assert determinable_size(vts, vss).size == 120

    @pytest.mark.parametrize("vts, vss, found", [
        # d 0.3, f_p 500, v_a 120, lambda 0.05/0.06: the walk repeats at 76 > 75.
        ([12.5, 15.0], [20.0, 24.0], "size 76 outside"),
        # d 0.3, f_p 333, v_a 120, lambda 0.011/0.06: no repeat within the cap.
        ([1.8315, 9.99], [4.4, 24.0], "no repeat"),
    ])
    def test_walk_that_cannot_size_raises(self, vts, vss, found):
        assert _dict_walk(*([Fraction(repr(v)) for v in xs] for xs in (vts, vss))) is None
        with pytest.raises(ConfigurationError, match=found):
            determinable_size(vts, vss)


class TestSizeSweep:
    def test_rows_and_csv(self, reference_config):
        rows = size_sweep(reference_config, [(0.05, 0.06), (0.07, 0.08)])
        assert len(rows) == 2
        (_, vt1, vs1, vt2, vs2, rep) = rows[0]
        assert (vt1, vs1, vt2, vs2) == (20, 15, 24, 18)
        assert rep.size == 120
        assert rows[1][5].size == 80
        csv_text = sweep_to_csv(rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1] == "0.05,0.06,20,15,24,18,30,120,120"
        assert lines[2] == "0.07,0.08,28,21,32,24,56,80,224"

    def test_monotone_upper_bound_across_catalog(self, reference_config):
        pairs = [(round(0.01 * k, 2), round(0.01 * (k + 1), 2)) for k in range(2, 12)]
        rows = size_sweep(reference_config, pairs)
        ubs = [rep.v_ub for *_, rep in rows]
        assert ubs == sorted(ubs)
        assert ubs[0] == 24 and ubs[-1] == 528
