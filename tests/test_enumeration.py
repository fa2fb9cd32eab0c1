"""Exact determinable-size enumeration: goldens, bounds, and soundness."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mfsar import (ConfigurationError, ModulusPair, determinable_size,
                   forward_fold, size_sweep)
from mfsar.cli import DEFAULT_ENUM_PAIRS
from mfsar.enumeration import SWEEP_CSV_HEADER, sweep_to_csv
from conftest import make_config


def size_of(vts, vss):
    """Determinable size of the moduli ``v_t``, ``v_s`` (one ratio), through
    the config that has them as its blind speeds: f_p 2, v_a 1,
    d = v_t/v_s and each wavelength its v_t."""
    vts, vss = zip(*sorted(zip(vts, vss)))
    return determinable_size(make_config(f_p=2, v_a=1, d=Fraction(vts[0]) / Fraction(vss[0]),
                                         lambdas=vts))


class TestDeterminableSize:
    def test_reference_band_pair(self):
        rep = size_of([20, 24], [15, 18])
        assert (rep.size, rep.v_lb, rep.v_ub) == (120, 30, 120)

    def test_size_can_hit_lower_bound(self):
        rep = size_of([12, 16], [9, 12])
        assert (rep.size, rep.v_lb, rep.v_ub) == (12, 12, 48)

    def test_size_can_sit_between_bounds(self):
        rep = size_of([28, 32], [21, 24])
        assert (rep.size, rep.v_lb, rep.v_ub) == (80, 56, 224)

    def test_sandwich_bounds(self):
        for vts, vss in [([8, 12], [6, 9]), ([16, 20], [12, 15]),
                         ([36, 40], [27, 30]), ([44, 48], [33, 36])]:
            rep = size_of(vts, vss)
            assert rep.v_lb <= rep.size <= rep.v_ub

    def test_collision_soundness(self):
        rep = size_of([20, 24], [15, 18])
        earlier, later = rep.collision_pair

        def residues(v):
            out = []
            for vt, vs in ((Fraction(20), Fraction(15)), (Fraction(24), Fraction(18))):
                out.append(forward_fold(v, ModulusPair(vt, vs)).v_space)
            return tuple(out)

        assert residues(earlier) == residues(later)
        assert abs(later - earlier) >= rep.size or abs(later) == rep.size / 2

    def test_uniqueness_inside(self):
        rep = size_of([12, 16], [9, 12])
        half = int(rep.size) // 2
        seen = {}
        for v in range(-half + 1, half):
            vec = tuple(forward_fold(Fraction(v), ModulusPair(Fraction(vt), Fraction(vs))).v_space
                        for vt, vs in ((12, 9), (16, 12)))
            assert vec not in seen, f"{v} collides with {seen[vec]}"
            seen[vec] = v

    def test_periodicity_at_upper_bound(self):
        vts, vss = [12, 16], [9, 12]
        v_ub = math.lcm(*vts)
        for v in (Fraction(0), Fraction(5), Fraction(-7), Fraction(13, 2)):
            for vt, vs in zip(vts, vss):
                pair = ModulusPair(Fraction(vt), Fraction(vs))
                assert forward_fold(v, pair).v_space == forward_fold(v + v_ub, pair).v_space

    def test_degenerate_integer_ratio(self):
        # Ratio 2/1 collapses the cascade; the size equals lcm of space moduli.
        rep = size_of([12, 28], [6, 14])
        assert rep.size == math.lcm(6, 14) == 42
        assert rep.v_lb == rep.size

    def test_irrational_modulus_rejected(self):
        # A sqrt(2)-scaled wavelength is no ratio of integers with
        # denominator <= 10**6: its config is refused when it is built.
        with pytest.raises(ConfigurationError, match="incommensurable"):
            size_of([20 * math.sqrt(2), 24], [15 * math.sqrt(2), 18])

    def test_single_wavelength_rejected(self):
        with pytest.raises(ConfigurationError, match="at least two wavelengths"):
            size_of([20], [15])


def _dict_walk(vts, vss):
    """The walk 0, -1, +1, -2, ... one candidate at a time, in half scaled
    units (``1/(2*D)`` m/s for the moduli's common denominator ``D``): every
    fold edge and every half offset lies on that lattice, so its first
    repeated remainder vector is a least collision.  Returns
    ``(size, (earlier, later))``."""
    scale = 2 * math.lcm(*(Fraction(x).denominator for x in vts + vss))
    moduli = [(int(vt * scale), int(vs * scale)) for vt, vs in zip(vts, vss)]

    def centred(a, b):
        return a - b * ((2 * a + b) // (2 * b))

    seen = {}
    v = 0
    while True:
        for cand in ((v,) if v == 0 else (-v, v)):
            vec = tuple(centred(centred(cand, vt), vs) for vt, vs in moduli)
            if vec in seen:
                return 2 * Fraction(abs(cand), scale), (Fraction(seen[vec], scale),
                                                       Fraction(cand, scale))
            seen[vec] = cand
        v += 1


@st.composite
def shared_ratio_moduli(draw):
    """2-4 bands ``v_t = p*k*c``, ``v_s = q*k*c``: one ratio p/q, and whole
    or rational moduli as the common factor ``c`` is."""
    ks = draw(st.lists(st.integers(1, 8), min_size=2, max_size=4, unique=True))
    p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = draw(st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=6))
    return [p * k * c for k in ks], [q * k * c for k in ks]


def assert_sound(vts, vss, rep):
    """The size lies within its bounds, and the collision pair is two
    velocities with one remainder vector, the later at half the size."""
    earlier, later = rep.collision_pair
    residues = [tuple(forward_fold(v, ModulusPair(vt, vs)).v_space
                      for vt, vs in zip(vts, vss)) for v in (earlier, later)]
    assert rep.v_lb <= rep.size <= rep.v_ub
    assert earlier != later and residues[0] == residues[1]
    assert abs(earlier) <= abs(later) == rep.size / 2


class TestVectorisedWalk:
    """The size from the fold cells is the size of the walk one candidate at
    a time, with a sound collision pair."""

    def assert_same_size(self, vts, vss):
        rep = size_of(vts, vss)
        assert rep.size == _dict_walk(vts, vss)[0]
        assert_sound(vts, vss, rep)

    @given(moduli=shared_ratio_moduli())
    def test_matches_the_dict_walk(self, moduli):
        self.assert_same_size(*moduli)

    def test_integer_moduli(self):
        for vts, vss in [([20, 24], [15, 18]), ([12, 16], [9, 12]), ([28, 32], [21, 24]),
                         ([20, 24, 28], [15, 18, 21]), ([12, 28], [6, 14])]:
            self.assert_same_size(*([Fraction(v) for v in xs] for xs in (vts, vss)))

    def test_huge_denominator_takes_python_ints(self):
        # Ratio p/q = P/(P - 1) with P = 2**61 - 1: v_s = k*(P-1)/P, so one
        # m/s is 2*P scaled units and the 120 m/s period passes int64's 2**62.
        big = 2**61 - 1
        vts = [Fraction(20), Fraction(24)]
        vss = [v * Fraction(big - 1, big) for v in vts]
        rep = size_of(vts, vss)
        assert rep.fold_table[1].dtype == object
        assert rep.size == 120
        assert_sound(vts, vss, rep)

    @pytest.mark.parametrize("params, size", [
        # v_t 12.5/15 and v_s 20/24: the 1 m/s walk repeated at 76 > v_ub 75.
        pytest.param(dict(d=0.3, f_p=500, v_a=120, lambdas=(0.05, 0.06)), Fraction(75),
                     id="odd-v_ub"),
        # v_t 1.8315/9.99 and v_s 4.4/24, off the 1 m/s lattice, where the walk
        # found no repeat within its cap.
        pytest.param(dict(d=0.3, f_p=333, v_a=120, lambdas=(0.011, 0.06)),
                     Fraction(10989, 100), id="rational-moduli"),
    ])
    def test_walk_refusals_are_sized_exactly(self, params, size):
        cfg = make_config(**params)
        rep = determinable_size(cfg)
        assert rep.size == size
        assert_sound(*cfg.exact_moduli(), rep)

    def test_too_many_pairs_rejected(self):
        # Case II with v_t = 1000*v_s: over the 2000 m/s period the largest
        # group holds some 1500 cells, and their pairs pass the bound.
        with pytest.raises(ConfigurationError, match="pairs of fold cells.*too large"):
            size_of([1000, 2000], [1, 2])

    def test_table_too_large_rejected(self):
        # lcm(20.000001, 24.000001) is about 4.8e8 m/s, some 10**8 fold cells.
        vts = [Fraction(20_000_001, 10**6), Fraction(24_000_001, 10**6)]
        with pytest.raises(ConfigurationError, match="fold cells.*incommensurable"):
            size_of(vts, [v * 3 / 4 for v in vts])


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

    # The sizes the config-sweep benchmark checks: its 30 configs are the
    # default enumerate pairs at these channel spacings.
    @pytest.mark.parametrize("d, sizes", [
        (0.2, [24, 48, 80, 120, 168, 224, 288, 360, 440, 528]),
        (0.4, [24, 12, 20, 120, 168, 80, 96, 360, 440, 132]),
        (0.6, [12, 24, 40, 60, 84, 112, 144, 180, 220, 264]),
    ])
    def test_benchmark_sizes(self, d, sizes):
        rows = size_sweep(make_config(d=d), DEFAULT_ENUM_PAIRS)
        assert [rep.size for *_, rep in rows] == sizes

    def test_three_band_size(self):
        assert make_config(lambdas=(0.05, 0.06, 0.07)).size_report().size == 840
