"""Brute-force determinable-velocity-size computation for dual-fold systems.

For a multi-wavelength system whose blind-speed ratio is the reduced rational
p/q, the velocity range over which the vector of space-domain remainders stays
injective is bounded below by ``lcm(v_s)/q`` and above by ``lcm(v_t)``, but its
actual value between those bounds is irregular.  This module finds it by exact
enumeration: walk candidate velocities outward from zero in 1 m/s steps and
stop at the first repeated remainder vector.  The walk is vectorised: a block
of candidates is folded at once, its remainder vectors are sorted, and the
first repeat in walk order is read off the equal runs.

All arithmetic is exact: inputs are rationalised, scaled to integers by the
common denominator, and remainder vectors are compared as integer columns
(int64, or Python ints in object arrays where int64 could overflow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError
from .folding import _split, as_fraction, blind_speeds

if TYPE_CHECKING:
    from .system import RadarConfig

__all__ = ["EnumerationReport", "lcm_rational", "determinable_size", "size_sweep"]

SWEEP_CSV_HEADER = "lambda1,lambda2,vt1,vs1,vt2,vs2,v_lb,size,v_ub"

# Candidates folded in the walk's first pass, velocities up to 512 m/s either
# way: the benchmark's systems (sizes up to 840 m/s) repeat within it.
_FIRST_BLOCK = 1024


@dataclass(frozen=True)
class EnumerationReport:
    """Determinable velocity size with its two analytic bounds.

    ``collision_pair`` holds the two velocities whose remainder vectors first
    coincide during the walk; their distance equals ``size``, and
    :func:`determinable_size` checks ``v_lb <= size <= v_ub``.
    """

    size: Fraction
    v_lb: Fraction
    v_ub: Fraction
    collision_pair: tuple


def lcm_rational(values) -> Fraction:
    """Least positive rational that is an integer multiple of every input."""
    vals = [as_fraction(v) for v in values]
    if not vals:
        raise ConfigurationError("lcm of an empty list")
    if any(v <= 0 for v in vals):
        raise ConfigurationError("lcm inputs must be positive")
    den = math.lcm(*(v.denominator for v in vals))
    num = math.lcm(*(v.numerator * (den // v.denominator) for v in vals))
    return Fraction(num, den)


def determinable_size(v_t_list, v_s_list) -> EnumerationReport:
    """Enumerate the determinable velocity size of a multi-wavelength system.

    ``v_t_list`` and ``v_s_list`` hold positive rationals, one pair per
    wavelength, sharing one exact reduced ratio p/q.

    Walks 0, -1, +1, -2, ... m/s computing the space-domain remainder vector
    of each candidate; the first duplicate vector marks the maximum
    determinable velocity, and the size is twice that value.  The walk runs
    as numpy passes over blocks of candidates in that order (see
    :func:`_first_repeat`), with the same first repeat and so the same
    answer as a one-by-one walk.  For non-integral moduli the size is that
    of this 1 m/s walk; when that walk finds no repeat within the
    ``lcm(v_t)`` period, or one outside the bounds, ConfigurationError is
    raised.
    """
    if len(v_t_list) != len(v_s_list) or len(v_t_list) < 2:
        raise ConfigurationError("need matching v_t/v_s lists with at least two wavelengths")
    if any(v <= 0 for v in [*v_t_list, *v_s_list]):
        raise ConfigurationError("blind speeds must be positive")
    # Compare the ratios before rationalising, so a mismatch is reported as
    # such even when a modulus is itself not rationalisable.
    approx = [float(vt) / float(vs) for vt, vs in zip(v_t_list, v_s_list)]
    if max(approx) - min(approx) > 1e-9 * max(approx):
        raise ConfigurationError(f"wavelengths disagree on v_t/v_s: {approx}")
    vts = [as_fraction(v) for v in v_t_list]
    vss = [as_fraction(v) for v in v_s_list]
    ratios = {vt / vs for vt, vs in zip(vts, vss)}
    if len(ratios) != 1:
        raise ConfigurationError(f"wavelengths disagree on v_t/v_s: {sorted(ratios)}")
    ratio = ratios.pop()

    v_lb = lcm_rational(vss) / ratio.denominator
    v_ub = lcm_rational(vts)

    # Scale everything to integers so remainder vectors compare exactly; one
    # step of the walk (1 m/s) is then ``scale``.
    scale = math.lcm(*(x.denominator for x in vts + vss))
    vt_i = [int(v * scale) for v in vts]
    vs_i = [int(v * scale) for v in vss]

    # Collision is guaranteed by the v_ub periodicity, so cap the walk there.
    limit = int(v_ub * scale) // 2 + scale
    if limit // scale > 2_000_000:
        # A plausible system collides within a few hundred steps; a bound this
        # large means the inputs are effectively incommensurable (e.g. floats
        # of irrational moduli rationalised to huge denominators).
        raise ConfigurationError(
            f"enumeration would need {limit // scale} steps; moduli "
            f"{v_t_list}/{v_s_list} are effectively incommensurable")
    dtype = np.int64 if limit + 2 * max(vt_i) < 2**62 else object
    pair = _first_repeat(vt_i, vs_i, scale, 2 * (limit // scale) + 1, dtype)
    size = None if pair is None else Fraction(2 * abs(int(pair[1])), scale)
    if size is None or not v_lb <= size <= v_ub:
        # The 1 m/s lattice misses the v_ub period when the moduli are not
        # whole m/s, and overshoots it by a step when v_ub is odd.
        found = (f"no repeat within +-{limit // scale} m/s" if size is None
                 else f"size {size} outside [{v_lb}, {v_ub}]")
        raise ConfigurationError(
            f"cannot size blind speeds v_t ({', '.join(map(str, vts))}), "
            f"v_s ({', '.join(map(str, vss))}) m/s: the 1 m/s walk finds {found}")
    return EnumerationReport(size=size, v_lb=v_lb, v_ub=v_ub,
                             collision_pair=tuple(Fraction(int(v), scale) for v in pair))


def _first_repeat(vt_i, vs_i, scale, total, dtype):
    """First repeated remainder vector of the walk 0, -scale, +scale, ...

    Returns the walk's first candidate whose space-domain remainder vector
    an earlier candidate already had, with that earlier candidate, as
    ``(earlier, later)``; ``None`` when none of the first ``total`` does.
    Each pass folds a block of candidates from the start of the walk, sorts
    their remainder vectors (stably, so an equal run lists its members in
    walk order) and takes the smallest second member of a run: that is the
    first repeat, and the run's first member is the candidate it repeats.
    A pass without a repeat doubles the block, up to ``total``.
    """
    n = min(_FIRST_BLOCK, total)
    while True:
        cand = (np.arange(1, n + 1) // 2).astype(dtype) * scale
        cand[1::2] *= -1
        columns = [_split(_split(cand, vt)[1], vs)[1] for vt, vs in zip(vt_i, vs_i)]
        order = np.lexsort(columns)
        same = np.ones(n - 1, dtype=bool)
        for column in columns:
            column = column[order]
            same &= column[1:] == column[:-1]
        later = order[1:][same]
        if later.size:
            first = later.argmin()
            return cand[order[:-1][same][first]], cand[later[first]]
        if n == total:
            return None
        n = min(2 * n, total)


def size_sweep(cfg: RadarConfig, lambda_pairs) -> list:
    """Determinable size for a list of wavelength pairs of one system.

    Returns one row per pair:
    ``(lambda_pair, v_t1, v_s1, v_t2, v_s2, report)``.
    """
    f_p = as_fraction(cfg.f_p)
    v_a = as_fraction(cfg.v_a)
    d = as_fraction(cfg.d)
    rows = []
    for lam1, lam2 in lambda_pairs:
        p1, p2 = (blind_speeds(as_fraction(lam), f_p, v_a, d) for lam in (lam1, lam2))
        report = determinable_size([p1.v_t, p2.v_t], [p1.v_s, p2.v_s])
        rows.append(((lam1, lam2), p1.v_t, p1.v_s, p2.v_t, p2.v_s, report))
    return rows


def _num(x: Fraction) -> str:
    return str(int(x)) if x.denominator == 1 else str(float(x))


def sweep_to_csv(rows) -> str:
    """Serialise size_sweep output; one line per pair, SI units (m/s)."""
    lines = [SWEEP_CSV_HEADER]
    for (lam1, lam2), vt1, vs1, vt2, vs2, rep in rows:
        lines.append(",".join([
            str(lam1), str(lam2), _num(vt1), _num(vs1), _num(vt2), _num(vs2),
            _num(rep.v_lb), _num(rep.size), _num(rep.v_ub),
        ]))
    return "\n".join(lines) + "\n"
