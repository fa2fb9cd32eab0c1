"""Exact determinable-velocity-size computation for dual-fold systems.

For a multi-wavelength system whose blind-speed ratio is the reduced rational
p/q, the velocity range over which the vector of space-domain remainders stays
injective is bounded below by ``lcm(v_s)/q`` and above by ``lcm(v_t)``, but its
actual value between those bounds is irregular.  :func:`determinable_size`
scales the moduli once, by twice their common denominator, to integers; the
bounds and the fold cells of one ``lcm(v_t)`` period (:func:`_fold_table`)
come from them, and the size exactly from the cells.  The report keeps that
table, and :meth:`RadarConfig.fold_cells` cuts the search's cells from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError
from .folding import _split, as_fraction, blind_speeds

if TYPE_CHECKING:
    from .system import RadarConfig

__all__ = ["EnumerationReport", "determinable_size", "size_sweep"]

SWEEP_CSV_HEADER = "lambda1,lambda2,vt1,vs1,vt2,vs2,v_lb,size,v_ub"

# Most fold cells a sizing may build, and pairs of cells it may compare; the
# benchmark's systems need a few hundred of each.
_MAX_CELLS = 1_000_000
_MAX_PAIRS = 1_000_000


@dataclass(frozen=True)
class EnumerationReport:
    """Determinable velocity size with its two analytic bounds.

    ``collision_pair`` holds two velocities with one remainder vector, the
    larger magnitude last; that magnitude is ``size / 2``, the least such
    over every collision, so no two velocities of ``(-size/2, size/2)``
    collide.  By periodicity ``size <= v_ub``, and the paper bounds it below
    by ``v_lb``.  ``fold_table`` keeps the sizing's ``(scale, lo, hi, n_t,
    n_s)`` (:func:`_fold_table`) out of equality, hashing and the repr.
    """

    size: Fraction
    v_lb: Fraction
    v_ub: Fraction
    collision_pair: tuple
    fold_table: tuple | None = field(default=None, repr=False, compare=False)


def determinable_size(v_t_list, v_s_list) -> EnumerationReport:
    """Exact determinable velocity size of a multi-wavelength system.

    ``v_t_list`` and ``v_s_list`` hold positive rationals, one pair per
    wavelength, sharing one exact reduced ratio p/q.

    The size is ``2 * min max(|v|, |w|)`` over colliding pairs ``v != w``
    (equal remainder vectors).  Band ``i`` folds ``v`` to ``v - c_i``, with
    ``c_i`` constant on each fold cell, so ``v`` in cell ``k`` and ``w`` in
    cell ``l`` collide exactly when ``c_i(k) - c_i(l)`` is one shift ``s`` in
    every band and ``w = v - s``.  Cells are grouped by ``c_i - c_0``; for
    each pair of cells of a group, ``v`` ranges over ``[a, b)``, where ``v``
    is in cell ``k`` and ``v - s`` in cell ``l``, and ``max(|v|, |v - s|)``
    is least at ``v = max(a, s/2)`` if that is below ``b`` (when the least
    point would be ``b`` itself, the negated collision ``(-v, -w)`` attains
    it).  ``lcm(v_t)`` is a period, so the cells from ``-v_ub/2`` past
    ``+v_ub/2`` hold a least pair.
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

    # In units of 1/scale m/s every modulus is even, so every fold edge, half
    # offset and v_ub/2 is whole.
    scale = 2 * math.lcm(*(x.denominator for x in (*vts, *vss)))
    t, s = ([x.numerator * scale // x.denominator for x in xs] for xs in (vts, vss))
    v_lb = Fraction(math.lcm(*s), scale * ratio.denominator)
    v_ub = Fraction(math.lcm(*t), scale)
    cells = float(v_ub) * sum(1 / float(vs) + 2 / float(vt) for vt, vs in zip(vts, vss))
    if cells > _MAX_CELLS:
        # E.g. floats of irrational moduli rationalised to huge denominators.
        raise ConfigurationError(
            f"sizing would need {cells:.3g} fold cells; moduli "
            f"{v_t_list}/{v_s_list} are effectively incommensurable")
    lo, hi, n_t, n_s, t, s = _fold_table(t, s)
    offsets = n_t * t + n_s * s
    diffs = offsets[:, 1:] - offsets[:, :1]
    order = np.lexsort(diffs.T)
    diffs = diffs[order]
    group = np.cumsum(np.append(0, (diffs[1:] != diffs[:-1]).any(axis=1)))
    # Every pair of cells of one group, gathered by distance in sorted order;
    # (l, k) would give the collisions of (k, l) with v and w swapped.  A
    # group holds about one cell per collision shift, up to ~p of them.
    k, l = [], []
    pairs = 0
    for gap in range(1, len(order)):
        at = np.flatnonzero(group[gap:] == group[:-gap])
        if not at.size:
            break
        pairs += at.size
        if pairs > _MAX_PAIRS:
            raise ConfigurationError(
                f"sizing would compare over {_MAX_PAIRS} pairs of fold cells; "
                f"blind-speed ratio {ratio} of moduli {v_t_list}/{v_s_list} is too large")
        k.append(order[at])
        l.append(order[at + gap])
    k, l = np.concatenate(k), np.concatenate(l)
    shift = offsets[k, 0] - offsets[l, 0]
    v = np.maximum(np.maximum(lo[k], lo[l] + shift), shift // 2)
    keep = v < np.minimum(hi[k], hi[l] + shift)
    v, shift = v[keep], shift[keep]
    # v >= s/2, so max(|v|, |v - s|) is v when s > 0 and v - s when s < 0.
    reach = np.maximum(v, v - shift)
    best = int(reach.argmin())
    # The larger magnitude last; on a tie (v = s/2) the negative first.
    pair = (int(v[best] - shift[best]), int(v[best]))
    pair = pair if shift[best] > 0 else pair[::-1]
    return EnumerationReport(size=Fraction(2 * int(reach[best]), scale), v_lb=v_lb, v_ub=v_ub,
                             collision_pair=tuple(Fraction(x, scale) for x in pair),
                             fold_table=(scale, lo, hi, n_t, n_s))


def _fold_table(t, s):
    """Fold cells of ``[-lcm(t)/2, lcm(t)/2 + min(t))`` for the scaled integer
    moduli ``t`` and ``s`` (even, so every edge and half offset is whole).

    Band ``i`` folds ``v`` to ``v - n_t*t_i - n_s*s_i`` with integers constant
    between fold edges: ``(k+1/2)*t_i``, and ``k*t_i + (j+1/2)*s_i`` inside
    time cell ``k``.  Returns ``(lo, hi, n_t, n_s, t, s)``: the cells
    ``[lo[k], hi[k])`` refine every band's edges; row ``k`` of ``n_t`` and
    ``n_s`` holds each band's integers, the exact fold of ``lo[k]``; ``t``
    and ``s`` are the moduli as arrays.  Values are int64, or Python ints in
    object arrays where int64 could overflow.
    """
    first = -math.lcm(*t) // 2
    end = -first + min(t)
    # Sizing adds a shift of up to the window's width to a cell end.
    dtype = np.int64 if 2 * (end - first) + 2 * max(t) < 2**62 else object
    edges = []
    for vt, vs in zip(t, s):
        # Edges of one time cell relative to its centre: the time edge -vt/2,
        # then the space edges (j - 1/2)*vs inside the cell.
        rel = np.arange(_split(-vt // 2, vs)[0], _split(vt // 2 - 1, vs)[0] + 1,
                        dtype=dtype) * vs - vs // 2
        rel[0] = -vt // 2
        k = np.arange(_split(first, vt)[0], _split(end - 1, vt)[0] + 1, dtype=dtype)
        edges.append((k[:, None] * vt + rel).ravel())
    # Sort and drop shared edges; np.unique's hash table costs 1.3 MB of
    # resident memory on first use.
    edges = np.sort(np.concatenate(edges))
    edges = edges[(edges > first) & (edges < end)]
    lo = np.append(first, edges[np.append(True, edges[1:] > edges[:-1])])
    hi = np.append(lo[1:], end)
    t, s = np.array(t, dtype), np.array(s, dtype)
    n_t = ((lo[:, None] + t // 2) // t).astype(int)
    n_s = ((lo[:, None] - n_t * t + s // 2) // s).astype(int)
    return lo, hi, n_t, n_s, t, s


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
