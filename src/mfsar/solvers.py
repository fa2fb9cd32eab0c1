"""Radial-velocity retrieval from multi-wavelength folded measurements.

The solvers share one contract: given the per-wavelength measured velocity
remainders of an unknown radial velocity, recover that velocity.

* ``robust_crt`` -- closed-form reconstruction for remainders of a single
  modulus set ``m * gamma_i`` with pairwise-coprime ``gamma_i``.  Tolerates
  remainder errors below ``m/4``.
* ``crt_solve`` -- ``robust_crt`` on a system's observed moduli divided by
  ``q``, the denominator of ``p/q = v_t/v_s`` (``q = 1`` in cases I and II).
  In cases I and II that is the whole fold; in case III it is Theorem 1's
  reduction of the cascaded fold, valid only when the true velocity
  magnitude stays below ``crt_range/2`` and silently wrong outside (by
  design).
* ``search_retrieve`` -- the full-range case III solver: the exact minimum,
  over the config's fold cells, of the oracle's objective, the worst
  per-wavelength circular distance between a velocity's space remainder and
  the observed one.  It answers only when the velocities consistent with the
  observations (scoring within ``xi_e``, or tied with the best) lie within
  ``2*xi_e`` of one another.
* ``brute_force_oracle`` -- an independent dense-grid scorer of the same
  objective used to validate the others; it knows nothing about integer
  structure until it reports the integers of its answer.

All solvers are pure and deterministic.  The reconstructing solvers report
ties between distinct velocities as AmbiguousSolutionError, never guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AmbiguousSolutionError, ConfigurationError, NoSolutionError
from .folding import (ModulusPair, _split, as_fraction, bracket_fold,
                      centered_remainder, forward_fold, forward_fold_grid)
from .system import CaseId, RadarConfig, classify_case

__all__ = [
    "FoldedObservation",
    "AmbiguityIntegers",
    "RetrievalResult",
    "robust_crt",
    "crt_solve",
    "search_retrieve",
    "brute_force_oracle",
    "fold_per_wavelength",
    "crt_range",
]

# Objective values within this margin of the minimum count as tied, and
# reconstructions within it as one velocity; exact float ties are fragile.
TIE_TOLERANCE = 1e-6

# Default measurement error bound (m/s) when the caller does not supply one.
DEFAULT_ERROR_BOUND = 0.5


@dataclass(frozen=True)
class FoldedObservation:
    """Measured space-domain velocity remainders, one per wavelength.

    ``xi_e`` bounds the per-wavelength measurement error; remainders may
    exceed their nominal half-open interval by at most that amount.
    """

    v_space: tuple
    xi_e: float = DEFAULT_ERROR_BOUND

    def __post_init__(self):
        object.__setattr__(self, "v_space", tuple(float(v) for v in self.v_space))
        if not self.v_space:
            raise ValueError("need at least one observation")
        if not 0 <= self.xi_e < math.inf:
            raise ValueError(f"xi_e must be a finite number >= 0, got {self.xi_e}")


@dataclass(frozen=True)
class AmbiguityIntegers:
    """Folding integers per wavelength; ``n_st`` aggregates the case II pair."""

    n_t: tuple
    n_s: tuple
    n_st: tuple | None = None

    def to_dict(self) -> dict:
        out = {"n_t": list(self.n_t), "n_s": list(self.n_s)}
        if self.n_st is not None:
            out["n_st"] = list(self.n_st)
        return out


@dataclass(frozen=True)
class RetrievalResult:
    """Estimated radial velocity plus solver diagnostics.

    ``residual`` is the largest disagreement between any single-wavelength
    reconstruction and the returned estimate (m/s).
    """

    v_hat: float
    integers: AmbiguityIntegers
    method: str
    residual: float

    def to_dict(self) -> dict:
        return {
            "v_hat": self.v_hat,
            "integers": self.integers.to_dict(),
            "method": self.method,
            "residual": self.residual,
        }


# ---------------------------------------------------------------------------
# shared helpers

def _check_observation(obs: FoldedObservation, cfg: RadarConfig) -> None:
    if len(obs.v_space) != len(cfg.lambdas):
        raise ValueError(
            f"{len(obs.v_space)} observations for {len(cfg.lambdas)} wavelengths"
        )
    for v, m in zip(obs.v_space, cfg.observed_moduli()):
        half = float(m) / 2
        if not (-half - obs.xi_e <= v < half + obs.xi_e):
            raise ValueError(
                f"observation {v} outside the widened remainder interval "
                f"[{-half - obs.xi_e}, {half + obs.xi_e})"
            )


def _common_factorisation(moduli):
    """Split rational moduli into ``m * gamma_i`` with integer gamma.

    Returns ``(m, gammas, lcm)`` where ``m`` is the greatest common rational
    divisor.  Raises unless the gammas are pairwise coprime (the closed-form
    reconstruction requires it).
    """
    mods = [as_fraction(v) for v in moduli]
    if any(v <= 0 for v in mods):
        raise ConfigurationError("moduli must be positive")
    den = math.lcm(*(v.denominator for v in mods))
    ints = [int(v * den) for v in mods]
    g = math.gcd(*ints)
    gammas = [a // g for a in ints]
    for a, b in itertools.combinations(gammas, 2):
        if math.gcd(a, b) != 1:
            raise ConfigurationError(
                f"reduced moduli {gammas} are not pairwise coprime; "
                "the closed-form reconstruction does not apply"
            )
    m = Fraction(g, den)
    lcm = Fraction(math.lcm(*ints), den)
    return m, gammas, lcm


def _crt_int(residues, moduli) -> int:
    """Classical integer CRT for pairwise-coprime moduli."""
    total = math.prod(moduli)
    acc = 0
    for r, g in zip(residues, moduli):
        partial = total // g
        acc += (r % g) * partial * pow(partial, -1, g)
    return acc % total


def _circular_mean(values, modulus: float) -> float:
    """Mean of points on a circle of circumference ``modulus``, in [0, modulus)."""
    angles = 2 * np.pi * np.asarray(values, dtype=float) / modulus
    z = np.exp(1j * angles).mean()
    if abs(z) < 1e-12:
        raise AmbiguousSolutionError(
            "remainder residues are spread evenly around the common modulus; "
            "no consensus residue exists", candidates=list(values))
    return (np.angle(z) / (2 * np.pi) * modulus) % modulus


def robust_crt(remainders, moduli) -> RetrievalResult:
    """Closed-form robust reconstruction from erroneous real remainders.

    Parameters
    ----------
    remainders : centered remainders, one per modulus (may carry bounded error)
    moduli : positive commensurable reals ``m * gamma_i`` with pairwise
        coprime integers ``gamma_i``

    The value is recoverable only modulo ``lcm`` of the moduli, so the
    estimate is returned as its representative in ``[-lcm/2, lcm/2)``: a
    noisy estimate just past ``+lcm/2`` wraps to the negative end.  The
    common residue modulo ``m`` is estimated by circular averaging, the
    per-modulus quotients follow by rounding, and the quotients' own remainder
    system is solved exactly.  The estimate is the mean of the per-modulus
    unfolded values, so independent errors average down.  Exact recovery of
    the folding integers is guaranteed for errors below ``m/4`` (Wang & Xia,
    IEEE TSP 2010).

    Raises NoSolutionError when the unfolded values spread (max - min) by
    ``m/2`` or more: exactly then no value reproduces every remainder with an
    error below ``m/4``, so the remainders cannot come from one value within
    the correctable bound.  A NaN or infinite remainder raises
    ConfigurationError.
    """
    rems = [float(r) for r in remainders]
    if len(rems) != len(moduli) or not rems:
        raise ConfigurationError("need one remainder per modulus")
    for r in rems:
        if not math.isfinite(r):
            raise ConfigurationError(f"remainder {r} is not finite")
    m_frac, gammas, lcm_frac = _common_factorisation(moduli)
    m = float(m_frac)
    lcm = float(lcm_frac)
    mods = [float(m_frac * gamma) for gamma in gammas]

    # Shift so candidates live in [0, lcm); remainders shift congruently.
    shift = lcm / 2
    shifted = [(r + shift) % mod for r, mod in zip(rems, mods)]
    common = [r % m for r in shifted]
    r_c = _circular_mean(common, m)
    # Per-modulus circular deviation from the consensus residue; subtracting
    # it leaves an exact multiple of m (up to float epsilon).
    devs = [centered_remainder(c - r_c, m) for c in common]
    ks = [round((r - r_c - dev) / m) for r, dev in zip(shifted, devs)]
    k_hat = _crt_int(ks, gammas)
    unfolds = []
    for r, k, gamma, mod in zip(shifted, ks, gammas, mods):
        n = (k_hat - k) // gamma
        unfolds.append(n * mod + r)
    # Each unfold is K*m + r_c + dev_i, so their spread is the spread of the
    # deviations from the consensus residue.
    spread = max(unfolds) - min(unfolds)
    if spread >= m / 2:
        raise NoSolutionError(
            f"unfolded remainders spread by {spread:.6g}, at or beyond the "
            f"correctable bound {m / 2:.6g}", candidates=unfolds)
    estimate = float(np.mean(unfolds))
    residual = max(abs(u - estimate) for u in unfolds)
    v_hat = centered_remainder(estimate - shift, lcm)
    n_unfold = tuple(round((v_hat - r) / mod) for r, mod in zip(rems, mods))
    integers = AmbiguityIntegers(n_t=n_unfold, n_s=(0,) * len(rems))
    return RetrievalResult(v_hat=v_hat, integers=integers,
                           method="closed_form_crt", residual=residual)


def fold_per_wavelength(v_r: float, cfg: RadarConfig):
    """Cascade-fold one velocity through every wavelength of a system."""
    vts, vss = cfg.exact_moduli()
    return [forward_fold(v_r, ModulusPair(float(vt), float(vs)))
            for vt, vs in zip(vts, vss)]


def _integers_at(v: float, v_space, vts, vss):
    """Folding integers ``(n_t, n_s)`` of ``v`` per band, from float blind
    speeds, plus the wrap that carries each observation onto its remainder:
    in ``n_t`` when the observation is the time remainder (``v_t < v_s``,
    case I), in ``n_s`` otherwise."""
    n_t, n_s = [], []
    for v_obs, vt, vs in zip(v_space, vts, vss):
        k_t, v_time = _split(v, vt)
        k_s, v_rem = _split(v_time, vs)
        wrap = bracket_fold(v_rem - v_obs, min(vt, vs))
        n_t.append(int(k_t) + wrap * (vt < vs))
        n_s.append(int(k_s) + wrap * (vt >= vs))
    return tuple(n_t), tuple(n_s)


def _reduced_moduli(cfg: RadarConfig):
    """Each band's observed modulus, divided in case III by ``q``, the
    denominator of ``p/q`` (``q = 1`` in case II; case I has no ``q``)."""
    if classify_case(cfg) is not CaseId.III:
        return cfg.observed_moduli()
    return [m / cfg.ratio().denominator for m in cfg.observed_moduli()]


def crt_range(cfg: RadarConfig) -> float:
    """Width ``lcm(observed moduli)/q`` of the interval, centred on zero,
    where :func:`crt_solve` is valid.  Like :func:`crt_solve`, raises
    ConfigurationError unless the reduced moduli are pairwise coprime."""
    return float(_common_factorisation(_reduced_moduli(cfg))[2])


def crt_solve(obs: FoldedObservation, cfg: RadarConfig) -> RetrievalResult:
    """Closed-form retrieval of any case by the robust CRT on reduced moduli.

    The moduli are the observed ones divided by ``q`` (:func:`crt_range`).
    In cases I and II the fold is a single one by those moduli, so the
    estimate is the velocity in ``[-crt_range/2, crt_range/2)``.  In case III
    Theorem 1 reduces the cascaded fold to that single fold whenever the true
    velocity lies in that interval; for larger velocities the estimate
    aliases into it and is wrong by construction.  Callers who cannot bound
    the velocity should use :func:`search_retrieve` instead.

    ``v_hat`` may lie up to ``xi_e`` across a fold edge from the velocity a
    band observed, so each band takes the integers of ``v_hat``,
    ``v_hat - xi_e`` or ``v_hat + xi_e``, the first whose rebuild
    ``v_obs + n_t*v_t + n_s*v_s`` is within TIE_TOLERANCE of the closest to
    ``v_hat``.  Case II also reports the aggregate integers
    ``n_st = n_s + k*n_t`` that the reconstruction recovers.
    """
    _check_observation(obs, cfg)
    inner = robust_crt(obs.v_space, _reduced_moduli(cfg))
    v_hat, xi = inner.v_hat, obs.xi_e
    vts, vss = ([float(v) for v in moduli] for moduli in cfg.exact_moduli())
    options = [_integers_at(v, obs.v_space, vts, vss)
               for v in (v_hat, v_hat - xi, v_hat + xi)]
    n_t, n_s = [], []
    for i, (v_obs, vt, vs) in enumerate(zip(obs.v_space, vts, vss)):
        misses = [abs(v_obs + o_t[i] * vt + o_s[i] * vs - v_hat) for o_t, o_s in options]
        limit = min(misses) + TIE_TOLERANCE
        o_t, o_s = next(o for o, miss in zip(options, misses) if miss <= limit)
        n_t.append(o_t[i])
        n_s.append(o_s[i])
    n_st = inner.integers.n_t if classify_case(cfg) is CaseId.II else None
    integers = AmbiguityIntegers(n_t=tuple(n_t), n_s=tuple(n_s), n_st=n_st)
    return RetrievalResult(v_hat=v_hat, integers=integers, method="closed_form_crt",
                           residual=inner.residual)


# ---------------------------------------------------------------------------
# searching solver (case III, full determinable range)

def search_retrieve(obs: FoldedObservation, cfg: RadarConfig,
                    v_range: float | None = None) -> RetrievalResult:
    """Full-range case III retrieval by exact minimax over the fold cells.

    The objective is the oracle's: the worst, over wavelengths, circular
    distance between a velocity's space remainder and the observed one.  On
    a fold cell (:meth:`RadarConfig.fold_cells`) band ``i`` reconstructs
    ``r_i + c_i + j_i*v_s,i`` with a wrap ``j_i`` in {-1, 0, 1}, so per cell
    and wraps the optimum is the clamped midrange of those reconstructions.

    The velocities scoring at most ``max(best + TIE_TOLERANCE, xi_e)`` are
    consistent.  When they span at most ``2*xi_e`` on the circle of
    ``v_ub = lcm(v_t)``, the best one is returned, with its score as
    ``residual`` and its cell's integers plus the wraps; otherwise
    AmbiguousSolutionError carries the best velocity of each separate part
    as ``candidates``.  Velocities lie in the determinable range, or in
    ``[-v_range/2, v_range/2)`` for a narrower ``v_range``, which must be a
    positive finite number.

    The kernel runs band-major on what :meth:`RadarConfig.fold_cells`
    compiled: each band's offsets are one contiguous row, and the kept
    cells' reconstructions form a bands x cells x wraps array reduced over
    the band axis.
    """
    case = classify_case(cfg)
    if case is not CaseId.III:
        raise ConfigurationError(f"the search requires a case III system, got case {case.value}")
    _check_observation(obs, cfg)
    if len(cfg.lambdas) < 2:
        raise ConfigurationError("the search needs at least two wavelengths")
    cells, rows = cfg.fold_cells(), slice(None)
    lo, hi, widths = cells.lo, cells.hi, cells.widths
    if v_range is not None:
        if not 0 < v_range < math.inf:
            raise ConfigurationError(f"v_range must be a positive finite number, got {v_range}")
        if v_range > cfg.size_report().size:
            raise ConfigurationError(
                f"v_range {v_range} exceeds the determinable size {cfg.size_report().size}")
        rows = np.flatnonzero((hi > -v_range / 2) & (lo < v_range / 2))
        lo, hi = np.maximum(lo[rows], -v_range / 2), np.minimum(hi[rows], v_range / 2)
        widths = hi - lo
    # Band-major: row i holds band i's reconstructions r_i + c_i, one per cell.
    base = cells.by_band[:, rows] + np.reshape(obs.v_space, (-1, 1))

    # Lower bound per cell: the largest circular distance from a band's
    # observation to that band's remainders on the cell (negative inside).
    # Score the cells it cannot exclude; when the best score found exceeds
    # the limit they were kept by, widen the limit to it once.
    outside = np.maximum(lo - base, base - hi)
    lower = np.minimum(outside, cells.moduli[:, None] - widths - outside).max(axis=0)
    limit = max(lower.min(), obs.xi_e) + TIE_TOLERANCE
    while True:
        keep = np.flatnonzero(lower <= limit)
        # One wrap either way reaches every reconstruction: an observation
        # lies within xi_e (< v_s/2) of its half-open interval.
        points = base[:, keep, None] + cells.wrap_shifts[:, None, :]  # bands x cells x wraps
        low, high = points.min(axis=0), points.max(axis=0)
        v = np.minimum(np.maximum((low + high) / 2, lo[keep, None]), hi[keep, None])
        score = np.maximum(v - low, high - v)
        best = score.min()
        if best + TIE_TOLERANCE <= limit:
            break
        limit = best + TIE_TOLERANCE

    # The consistent set: per cell and wraps within the bound, the interval
    # [high - bound, low + bound] of the cell.  Its span on the circle is v_ub
    # less the widest gap; one interval spans up to 2*max(xi_e, TIE_TOLERANCE).
    bound = max(best + TIE_TOLERANCE, obs.xi_e)
    cell, wrap = np.nonzero(score <= bound)
    starts = np.maximum(lo[keep][cell], high[cell, wrap] - bound)
    ends = np.minimum(hi[keep][cell], low[cell, wrap] + bound)
    order = np.argsort(starts)
    starts, ends = starts[order], ends[order]
    reach = np.maximum.accumulate(ends)
    gaps = np.append(starts[1:] - reach[:-1], starts[0] + cells.v_ub - reach[-1])
    if cells.v_ub - gaps.max() > 2 * max(obs.xi_e, TIE_TOLERANCE) + TIE_TOLERANCE:
        parts = np.split(order, np.flatnonzero(gaps[:-1] > TIE_TOLERANCE) + 1)
        distinct = [float(v[cell[p], wrap[p]][np.argmin(score[cell[p], wrap[p]])])
                    for p in parts]
        raise AmbiguousSolutionError(
            f"{len(distinct)} distinct velocities fit the observations within "
            f"{bound:.6g}: {[round(x, 6) for x in distinct]}", candidates=distinct)
    k, w = np.unravel_index(np.argmin(score), score.shape)
    integers = AmbiguityIntegers(
        n_t=tuple(int(x) for x in cells.n_t[rows][keep[k]]),
        n_s=tuple(int(x) for x in cells.n_s[rows][keep[k]] + cells.wraps[:, w]))
    return RetrievalResult(v_hat=float(v[k, w]), integers=integers, method="search",
                           residual=float(best))


# ---------------------------------------------------------------------------
# independent oracle

def _golden_min(f, lo: float, hi: float, tol: float = 1e-9):
    """Golden-section minimisation of a unimodal scalar function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def brute_force_oracle(obs: FoldedObservation, cfg: RadarConfig,
                       v_range: float | None = None,
                       step: float = 0.01) -> RetrievalResult:
    """Dense-scan reference solver: try every candidate velocity.

    Scores each grid candidate by the worst circular distance between its
    folded space remainder and the observed one, over all wavelengths, then
    refines the winner with one golden-section pass.  Always returns the best
    candidate together with its score (as ``residual``); it never raises for
    unsolvable inputs, which makes it a safe comparison baseline.  Its
    integers are the fold of the best candidate plus each observation's wrap.
    """
    if not step > 0:
        raise ConfigurationError(f"step must be positive, got {step}")
    _check_observation(obs, cfg)
    if v_range is None:
        v_range = float(cfg.size_report().size)
    half = v_range / 2
    grid = np.arange(-half, half, step)
    bands = list(zip(obs.v_space, *cfg.exact_moduli(), cfg.observed_moduli()))

    def chan_distance(v, v_obs, vt, vs, mod):
        _, v_space, _, _ = forward_fold_grid(v, vt, vs)
        return np.abs(centered_remainder(v_space - v_obs, float(mod)))

    score = np.zeros_like(grid)
    for band in bands:
        score = np.maximum(score, chan_distance(grid, *band))
    best = int(np.argmin(score))
    v_best, s_best = float(grid[best]), float(score[best])

    def scalar_score(v):
        return max(float(chan_distance(np.array([v]), *band)[0]) for band in bands)

    lo = max(-half, v_best - step)
    hi = min(half - 1e-12, v_best + step)
    v_ref, s_ref = _golden_min(scalar_score, lo, hi)
    if s_ref < s_best:
        v_best, s_best = v_ref, s_ref
    n_t, n_s = _integers_at(v_best, obs.v_space,
                            *([float(v) for v in moduli] for moduli in cfg.exact_moduli()))
    return RetrievalResult(v_hat=v_best, integers=AmbiguityIntegers(n_t=n_t, n_s=n_s),
                           method="oracle", residual=s_best)
