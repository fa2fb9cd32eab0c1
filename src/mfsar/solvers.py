"""Radial-velocity retrieval from multi-wavelength folded measurements.

Four solvers share one contract: given the per-wavelength space-domain
velocity remainders of an unknown radial velocity, recover that velocity.

* ``robust_crt`` -- closed-form reconstruction for remainders of a single
  modulus set ``m * gamma_i`` with pairwise-coprime ``gamma_i``.  Tolerates
  remainder errors below ``m/4``.
* ``solve_case1`` / ``solve_case2`` -- wrap ``robust_crt`` with the time or
  space blind speeds of a case I / case II system.
* ``theorem1_solve`` -- reduces the cascaded (case III) fold to a single-fold
  problem with moduli ``v_s/q``; valid only when the true velocity magnitude
  stays below ``lcm(v_s)/(2q)``, and silently wrong outside (by design).
* ``search_retrieve`` -- the full-range case III solver: one joint search over
  the per-wavelength folding integers that minimises the worst
  cross-wavelength disagreement.
* ``brute_force_oracle`` -- an independent dense-grid scorer used to validate
  the others; it knows nothing about integer structure.

All solvers are pure and deterministic.  The reconstructing solvers report
ties between distinct velocities as AmbiguousSolutionError, never guess.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .enumeration import lcm_rational
from .errors import AmbiguousSolutionError, ConfigurationError, NoSolutionError
from .folding import (ModulusPair, as_fraction, bracket_fold, centered_remainder,
                      forward_fold, forward_fold_grid)
from .system import CaseId, RadarConfig, classify_case

__all__ = [
    "FoldedObservation",
    "AmbiguityIntegers",
    "RetrievalResult",
    "robust_crt",
    "solve_case1",
    "solve_case2",
    "theorem1_solve",
    "search_retrieve",
    "brute_force_oracle",
    "fold_per_wavelength",
    "theorem1_range",
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
        if self.xi_e < 0:
            raise ValueError(f"xi_e must be >= 0, got {self.xi_e}")


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
    the correctable bound.
    """
    rems = [float(r) for r in remainders]
    if len(rems) != len(moduli) or not rems:
        raise ConfigurationError("need one remainder per modulus")
    m_frac, gammas, lcm_frac = _common_factorisation(moduli)
    m = float(m_frac)
    lcm = float(lcm_frac)
    mods = [float(as_fraction(v)) for v in moduli]

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


def _require_case(cfg: RadarConfig, *allowed):
    case = classify_case(cfg)
    if case.case_id not in allowed:
        names = "/".join(c.value for c in allowed)
        raise ConfigurationError(
            f"solver requires a case {names} system, got case {case.case_id.value}"
        )
    return case


def solve_case1(obs: FoldedObservation, cfg: RadarConfig) -> RetrievalResult:
    """Retrieve the radial velocity of a case I system (time fold only)."""
    _require_case(cfg, CaseId.I)
    _check_observation(obs, cfg)
    return robust_crt(obs.v_space, cfg.observed_moduli())


def solve_case2(obs: FoldedObservation, cfg: RadarConfig) -> RetrievalResult:
    """Retrieve the radial velocity of a case II (DPCA-spaced) system.

    The cascaded fold collapses to a single fold by the space blind speeds,
    so the aggregate integers ``n_st = n_s + k*n_t`` are recovered by the
    closed-form reconstruction; the canonical per-fold split is derived from
    the estimate afterwards (useful for relocation via the time remainder).
    """
    _require_case(cfg, CaseId.II)
    _check_observation(obs, cfg)
    inner = robust_crt(obs.v_space, cfg.observed_moduli())
    folds = fold_per_wavelength(inner.v_hat, cfg)
    integers = AmbiguityIntegers(
        n_t=tuple(f.n_t for f in folds),
        n_s=tuple(f.n_s for f in folds),
        n_st=inner.integers.n_t,
    )
    return RetrievalResult(v_hat=inner.v_hat, integers=integers,
                           method="closed_form_crt", residual=inner.residual)


def theorem1_range(cfg: RadarConfig) -> float:
    """Width ``lcm(v_s)/q`` of the interval where the reduced solver is valid."""
    _, vss = cfg.exact_moduli()
    q = cfg.ratio().denominator
    return float(lcm_rational(vss) / q)


def theorem1_solve(obs: FoldedObservation, cfg: RadarConfig) -> RetrievalResult:
    """Reduce the cascaded fold to a single fold with moduli ``v_s/q``.

    Valid whenever the true velocity lies in ``[-v_lb/2, v_lb/2)`` with
    ``v_lb = lcm(v_s)/q``; for larger velocities the estimate aliases into
    that interval and is wrong by construction.  Callers who cannot bound the
    velocity should use :func:`search_retrieve` instead.
    """
    case = _require_case(cfg, CaseId.II, CaseId.III)
    _check_observation(obs, cfg)
    _, vss = cfg.exact_moduli()
    q = case.p_over_q.denominator
    reduced = [vs / q for vs in vss]
    zetas = [centered_remainder(v, float(r)) for v, r in zip(obs.v_space, reduced)]
    # lcm(v_s/q) = lcm(v_s)/q, so the reconstruction range is [-v_lb/2, v_lb/2).
    inner = robust_crt(zetas, reduced)
    folds = fold_per_wavelength(inner.v_hat, cfg)
    integers = AmbiguityIntegers(
        n_t=tuple(f.n_t for f in folds),
        n_s=tuple(f.n_s for f in folds),
    )
    return RetrievalResult(v_hat=inner.v_hat, integers=integers,
                           method="theorem1_crt", residual=inner.residual)


# ---------------------------------------------------------------------------
# searching solver (case III, full determinable range)

def _integer_grid(v_range: float, vt: float, vs: float):
    """Feasible (n_t, n_s) values for one wavelength of a case III search.

    The time integers cover velocities across the whole determinable range;
    the space integers cover time remainders across one time modulus.  The
    upper ends use the range endpoint minus one step, matching the unit-step
    enumeration that defines the range.
    """
    half = v_range / 2
    nt = np.arange(bracket_fold(-half, vt), bracket_fold(half - 1, vt) + 1)
    ns = np.arange(bracket_fold(-vt / 2, vs), bracket_fold(vt / 2 - 1, vs) + 1)
    return nt, ns


def _channel_tuples(v_obs: float, vt: float, vs: float, v_range: float, xi: float):
    """All feasible single-channel unfolds: integer pairs, reconstruction
    values, and the feasibility mask: the partial unfold inside the widened
    time interval and the reconstruction inside the widened range
    ``[-v_range/2 - xi, v_range/2 + xi)``."""
    nt, ns = _integer_grid(v_range, vt, vs)
    NT, NS = np.meshgrid(nt, ns, indexing="ij")
    NT, NS = NT.ravel(), NS.ravel()
    partial = v_obs + NS * vs          # velocity after undoing the space fold
    recon = partial + NT * vt
    lo, hi = -vt / 2 - xi, vt / 2 + xi
    half = v_range / 2 + xi
    feasible = (partial >= lo) & (partial < hi) & (recon >= -half) & (recon < half)
    return NT, NS, recon, feasible


def search_retrieve(obs: FoldedObservation, cfg: RadarConfig,
                    v_range: float | None = None) -> RetrievalResult:
    """Full-range case III retrieval by one joint folding-integer search.

    Every feasible first-wavelength integer pair gives a candidate velocity
    ``recon_1``.  Its score is the worst, over wavelengths ``i >= 2``, of the
    smallest disagreement ``|recon_i - recon_1|`` between that wavelength's
    feasible reconstructions and the candidate; the answer is the argmin
    (with two wavelengths, the pairwise argmin).  Scores within
    ``TIE_TOLERANCE`` of the minimum are tied.  Tied integer tuples that
    reconstruct the same velocity count as one answer, reported with the
    lexicographically smallest ``(n_t, n_s)`` per wavelength, the oracle's
    rule; tied candidates at distinct velocities raise AmbiguousSolutionError
    with those velocities as ``candidates`` -- ties are reported, never
    guessed.  Candidates are confined to the retrieval range: every
    reconstruction must lie in ``[-v_range/2 - xi_e, v_range/2 + xi_e)``,
    where ``v_range`` defaults to the config's determinable size, so an alias
    outside the range cannot tie with the in-range truth.  The estimate
    averages all per-wavelength reconstructions, so independent measurement
    errors shrink by the number of wavelengths.
    """
    _require_case(cfg, CaseId.III)
    _check_observation(obs, cfg)
    if len(cfg.lambdas) < 2:
        raise ConfigurationError("the search needs at least two wavelengths")
    vts_f, vss_f = cfg.exact_moduli()
    if v_range is None:
        v_range = float(cfg.size_report().size)

    # Feasible (n_t, n_s, reconstruction) arrays, one triple per wavelength.
    bands = []
    for i, (v_obs, vt, vs) in enumerate(zip(obs.v_space, vts_f, vss_f), start=1):
        NT, NS, recon, ok = _channel_tuples(v_obs, float(vt), float(vs), v_range,
                                            obs.xi_e)
        if not ok.any():
            raise NoSolutionError(f"no feasible folding integers for wavelength {i}")
        bands.append((NT[ok], NS[ok], recon[ok]))
    recon1 = bands[0][2]
    gaps = [np.abs(recon[:, None] - recon1[None, :]) for _, _, recon in bands[1:]]
    nearest = [gap.min(axis=0) for gap in gaps]
    score = np.max(nearest, axis=0)

    # Every tied combination of per-wavelength tuples: (velocity, integers, unfolds).
    answers = []
    for c in np.flatnonzero(score <= score.min() + TIE_TOLERANCE):
        rows = [[c]] + [np.flatnonzero(gap[:, c] <= near[c] + TIE_TOLERANCE)
                        for gap, near in zip(gaps, nearest)]
        for combo in itertools.product(*rows):
            ints = tuple((int(NT[r]), int(NS[r])) for (NT, NS, _), r in zip(bands, combo))
            unfolds = [float(recon[r]) for (_, _, recon), r in zip(bands, combo)]
            answers.append((float(np.mean(unfolds)), ints, unfolds))
    velocities = sorted(v for v, _, _ in answers)
    if velocities[-1] - velocities[0] > TIE_TOLERANCE:
        distinct = [v for v, prev in zip(velocities, [-math.inf] + velocities)
                    if v - prev > TIE_TOLERANCE]
        raise AmbiguousSolutionError(
            f"{len(distinct)} distinct velocities fit the observations equally "
            f"well: {[round(v, 6) for v in distinct]}", candidates=distinct)
    v_hat, ints, unfolds = min(answers, key=lambda answer: answer[1])
    residual = max(abs(u - v_hat) for u in unfolds)
    integers = AmbiguityIntegers(n_t=tuple(t for t, _ in ints),
                                 n_s=tuple(s for _, s in ints))
    return RetrievalResult(v_hat=v_hat, integers=integers, method="search",
                           residual=residual)


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


def _nearest_integers(obs: FoldedObservation, cfg: RadarConfig, v_hat: float,
                      v_range: float):
    """Per-wavelength folding integers most consistent with both the
    observations and a velocity estimate (deterministic lexicographic ties)."""
    case = classify_case(cfg)
    vts_f, vss_f = cfg.exact_moduli()
    n_t, n_s = [], []
    for v_obs, vt_f, vs_f in zip(obs.v_space, vts_f, vss_f):
        vt, vs = float(vt_f), float(vs_f)
        if case.case_id is CaseId.I:
            n_t.append(round((v_hat - v_obs) / vt))
            n_s.append(0)
            continue
        NT, NS = (a.ravel() for a in np.meshgrid(*_integer_grid(v_range, vt, vs),
                                                 indexing="ij"))
        err = np.abs(v_obs + NS * vs + NT * vt - v_hat)
        best = np.lexsort((NS, NT, err))[0]
        n_t.append(int(NT[best]))
        n_s.append(int(NS[best]))
    return tuple(n_t), tuple(n_s)


def brute_force_oracle(obs: FoldedObservation, cfg: RadarConfig,
                       v_range: float | None = None,
                       step: float = 0.01) -> RetrievalResult:
    """Dense-scan reference solver: try every candidate velocity.

    Scores each grid candidate by the worst circular distance between its
    folded space remainder and the observed one, over all wavelengths, then
    refines the winner with one golden-section pass.  Always returns the best
    candidate together with its score (as ``residual``); it never raises for
    unsolvable inputs, which makes it a safe comparison baseline.
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
    n_t, n_s = _nearest_integers(obs, cfg, v_best, v_range)
    integers = AmbiguityIntegers(n_t=n_t, n_s=n_s)
    return RetrievalResult(v_hat=v_best, integers=integers, method="oracle",
                           residual=s_best)
