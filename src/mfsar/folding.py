"""Exact modular operators and the forward cascaded velocity-folding model.

A moving target's radial velocity is observed through two nested modulo
reductions: pulse-rate sampling folds it by the time-domain blind speed
``v_t = lambda * f_p / 2``, and the cross-channel interferometric phase folds
the result again by the space-domain blind speed ``v_s = lambda * v_a / d``.
Both reductions use the same half-open centered interval ``[-b/2, b/2)``, and
one kernel, ``_split``, applies it everywhere: the scalar and grid folds, the
oracle's distance and the simulator's DFT bins.

The operators accept ints, floats, exact :class:`fractions.Fraction` values
and numpy arrays.  Results are exact whenever the inputs are, and a float
gets the folding integer of its exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ModulusPair",
    "FoldResult",
    "bracket_fold",
    "centered_remainder",
    "blind_speeds",
    "forward_fold",
    "forward_fold_grid",
    "doppler_of",
]


@dataclass(frozen=True)
class ModulusPair:
    """Blind speeds of one wavelength: time-domain ``v_t`` and space-domain ``v_s``."""

    v_t: Real
    v_s: Real

    def __post_init__(self):
        if not (self.v_t > 0 and self.v_s > 0):
            raise ConfigurationError(
                f"blind speeds must be positive, got v_t={self.v_t}, v_s={self.v_s}"
            )


@dataclass(frozen=True)
class FoldResult:
    """Outcome of the cascaded fold of one radial velocity.

    ``v_time`` is the velocity after the pulse-rate fold, ``v_space`` after the
    subsequent cross-channel fold; ``n_t`` and ``n_s`` are the corresponding
    folding integers, so ``v_r = v_space + n_s * v_s + n_t * v_t`` exactly.
    """

    v_time: Real
    v_space: Real
    n_t: int
    n_s: int


def _split(a, b):
    """Return ``(n, r)`` with ``a == n*b + r`` and ``r`` in ``[-b/2, b/2)``.

    ``divmod`` floors the exact quotient (it is built on the exact ``fmod``),
    element by element for arrays, so a float on a fold boundary lands on the
    side its exact value does.  The fold-up at exactly ``r == b/2`` makes the
    interval half-open on the right.  ``n`` is a float for float input.
    """
    if not b > 0:
        raise ConfigurationError(f"modulus must be positive, got {b}")
    array = isinstance(a, np.ndarray)
    if not array and -b <= 2 * a < b:
        # Inside the principal interval the remainder is the input, exactly.
        return 0, a
    n, r = divmod(a, b)
    up = 2 * r >= b
    n, r = n + up, r - up * b
    # divmod lifts a negative float remainder by b, which rounds: keep the
    # elements inside the interval exact, as the scalar branch does.
    return n, (np.where(n == 0, a, r) if array else r)


def bracket_fold(a, b):
    """Folding integer of ``a`` modulo ``b``: the ``n`` with ``a - n*b`` in ``[-b/2, b/2)``."""
    return int(_split(a, b)[0])


def centered_remainder(a, b):
    """Absolutely least remainder of ``a`` modulo ``b``, in ``[-b/2, b/2)``."""
    return _split(a, b)[1]


def blind_speeds(lam, f_p, v_a, d) -> ModulusPair:
    """Blind speeds for one carrier wavelength.

    Parameters
    ----------
    lam : wavelength (m)
    f_p : pulse repetition frequency (Hz)
    v_a : platform velocity (m/s)
    d : channel spacing (m)

    Returns
    -------
    ModulusPair with ``v_t = lam*f_p/2`` and ``v_s = lam*v_a/d``.
    """
    for name, value in (("lam", lam), ("f_p", f_p), ("v_a", v_a), ("d", d)):
        if not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    return ModulusPair(v_t=lam * f_p / 2, v_s=lam * v_a / d)


def forward_fold(v_r, moduli: ModulusPair) -> FoldResult:
    """Fold a radial velocity through the time modulus, then the space modulus."""
    n_t, v_time = _split(v_r, moduli.v_t)
    n_s, v_space = _split(v_time, moduli.v_s)
    return FoldResult(v_time=v_time, v_space=v_space, n_t=int(n_t), n_s=int(n_s))


def forward_fold_grid(v_r, v_t, v_s):
    """Vectorised cascade fold of an array of radial velocities.

    Returns ``(v_time, v_space, n_t, n_s)`` arrays, split element by element
    by the scalar operators' kernel.
    """
    v_r = np.asarray(v_r, dtype=float)
    n_t, v_time = _split(v_r, float(v_t))
    n_s, v_space = _split(v_time, float(v_s))
    return v_time, v_space, n_t.astype(int), n_s.astype(int)


def doppler_of(v_r, lam):
    """Doppler frequency of a radial velocity: ``-2*v_r/lam`` (Hz)."""
    if not lam > 0:
        raise ConfigurationError(f"wavelength must be positive, got {lam}")
    return -2 * v_r / lam


def as_fraction(x) -> Fraction:
    """Rationalise a physical quantity specified with finite precision.

    Fractions and integers are returned exactly.  A float is accepted only
    when the closest rational with denominator at most ``10**6`` reproduces
    it to within 4 units in its last place: a decimal literal such as
    ``0.031067`` gives ``31067/10**6``, while a float of an irrational value
    (``6*sqrt(2)``) has no such rational and raises ConfigurationError, as
    does an infinite or NaN value.  A relative tolerance would not do: at
    this denominator bound, ``1e-9*|x|`` is met by almost any float.

    Two shortcuts give that same closest rational without the
    continued-fraction search of ``limit_denominator``.  A float whose exact
    value has a denominator at most ``10**6`` is that rational.  Otherwise
    the float's shortest decimal repr ``n/q`` rounds to it, so
    ``|x - n/q| <= ulp(x)/2``; any other ``a/b`` with ``b <= 10**6`` lies at
    least ``1/(10**6*q)`` from ``n/q``.  When ``q <= 10**6`` and
    ``ulp(x)*q < 0.5e-6``, ``n/q`` is therefore strictly the closest and
    within the 4-ulp check.  Every other float takes the search.
    """
    if isinstance(x, (Fraction, int)):
        return Fraction(x)
    if not math.isfinite(x):
        raise ConfigurationError(f"value {x!r} is not finite")
    if isinstance(x, float):
        num, den = x.as_integer_ratio()
        if den <= 10**6:
            return Fraction(num, den)
        # float.__repr__: numpy floats repr as "np.float64(...)".
        mantissa, _, exponent = float.__repr__(x).partition("e")
        whole, _, digits = mantissa.partition(".")
        f = Fraction(int(whole + digits), 10 ** (len(digits) - int(exponent or 0)))
        if f.denominator <= 10**6 and math.ulp(x) * f.denominator < 0.5e-6:
            return f
    f = Fraction(x).limit_denominator(10**6)
    if abs(f - Fraction(x)) > 4 * math.ulp(x):
        raise ConfigurationError(
            f"value {x!r} is not a ratio of integers with denominator <= "
            f"10**6 (closest: {f}); moduli built from it are incommensurable")
    return f
