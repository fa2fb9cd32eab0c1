"""Exact reference model the benchmark checks answers against.

Everything here is computed with :class:`fractions.Fraction` from the decimal
literals of a config, without calling :mod:`mfsar`, so the observations fed to
the program and the truths its answers are compared with do not depend on the
code under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Dual-band reference system of the repository's tests: blind speeds
# (20, 15) and (24, 18) m/s, determinable size 120 m/s.
REFERENCE = dict(d=0.4, v_a=120.0, f_p=800.0, r_0=10000.0, m_ch=8,
                 lambdas=(0.05, 0.06), t_s=1.0, b_w=80e6, t_pulse=2.25e-6,
                 f_s=100e6)


def config(**overrides) -> dict:
    """Reference config fields with ``overrides`` applied (lambdas as a tuple)."""
    params = dict(REFERENCE)
    params.update(overrides)
    params["lambdas"] = tuple(params["lambdas"])
    return params


def exact(x) -> Fraction:
    """The rational a decimal config literal denotes (0.05 -> 1/20)."""
    return Fraction(repr(x)) if isinstance(x, float) else Fraction(x)


def moduli(params: dict):
    """Exact blind speeds ``(v_t list, v_s list)``, one pair per wavelength."""
    f_p, v_a, d = exact(params["f_p"]), exact(params["v_a"]), exact(params["d"])
    vts = [exact(lam) * f_p / 2 for lam in params["lambdas"]]
    vss = [exact(lam) * v_a / d for lam in params["lambdas"]]
    return vts, vss


def case_of(params: dict) -> str:
    """System case from the exact blind-speed ratio ``d*f_p/(2*v_a)``."""
    ratio = exact(params["d"]) * exact(params["f_p"]) / (2 * exact(params["v_a"]))
    if ratio < 1:
        return "I"
    return "II" if ratio.denominator == 1 else "III"


def centered(a: Fraction, b: Fraction):
    """``(n, r)`` with ``a == n*b + r`` and ``r`` in ``[-b/2, b/2)``, exactly."""
    n = math.floor((a + b / 2) / b)
    return n, a - n * b


def cascade_fold(v: Fraction, vt: Fraction, vs: Fraction):
    """Time fold then space fold: ``(v_time, v_space, n_t, n_s)``."""
    n_t, v_time = centered(v, vt)
    n_s, v_space = centered(v_time, vs)
    return v_time, v_space, n_t, n_s


def observed(v: Fraction, params: dict) -> list:
    """Exact noise-free measurement per wavelength.

    Case I systems measure the time remainder; the others measure the space
    remainder of the cascade.
    """
    use_time = case_of(params) == "I"
    out = []
    for vt, vs in zip(*moduli(params)):
        v_time, v_space, _, _ = cascade_fold(v, vt, vs)
        out.append(v_time if use_time else v_space)
    return out


def determinable_size(params: dict) -> Fraction:
    """Velocity size over which the space-remainder vector stays injective.

    Walks 0, -1, +1, -2, +2, ... m/s and stops at the first velocity whose
    remainder vector was already seen; the size is twice its magnitude.  This
    is the definition the program's enumeration implements, written out again
    so its answers can be checked.
    """
    vts, vss = moduli(params)

    def vector(v):
        return tuple(cascade_fold(Fraction(v), vt, vs)[1] for vt, vs in zip(vts, vss))

    seen = {vector(0)}
    m = 1
    while True:
        for v in (-m, m):
            key = vector(v)
            if key in seen:
                return Fraction(2 * m)
            seen.add(key)
        m += 1


def retrieval_range(params: dict) -> Fraction:
    """Width of the velocity interval the CLI's automatic method covers.

    Closed-form CRT (cases I and II) is unique modulo the lcm of the moduli it
    uses; the case III search covers the determinable size.
    """
    case = case_of(params)
    if case == "III":
        return determinable_size(params)
    vts, vss = moduli(params)
    mods = vts if case == "I" else vss
    den = math.lcm(*(m.denominator for m in mods))
    return Fraction(math.lcm(*(int(m * den) for m in mods)), den)


def circular_error(value: float, truth: Fraction, modulus: Fraction) -> float:
    """Distance from ``value`` to ``truth`` on a circle of the given modulus."""
    return abs(float(centered(Fraction(value) - truth, modulus)[1]))
