"""Radar system configuration and classification.

A multichannel along-track system is classified by the ratio of its two blind
speeds ``v_t/v_s = d*f_p/(2*v_a)``:

* case I   -- ratio < 1 (channel spacing below two platform steps per pulse):
  only the pulse-rate fold occurs, the interferometric velocity is unambiguous
  up to ``v_t``.
* case II  -- ratio is an integer k >= 1 (the classical DPCA spacing): both
  folds occur but collapse into a single fold by ``v_s``.
* case III -- ratio > 1 and non-integer: the genuinely cascaded fold; this is
  the common configuration in practice.

The ratio is exact: ``d``, ``f_p``, ``v_a`` and every wavelength are
rationalised once, at construction, by the verified rule the solvers use
(:func:`folding.as_fraction`, denominators up to 10**6); a system too large
to size is refused by :func:`enumeration.determinable_size`.

:class:`RadarConfig` is the one place the solvers' system quantities are
derived, each exactly and at most once per instance:

* at construction -- p/q (:meth:`RadarConfig.ratio`; case II's k is p),
  the case, a :class:`CaseId` (:func:`classify_case`), the blind speeds of
  every wavelength (:meth:`RadarConfig.exact_moduli`) and the modulus that folds
  each measured remainder, ``min(v_t, v_s)``: ``v_t`` in case I, ``v_s`` in
  cases II and III (:meth:`RadarConfig.observed_moduli`);
* on first use, then cached -- the determinable velocity size with its two
  bounds (:meth:`RadarConfig.size_report`), computed exactly from the fold
  cells of one ``lcm(v_t)`` period by :func:`enumeration.determinable_size`,
  and the fold cells of the determinable range, cut from that period's table
  (:meth:`RadarConfig.fold_cells`).  They also hold everything the case III
  search reads on every call, compiled once: the offsets band-major, the cell
  widths, the observed moduli as floats, the wrap table with its shifts and
  ``v_ub = lcm(v_t)`` as a float.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import enumeration
from .errors import ConfigurationError
from .folding import ModulusPair, as_fraction, blind_speeds

__all__ = [
    "RadarConfig",
    "CaseId",
    "TargetMotion",
    "classify_case",
    "unambiguous_range",
    "azimuth_shift",
    "max_azimuth_shift",
    "sweep_determinable_size",
    "load_config",
    "config_from_dict",
]

class CaseId(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True, eq=False)
class FoldCells:
    """Fold-cell table of a system over its determinable range.

    Band ``i`` folds ``v`` to ``v - c_i`` with ``c_i = n_t*v_t + n_s*v_s``,
    constant between fold edges: ``(k+1/2)*v_t``, and ``k*v_t + (j+1/2)*v_s``
    inside time cell ``k``.  The cells ``[lo[k], hi[k])`` (m/s) refine every
    band's edges; row ``k`` of ``n_t`` and ``n_s`` holds each band's
    integers on cell ``k``.

    The rest is what the case III search reads on every call, compiled here
    once: ``by_band``, the offsets ``c_i`` band-major (a row per band);
    ``widths = hi - lo``; ``moduli``, each band's observed modulus ``m_i`` as
    a float; ``wraps``, every choice of one wrap in {-1, 0, 1} per band (a
    column per choice) with its shifts ``wrap_shifts = wraps*m``; and
    ``v_ub = lcm(v_t)`` as a float.
    """

    lo: np.ndarray
    hi: np.ndarray
    n_t: np.ndarray
    n_s: np.ndarray
    by_band: np.ndarray
    widths: np.ndarray
    moduli: np.ndarray
    wraps: np.ndarray
    wrap_shifts: np.ndarray
    v_ub: float


def _fold_cells(vts, vss, report: enumeration.EnumerationReport) -> FoldCells:
    """Fold cells over ``[-size/2, size/2)``, cut from the period table the
    sizing kept (``report.fold_table``) and compiled to floats."""
    scale, lo, hi, n_t, n_s = report.fold_table
    # size/2 is the magnitude of a collision velocity, whole in table units.
    half = int(report.size * scale / 2)
    rows = slice(np.searchsorted(hi, -half, "right"), np.searchsorted(lo, half))
    lo, hi = (np.clip(x[rows], -half, half).astype(float) / float(scale) for x in (lo, hi))
    n_t, n_s = n_t[rows], n_s[rows]
    offsets = n_t * np.array([float(v) for v in vts]) + n_s * np.array([float(v) for v in vss])
    moduli = np.array([float(min(vt, vs)) for vt, vs in zip(vts, vss)])
    wraps = np.indices((3,) * len(moduli)).reshape(len(moduli), -1) - 1
    return FoldCells(lo=lo, hi=hi, n_t=n_t, n_s=n_s,
                     by_band=np.ascontiguousarray(offsets.T), widths=hi - lo,
                     moduli=moduli, wraps=wraps, wrap_shifts=wraps * moduli[:, None],
                     v_ub=float(report.v_ub))


@dataclass(frozen=True)
class RadarConfig:
    """Platform, antenna and waveform parameters of a multichannel system.

    All quantities are SI.  ``lambdas`` holds the carrier wavelengths in
    strictly increasing order; every solver indexes observations in this order.
    """

    d: float            # channel spacing (m)
    v_a: float          # platform velocity (m/s)
    f_p: float          # pulse repetition frequency (Hz)
    r_0: float          # center slant range (m)
    m_ch: int           # number of receive channels
    lambdas: tuple      # carrier wavelengths (m), strictly increasing
    t_s: float          # target illumination time (s)
    b_w: float          # transmit bandwidth (Hz)
    t_pulse: float      # pulse duration (s)
    f_s: float          # range sampling frequency (Hz)

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))
        for name in ("d", "v_a", "f_p", "r_0", "t_s", "b_w", "t_pulse", "f_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} is not finite, got {value}")
            if not value > 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if not (float(self.m_ch).is_integer() and self.m_ch >= 2):
            raise ConfigurationError(f"m_ch must be a whole number >= 2, got {self.m_ch}")
        if not self.lambdas:
            raise ConfigurationError("lambdas must be nonempty")
        if any(not lam > 0 for lam in self.lambdas):
            raise ConfigurationError("wavelengths must be positive")
        if any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ConfigurationError("wavelengths must be strictly increasing")
        # Rationalise once and fail loudly here, not inside a solver: every
        # solver downstream needs the exact blind speeds and p/q.
        d, f_p, v_a = (as_fraction(x) for x in (self.d, self.f_p, self.v_a))
        lams = [as_fraction(lam) for lam in self.lambdas]
        ratio = d * f_p / (2 * v_a)
        pairs = [blind_speeds(lam, f_p, v_a, d) for lam in lams]
        vts = tuple(pair.v_t for pair in pairs)
        vss = tuple(pair.v_s for pair in pairs)
        if ratio < 1:
            case = CaseId.I
        elif ratio.denominator == 1:
            case = CaseId.II
        else:
            case = CaseId.III
        object.__setattr__(self, "_ratio", ratio)
        object.__setattr__(self, "_case", case)
        object.__setattr__(self, "_moduli", (vts, vss))
        object.__setattr__(self, "_observed", tuple(map(min, vts, vss)))

    def ratio(self) -> Fraction:
        """Exact reduced blind-speed ratio ``v_t/v_s = d*f_p/(2*v_a)``."""
        return self._ratio

    def exact_moduli(self) -> tuple:
        """Blind speeds of every wavelength as exact rationals:
        ``(v_t tuple, v_s tuple)`` in wavelength order."""
        return self._moduli

    def observed_moduli(self) -> tuple:
        """Exact modulus of each wavelength's measured remainder,
        ``min(v_t, v_s)``: ``v_t`` in case I, ``v_s`` in cases II and III."""
        return self._observed

    def size_report(self) -> enumeration.EnumerationReport:
        """Determinable velocity size of this system with its bounds.

        Computed on the first call and cached on the instance; needs at
        least two wavelengths.
        """
        report = self.__dict__.get("_size_report")
        if report is None:
            report = enumeration.determinable_size(*self._moduli)
            object.__setattr__(self, "_size_report", report)
        return report

    def fold_cells(self) -> FoldCells:
        """Fold cells of the determinable range, built on the first call and
        cached on the instance like :meth:`size_report`."""
        cells = self.__dict__.get("_fold_cells")
        if cells is None:
            cells = _fold_cells(*self._moduli, self.size_report())
            object.__setattr__(self, "_fold_cells", cells)
        return cells

    def blind_speeds(self, lam: float) -> ModulusPair:
        """Blind-speed pair for one wavelength of this system."""
        return blind_speeds(lam, self.f_p, self.v_a, self.d)

    def to_dict(self) -> dict:
        return {
            "d": self.d, "v_a": self.v_a, "f_p": self.f_p, "r_0": self.r_0,
            "m_ch": self.m_ch, "lambdas": list(self.lambdas), "t_s": self.t_s,
            "b_w": self.b_w, "t_pulse": self.t_pulse, "f_s": self.f_s,
        }


@dataclass(frozen=True)
class TargetMotion:
    """Constant-velocity target motion.

    ``v_x`` is cross-range (along-track) velocity, ``v_y`` range velocity and
    ``y_0`` the ground-range coordinate; the radial velocity seen by the radar
    is ``v_y * y_0 / r_0``.  Model validity assumes both velocities are small
    against the platform velocity (documented, not enforced).
    """

    v_x: float = 0.0
    v_y: float = 0.0
    y_0: float = 0.0

    def radial_velocity(self, r_0: float) -> float:
        return self.v_y * self.y_0 / r_0


def config_from_dict(data: dict) -> RadarConfig:
    """Build a RadarConfig from a JSON-style mapping; unknown fields rejected."""
    known = {f.name for f in fields(RadarConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    missing = known - set(data)
    if missing:
        raise ConfigurationError(f"missing config fields: {sorted(missing)}")
    try:
        return RadarConfig(**data)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def load_config(path) -> RadarConfig:
    """Load a RadarConfig from a JSON document (snake_case field names)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError("config document must be a JSON object")
    return config_from_dict(data)


def classify_case(cfg: RadarConfig) -> CaseId:
    """Case of the system by its exact blind-speed ratio, classified once at
    construction."""
    return cfg._case


def unambiguous_range(cfg: RadarConfig, lam: float) -> tuple:
    """Half-open unambiguous velocity interval for one wavelength of the
    system (m/s): its observed modulus, centred on zero."""
    if lam not in cfg.lambdas:
        raise ConfigurationError(f"wavelength {lam} is not one of {list(cfg.lambdas)}")
    half = float(cfg.observed_moduli()[cfg.lambdas.index(lam)]) / 2.0
    return (-half, half)


def azimuth_shift(v_time: float, cfg: RadarConfig) -> float:
    """Image-domain azimuth displacement caused by a folded radial velocity."""
    return -v_time * cfg.r_0 / cfg.v_a


def max_azimuth_shift(cfg: RadarConfig, lam: float) -> float:
    """Largest possible azimuth displacement at one wavelength."""
    return lam * cfg.f_p * cfg.r_0 / (4.0 * cfg.v_a)


def sweep_determinable_size(cfg: RadarConfig, lam: float, vary: str, grid) -> list:
    """Single-wavelength determinable-size curve against one swept parameter.

    ``vary`` is one of ``"f_p"``, ``"d"``, ``"v_a"``; returns ``(value, size)``
    pairs, the size being the observed modulus of ``cfg`` at ``lam`` alone.
    """
    if vary not in ("f_p", "d", "v_a"):
        raise ConfigurationError(f"vary must be one of f_p, d, v_a; got {vary!r}")
    out = []
    for value in grid:
        if not value > 0:
            raise ConfigurationError(f"swept values must be positive, got {value}")
        swept = replace(cfg, lambdas=(lam,), **{vary: value})
        out.append((value, float(swept.observed_moduli()[0])))
    return out

