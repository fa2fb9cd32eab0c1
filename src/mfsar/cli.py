"""Command-line front end.

Subcommands mirror the library: ``classify`` a configuration, ``retrieve`` a
velocity from folded observations, ``fold`` velocities forward, ``sweep``
determinable size against a parameter, ``enumerate`` dual-band determinable
sizes, ``simulate`` a point-target capture end to end, and ``montecarlo`` the
retrieval-error curve.

``retrieve --method crt`` runs the closed form (:func:`solvers.crt_solve`) in
any case and warns in case III that it holds only for ``|v_r| < crt_range/2``;
``auto`` picks it in cases I and II and the search in case III.

The parser is built on the first :func:`main` call and reused for every
later one in the same process; :func:`main` finds the subcommand's ``cmd_*``
function by name when it runs.  ``montecarlo --threads`` (default 1) is the
one knob for its worker processes; no environment variable sets it.

Exit codes: 0 success, 2 configuration error, 3 no solution, 4 ambiguous
solution, 5 estimation failure.  Every file written via ``--out`` gets a
``<name>.manifest.json`` sibling recording the resolved inputs, so runs can be
reproduced bit-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .enumeration import _num, size_sweep, sweep_to_csv
from .errors import (AmbiguousSolutionError, ConfigurationError,
                     EstimationFailure, NoSolutionError)
from .simulate import (estimate_doppler, monte_carlo_rmse, simulate_echo,
                       vsar_estimate_vspace)
from .solvers import (DEFAULT_ERROR_BOUND, FoldedObservation, brute_force_oracle,
                      crt_range, crt_solve, fold_per_wavelength, search_retrieve)
from .system import (CaseId, RadarConfig, TargetMotion, azimuth_shift,
                     classify_case, load_config, max_azimuth_shift,
                     sweep_determinable_size, unambiguous_range)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SOLUTION = 3
EXIT_AMBIGUOUS = 4
EXIT_ESTIMATION = 5

DEFAULT_ENUM_PAIRS = [(round(0.01 * k, 2), round(0.01 * (k + 1), 2))
                      for k in range(2, 12)]


def _emit(args, text: str, cfg: RadarConfig, seed: int | None = None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    Path(args.out).write_text(text)
    manifest = {"subcommand": args.command, "config": cfg.to_dict(), "seed": seed,
                "outputs": [args.out], "version": __version__}
    Path(args.out + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _steps(start: float, stop: float, step: float, closed: bool) -> list:
    """``start + k*step`` for every whole k that stays before ``stop``, or at
    it when ``closed``.  The 1e-9 absorbs a float quotient falling just short
    of a whole number (0.3/0.1), rounding to 10 places drops the noise of
    ``k*step`` (0.1 + 2*0.1), and adding 0.0 turns a rounded -0.0 into 0.0."""
    quotient = (stop - start) / step
    n = int(quotient + 1e-9) + 1 if closed else math.ceil(quotient - 1e-9)
    return [round(start + k * step, 10) + 0.0 for k in range(n)]


def _parse_grid(spec: str):
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigurationError(f"grid must be lo:hi:step, got {spec!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ConfigurationError(f"grid {spec!r} is not finite")
    if step <= 0 or hi <= lo:
        raise ConfigurationError(f"bad grid {spec!r}")
    return _steps(lo, hi, step, closed=False)


# Number options that no library call checks for NaN or infinity before
# using them (--xi-e is checked by FoldedObservation).
_FINITE_OPTIONS = ("vr", "vx", "noise_db", "xi_start", "xi_stop", "xi_step")


def _require_finite(args) -> None:
    for name in _FINITE_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ConfigurationError(
                f"--{name.replace('_', '-')} is not finite, got {value}")


def _wavelength(cfg: RadarConfig, index: int) -> float:
    """The wavelength at 1-based ``--lambda-index``, range-checked."""
    if not 1 <= index <= len(cfg.lambdas):
        raise ConfigurationError(
            f"--lambda-index {index} outside 1..{len(cfg.lambdas)}")
    return cfg.lambdas[index - 1]


def _attach_grid(argv):
    """Write ``--grid LO:HI:STEP`` as ``--grid=LO:HI:STEP``: argparse would
    take a grid that starts below zero for an option."""
    joined = []
    for arg in argv:
        if joined and joined[-1] == "--grid" and ":" in arg:
            joined[-1] = f"--grid={arg}"
        else:
            joined.append(arg)
    return joined


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args, cfg: RadarConfig) -> int:
    case, ratio = classify_case(cfg), cfg.ratio()
    vts, vss = cfg.exact_moduli()
    report = {
        "case": case.value,
        "k": ratio.numerator if case is CaseId.II else None,
        "p_over_q": None if case is CaseId.I else str(ratio),
        "v_t": [float(v) for v in vts],
        "v_s": [float(v) for v in vss],
        "unambiguous_range": [list(unambiguous_range(cfg, lam)) for lam in cfg.lambdas],
        "max_azimuth_shift": [max_azimuth_shift(cfg, lam) for lam in cfg.lambdas],
    }
    if args.json:
        _emit(args, json.dumps(report, indent=2), cfg)
        return EXIT_OK
    lines = [f"Case {report['case']}"]
    if case is CaseId.II:
        lines[0] += f", k={report['k']}"
    elif case is CaseId.III:
        lines[0] += f", p/q={ratio}"
    lines.append("V_T = [" + ", ".join(f"{v:g}" for v in report["v_t"]) + "] m/s")
    lines.append("V_S = [" + ", ".join(f"{v:g}" for v in report["v_s"]) + "] m/s")
    for lam, rng, shift in zip(cfg.lambdas, report["unambiguous_range"],
                               report["max_azimuth_shift"]):
        lines.append(f"lambda {lam:g} m: unambiguous [{rng[0]:g}, {rng[1]:g}) m/s, "
                     f"max azimuth shift {shift:g} m")
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def _observe(values: dict, index: int, value: float, cfg: RadarConfig) -> None:
    """Record the observation of wavelength ``index``, refusing a second one."""
    if index in values:
        raise ConfigurationError(
            f"wavelength {cfg.lambdas[index]:g} (index {index + 1}) observed twice")
    values[index] = value


def _parse_observations(args, cfg: RadarConfig) -> FoldedObservation:
    values = {}
    if args.obs_csv:
        import csv as _csv

        try:
            handle = open(args.obs_csv, newline="")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read observations {args.obs_csv}: {exc}") from exc
        with handle:
            reader = _csv.DictReader(handle)
            if reader.fieldnames != ["lambda", "v_space"]:
                raise ConfigurationError(
                    f"observation CSV must have header lambda,v_space, "
                    f"got {reader.fieldnames}")
            for row in reader:
                if row["v_space"] is None:
                    raise ConfigurationError(
                        f"observation CSV line {reader.line_num} has no v_space")
                lam = float(row["lambda"])
                matches = [i for i, l in enumerate(cfg.lambdas)
                           if abs(l - lam) <= 1e-9 * max(1.0, abs(l))]
                if not matches:
                    raise ConfigurationError(f"wavelength {lam} not in config")
                _observe(values, matches[0], float(row["v_space"]), cfg)
    for item in args.obs or []:
        try:
            idx_text, value_text = item.split("=", 1)
            idx = int(idx_text)
            value = float(value_text)
        except ValueError as exc:
            raise ConfigurationError(f"bad --obs {item!r}; use <index>=<v_space>") from exc
        if not 1 <= idx <= len(cfg.lambdas):
            raise ConfigurationError(
                f"--obs index {idx} outside 1..{len(cfg.lambdas)}")
        _observe(values, idx - 1, value, cfg)
    if len(values) != len(cfg.lambdas):
        raise ConfigurationError(
            f"need one observation per wavelength "
            f"({len(values)} given for {len(cfg.lambdas)})")
    v_space = tuple(values[i] for i in range(len(cfg.lambdas)))
    return FoldedObservation(v_space=v_space, xi_e=args.xi_e)


def cmd_retrieve(args, cfg: RadarConfig) -> int:
    obs = _parse_observations(args, cfg)
    case = classify_case(cfg)
    method = args.method
    if method == "auto":
        method = {CaseId.I: "crt", CaseId.II: "crt", CaseId.III: "search"}[case]
    warnings = []
    if method == "crt":
        result = crt_solve(obs, cfg)
        if case is CaseId.III:
            warnings.append(
                f"reduced-modulus retrieval is only valid for |v_r| < "
                f"{crt_range(cfg) / 2.0:g} m/s; a true velocity outside that "
                "range aliases into it undetected")
    elif method == "search":
        result = search_retrieve(obs, cfg)
    elif method == "oracle":
        result = brute_force_oracle(obs, cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown method {method}")

    shifts = [azimuth_shift(f.v_time, cfg) for f in fold_per_wavelength(result.v_hat, cfg)]
    payload = result.to_dict()
    payload["azimuth_shift"] = shifts
    payload["warnings"] = warnings
    if args.json:
        _emit(args, json.dumps(payload, indent=2), cfg)
        return EXIT_OK
    lines = [f"v_hat = {result.v_hat:.4f} m/s ({result.method})",
             f"n_t = {list(result.integers.n_t)}, n_s = {list(result.integers.n_s)}"]
    if result.integers.n_st is not None:
        lines.append(f"n_st = {list(result.integers.n_st)}")
    lines.append(f"residual = {result.residual:.6g} m/s")
    for lam, shift in zip(cfg.lambdas, shifts):
        lines.append(f"azimuth shift @ {lam:g} m: {shift:.4f} m")
    lines.extend(f"warning: {w}" for w in warnings)
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def cmd_fold(args, cfg: RadarConfig) -> int:
    if args.grid:
        grid = _parse_grid(args.grid)
        folds = [fold_per_wavelength(float(v_r), cfg) for v_r in grid]
        lines = ["v_r,lambda,v_time,n_t,v_space,n_s,estimated"]
        for lam, column in zip(cfg.lambdas, zip(*folds)):
            for v_r, fold in zip(grid, column):
                # In case I the space fold is the identity: v_space == v_time.
                lines.append(f"{v_r},{lam},{fold.v_time},{fold.n_t},"
                             f"{fold.v_space},{fold.n_s},{fold.v_space}")
        _emit(args, "\n".join(lines), cfg)
        return EXIT_OK
    if args.vr is None:
        raise ConfigurationError("fold needs --vr or --grid")
    folds = fold_per_wavelength(args.vr, cfg)
    lines = []
    for lam, fold in zip(cfg.lambdas, folds):
        lines.append(f"lambda {lam:g} m: v_time {fold.v_time:.4f} (n_t {fold.n_t}), "
                     f"v_space {fold.v_space:.4f} (n_s {fold.n_s})")
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def cmd_sweep(args, cfg: RadarConfig) -> int:
    lam = _wavelength(cfg, args.lambda_index)
    curve = sweep_determinable_size(cfg, lam, args.vary, _parse_grid(args.grid))
    lines = [f"{args.vary},size"]
    lines.extend(f"{value},{size}" for value, size in curve)
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def cmd_enumerate(args, cfg: RadarConfig) -> int:
    if args.pairs:
        pairs = []
        for chunk in args.pairs.split(";"):
            try:
                lam1, lam2 = (float(x) for x in chunk.split(","))
            except ValueError as exc:
                raise ConfigurationError(
                    f"--pairs takes lambda1,lambda2 pairs separated by ';', "
                    f"got {chunk!r}") from exc
            pairs.append((lam1, lam2))
    else:
        pairs = DEFAULT_ENUM_PAIRS
    rows = size_sweep(cfg, pairs)
    if args.csv:
        _emit(args, sweep_to_csv(rows), cfg)
        return EXIT_OK
    lines = []
    for (lam1, lam2), vt1, vs1, vt2, vs2, rep in rows:
        lines.append(
            f"({lam1:g}, {lam2:g}) m: V_T=({_num(vt1)}, {_num(vt2)}), "
            f"V_S=({_num(vs1)}, {_num(vs2)}), "
            f"lower {_num(rep.v_lb)}, size {_num(rep.size)}, "
            f"upper {_num(rep.v_ub)} m/s")
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def cmd_simulate(args, cfg: RadarConfig) -> int:
    lam = _wavelength(cfg, args.lambda_index)
    motion = TargetMotion(v_x=args.vx, v_y=args.vr, y_0=cfg.r_0)
    cube = simulate_echo(cfg, motion, lam, args.pulses,
                         noise_db=args.noise_db, seed=args.seed)
    f_hat = estimate_doppler(cube)
    v_space = vsar_estimate_vspace(cube, cfg, zero_pad=args.zero_pad)
    fold = fold_per_wavelength(args.vr, cfg)[args.lambda_index - 1]
    payload = {
        "v_r": args.vr,
        "lambda": lam,
        "doppler_hat": f_hat,
        "v_space_measured": v_space,
        "v_space_model": fold.v_space,
        "v_time_model": fold.v_time,
        "error": v_space - fold.v_space,
    }
    if args.json:
        _emit(args, json.dumps(payload, indent=2), cfg, seed=args.seed)
        return EXIT_OK
    _emit(args, "\n".join([
        f"true v_r {args.vr:g} m/s at lambda {lam:g} m",
        f"measured folded Doppler {f_hat:.3f} Hz",
        f"measured v_space {v_space:.4f} m/s (model {fold.v_space:.4f}, "
        f"error {v_space - fold.v_space:+.4f})",
    ]), cfg, seed=args.seed)
    return EXIT_OK


def cmd_montecarlo(args, cfg: RadarConfig) -> int:
    if args.xi_step <= 0 or args.xi_start < args.xi_stop:
        raise ConfigurationError(
            f"bad xi grid {args.xi_start:g}:{args.xi_stop:g}:{args.xi_step:g}; "
            "need --xi-step > 0 and --xi-start >= --xi-stop")
    xi_grid = _steps(args.xi_start, args.xi_stop, -args.xi_step, closed=True)
    curve = monte_carlo_rmse(cfg, xi_grid, trials=args.trials, seed=args.seed,
                             n_workers=args.threads)
    if args.csv:
        _emit(args, curve.to_csv(), cfg, seed=args.seed)
        return EXIT_OK
    lines = [f"xi_e {p.xi_e:.2f}: rmse {p.rmse:.4f} m/s "
             f"({p.trials} trials, {p.failures} failures: {p.ambiguous} ambiguous, "
             f"{p.no_solution} no solution; {p.silent_gross} silent gross)"
             for p in curve.points]
    _emit(args, "\n".join(lines), cfg, seed=args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------

_parser = None


def build_parser() -> argparse.ArgumentParser:
    """The ``mfsar`` parser, built on the first call and returned by every
    later one: building it costs more than most subcommands."""
    global _parser
    if _parser is not None:
        return _parser
    parser = argparse.ArgumentParser(
        prog="mfsar",
        description="Multichannel SAR radial-velocity de-ambiguity toolkit")
    parser.add_argument("--version", action="version", version=f"mfsar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", required=True, help="radar config JSON")
        p.add_argument("--out", help="write output to this file (plus manifest)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("classify", help="report system case and blind speeds")
    common(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("retrieve", help="retrieve a velocity from observations")
    common(p)
    p.add_argument("--obs", action="append",
                   help="observation as <wavelength_index>=<v_space>, 1-based")
    p.add_argument("--obs-csv", help="CSV with header lambda,v_space")
    p.add_argument("--method", default="auto",
                   choices=["auto", "crt", "search", "oracle"],
                   help="auto: crt in cases I and II, search in case III; crt in "
                        "case III holds only for |v_r| < crt_range/2 (warned)")
    p.add_argument("--xi-e", type=float, default=DEFAULT_ERROR_BOUND,
                   help="measurement error bound (m/s)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fold", help="forward-fold velocities")
    common(p)
    p.add_argument("--vr", type=float, help="single velocity to fold")
    p.add_argument("--grid", help="lo:hi:step grid for a CSV sawtooth")

    p = sub.add_parser("sweep", help="determinable size vs one parameter")
    common(p)
    p.add_argument("--vary", required=True, choices=["f_p", "d", "v_a"])
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--lambda-index", type=int, default=1)

    p = sub.add_parser("enumerate", help="dual-band determinable sizes")
    common(p)
    p.add_argument("--pairs", help="semicolon-separated lambda pairs, "
                                   "e.g. '0.05,0.06;0.07,0.08'")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("simulate", help="simulate and measure one target")
    common(p, seed=True)
    p.add_argument("--vr", type=float, required=True)
    p.add_argument("--vx", type=float, default=0.0)
    p.add_argument("--lambda-index", type=int, default=1)
    p.add_argument("--pulses", type=int, default=256)
    p.add_argument("--noise-db", type=float, default=None)
    p.add_argument("--zero-pad", type=int, default=1000)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("montecarlo", help="retrieval RMSE vs error bound")
    common(p, seed=True)
    p.add_argument("--xi-start", type=float, default=1.0)
    p.add_argument("--xi-stop", type=float, default=0.0)
    p.add_argument("--xi-step", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for the Monte Carlo points")
    p.add_argument("--csv", action="store_true")

    _parser = parser
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_grid(sys.argv[1:] if argv is None else argv))
    try:
        _require_finite(args)
        return globals()[f"cmd_{args.command}"](args, load_config(args.config))
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except AmbiguousSolutionError as exc:
        print(f"ambiguous solution: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except EstimationFailure as exc:
        print(f"estimation failure: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
