"""Command-line front end.

Subcommands mirror the library: ``classify`` a configuration, ``retrieve`` a
velocity from folded observations, ``fold`` velocities forward, ``sweep``
determinable size against a parameter, ``enumerate`` dual-band determinable
sizes, ``simulate`` a point-target capture end to end, and ``montecarlo`` the
retrieval-error curve.

Exit codes: 0 success, 2 configuration error, 3 no solution, 4 ambiguous
solution, 5 estimation failure.  Every file written via ``--out`` gets a
``<name>.manifest.json`` sibling recording the resolved inputs, so runs can be
reproduced bit-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .enumeration import _num, size_sweep, sweep_to_csv
from .errors import (AmbiguousSolutionError, ConfigurationError,
                     EstimationFailure, NoSolutionError)
from .folding import ModulusPair, centered_remainder, forward_fold
from .simulate import (estimate_doppler, monte_carlo_rmse, simulate_echo,
                       vsar_estimate_vspace)
from .solvers import (DEFAULT_ERROR_BOUND, FoldedObservation, brute_force_oracle,
                      fold_per_wavelength, search_retrieve, solve_case1,
                      solve_case2, theorem1_range, theorem1_solve)
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


@dataclasses.dataclass
class RunManifest:
    """Provenance record written alongside every output file."""

    subcommand: str
    config: dict | None
    seed: int | None
    outputs: list
    version: str = __version__

    def write(self) -> None:
        for out in self.outputs:
            path = Path(str(out) + ".manifest.json")
            path.write_text(json.dumps(dataclasses.asdict(self), indent=2) + "\n")


def _emit(args, text: str, cfg: RadarConfig | None, seed: int | None = None) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
        RunManifest(subcommand=args.command,
                    config=cfg.to_dict() if cfg else None,
                    seed=seed, outputs=[out]).write()
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_grid(spec: str):
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigurationError(f"grid must be lo:hi:step, got {spec!r}") from exc
    if step <= 0 or hi <= lo:
        raise ConfigurationError(f"bad grid {spec!r}")
    return np.arange(lo, hi, step)


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args, cfg: RadarConfig) -> int:
    case = classify_case(cfg)
    vts, vss = cfg.exact_moduli()
    report = {
        "case": case.case_id.value,
        "k": case.k,
        "p_over_q": None if case.p_over_q is None else str(case.p_over_q),
        "v_t": [float(v) for v in vts],
        "v_s": [float(v) for v in vss],
        "unambiguous_range": [list(unambiguous_range(cfg, lam)) for lam in cfg.lambdas],
        "max_azimuth_shift": [max_azimuth_shift(cfg, lam) for lam in cfg.lambdas],
    }
    if args.json:
        _emit(args, json.dumps(report, indent=2), cfg)
        return EXIT_OK
    lines = [f"Case {report['case']}"]
    if case.k is not None:
        lines[0] += f", k={case.k}"
    elif case.p_over_q is not None:
        lines[0] += f", p/q={case.p_over_q}"
    lines.append("V_T = [" + ", ".join(f"{v:g}" for v in report["v_t"]) + "] m/s")
    lines.append("V_S = [" + ", ".join(f"{v:g}" for v in report["v_s"]) + "] m/s")
    for lam, rng, shift in zip(cfg.lambdas, report["unambiguous_range"],
                               report["max_azimuth_shift"]):
        lines.append(f"lambda {lam:g} m: unambiguous [{rng[0]:g}, {rng[1]:g}) m/s, "
                     f"max azimuth shift {shift:g} m")
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def _parse_observations(args, cfg: RadarConfig) -> FoldedObservation:
    values = {}
    if args.obs_csv:
        import csv as _csv

        with open(args.obs_csv, newline="") as handle:
            reader = _csv.DictReader(handle)
            if reader.fieldnames != ["lambda", "v_space"]:
                raise ConfigurationError(
                    f"observation CSV must have header lambda,v_space, "
                    f"got {reader.fieldnames}")
            for row in reader:
                lam = float(row["lambda"])
                matches = [i for i, l in enumerate(cfg.lambdas)
                           if abs(l - lam) <= 1e-9 * max(1.0, abs(l))]
                if not matches:
                    raise ConfigurationError(f"wavelength {lam} not in config")
                values[matches[0]] = float(row["v_space"])
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
        values[idx - 1] = value
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
        method = {CaseId.I: "crt", CaseId.II: "crt", CaseId.III: "search"}[case.case_id]
    warnings = []
    if method == "crt":
        result = solve_case1(obs, cfg) if case.case_id is CaseId.I else solve_case2(obs, cfg)
    elif method == "theorem1":
        result = theorem1_solve(obs, cfg)
        half = theorem1_range(cfg) / 2.0
        warnings.append(
            f"reduced-modulus retrieval is only valid for |v_r| < {half:g} m/s; "
            "a true velocity outside that range aliases into it undetected")
    elif method == "search":
        result = search_retrieve(obs, cfg)
    elif method == "oracle":
        result = brute_force_oracle(obs, cfg)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown method {method}")

    vts, _ = cfg.exact_moduli()
    shifts = [azimuth_shift(centered_remainder(result.v_hat, float(vt)), cfg)
              for vt in vts]
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
        lines = ["v_r,lambda,v_time,n_t,v_space,n_s,estimated"]
        for lam, vt, vs in zip(cfg.lambdas, *cfg.exact_moduli()):
            pair = ModulusPair(v_t=float(vt), v_s=float(vs))
            for v_r in grid:
                fold = forward_fold(float(v_r), pair)
                # In case I the space fold is the identity: v_space == v_time.
                lines.append(f"{v_r},{lam},{fold.v_time},{fold.n_t},"
                             f"{fold.v_space},{fold.n_s},{fold.v_space}")
        _emit(args, "\n".join(lines), cfg)
        return EXIT_OK
    folds = fold_per_wavelength(args.vr, cfg)
    lines = []
    for lam, fold in zip(cfg.lambdas, folds):
        lines.append(f"lambda {lam:g} m: v_time {fold.v_time:.4f} (n_t {fold.n_t}), "
                     f"v_space {fold.v_space:.4f} (n_s {fold.n_s})")
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def cmd_sweep(args, cfg: RadarConfig) -> int:
    lam = cfg.lambdas[args.lambda_index - 1]
    curve = sweep_determinable_size(cfg, lam, args.vary, _parse_grid(args.grid))
    lines = [f"{args.vary},size"]
    lines.extend(f"{value},{size}" for value, size in curve)
    _emit(args, "\n".join(lines), cfg)
    return EXIT_OK


def cmd_enumerate(args, cfg: RadarConfig) -> int:
    if args.pairs:
        pairs = []
        for chunk in args.pairs.split(";"):
            lam1, lam2 = (float(x) for x in chunk.split(","))
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
    lam = cfg.lambdas[args.lambda_index - 1]
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
    n = int(round((args.xi_start - args.xi_stop) / args.xi_step))
    xi_grid = [round(args.xi_start - k * args.xi_step, 10) for k in range(n + 1)]
    curve = monte_carlo_rmse(cfg, xi_grid, trials=args.trials, seed=args.seed,
                             n_workers=args.threads)
    if args.csv:
        _emit(args, curve.to_csv(), cfg, seed=args.seed)
        return EXIT_OK
    lines = [f"xi_e {p.xi_e:.2f}: rmse {p.rmse:.4f} m/s "
             f"({p.trials} trials, {p.failures} failures)" for p in curve.points]
    _emit(args, "\n".join(lines), cfg, seed=args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("retrieve", help="retrieve a velocity from observations")
    common(p)
    p.add_argument("--obs", action="append",
                   help="observation as <wavelength_index>=<v_space>, 1-based")
    p.add_argument("--obs-csv", help="CSV with header lambda,v_space")
    p.add_argument("--method", default="auto",
                   choices=["auto", "crt", "theorem1", "search", "oracle"])
    p.add_argument("--xi-e", type=float, default=DEFAULT_ERROR_BOUND,
                   help="measurement error bound (m/s)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("fold", help="forward-fold velocities")
    common(p)
    p.add_argument("--vr", type=float, help="single velocity to fold")
    p.add_argument("--grid", help="lo:hi:step grid for a CSV sawtooth")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("sweep", help="determinable size vs one parameter")
    common(p)
    p.add_argument("--vary", required=True, choices=["f_p", "d", "v_a"])
    p.add_argument("--grid", required=True, help="lo:hi:step")
    p.add_argument("--lambda-index", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("enumerate", help="dual-band determinable sizes")
    common(p)
    p.add_argument("--pairs", help="semicolon-separated lambda pairs, "
                                   "e.g. '0.05,0.06;0.07,0.08'")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("simulate", help="simulate and measure one target")
    common(p, seed=True)
    p.add_argument("--vr", type=float, required=True)
    p.add_argument("--vx", type=float, default=0.0)
    p.add_argument("--lambda-index", type=int, default=1)
    p.add_argument("--pulses", type=int, default=256)
    p.add_argument("--noise-db", type=float, default=None)
    p.add_argument("--zero-pad", type=int, default=1000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("montecarlo", help="retrieval RMSE vs error bound")
    common(p, seed=True)
    p.add_argument("--xi-start", type=float, default=1.0)
    p.add_argument("--xi-stop", type=float, default=0.0)
    p.add_argument("--xi-step", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("MFSAR_THREADS", "1")),
                   help="worker processes for the Monte Carlo points")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_montecarlo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args.config))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
