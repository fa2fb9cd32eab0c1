"""Measurement loop, metrics, traced run and run record.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics.  Load comes from one
closed-loop caller: the next op starts when the previous one returns.  Inputs
are generated in batches between timed ops; generation time is excluded from
the measured wall time.  Op timings are normalised to a reference machine
speed by :mod:`speed`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from array import array
from collections import Counter
from pathlib import Path

from . import speed
from .trace import LAYERS, Tracer
from .workloads import SILENT_GROSS, WORKLOADS, DualStream, Outcome, TriMonteCarlo

SETUP_REPEATS = 7          # fresh processes timed for setup_s, after one discarded
WARMUP_SECONDS = 0.3
BLOCK_SECONDS = 0.5        # ops_per_s is the median over blocks of this much wall time
PROBE_OPS = {"dual-stream": 20, "tri-montecarlo": 1, "echo-chain": 10, "config-sweep": 3}
ORACLE_SAMPLE = 20         # dual-stream observations compared with the oracle
WORKERS_TRIALS = 100       # per error bound, for the n_workers 1 vs 2 comparison


class MfsarMissing(Exception):
    """The checkout holds no importable ``src/mfsar``."""


def load_mfsar(root: Path) -> types.SimpleNamespace:
    """Import mfsar from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "mfsar" / "__init__.py").is_file():
        raise MfsarMissing(f"no mfsar package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("mfsar")
    if Path(package.__file__).resolve().parent != (src / "mfsar").resolve():
        raise MfsarMissing(f"imported mfsar from {package.__file__}, not from {src}")
    names = ("errors", "folding", "system", "enumeration", "solvers", "simulate", "cli")
    return types.SimpleNamespace(**{n: importlib.import_module(f"mfsar.{n}") for n in names})


def measure_setup(root: Path, workload) -> tuple:
    """Seconds to import mfsar and do the workload's one-off work in a fresh
    process, per repeat, as ``(raw, normalised)`` lists.

    Import work (reading files, numpy's native set-up) does not follow the
    calibration kernel of :mod:`speed`, so each repeat is normalised by a
    yardstick of the same kind taken next to it: a fresh process that imports
    numpy alone, scaled to ``speed.NUMPY_IMPORT_S``.
    """
    lines = ["import sys, time", f"sys.path.insert(0, {str(root / 'src')!r})",
             "start = time.perf_counter()"]
    full = lines + ["import mfsar", workload.setup_code,
                    "print(time.perf_counter() - start)"]
    yardstick = lines + ["import numpy", "print(time.perf_counter() - start)"]

    def seconds(code):
        done = subprocess.run([sys.executable, "-c", "\n".join(code)], cwd=root,
                              check=True, capture_output=True, text=True, timeout=60)
        return float(done.stdout)

    raw, normalised = [], []
    for _ in range(SETUP_REPEATS + 1):
        numpy_s = seconds(yardstick)
        raw.append(seconds(full))
        normalised.append(raw[-1] * speed.NUMPY_IMPORT_S / numpy_s)
    return raw[1:], normalised[1:]


class Tally:
    """Ops, failures, squared errors and latencies accumulated over a loop.

    Every batch of ops lies between two calibrations (outside the measured
    time) whose mean factor normalises the batch's latencies and wall time;
    see :mod:`speed`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.kinds = Counter()
        self.sq_sum = 0.0
        self.returned = 0
        self.raw_latencies_ns = array("d")  # per op; a batched call gives one
        self.latencies_ns = array("d")      # sample per op in it
        self.wall_ns = 0                    # raw measured time
        self.norm_wall_ns = 0.0
        self.block_rates = []               # normalised ops/s of each whole block
        self.factors = []
        self._block = [0, 0, 0.0]           # ops, raw ns, normalised ns

    def add(self, outcome: Outcome, elapsed_ns: int) -> None:
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.kinds.update(outcome.kinds)
        self.sq_sum += outcome.sq_sum
        self.returned += outcome.returned
        self.raw_latencies_ns.append(elapsed_ns / outcome.ops)

    def end_batch(self, ops: int, elapsed_ns: int, f: float) -> None:
        self.factors.append(f)
        self.latencies_ns.extend(
            x * f for x in self.raw_latencies_ns[len(self.latencies_ns):])
        self.wall_ns += elapsed_ns
        self.norm_wall_ns += elapsed_ns * f
        block = self._block
        block[0] += ops
        block[1] += elapsed_ns
        block[2] += elapsed_ns * f
        if block[1] >= BLOCK_SECONDS * 1e9:
            self.block_rates.append(block[0] / (block[2] / 1e9))
            self._block = [0, 0, 0.0]

    @property
    def ops_per_s(self) -> float:
        """Median normalised throughput over whole blocks, which a passing
        stall moves less than the mean; the mean when no block completed."""
        if self.block_rates:
            return statistics.median(self.block_rates)
        return self.attempted / (self.norm_wall_ns / 1e9)

    @property
    def raw_ops_per_s(self) -> float:
        return self.attempted / (self.wall_ns / 1e9)

    @property
    def rmse(self) -> float:
        return math.sqrt(self.sq_sum / self.returned) if self.returned else float("nan")


def run_loop(workload, rng, seconds: float, max_ops=None, tracer=None) -> Tally:
    """Run ops until ``seconds`` of measured time or ``max_ops`` ops have passed."""
    tally = Tally()
    budget = seconds * 1e9
    clock = time.perf_counter_ns
    before = speed.factor()
    while tally.wall_ns < budget and (max_ops is None or tally.attempted < max_ops):
        batch = workload.inputs(rng, workload.batch)
        started = clock()
        ops_before = tally.attempted
        for item in batch:
            if tracer is not None:
                tracer.start_op()
            t0 = clock()
            outcome = workload.op(item)
            tally.add(outcome, clock() - t0)
            if (clock() - started + tally.wall_ns >= budget
                    or (max_ops is not None and tally.attempted >= max_ops)):
                break
        elapsed = clock() - started
        after = speed.factor()
        # The batch ran between two calibrations; take the speed halfway.
        tally.end_batch(tally.attempted - ops_before, elapsed, (before + after) / 2)
        before = after
    return tally


def streams(name: str, seed: int) -> dict:
    """Independent seeded input streams of one run."""
    return {purpose: random.Random(f"{name}:{seed}:{purpose}")
            for purpose in ("inputs", "warmup", "probe", "oracle", "workers")}


def percentile(values, q: int) -> float:
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def end_to_end(tally: Tally, setup_times: list) -> dict:
    latencies = tally.latencies_ns
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": tally.ops_per_s,
        "op_p50_us": statistics.median(latencies) / 1e3,
        "op_p90_us": percentile(latencies, 90) / 1e3,
        "success_rate": 1.0 - tally.failed / tally.attempted,
        "rmse_mps": tally.rmse if tally.returned else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def oracle_agreement(m, rng) -> float:
    """Share of dual-stream observations where the oracle and the search agree.

    Both answers must lie within xi_e of the truth when correct, so they agree
    when they differ by at most twice xi_e.
    """
    workload = DualStream(m, None)
    agree = 0
    for _, obs in workload.inputs(rng, ORACLE_SAMPLE):
        observation = m.solvers.FoldedObservation(obs, xi_e=workload.XI_E)
        oracle = m.solvers.brute_force_oracle(observation, workload.cfg)
        try:
            search = m.solvers.search_retrieve(observation, workload.cfg)
        except (m.errors.AmbiguousSolutionError, m.errors.NoSolutionError):
            continue
        agree += abs(oracle.v_hat - search.v_hat) <= 2 * workload.XI_E
    return agree / ORACLE_SAMPLE


def workers_check(m, rng) -> dict:
    """Time monte_carlo_rmse with 1 and with 2 workers on the same inputs."""
    workload = TriMonteCarlo(m, None)
    seed = rng.randrange(2**31)
    trials = WORKERS_TRIALS * len(workload.XI_GRID)
    rates, curves = {}, {}
    for workers in (1, 2):
        start = time.perf_counter()
        curves[workers] = m.simulate.monte_carlo_rmse(
            workload.cfg, list(workload.XI_GRID), WORKERS_TRIALS, seed, n_workers=workers)
        rates[workers] = trials / ((time.perf_counter() - start) * speed.factor())
    identical = all(
        (a.xi_e, a.trials, a.failures) == (b.xi_e, b.trials, b.failures)
        and (a.rmse == b.rmse or (math.isnan(a.rmse) and math.isnan(b.rmse)))
        for a, b in zip(curves[1].points, curves[2].points))
    return {"trials_per_s": rates[1], "workers2_trials_per_s": rates[2],
            "identical": identical and len(curves[1].points) == len(curves[2].points)}


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally, vspace_errors: list,
              agreement: float, workers: dict) -> dict:
    """Per-layer metrics; span times are normalised by the traced half's
    median speed factor."""
    ops = traced.attempted
    wall = traced.wall_ns
    find = tracer.find
    search = find("solvers.search_retrieve")
    scale = statistics.median(traced.factors) / 1e3

    def _p50_us(stats) -> float:
        return statistics.median(stats.durations) * scale
    metrics = {
        "system.RadarConfig.p50_us": _p50_us(find("system.RadarConfig")),
        "system.classify_case.p50_us": _p50_us(find("system.classify_case")),
        "system.load_config.p50_us": _p50_us(find("system.load_config")),
        "system.RadarConfig.ratio.calls_per_op":
            tracer.calls("system.RadarConfig.ratio") / ops,
        "folding.as_fraction.calls_per_op": tracer.calls("folding.as_fraction") / ops,
        "folding.as_fraction.busy_share":
            sum(tracer.stats[("workload", "folding.as_fraction")].self_times) / wall,
        "enumeration.determinable_size.p50_us":
            _p50_us(find("enumeration.determinable_size")),
        "enumeration.determinable_size.calls_per_op":
            tracer.calls("enumeration.determinable_size") / ops,
        "enumeration.size_sweep.p50_us": _p50_us(find("enumeration.size_sweep")),
        "solvers.search_retrieve.p50_us": _p50_us(search),
        "solvers.search_retrieve.p99_us": percentile(search.durations, 99) * scale,
        "solvers.search_retrieve.self_p50_us": statistics.median(search.self_times) * scale,
        "solvers.search_retrieve.ambiguous_rate":
            search.errors["AmbiguousSolutionError"] / len(search.durations),
        "solvers.search_retrieve.no_solution_rate":
            search.errors["NoSolutionError"] / len(search.durations),
        "solvers.robust_crt.p50_us": _p50_us(find("solvers.robust_crt")),
        "solvers.fold_per_wavelength.p50_us": _p50_us(find("solvers.fold_per_wavelength")),
        "solvers.brute_force_oracle.p50_us": _p50_us(find("solvers.brute_force_oracle")),
        "solvers.oracle_agreement_rate": agreement,
        "simulate.simulate_echo.p50_us": _p50_us(find("simulate.simulate_echo")),
        "simulate.estimate_doppler.p50_us": _p50_us(find("simulate.estimate_doppler")),
        "simulate.vsar_estimate_vspace.p50_us":
            _p50_us(find("simulate.vsar_estimate_vspace")),
        "simulate.vsar_estimate_vspace.abs_err_p99_mps": percentile(vspace_errors, 99),
        "simulate.monte_carlo_rmse.trials_per_s": workers["trials_per_s"],
        "simulate.monte_carlo_rmse.workers2_trials_per_s": workers["workers2_trials_per_s"],
        "simulate.monte_carlo_rmse.workers_identical": float(workers["identical"]),
        "cli.build_parser.p50_us": _p50_us(find("cli.build_parser")),
        "cli.main.retrieve.p50_us": _p50_us(find("cli.main.retrieve")),
        "cli.main.classify.p50_us": _p50_us(find("cli.main.classify")),
        "cli.main.enumerate.p50_us": _p50_us(find("cli.main.enumerate")),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_share"] = tracer.layer_self[("workload", layer)] / wall
        metrics[f"{layer}.calls_per_op"] = tracer.layer_calls[("workload", layer)] / ops
    metrics["trace.overhead"] = traced.ops_per_s / untraced.ops_per_s
    metrics["workload.op_p99_us"] = percentile(untraced.latencies_ns, 99) / 1e3
    attempted = traced.attempted + untraced.attempted
    metrics["workload.fail_rate"] = (traced.failed + untraced.failed) / attempted
    metrics["workload.silent_gross_rate"] = (
        traced.kinds[SILENT_GROSS] + untraced.kinds[SILENT_GROSS]) / attempted
    return metrics


def git_commit(root: Path) -> str:
    """Commit checked out at ``root``, or ``unknown`` where ``root`` is not a
    git work tree; git does not search the directories above ``root``."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mfsar").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """What a before/after pair must share: code, box, versions and settings."""
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "git_commit": git_commit(root), "source_sha256": source_digest(root),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": sys.modules["numpy"].__version__,
        "platform": platform.platform(),
    }


def traced_run(workload, m, rngs, seconds: float, workdir: Path, problems: list,
               record: dict):
    """Untraced half, traced half, traced probe of the other workloads, then the
    untraced worker comparison; returns ``(per-layer metrics, tallies)``."""
    untraced = run_loop(workload, rngs["inputs"], seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_loop(workload, rngs["inputs"], seconds / 2, tracer=tracer)
        tracer.set_phase("probe")
        ran = [workload]
        for other, count in PROBE_OPS.items():
            if other == workload.name:
                continue
            probe = WORKLOADS[other](m, workdir)
            ran.append(probe)
            tally = run_loop(probe, rngs["probe"], math.inf, count, tracer)
            record.setdefault("probe_failures", {})[other] = dict(tally.kinds)
            if tally.wrong:
                problems.append(f"probe {other}: {tally.wrong} wrong ops")
        agreement = oracle_agreement(m, rngs["oracle"])
    finally:
        tracer.uninstall()
    tracer.write(workdir / "trace" / f"{workload.name}-seed{record['seed']}.jsonl")
    workers = workers_check(m, rngs["workers"])
    if not workers["identical"]:
        problems.append("monte_carlo_rmse differs between 1 and 2 workers")
    echo = next(w for w in ran if w.name == "echo-chain")
    record["traced_ops"] = traced.attempted
    metrics = per_layer(tracer, traced, untraced, echo.vspace_errors, agreement, workers)
    return metrics, [untraced, traced]


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        m: types.SimpleNamespace) -> tuple:
    """One benchmark run; returns ``(result, record)``."""
    workdir = root / ".bench_work"
    rngs = streams(name, seed)
    workload = WORKLOADS[name](m, workdir)
    problems = workload.selfcheck()
    record = run_record(root, name, seed, seconds, trace)
    if not trace:
        record["raw_setup_s"], setup_times = measure_setup(root, workload)
    run_loop(workload, rngs["warmup"], WARMUP_SECONDS)
    if trace:
        metrics, tallies = traced_run(workload, m, rngs, seconds, workdir, problems, record)
    else:
        tally = run_loop(workload, rngs["inputs"], seconds)
        metrics, tallies = end_to_end(tally, setup_times), [tally]
        record["op_p99_us"] = percentile(tally.latencies_ns, 99) / 1e3
        record["raw"] = {"ops_per_s": tally.raw_ops_per_s,
                         "op_p50_us": statistics.median(tally.raw_latencies_ns) / 1e3,
                         "op_p90_us": percentile(tally.raw_latencies_ns, 90) / 1e3,
                         "op_p99_us": percentile(tally.raw_latencies_ns, 99) / 1e3}

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = sum(t.wrong for t in tallies)
    kinds = sum((t.kinds for t in tallies), Counter())
    returned = sum(t.returned for t in tallies)
    if wrong:
        problems.append(f"{wrong} wrong ops: {dict(kinds)}")
    if not returned:
        problems.append("no op returned an answer")
    samples = sum(len(t.latencies_ns) for t in tallies)
    factors = [f for t in tallies for f in t.factors]
    record.update({
        "ops": attempted, "failed": failed, "wrong": wrong, "declined": failed - wrong,
        "failure_kinds": dict(kinds), "fail_rate": failed / attempted,
        "silent_gross_rate": kinds[SILENT_GROSS] / attempted,
        "answers_returned": returned, "latency_samples": samples,
        "latency_samples_beyond_p99": samples // 100,
        "speed_factor": {"median": statistics.median(factors), "min": min(factors),
                         "max": max(factors)},
        "problems": problems[:20],
    })
    units = declared_units(root, trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are computed "
                           "or declared in BENCHMARK.json, not both")
    result = {
        "correct": not problems,
        "attempted": attempted,
        # Wrong ops only: declined answers count in success_rate and the
        # record, and the kinds say which defect declined them.
        "failed": wrong,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, record


def declared_units(root: Path, trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        m = load_mfsar(root)
    except MfsarMissing as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), root, m)
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    for metric, entry in result["metrics"].items():
        print(f"# {metric:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0
