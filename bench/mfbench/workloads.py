"""The four benchmark workloads.

Each workload builds its program state once, makes its inputs from a seeded
:class:`random.Random` with the exact reference model, runs one op through
mfsar's public API and checks the answer against the truth it generated.
Program functions are looked up on their modules at call time, so the
tracer's rebinding sees every call.

An op's :class:`Outcome` sorts failures into kinds: ``ambiguous``,
``no_solution``, ``estimation_failure``, ``rejected`` (a ``ValueError`` such as
``ConfigurationError``), ``cli_exit_<code>``, ``reported_failure`` (the Monte
Carlo harness does not say which of ambiguous and no-solution it saw) and
``silent_gross`` (an answer outside the declared error bound).

Every kind counts as a failed op.  The kinds in :data:`DECLINED` are answers
the program declines through its documented API; every other kind is a wrong
op (a wrong answer, a crash of the CLI, a rejected valid input), which makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction

from . import reference as ref

SILENT_GROSS = "silent_gross"
# Exceptions the solvers document for an unanswerable observation, the CLI exit
# codes they map to (3 no solution, 4 ambiguous, 5 estimation) and the Monte
# Carlo harness's count of them.
DECLINED = frozenset({"ambiguous", "no_solution", "estimation_failure", "reported_failure",
                      "cli_exit_3", "cli_exit_4", "cli_exit_5"})


class Outcome:
    """Result of one op: how many ops it counts for and how they ended."""

    __slots__ = ("ops", "failed", "wrong", "kinds", "sq_sum", "returned")

    def __init__(self, ops: int = 1):
        self.ops = ops
        self.failed = 0        # ops that failed, of any kind
        self.wrong = 0         # of those, ops of a kind not in DECLINED
        self.kinds = Counter()
        self.sq_sum = 0.0      # squared error of returned answers
        self.returned = 0      # answers returned (right or wrong)

    def fail(self, kind: str, count: int = 1) -> None:
        self.kinds[kind] += count
        self.failed = min(self.ops, self.failed + count)
        if kind not in DECLINED:
            self.wrong = min(self.ops, self.wrong + count)

    def answer(self, v_hat: float, truth: Fraction, bound: float,
               modulus: Fraction) -> None:
        """Record an answer; it is right modulo the retrieval range."""
        err = ref.circular_error(v_hat, truth, modulus)
        self.sq_sum += err * err
        self.returned += 1
        if not err <= bound:
            self.fail(SILENT_GROSS)


def failure_kind(exc: Exception, errors) -> str:
    """Failure kind of an exception the program raised; re-raise a crash."""
    if isinstance(exc, errors.AmbiguousSolutionError):
        return "ambiguous"
    if isinstance(exc, errors.NoSolutionError):
        return "no_solution"
    if isinstance(exc, errors.EstimationFailure):
        return "estimation_failure"
    if isinstance(exc, ValueError):
        return "rejected"
    raise exc


def fold_mismatches(m, params: dict, cfg, points: int = 100) -> list:
    """Compare the reference cascade fold with ``fold_per_wavelength`` on a grid.

    The grid offsets avoid exact fold boundaries, where a float and an exact
    fold may legitimately pick different sides.
    """
    vts, vss = ref.moduli(params)
    width = ref.retrieval_range(params)
    problems = []
    for i in range(points):
        v = -width / 2 + width * Fraction(1000 * i + 377, 1000 * points)
        folds = m.solvers.fold_per_wavelength(float(v), cfg)
        for fold, vt, vs in zip(folds, vts, vss):
            v_time, v_space, n_t, n_s = ref.cascade_fold(Fraction(float(v)), vt, vs)
            if ((fold.n_t, fold.n_s) != (n_t, n_s)
                    or abs(fold.v_space - float(v_space)) > 1e-9 * max(1.0, abs(float(v)))
                    or abs(fold.v_time - float(v_time)) > 1e-9 * max(1.0, abs(float(v)))):
                problems.append(f"fold of {float(v)} by ({vt}, {vs}): program {fold}, "
                                f"reference {(v_time, v_space, n_t, n_s)}")
    return problems


class Workload:
    name = ""
    batch = 1          # ops between calibrations; about 10-30 ms of work
    setup_code = ""    # one-off program work after ``import mfsar``

    def __init__(self, m, workdir):
        self.m = m
        self.workdir = workdir

    def inputs(self, rng, n: int) -> list:
        """``n`` inputs with their truths, from the seeded ``rng``."""
        raise NotImplementedError

    def op(self, item) -> Outcome:
        """Run one op through mfsar and check its answer."""
        raise NotImplementedError

    def selfcheck(self) -> list:
        """Disagreements between the reference fold and the program's."""
        raise NotImplementedError


class DualStream(Workload):
    name = "dual-stream"
    batch = 16
    XI_E = 0.2
    PARAMS = ref.config()
    RANGE = ref.retrieval_range(PARAMS)     # 120 m/s
    HALF = float(RANGE) / 2
    setup_code = f"mfsar.RadarConfig(**{PARAMS!r})"

    def __init__(self, m, workdir):
        super().__init__(m, workdir)
        self.cfg = m.system.RadarConfig(**self.PARAMS)

    def inputs(self, rng, n):
        out = []
        for _ in range(n):
            truth = Fraction(rng.uniform(-self.HALF, self.HALF))
            obs = tuple(float(r + Fraction(rng.uniform(-self.XI_E, self.XI_E)))
                        for r in ref.observed(truth, self.PARAMS))
            out.append((truth, obs))
        return out

    def op(self, item):
        truth, obs = item
        solvers = self.m.solvers
        out = Outcome()
        try:
            result = solvers.search_retrieve(
                solvers.FoldedObservation(obs, xi_e=self.XI_E), self.cfg)
        except (RuntimeError, ValueError) as exc:
            out.fail(failure_kind(exc, self.m.errors))
        else:
            out.answer(result.v_hat, truth, self.XI_E, self.RANGE)
        return out

    def selfcheck(self):
        return fold_mismatches(self.m, self.PARAMS, self.cfg)


class TriMonteCarlo(Workload):
    name = "tri-montecarlo"
    TRIALS = 10            # per error bound and call, so a call is 20 ops
    XI_GRID = (0.05, 0.1)
    PARAMS = ref.config(lambdas=(0.05, 0.06, 0.07))
    setup_code = f"mfsar.RadarConfig(**{PARAMS!r})"

    def __init__(self, m, workdir):
        super().__init__(m, workdir)
        self.cfg = m.system.RadarConfig(**self.PARAMS)

    def inputs(self, rng, n):
        return [rng.randrange(2**31) for _ in range(n)]

    def op(self, seed):
        curve = self.m.simulate.monte_carlo_rmse(
            self.cfg, list(self.XI_GRID), self.TRIALS, seed, n_workers=1)
        out = Outcome(ops=self.TRIALS * len(self.XI_GRID))
        if [p.xi_e for p in curve.points] != list(self.XI_GRID) or any(
                p.trials != self.TRIALS or not 0 <= p.failures <= p.trials
                for p in curve.points):
            raise RuntimeError(f"malformed Monte Carlo curve {curve}")
        for point in curve.points:
            if point.failures:
                out.fail("reported_failure", point.failures)
            returned = point.trials - point.failures
            if returned:
                out.sq_sum += point.rmse ** 2 * returned
                out.returned += returned
                # Each returned estimate must lie within xi_e of its truth,
                # so an RMSE above xi_e proves a silently wrong answer.
                if not point.rmse <= point.xi_e:
                    out.fail(SILENT_GROSS)
        return out

    def selfcheck(self):
        return fold_mismatches(self.m, self.PARAMS, self.cfg)


class EchoChain(Workload):
    name = "echo-chain"
    batch = 4
    XI_E = 0.1
    PULSES = 256
    NOISE_DB = 10.0
    PARAMS = ref.config()
    RANGE = ref.retrieval_range(PARAMS)     # 120 m/s
    HALF = float(RANGE) / 2
    setup_code = f"mfsar.RadarConfig(**{PARAMS!r})"

    def __init__(self, m, workdir):
        super().__init__(m, workdir)
        self.cfg = m.system.RadarConfig(**self.PARAMS)
        self.vts, self.vss = ref.moduli(self.PARAMS)
        self.vspace_errors = []     # |measured - exact| space remainder, per band

    def inputs(self, rng, n):
        return [(Fraction(rng.uniform(-self.HALF, self.HALF)), rng.randrange(2**31))
                for _ in range(n)]

    def op(self, item):
        truth, seed = item
        m, cfg = self.m, self.cfg
        out = Outcome()
        motion = m.system.TargetMotion(v_x=0.0, v_y=float(truth), y_0=cfg.r_0)
        obs = []
        try:
            for band, lam in enumerate(cfg.lambdas):
                cube = m.simulate.simulate_echo(cfg, motion, lam, self.PULSES,
                                                noise_db=self.NOISE_DB, seed=seed + band)
                f_hat = m.simulate.estimate_doppler(cube)
                v_space = m.simulate.vsar_estimate_vspace(cube, cfg)
                v_time, exact_space, _, _ = ref.cascade_fold(
                    truth, self.vts[band], self.vss[band])
                # The folded Doppler must land within one unpadded bin.
                if ref.circular_error(f_hat, -2 * v_time / ref.exact(lam),
                                      ref.exact(cfg.f_p)) > cfg.f_p / self.PULSES:
                    out.fail(SILENT_GROSS)
                self.vspace_errors.append(
                    ref.circular_error(v_space, exact_space, self.vss[band]))
                obs.append(v_space)
            result = m.solvers.search_retrieve(
                m.solvers.FoldedObservation(tuple(obs), xi_e=self.XI_E), cfg)
        except (RuntimeError, ValueError) as exc:
            out.fail(failure_kind(exc, m.errors))
        else:
            out.answer(result.v_hat, truth, self.XI_E, self.RANGE)
        return out

    def selfcheck(self):
        return fold_mismatches(self.m, self.PARAMS, self.cfg)


class ConfigSweep(Workload):
    name = "config-sweep"
    batch = 1
    XI_E = 0.05
    RETRIEVES = 4
    PARAMS = [ref.config(d=d, lambdas=(round(0.01 * k, 2), round(0.01 * (k + 1), 2)))
              for d in (0.2, 0.4, 0.6) for k in range(2, 12)]
    setup_code = "import mfsar.cli"

    def __init__(self, m, workdir):
        super().__init__(m, workdir)
        configs = workdir / "configs"
        configs.mkdir(parents=True, exist_ok=True)
        self.entries = []
        for params in self.PARAMS:
            lam1, lam2 = params["lambdas"]
            path = configs / f"d{params['d']}_l{lam1}_{lam2}.json"
            path.write_text(json.dumps(dict(params, lambdas=list(params["lambdas"]))))
            vts, vss = ref.moduli(params)
            self.entries.append(dict(
                params=params, path=str(path), pair=f"{lam1!r},{lam2!r}",
                case=ref.case_of(params), v_t=[float(v) for v in vts],
                v_s=[float(v) for v in vss], size=float(ref.determinable_size(params)),
                range=ref.retrieval_range(params)))
        self._order = []

    def inputs(self, rng, n):
        out = []
        for _ in range(n):
            if not self._order:
                self._order = self._rounds(rng)
            entry = self.entries[self._order.pop()]
            half = float(entry["range"]) / 2
            targets = []
            for _ in range(self.RETRIEVES):
                truth = Fraction(rng.uniform(-half, half))
                obs = [float(r + Fraction(rng.uniform(-self.XI_E, self.XI_E)))
                       for r in ref.observed(truth, entry["params"])]
                targets.append((truth, obs))
            out.append((entry, targets))
        return out

    def _rounds(self, rng) -> list:
        """Every config once, in a seeded order of rounds of three configs, one
        of each case, so every three ops from the start of a cycle cover cases
        I, II and III, and with them both ``robust_crt`` and ``search_retrieve``."""
        by_case = {}
        for i, entry in enumerate(self.entries):
            by_case.setdefault(entry["case"], []).append(i)
        for ids in by_case.values():
            rng.shuffle(ids)
        order = []
        for round_ in zip(*by_case.values()):
            round_ = list(round_)
            rng.shuffle(round_)
            order.extend(round_)
        return order[::-1]      # taken from the end

    def _cli(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = self.m.cli.main(argv)
            except SystemExit as exc:       # argparse rejects bad arguments this way
                code = exc.code
        return code, stdout.getvalue()

    def op(self, item):
        entry, targets = item
        out = Outcome()
        config = ["--config", entry["path"]]
        code, text = self._cli(["classify", *config, "--json"])
        if code:
            out.fail(f"cli_exit_{code}")
        else:
            report = json.loads(text)
            if (report["case"] != entry["case"]
                    or not _close(report["v_t"], entry["v_t"])
                    or not _close(report["v_s"], entry["v_s"])):
                out.fail(SILENT_GROSS)
        code, text = self._cli(["enumerate", *config, "--pairs", entry["pair"], "--csv"])
        if code:
            out.fail(f"cli_exit_{code}")
        else:
            rows = list(csv.DictReader(io.StringIO(text)))
            if len(rows) != 1 or not _close([float(rows[0]["size"])], [entry["size"]]):
                out.fail(SILENT_GROSS)
        for truth, obs in targets:
            code, text = self._cli(["retrieve", *config,
                                    *(f"--obs={i}={v!r}" for i, v in enumerate(obs, 1)),
                                    "--json", "--xi-e", repr(self.XI_E), "--method", "auto"])
            if code:
                out.fail(f"cli_exit_{code}")
            else:
                out.answer(json.loads(text)["v_hat"], truth, self.XI_E, entry["range"])
        return out

    def selfcheck(self):
        problems = []
        for entry in self.entries:
            cfg = self.m.system.RadarConfig(**entry["params"])
            problems += fold_mismatches(self.m, entry["params"], cfg, points=20)
        return problems


def _close(a, b) -> bool:
    return len(a) == len(b) and all(math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
                                    for x, y in zip(a, b))


WORKLOADS = {w.name: w for w in (DualStream, TriMonteCarlo, EchoChain, ConfigSweep)}
