"""Tests of the benchmark harness.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from mfbench import harness  # noqa: E402
from mfbench import reference as ref  # noqa: E402
from mfbench.trace import Tracer  # noqa: E402
from mfbench.workloads import SILENT_GROSS, WORKLOADS, Outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Enough ops to cover every workload's paths while staying fast.
SMALL = {"dual-stream": 30, "tri-montecarlo": 20, "echo-chain": 4, "config-sweep": 3}


@pytest.fixture(scope="module")
def m():
    return harness.load_mfsar(ROOT)


def fixed_run(m, tmp_path, name, seed):
    workload = WORKLOADS[name](m, tmp_path)
    rng = harness.streams(name, seed)["inputs"]
    return harness.run_loop(workload, rng, math.inf, SMALL[name])


def test_reference_matches_known_sizes():
    assert ref.determinable_size(ref.config()) == 120
    assert ref.determinable_size(ref.config(lambdas=(0.05, 0.06, 0.07))) == 840
    assert ref.moduli(ref.config()) == ([20, 24], [15, 18])
    assert [ref.case_of(ref.config(d=d)) for d in (0.2, 0.4, 0.6)] == ["I", "III", "II"]
    assert ref.centered(Fraction(15, 2), Fraction(15)) == (1, Fraction(-15, 2))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_fold_agrees_with_program(m, tmp_path, name):
    assert WORKLOADS[name](m, tmp_path).selfcheck() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_results(m, tmp_path, name):
    inputs = [WORKLOADS[name](m, tmp_path).inputs(harness.streams(name, seed)["inputs"], 5)
              for seed in (7, 7, 8)]
    assert inputs[0] == inputs[1] != inputs[2]
    first, second = (fixed_run(m, tmp_path, name, 7) for _ in range(2))
    assert first.attempted == second.attempted >= SMALL[name]
    assert (first.failed, first.kinds) == (second.failed, second.kinds)
    assert first.rmse == second.rmse
    assert not first.kinds[SILENT_GROSS]


def test_wrong_answer_counts_as_failed(m, tmp_path, monkeypatch):
    original = m.solvers.search_retrieve

    def off_by_one(obs, cfg, v_range=None):
        result = original(obs, cfg, v_range)
        return m.solvers.RetrievalResult(result.v_hat + 1.0, result.integers,
                                         result.method, result.residual)

    monkeypatch.setattr(m.solvers, "search_retrieve", off_by_one)
    tally = fixed_run(m, tmp_path, "dual-stream", 1)
    assert tally.failed == tally.wrong == tally.attempted == tally.kinds[SILENT_GROSS] \
        == SMALL["dual-stream"]


def test_answer_is_checked_modulo_the_range():
    out = Outcome()
    out.answer(60.0, Fraction(-59.9994), 0.1, Fraction(120))
    assert out.failed == 0 and math.isclose(out.sq_sum, 0.0006 ** 2, rel_tol=1e-6)
    out.answer(59.0, Fraction(-59.9994), 0.1, Fraction(120))
    assert out.kinds[SILENT_GROSS] == 1


@pytest.mark.parametrize("seed", range(1, 21))
def test_config_sweep_probe_covers_every_case(m, tmp_path, seed):
    workload = WORKLOADS["config-sweep"](m, tmp_path)
    probe = workload.inputs(harness.streams("dual-stream", seed)["probe"],
                            harness.PROBE_OPS["config-sweep"])
    assert sorted(entry["case"] for entry, _ in probe) == ["I", "II", "III"]


def test_reported_failure_is_sorted_by_kind(m, tmp_path, monkeypatch):
    def ambiguous(obs, cfg, v_range=None):
        raise m.errors.AmbiguousSolutionError("stub")

    monkeypatch.setattr(m.solvers, "search_retrieve", ambiguous)
    tally = fixed_run(m, tmp_path, "dual-stream", 1)
    assert tally.failed == tally.kinds["ambiguous"] == tally.attempted
    assert tally.returned == tally.wrong == 0


def test_rejected_valid_input_is_wrong(m, tmp_path, monkeypatch):
    def rejects(obs, cfg, v_range=None):
        raise m.errors.ConfigurationError("stub")

    monkeypatch.setattr(m.solvers, "search_retrieve", rejects)
    tally = fixed_run(m, tmp_path, "dual-stream", 1)
    assert tally.failed == tally.wrong == tally.kinds["rejected"] == tally.attempted


def test_monte_carlo_failures_are_declined_not_wrong(m, tmp_path, monkeypatch):
    def ambiguous(obs, cfg, v_range=None):
        raise m.errors.AmbiguousSolutionError("stub")

    monkeypatch.setattr(m.simulate, "search_retrieve", ambiguous)
    tally = fixed_run(m, tmp_path, "tri-montecarlo", 1)
    assert tally.kinds["reported_failure"] == tally.failed == tally.attempted
    assert tally.wrong == 0


def test_tracer_records_nested_spans_and_restores(m):
    original = m.solvers.search_retrieve
    cfg = m.system.RadarConfig(**ref.config())
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_op()
        m.solvers.search_retrieve(m.solvers.FoldedObservation((1.0, 2.0), xi_e=0.2), cfg)
    finally:
        tracer.uninstall()
    assert m.solvers.search_retrieve is original
    search = tracer.find("solvers.search_retrieve")
    size = tracer.find("enumeration.determinable_size")
    assert len(search.durations) == len(size.durations) == 1
    assert 0 <= search.self_times[0] <= search.durations[0] - size.durations[0]
    ids = {span[0]: span for span in tracer.kept}
    parent = ids[next(s for s in tracer.kept if s[4] == "enumeration.determinable_size")[1]]
    assert parent[4] == "solvers.search_retrieve"


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_contract_result(trace, section):
    done = run_cli(ROOT, "--workload", "dual-stream", "--seed", "3", "--seconds", "1",
                   "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in SPEC[section]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli(tmp_path, "--workload", "dual-stream", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout == ""
