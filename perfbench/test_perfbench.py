"""Smoke tests for the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _helpers():
    spec = importlib.util.spec_from_file_location("sullivan_test_helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _model(text):
    return importlib.import_module("sullivan.dsl").parse_model(text).to_model()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=5, work_dir=str(tmp_path), tiny=True)
    workload.setup()
    outcomes = []
    for _ in range(2):
        outcomes += workload.check(workload.run_once())
    outcomes += workload.final_checks()
    assert outcomes
    assert all(ok for _, ok, _ in outcomes), outcomes


def test_seeds_relabel_without_changing_betti_numbers():
    betti = importlib.import_module("sullivan.cohomology").betti
    for make in (inputs.pure_gen12_text, inputs.nonpure_text):
        assert make(1) != make(2)
        assert betti(_model(make(1)), 10).betti == betti(_model(make(2)), 10).betti


def test_pure_literal_matches_the_dense_oracle():
    got = _helpers().betti_by_elimination(_model(inputs.pure_gen12_text(1)), 6)
    assert got == {n: b for n, b in inputs.PURE_BETTI.items() if n <= 6}


def test_series_basis_sizes_match_enumeration():
    basis_of_degree = importlib.import_module("sullivan.gradedalg").basis_of_degree
    model = _model(inputs.pure_gen12_text(1))
    want = [len(basis_of_degree(model.generators, n)) for n in range(11)]
    assert inputs.pure_basis_sizes(10) == want


def test_traced_counts_and_restored_bindings(tmp_path):
    workload = workloads.PureGen12(seed=2, work_dir=str(tmp_path), tiny=True)
    workload.setup()
    reduction = importlib.import_module("sullivan.reduction")
    linalg = importlib.import_module("sullivan.linalg")
    before = (reduction.betti, linalg.RowSpace.add)
    sampler = refkernel.Sampler()
    tracer = spans.Tracer(sampler.clock)
    tracer.run_iteration(workload.run_once)
    assert (reduction.betti, linalg.RowSpace.add) == before
    assert "__del__" not in vars(linalg.RowSpace)
    layer = tracer.metrics()
    assert all(ok for _, ok, _ in run.cross_checks(workload, layer))
    assert layer["cohomology.betti.calls"] == 1
    assert layer["linalg.nnz_in"] == layer["cdga.apply_d.terms_out"]
    assert 0 < layer["linalg.nnz_rows"]
    first, last = tracer.ranges[0]
    assert tracer.parent[first] == -1 and all(tracer.parent[i] >= first for i in range(first + 1, last))


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    values = [float(i) for i in range(40)]
    p, value = run.tail_percentile(values)
    assert p == 75 and sum(v > value for v in values) == 10


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    out = _bench(["--workload", "paper-verify", "--seed", "1", "--seconds", "0.1", "--trace", trace], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    out = _bench(["--workload", "pure-gen12", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
