"""Tests of the benchmark harness itself (not part of the library suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
import spans  # noqa: E402
from layerwave import Data  # noqa: E402

TINY = {
    "float-deep": replace(bench.WORKLOADS["float-deep"], layers=6,
                          vectors=200),
    "rational-exact": replace(bench.WORKLOADS["rational-exact"], layers=6,
                              vectors=200),
    "noisy-repair": replace(bench.WORKLOADS["noisy-repair"], layers=8,
                            vectors=500),
}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return {m["name"]: m["unit"] for m in json.load(fp)[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "rational-exact", "--seed", "3", "--seconds", "0.01",
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared(kind)


def test_workload_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        names = [w["name"] for w in json.load(fp)["workloads"]]
    assert names == list(bench.WORKLOADS)


def test_corrupted_rational_amplitude_is_a_failure(monkeypatch):
    recipe = TINY["rational-exact"]
    digests = {}
    clean = bench.run_workload(recipe, 0, models=2, digests=digests,
                               record=True)
    assert clean.failed == 0 and digests[recipe.name]

    real_forward = bench.forward

    def corrupted(model):
        data, em = real_forward(model)
        alpha = list(data.alpha)
        alpha[len(alpha) // 2] += Fraction(1, 10 ** 12)  # not a primary
        return Data(data.sigma, tuple(alpha)), em

    monkeypatch.setattr(bench, "forward", corrupted)
    run = bench.run_workload(recipe, 0, models=2, digests=digests)
    assert run.failed == 2
    assert all(op == "forward" and "digest" in cause
               for op, cause in run.failures)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_smoke_run(name):
    recipe = TINY[name]
    run = bench.run_workload(recipe, 1, models=2)
    assert run.failed == 0, run.failures
    assert set(bench.end_to_end(run)) == set(declared("end_to_end"))

    traced = bench.run_workload(recipe, 1, models=1, trace=True)
    assert traced.failed == 0, traced.failures
    traced.tracer.require(bench.COMMON_SPANS + (
        bench.NOISY_SPANS if recipe.pipeline == "noisy" else ()))
    assert set(bench.per_layer(traced)) == set(declared("per_layer"))


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(sys.modules["layerwave.forward"], "eval_batch")
    tracer = spans.Tracer()
    with pytest.raises(spans.TraceError, match="eval_batch"):
        tracer.install()


def test_span_never_entered_fails_loudly():
    with pytest.raises(spans.TraceError, match="amplitude.eval"):
        spans.Tracer().require(["amplitude.eval"])
