"""Tests of the benchmark itself, not of mmproto.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""
import importlib.util
import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from mmproto import data, sinkhorn, trainer  # noqa: E402


@pytest.fixture(scope="module")
def acceptance():
    spec = importlib.util.spec_from_file_location(
        "acceptance_suite", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_converged_workload_is_the_frozen_reference_run(acceptance):
    assert workloads.STANDARD_CORPUS == acceptance.STANDARD_CORPUS
    assert workloads.REFERENCE_SEED == acceptance.REFERENCE_SEED
    assert workloads.CONVERGED_K16 == acceptance.reference_config(16)


def test_sweep_workload_differs_only_in_sinkhorn(acceptance):
    reference = acceptance.reference_config(16)
    assert workloads.SWEEP3_K16.loss.sinkhorn == sinkhorn.SinkhornConfig()
    assert workloads.SWEEP3_K16 == replace(reference, loss=replace(
        reference.loss, sinkhorn=sinkhorn.SinkhornConfig()))


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        tracing.metric_units()


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([3.0], 99) == 3.0
    assert tracing.percentile([], 50) == 0.0


def test_tracer_nests_spans_and_restores_attributes():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = (ns.inner, ns.outer)
    tracer = tracing.Tracer()
    points = ((ns, "outer", "outer", None), (ns, "inner", "inner", None))
    with tracer.installed(points):
        assert ns.outer(1) == 4
    assert (ns.inner, ns.outer) == originals
    assert tracer.restored
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tracer_restores_after_an_exception():
    ns = types.SimpleNamespace(fail=lambda: 1 / 0)
    original = ns.fail
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(((ns, "fail", "fail", None),)):
            ns.fail()
    assert ns.fail is original and tracer.restored
    assert tracer.spans[0].name == "fail"


def test_step_self_time_excludes_child_spans():
    span = tracing.Span
    spans = [span("trainer.train", 0.0, 10.0, None),
             span("model.embed", 0.5, 1.5, 0),
             span("objective.swapped_loss", 1.5, 3.5, 0),
             span("sinkhorn.compute_codes", 2.0, 3.0, 2, "k16_b32"),
             span("model.embed", 5.0, 6.0, 0)]
    metrics = tracing.layer_metrics(spans, [4.0, 9.0], first_measured=0,
                                    overhead_pct=1.0)
    assert metrics["trainer.step.calls"] == 2
    assert metrics["trainer.step.p99_ms"] == pytest.approx(5000.0)
    # step 1 is 4 s with 3 s of children; step 2 is 5 s with 1 s
    assert metrics["trainer.step.self_p50_ms"] == pytest.approx(1000.0)
    assert metrics["trainer.step.self_p99_ms"] == pytest.approx(4000.0)
    assert metrics["objective.swapped_loss.self_p50_ms"] == \
        pytest.approx(1000.0)
    assert metrics["sinkhorn.compute_codes.loss.calls"] == 1
    assert metrics["sinkhorn.compute_codes.metric.calls"] == 0
    assert metrics["sinkhorn.compute_codes.calls_k16_b32"] == 1
    assert set(metrics) == set(tracing.metric_units())


def test_layers_the_measured_pass_never_calls_come_from_set_up():
    span = tracing.Span
    spans = [span("data.generate", 0.0, 2.0, None),
             span("sinkhorn.compute_codes", 2.0, 2.001, None, "k16_b32"),
             span("sinkhorn.compute_codes", 3.0, 13.0, None, "k3000_b1952"),
             span("sinkhorn.compute_codes", 14.0, 26.0, None, "k3000_b1952")]
    metrics = tracing.layer_metrics(spans, [], first_measured=2,
                                    overhead_pct=0.0)
    assert metrics["data.generate.calls"] == 1
    assert metrics["data.generate.p50_s"] == pytest.approx(2.0)
    assert metrics["sinkhorn.compute_codes.calls"] == 2
    assert metrics["sinkhorn.compute_codes.p50_ms"] == pytest.approx(1e4)
    assert metrics["sinkhorn.compute_codes.calls_k16_b32"] == 1
    assert metrics["sinkhorn.compute_codes.calls_k3000_b1952"] == 2
    assert metrics["model.embed.calls"] == 0
    assert metrics["model.embed.p50_ms"] == 0.0


def test_traced_training_is_bit_identical_and_reaches_every_layer():
    corpus = data.generate(data.CorpusSpec(
        n_samples=96, n_latent_clusters=4, latent_dim=8, d1=12, d2=12,
        noise_sigma=0.05, seed=5))
    config = replace(workloads.CONVERGED_K16, epochs=2, batch_size=16,
                     k_prototypes=4, encoder=replace(
                         workloads.CONVERGED_K16.encoder,
                         input_dims=(12, 12), hidden_dims=(16,),
                         embed_dim=8))
    _, plain = trainer.train(corpus, config)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, traced = trainer.train(corpus, config)
    assert [r.loss for r in traced] == [r.loss for r in plain]
    assert tracer.restored
    names = {s.name for s in tracer.spans}
    assert {"trainer.train", "data.batches", "model.embed",
            "objective.swapped_loss", "objective.compute_batch_codes",
            "sinkhorn.compute_codes", "numerics.backward.train",
            "model.renormalize_prototypes",
            "trainer.code_usage_metric"} <= names
    callers = {tracing._caller(tracer.spans, s) for s in tracer.spans
               if s.name == "sinkhorn.compute_codes"}
    assert callers == {"loss", "metric"}


def test_code_problem_is_seeded():
    a, labels_a = workloads.code_problem(3, 0)
    b, labels_b = workloads.code_problem(3, 0)
    c, _ = workloads.code_problem(4, 0)
    assert a.shape == (workloads.CODES_K, workloads.CODES_B)
    assert np.array_equal(a, b) and np.array_equal(labels_a, labels_b)
    assert not np.array_equal(a, c)
