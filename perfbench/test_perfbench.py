"""Self-tests of the benchmark: inputs, cold caches, tracing and output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

import run

run._load_program()

import inputs  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402
from monodyn import cli, finite_field, graph_engine, reporting  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def tiny(workload, trace, expected):
    return run.run_workload(workload, 7, 0, trace, expected, tiny=True, min_rounds=1)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_decides_inputs(workload):
    assert inputs.generate(workload, 1) == inputs.generate(workload, 1)
    assert inputs.generate(workload, 1) != inputs.generate(workload, 2)
    assert len(inputs.generate(workload, 1)) == len(inputs.pool(workload))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_candidate_has_a_recorded_outcome(workload, expected):
    missing = [op.key for slot in inputs.pool(workload) for op in slot if op.key not in expected]
    assert not missing


def test_cache_discovery_and_reset():
    caches = ops.discover_caches()
    short = {name.rsplit(".", 1)[1] for name in caches}
    assert {"make_field", "element_orders", "factorize", "multiplicative_order", "v_s"} <= short
    op = inputs.Op("gate", (625, 5, 4, 0))
    ops.run(op, run.OUT_DIR / "unused")
    assert any(fn.cache_info().currsize for fn in caches.values())
    ops.reset_caches(caches)
    assert all(fn.cache_info().currsize == 0 for fn in caches.values())


def test_tracer_patches_names_where_they_are_looked_up():
    originals = (graph_engine.element_orders, graph_engine.mul, graph_engine.power,
                 cli.render_json, finite_field.mul)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert graph_engine.element_orders is not originals[0]
        assert graph_engine.mul is not originals[1]
        assert graph_engine.power is not originals[2]
        assert cli.render_json is reporting.render_json is not originals[3]
        assert finite_field.mul is graph_engine.mul
        spec = finite_field.make_field(5, 2)
        graph_engine.build(graph_engine.monomial_system(spec, 3, 2))
        names = {s[4] for s in tracer.spans}
        assert {"finite_field.make_field", "graph_engine.build", "graph_engine.successor_array"} <= names
        assert tracer.tallies[0]["finite_field.mul.calls"] > 0
    finally:
        tracer.uninstall()
    assert (graph_engine.element_orders, graph_engine.mul, graph_engine.power,
            cli.render_json, finite_field.mul) == originals


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    timed = tracer._timed_wrapper("a.timed", lambda: sum(range(1000)), None, False)
    with tracer.span("op"):
        with tracer.span("a.outer"):
            with tracer.span("a.inner"):
                timed()
            timed()
    m = tracer.round_metrics(0)
    assert m["a.timed.calls"] == 2 and m["a.timed.self_s"] == m["a.timed.s"]
    assert 0 <= m["a.inner.self_s"] < m["a.inner.s"]
    assert 0 <= m["a.outer.self_s"] < m["a.outer.s"] - m["a.inner.s"]
    total = m["a.outer.self_s"] + m["a.inner.self_s"] + m["a.timed.s"]
    assert total == pytest.approx(m["a.outer.s"], rel=1e-9)
    (op_span,) = [s for s in tracer.spans if s[4] == "op"]
    assert 0 < tracer.layer_self_by_op()[0, 0] <= op_span[6] - op_span[5]


def test_alloc_peak_counts_only_the_layer():
    ballast = [bytearray(1 << 20) for _ in range(40)]  # heap the layer did not allocate
    probe = spans.AllocPeaks()
    probe.install()
    try:
        assert cli.render_json is reporting.render_json
        reporting.render_json({"rows": list(range(200_000))})
    finally:
        probe.uninstall()
    peak = probe.peaks["reporting.render_json.alloc_peak_mb"]
    assert 0.5 < peak < 20, peak
    del ballast


def _metric_names(trace):
    return {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace, expected):
    result, detail = tiny(workload, trace, expected)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _metric_names(trace)
    if trace:
        lines = (run.ROOT / detail["trace_file"]).read_text().splitlines()
        rec = json.loads(lines[0])
        assert {"round", "op", "id", "parent", "name", "start", "end"} <= set(rec)
        assert result["metrics"]["trace.layer_self_share"]["value"] <= 1
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_corrupted_digest_is_a_failure(workload, expected):
    victim = inputs.generate(workload, 7, tiny=True)[0]
    bad = dict(expected)
    rec = dict(bad[victim.key])
    if "sha256" in rec:
        rec["sha256"] = "0" * 64
    else:
        rec["value"] += 1
    bad[victim.key] = rec
    result, detail = tiny(workload, 0, bad)
    assert result["failed"] > 0 and not result["correct"]
    assert detail["fail_ratio"] > 0


def test_benchmark_json_matches_the_runner():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS)
    layer = [(name, unit) for name, unit in spans.LAYER_METRICS] + [
        ("trace.overhead_s", "s"), ("trace.layer_self_share", "ratio")]
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == layer
