"""Self-test of the end-to-end benchmark.

Not part of the tier-1 suite (``testpaths`` collects ``tests/`` only); run
it by path from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench.py -q

The output-format test runs the real benchmark on ``sw_relay`` once
untraced and once traced (about half a minute on 2 cores); the rest are
unit tests on small inputs.
"""

from __future__ import annotations

import json
import math

import pytest

import bench
import child
import tracing
from repro.obs import Telemetry
from repro.sweeps import SweepPointSpec, evaluate_spec

SMALL_SPEC = SweepPointSpec(
    workload_kind="single-multicast",
    network_size=16,
    topology_seed=3,
    message_length_flits=32,
    workload_params=(("num_destinations", 5), ("samples", 2)),
    workload_seed=5,
    label="small",
)


class FakeClock:
    """A nanosecond clock that moves only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.fixture
def fast_bench(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "MIN_SETUP_SAMPLES", 1)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
def test_output_carries_every_benchmark_metric_with_its_unit(fast_bench, capsys, trace):
    out = fast_bench / "record.json"
    code = bench.main([
        "--workload", "sw_relay", "--seed", "0", "--repeat", "1",
        "--trace", str(trace), "--out", str(out),
    ])
    result = _last_json_line(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    benchmark = bench.load_benchmark()
    declared = benchmark["per_layer"] if trace else benchmark["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    record = json.loads(out.read_text())["workloads"]["sw_relay"]
    for metric in benchmark["end_to_end"]:
        assert metric["name"] in record["metrics"]
    if trace:
        assert record["layers"]["trace.coverage"] >= bench.MIN_TRACE_COVERAGE
        for name in record["layers"]:
            if any(name == metric["name"] for metric in benchmark["per_layer"]):
                assert bench.unit_of(name) == result["metrics"][name]["unit"]


def test_self_time_arithmetic_with_injected_clock():
    clock = FakeClock()
    telemetry = Telemetry(clock=clock)
    tracer = tracing.LayerTracer(telemetry)
    clock.now = 10
    with tracer.span("core.skeleton"):
        clock.now = 12
        with tracer.span("spanning.root"):
            clock.now = 15
        with tracer.span("spanning.tree"):
            clock.now = 19
        clock.now = 30
    clock.now = 40
    with tracer.span("simulator.run"):
        clock.now = 100

    self_ns, parents = tracing.self_times(tracer.spans)
    by_name = {span["name"]: i for i, span in enumerate(tracer.spans)}
    skeleton = by_name["core.skeleton"]
    assert self_ns[skeleton] == 20 - 3 - 4
    assert parents[by_name["spanning.root"]] == skeleton
    assert parents[by_name["spanning.tree"]] == skeleton
    assert parents[skeleton] is None and parents[by_name["simulator.run"]] is None
    assert self_ns[by_name["simulator.run"]] == 60

    sweeps = [{"elapsed_s": 95e-9, "computed_s": 90e-9}]
    metrics = tracing.layer_metrics(tracer, telemetry, wall_ns=100, sweeps=sweeps)
    assert metrics["core.skeleton_s"] == pytest.approx(20e-9)
    assert metrics["core.skeleton_self_s"] == pytest.approx(13e-9)
    assert metrics["spanning.root_s"] == pytest.approx(3e-9)
    # Top-level spans (20 + 60 ns) plus the 5 ns of sweep overhead.
    assert metrics["trace.coverage"] == pytest.approx(85 / 100)


def test_self_time_ignores_disjoint_neighbours():
    spans = [
        {"name": "a", "start_ns": 0, "end_ns": 10},
        {"name": "b", "start_ns": 10, "end_ns": 20},
        {"name": "c", "start_ns": 12, "end_ns": 18},
    ]
    self_ns, parents = tracing.self_times(spans)
    assert parents == [None, None, 1]
    assert self_ns == [10, 4, 6]


def test_wrappers_are_removed_after_a_traced_run():
    import repro.core.spam as spam
    import repro.sweeps.spec as spec
    from repro.simulator.engine import WormholeSimulator
    from repro.sweeps.store import ResultStore
    from repro.traffic.workload import Workload

    owners = [spam, spam.SpamRouting, spec, WormholeSimulator, Workload, ResultStore]
    before = [dict(vars(owner)) for owner in owners]
    untraced = evaluate_spec(SMALL_SPEC)

    tracer = tracing.LayerTracer(Telemetry())
    tracer.install()
    try:
        assert spec.lattice_irregular_network is not before[2]["lattice_irregular_network"]
        traced = evaluate_spec(SMALL_SPEC)
    finally:
        tracer.restore()

    names = {span["name"] for span in tracer.spans}
    assert {"simulator.run", "simulator.init", "traffic.generate"} <= names
    assert tracer.counts["simulator.flit_hops"] > 0
    for owner, saved in zip(owners, before):
        now = vars(owner)
        for attr, original in saved.items():
            assert now[attr] is original, f"{owner!r}.{attr} still wrapped"
    assert traced == untraced


def test_perturbed_latency_fails_the_digest_check():
    result = evaluate_spec(SMALL_SPEC)
    golden = [child.point_digest(result)]
    latencies = list(result.latencies_us)
    latencies[0] = math.nextafter(latencies[0], math.inf)
    perturbed = type(result)(result.spec, tuple(latencies), result.metrics)

    clean = {"points": 1, "digests": golden, "shape_failures": []}
    broken = {"points": 1, "digests": [child.point_digest(perturbed)], "shape_failures": []}
    assert bench.failed_points(clean, golden) == []
    assert bench.failed_points(broken, golden) == [0]


def test_shape_check_flags_a_slow_idle_multicast():
    result = evaluate_spec(SMALL_SPEC)
    slow = type(result)(result.spec, (25.0, 26.0), result.metrics)
    assert child.shape_failures("fig2_stream", [result], None) == []
    assert child.shape_failures("fig2_stream", [result, slow], None) == [1]
    assert child.shape_failures("selection_reps", [result], False) == [0]
