"""Engineering benchmark: raw throughput of the flit-level simulator.

Not a figure from the paper — this measures how many flit-hops per second
the event-driven engine sustains, which determines how expensive the
paper-scale configurations are to regenerate.  pytest-benchmark runs the same
broadcast repeatedly, so this is also the benchmark to watch when optimising
the simulator's hot path.

Four kinds of scenario are exercised:

* the seed scenarios (64 switches, 64-flit worms) kept verbatim so numbers
  stay comparable across PRs,
* scale scenarios (256 switches and/or 512-flit worms) where streaming
  worms dominate and the engine's worm-token fast path pays off,
* Figure-3-style mixed-traffic scenarios (128 switches, 90 % unicast / 10 %
  multicast, Poisson and negative-binomial arrivals): worms streaming in
  different phases of the channel period next to blocked multicast
  branches, and (at the paper's 128-flit length) the churn regime whose
  token verification tally (``coalesce_exits``, keyed by tier name) the
  snapshot records,
* an explicit fast-path vs. reference comparison that asserts bit-identical
  delivery timestamps and records the measured speedups to
  ``benchmarks/results/simulator_throughput.json`` (the committed
  ``BENCH_simulator_throughput.json`` at the repository root is a snapshot
  of this file, refreshed when the engine changes materially).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.spam import SpamRouting
from repro.obs import Telemetry, summarize_snapshot
from repro.obs.export import snapshot_dict
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import PROBE_TIERS, WormholeSimulator
from repro.topology.irregular import lattice_irregular_network
from repro.traffic.arrivals import make_arrival_process
from repro.traffic.workload import mixed_traffic_workload


@pytest.fixture(scope="module")
def broadcast_setup():
    network = lattice_irregular_network(64, seed=11)
    routing = SpamRouting.build(network)
    config = SimulationConfig(message_length_flits=64)
    return network, routing, config


@pytest.fixture(scope="module")
def scale_setup():
    """256 switches, 512-flit worms: the steady-state streaming regime."""
    network = lattice_irregular_network(256, seed=11)
    routing = SpamRouting.build(network)
    config = SimulationConfig(message_length_flits=512)
    return network, routing, config


@pytest.fixture(scope="module")
def figure3_setup():
    """128 switches with Figure-3 mixed traffic (90 % unicast / 10 % multicast,
    degree 16) at a moderately heavy arrival rate, one workload per arrival
    process.  Poisson arrivals land on arbitrary nanoseconds (phase-staggered
    worms); the paper's negative binomial is quantised to the channel cycle."""
    network = lattice_irregular_network(128, seed=7)
    routing = SpamRouting.build(network)
    workloads = {
        name: mixed_traffic_workload(
            network,
            rate_per_us=0.02,
            multicast_destinations=16,
            num_messages=60,
            multicast_fraction=0.1,
            seed=23,
            arrival_process=make_arrival_process(name, 0.02),
        )
        for name in ("poisson", "negative-binomial")
    }
    config = SimulationConfig(message_length_flits=128)
    return network, routing, workloads, config


def _broadcast_once(network, routing, config):
    simulator = WormholeSimulator(network, routing, config)
    simulator.submit_broadcast(network.processors()[0])
    return simulator.run()


def _mixed_once(network, routing, workload, config):
    simulator = WormholeSimulator(network, routing, config)
    workload.submit_to(simulator)
    simulator.run()
    return simulator


@pytest.mark.benchmark(group="engine")
def test_broadcast_simulation_throughput(benchmark, broadcast_setup, record_result):
    network, routing, config = broadcast_setup

    def run_once():
        return _broadcast_once(network, routing, config)

    stats = benchmark(run_once)
    assert stats.messages_completed == 1
    record_result(
        "simulator_throughput",
        (
            "Engine micro-benchmark — one 63-destination broadcast, 64-switch network, "
            f"64-flit message\nflit-hops simulated per run: {stats.flit_hops}\n"
            "(see pytest-benchmark output for the wall-clock distribution)"
        ),
    )


@pytest.mark.benchmark(group="engine")
def test_unicast_simulation_throughput(benchmark, broadcast_setup):
    network, routing, config = broadcast_setup
    processors = network.processors()

    def run_once():
        simulator = WormholeSimulator(network, routing, config)
        for index in range(8):
            simulator.submit_message(
                processors[index], [processors[(index + 17) % len(processors)]], at_ns=0
            )
        return simulator.run()

    stats = benchmark(run_once)
    assert stats.messages_completed == 8


@pytest.mark.benchmark(group="engine")
def test_long_worm_broadcast_throughput(benchmark, broadcast_setup):
    """64 switches, 512-flit worms: long steady-state phase on a small net."""
    network, routing, _ = broadcast_setup
    config = SimulationConfig(message_length_flits=512)

    stats = benchmark(lambda: _broadcast_once(network, routing, config))
    assert stats.messages_completed == 1


@pytest.mark.benchmark(group="engine")
def test_large_broadcast_throughput(benchmark, scale_setup):
    """256 switches, 512-flit worms: the paper-scale stress scenario."""
    network, routing, config = scale_setup

    stats = benchmark(lambda: _broadcast_once(network, routing, config))
    assert stats.messages_completed == 1


@pytest.mark.benchmark(group="engine")
@pytest.mark.parametrize("arrival", ["poisson", "negative-binomial"])
def test_mixed_traffic_throughput(benchmark, figure3_setup, arrival):
    """Figure-3 mixed traffic end to end (the headline workload of the
    paper's second experiment) on the default engine configuration."""
    network, routing, workloads, config = figure3_setup

    simulator = benchmark(
        lambda: _mixed_once(network, routing, workloads[arrival], config)
    )
    assert not simulator.pending_messages
    assert simulator.coalesced_ticks > 0


def _time_broadcast(network, routing, config, rounds: int) -> tuple[float, int]:
    """Best-of-``rounds`` wall-clock seconds and flit-hop count of one run."""
    best = float("inf")
    hops = 0
    for _ in range(rounds):
        start = time.perf_counter()
        stats = _broadcast_once(network, routing, config)
        best = min(best, time.perf_counter() - start)
        hops = stats.flit_hops
    return best, hops


def _time_mixed(network, routing, workload, config, rounds: int):
    """Best-of-``rounds`` wall clock plus the final simulator of one run."""
    best = float("inf")
    simulator = None
    for _ in range(rounds):
        start = time.perf_counter()
        simulator = _mixed_once(network, routing, workload, config)
        best = min(best, time.perf_counter() - start)
    return best, simulator


@pytest.mark.benchmark(group="engine")
def test_fast_path_speedup_and_equivalence(
    broadcast_setup, scale_setup, figure3_setup, results_dir
):
    """Fast path vs. reference: identical results, measured speedups.

    Writes ``simulator_throughput.json`` next to the text artefacts so the
    perf trajectory of the engine is machine-readable.
    """
    scenarios = []
    for name, (network, routing, _), flits, rounds, floor in (
        ("broadcast_64sw_512f", broadcast_setup, 512, 3, 3.0),
        ("broadcast_256sw_512f", scale_setup, 512, 2, 1.5),
    ):
        fast_config = SimulationConfig(message_length_flits=flits, fast_path=True)
        ref_config = fast_config.with_overrides(fast_path=False)

        fast_sim = WormholeSimulator(network, routing, fast_config)
        fast_msg = fast_sim.submit_broadcast(network.processors()[0])
        fast_stats = fast_sim.run()
        ref_sim = WormholeSimulator(network, routing, ref_config)
        ref_msg = ref_sim.submit_broadcast(network.processors()[0])
        ref_stats = ref_sim.run()

        # The fast path's contract: bit-identical observable behaviour.
        assert fast_msg.delivered_ns == ref_msg.delivered_ns
        assert fast_stats.flit_hops == ref_stats.flit_hops
        assert fast_stats.bubbles_created == ref_stats.bubbles_created
        assert fast_stats.end_time_ns == ref_stats.end_time_ns

        fast_s, hops = _time_broadcast(network, routing, fast_config, rounds)
        ref_s, _ = _time_broadcast(network, routing, ref_config, rounds)
        speedup = ref_s / fast_s
        scenarios.append(
            {
                "scenario": name,
                "message_length_flits": flits,
                "flit_hops": hops,
                "fast_seconds": round(fast_s, 6),
                "reference_seconds": round(ref_s, 6),
                "fast_flit_hops_per_sec": round(hops / fast_s),
                "reference_flit_hops_per_sec": round(hops / ref_s),
                "speedup": round(speedup, 2),
            }
        )
        # Regression floors, far below the measured speedups (≈8.8x / ≈3.9x).
        # Wall-clock ratios are inherently noisy on shared CI runners, so the
        # floors are only enforced on opt-in (REPRO_BENCH_STRICT=1, set for
        # local benchmarking); the equivalence assertions above always run.
        if os.environ.get("REPRO_BENCH_STRICT"):
            assert speedup >= floor, f"{name}: fast path speedup {speedup:.2f}x < {floor}x"

    # Figure-3 mixed traffic: many worms streaming at once, in different
    # phases of the channel period.  The 512-flit variants are where
    # streaming dominates; the paper-length 128-flit runs are
    # churn-dominated — their token verification tally is recorded so the
    # churn-regime trajectory (verify failures, tokens, speedup vs
    # reference) stays visible across PRs.
    network, routing, workloads, base_config = figure3_setup
    for arrival, workload in workloads.items():
        for flits in (base_config.message_length_flits, 512):
            config = base_config.with_overrides(message_length_flits=flits)
            ref_config = config.with_overrides(fast_path=False)
            fast_s, fast_sim = _time_mixed(network, routing, workload, config, rounds=2)
            ref_s, ref_sim = _time_mixed(network, routing, workload, ref_config, rounds=2)

            assert {m: dict(msg.delivered_ns) for m, msg in fast_sim.messages.items()} == {
                m: dict(msg.delivered_ns) for m, msg in ref_sim.messages.items()
            }
            assert fast_sim.stats.flit_hops == ref_sim.stats.flit_hops
            assert fast_sim.stats.bubbles_created == ref_sim.stats.bubbles_created
            assert fast_sim.stats.end_time_ns == ref_sim.stats.end_time_ns
            assert fast_sim.coalesced_ticks > 0

            hops = fast_sim.stats.flit_hops
            scenarios.append(
                {
                    "scenario": f"figure3_mixed_128sw_{flits}f_{arrival}",
                    "message_length_flits": flits,
                    "flit_hops": hops,
                    "fast_seconds": round(fast_s, 6),
                    "reference_seconds": round(ref_s, 6),
                    "fast_flit_hops_per_sec": round(hops / fast_s),
                    "reference_flit_hops_per_sec": round(hops / ref_s),
                    "speedup": round(ref_s / fast_s, 2),
                    "coalesced_ticks": fast_sim.coalesced_ticks,
                    "coalesce_exits": dict(zip(PROBE_TIERS, fast_sim.coalesce_exits)),
                }
            )

    # Telemetry-sourced time attribution: where the wall clock actually goes.
    # The Figure-3 poisson workload is re-run with a ``repro.obs`` recorder
    # attached, so every token verification is timed and attributed to its
    # outcome tier — the same per-tier table ``repro-spam obs summarize``
    # prints.  Telemetry is observability-only (lint rule R9 keeps it out of
    # every fingerprinted result), so the instrumented run's observables are
    # bit-identical to the timed runs above.
    f3_network, f3_routing, f3_workloads, f3_config = figure3_setup
    engine_tel = Telemetry(track="engine")
    instrumented = WormholeSimulator(
        f3_network, f3_routing, f3_config, telemetry=engine_tel
    )
    f3_workloads["poisson"].submit_to(instrumented)
    instrumented.run()
    engine_summary = summarize_snapshot(snapshot_dict(engine_tel))

    payload = {
        "benchmark": "simulator_throughput",
        "metric": "flit_hops_per_sec",
        "scenarios": scenarios,
        "time_attribution": {
            "workload": "figure3_mixed_128sw_128f_poisson",
            "engine_probe_tiers": engine_summary["tiers"],
        },
    }
    path = Path(results_dir) / "simulator_throughput.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n===== simulator_throughput.json =====\n{json.dumps(payload, indent=2)}\n")
