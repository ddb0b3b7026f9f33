"""Benchmark harness for the sweep orchestration subsystem.

Measures the two costs the `repro.sweeps` layer trades between:

* **cold** — a Figure-3 style sweep computed from scratch through
  :func:`repro.sweeps.run_sweep` with a fresh content-addressed store
  (simulation dominates; the store adds per-point checkpoint appends);
* **warm** — the identical sweep re-run against the populated store
  (pure index lookups + JSONL reads; no simulator involvement).

Asserts the subsystem's contract along the way: the warm run computes
nothing, returns bit-identical latencies, and is at least 10x faster than
the cold run (the acceptance floor; in practice it is orders of magnitude).
A second harness times replication-heavy sweeps, which share one network
and SPAM skeleton through the spec layer's per-process cache.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.common import current_scale
from repro.experiments.figure3 import Figure3Config, figure3_specs
from repro.sweeps import ResultStore, SweepPointSpec, run_sweep


@pytest.mark.benchmark(group="sweeps")
def test_sweep_cold_vs_warm_cache(benchmark, record_result, tmp_path):
    config = Figure3Config(
        network_size=64,
        multicast_degrees=(8, 16),
        arrival_rates_per_us=(0.005, 0.02),
        scale=current_scale(),
    )
    specs = figure3_specs(config)
    store_dir = tmp_path / "sweep-cache"

    t0 = time.perf_counter()
    cold = run_sweep(specs, store=ResultStore(store_dir))
    cold_seconds = time.perf_counter() - t0

    warm = benchmark.pedantic(
        lambda: run_sweep(specs, store=ResultStore(store_dir)), rounds=1, iterations=1
    )
    warm_seconds = benchmark.stats.stats.mean if benchmark.stats else 0.0

    assert warm.computed == 0 and warm.cache_hits == len(specs)
    assert [r.latencies_us for r in warm.results] == [
        r.latencies_us for r in cold.results
    ], "warm-cache results must be bit-identical to the cold run"
    speedup = cold_seconds / max(warm_seconds, 1e-9)
    assert speedup >= 10.0, f"warm cache only {speedup:.1f}x faster than cold"

    record_result(
        "sweep_orchestrator_cache",
        "Sweep orchestrator — cold compute vs warm content-addressed cache\n"
        f"points={len(specs)}, scale={config.resolved_scale().name}\n"
        f"cold: {cold_seconds:.3f} s ({cold.summary()})\n"
        f"warm: {warm_seconds:.6f} s ({warm.summary()})\n"
        f"speedup: {speedup:.0f}x",
    )


@pytest.mark.benchmark(group="sweeps")
def test_replications_share_one_skeleton(benchmark, record_result, tmp_path, monkeypatch):
    """Replication-heavy sweep on one topology: one skeleton build in total.

    Many Monte-Carlo replications of one Figure-3 style mixed-traffic point
    on a single large topology, each differing only in its workload and
    selection seeds.  Even with the stateful ``"random"`` selection, whose
    RNG must start fresh at every point, the sweep builds the network,
    spanning tree, labelling and ancestry once and gives every replication
    its own selection on that skeleton.  Asserts the single topology build
    on a cold cache and records replications/s.
    """
    import repro.sweeps.spec as spec_module

    builds = []
    build_network = spec_module.lattice_irregular_network

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build_network(*args, **kwargs)

    monkeypatch.setattr(spec_module, "lattice_irregular_network", counting_build)
    replications = 12
    specs = [
        SweepPointSpec(
            workload_kind="mixed",
            network_size=192,
            topology_seed=7,
            message_length_flits=16,
            workload_params=(
                ("rate_per_us", 0.02),
                ("multicast_destinations", 8),
                ("num_messages", 4),
                ("multicast_fraction", 0.25),
                ("arrival", "poisson"),
            ),
            workload_seed=100 + i,
            selection="random",
            selection_seed=i,
            label="replication",
            x=float(i),
        )
        for i in range(replications)
    ]

    def cold_cache_run():
        spec_module._skeleton.cache_clear()
        builds.clear()
        return run_sweep(specs, store=ResultStore(tmp_path / "store"), resume=False)

    outcome = benchmark.pedantic(cold_cache_run, rounds=1, iterations=1)

    assert outcome.computed == replications and outcome.cache_hits == 0
    assert len(builds) == 1, f"{len(builds)} topology builds for one skeleton"

    seconds = outcome.elapsed_seconds
    rate = replications / max(seconds, 1e-9)
    record_result(
        "sweep_orchestrator_replications",
        "Sweep orchestrator — Monte-Carlo replications sharing one skeleton\n"
        f"replications={replications}, network_size=192, selection=random "
        "(fresh RNG per replication on the shared skeleton)\n"
        f"topology builds: {len(builds)}\n"
        f"cold cache: {seconds:.3f} s ({rate:.1f} replications/s)",
    )
