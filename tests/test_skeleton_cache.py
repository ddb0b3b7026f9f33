"""Tests for the sweep spec layer's per-process skeleton cache.

Every point on one ``(network_size, topology_seed, root_strategy)`` key
shares one network and SPAM skeleton (spanning tree, channel labelling,
ancestry); a point whose selection is not the default gets a fresh
selection on that skeleton.  The cache's whole value rests on one contract:
a point's result does not depend on what the process evaluated before it.
These tests pin that contract and the sharing itself:

* cold-vs-warm bit identity over every workload kind plus the stateful
  ``random`` and the ``first-allowed`` selections, in either order;
* ``random`` replications that match their cold results whatever random or
  default-selection point ran before them on the warm skeleton;
* the selection rule: the default selection reuses the cached routing,
  any other gets a fresh selection on the shared skeleton;
* one topology build for a whole sequential sweep on one key;
* the distance-to-LCA table is built by the first routing decision, not by
  the routing's construction;
* a process-pool run equals the sequential run on ``random`` specs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.sweeps.spec as spec_module
from repro.core.spam import SpamRouting
from repro.sweeps import SweepPointSpec, evaluate_spec, run_sweep
from repro.topology.irregular import lattice_irregular_network
from repro.topology.network import Network


def _spec(kind: str, params, **kwargs) -> SweepPointSpec:
    defaults = dict(
        workload_kind=kind,
        network_size=24,
        topology_seed=3,
        message_length_flits=16,
        workload_params=tuple(params),
        workload_seed=5,
        x=1.0,
    )
    defaults.update(kwargs)
    return SweepPointSpec(**defaults)


#: One spec per workload kind, all on one skeleton key.
KIND_SPECS = [
    _spec("single-multicast", (("num_destinations", 4), ("samples", 2))),
    _spec(
        "mixed",
        (
            ("rate_per_us", 0.01),
            ("multicast_destinations", 4),
            ("num_messages", 6),
            ("multicast_fraction", 0.25),
            ("arrival", "poisson"),
        ),
    ),
    _spec("software-comparison", (("num_destinations", 4), ("samples", 2))),
    _spec("partitioned-multicast", (("num_destinations", 8), ("groups", 2))),
]

#: Stateful-selection replications on the same key and workload: only the
#: selection's RNG seed differs.  Unicast-heavy traffic gives the routing
#: function adaptive choices for the selection to make.
RANDOM_SPECS = [
    _spec(
        "mixed",
        (("rate_per_us", 0.02), ("multicast_destinations", 4), ("num_messages", 8)),
        workload_seed=10,
        selection="random",
        selection_seed=i,
        x=float(i),
    )
    for i in range(4)
]

FIRST_ALLOWED_SPECS = [
    _spec(
        "mixed",
        (("rate_per_us", 0.02), ("multicast_destinations", 4), ("num_messages", 6)),
        workload_seed=20 + i,
        selection="first-allowed",
        x=float(i),
    )
    for i in range(2)
]

SPECS = KIND_SPECS + RANDOM_SPECS + FIRST_ALLOWED_SPECS


@pytest.fixture
def cold_cache():
    spec_module._skeleton.cache_clear()
    yield
    spec_module._skeleton.cache_clear()


@pytest.fixture
def topology_builds(monkeypatch):
    """Arguments of every ``lattice_irregular_network`` call the spec layer makes."""
    calls = []
    build = spec_module.lattice_irregular_network

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(spec_module, "lattice_irregular_network", counting_build)
    return calls


@pytest.mark.usefixtures("cold_cache")
class TestSkeletonCache:
    def test_warm_cache_is_bit_identical_to_cold(self):
        cold = {}
        for spec in SPECS:
            spec_module._skeleton.cache_clear()
            cold[spec] = evaluate_spec(spec)
        for order in (SPECS, SPECS[::-1]):
            spec_module._skeleton.cache_clear()
            warm = [evaluate_spec(spec) for spec in order]
            assert warm == [cold[spec] for spec in order]

    def test_random_selection_not_contaminated_by_cache_order(self):
        cold = {}
        for spec in RANDOM_SPECS:
            spec_module._skeleton.cache_clear()
            cold[spec] = evaluate_spec(spec)
        # The RNG seed alone changes the random replications' results.
        assert len({cold[spec].latencies_us for spec in RANDOM_SPECS}) > 1
        # On a warm cache, each replication follows another random one and a
        # default-selection point that routes on the same shared skeleton.
        neighbour = KIND_SPECS[1]
        for order in (RANDOM_SPECS, RANDOM_SPECS[::-1]):
            spec_module._skeleton.cache_clear()
            for spec in order:
                evaluate_spec(neighbour)
                assert evaluate_spec(spec) == cold[spec]

    def test_default_selection_shares_the_cached_routing(self):
        default = KIND_SPECS[0]
        routing = spec_module._routing(default)
        assert spec_module._routing(replace(default, workload_seed=99)) is routing
        for spec in (RANDOM_SPECS[0], FIRST_ALLOWED_SPECS[0]):
            fresh = spec_module._routing(spec)
            again = spec_module._routing(spec)
            assert fresh.selection.name == spec.selection
            assert fresh is not routing and fresh.selection is not again.selection
            assert fresh.network is routing.network
            assert fresh.tree is routing.tree
            assert fresh.labeling is routing.labeling
            assert fresh.ancestry is routing.ancestry

    def test_sequential_sweep_builds_topology_once(self, topology_builds):
        outcome = run_sweep(SPECS, store=None, workers=1)
        assert outcome.computed == len(SPECS)
        assert topology_builds == [(24,)]

    def test_distance_table_built_on_first_decision(self, monkeypatch):
        tables = []
        build_table = Network.switch_distance_matrix

        def counting_table(network):
            tables.append(network)
            return build_table(network)

        monkeypatch.setattr(Network, "switch_distance_matrix", counting_table)
        network = lattice_irregular_network(16, seed=1)
        routing = SpamRouting.build(network)
        assert tables == []
        processors = network.processors()
        routing.unicast_route(processors[0], processors[-1])
        assert tables == [network]
        routing.unicast_route(processors[1], processors[-2])
        assert tables == [network]

    @pytest.mark.slow
    def test_pool_matches_sequential_on_random_specs(self):
        sequential = run_sweep(RANDOM_SPECS, store=None, workers=1)
        pooled = run_sweep(RANDOM_SPECS, store=None, workers=2)
        assert pooled.results == sequential.results
