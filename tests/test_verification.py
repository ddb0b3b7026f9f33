"""Tests for the deadlock/livelock verification utilities (Theorems 1 and 2)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.spam import SpamRouting
from repro.routing.naive import NaiveMinimalRouting
from repro.routing.updown import UpDownRouting
from repro.simulator.deadlock import _simple_cycles
from repro.topology.irregular import lattice_irregular_network, random_irregular_network
from repro.topology.regular import mesh_network, ring_network
from repro.verification.cdg import (
    ChannelDependencyGraph,
    build_naive_cdg,
    build_spam_cdg,
    build_updown_cdg,
)
from repro.verification.harness import run_workload, stress_test_deadlock_freedom
from repro.verification.reachability import (
    check_multicast_coverage,
    check_routing_function_totality,
    check_unicast_reachability,
)
from repro.traffic.workload import mixed_traffic_workload


class TestChannelDependencyGraphs:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_spam_cdg_acyclic_on_random_irregular(self, seed):
        network = random_irregular_network(10, extra_links=6, seed=seed)
        spam = SpamRouting.build(network)
        cdg = build_spam_cdg(spam)
        assert cdg.is_acyclic(), cdg.find_cycle()
        assert cdg.num_channels == network.num_channels
        assert cdg.num_dependencies > 0

    def test_spam_cdg_acyclic_on_lattice_and_mesh(self):
        for network in (lattice_irregular_network(24, seed=5), mesh_network(3, 4), ring_network(6)):
            spam = SpamRouting.build(network)
            assert build_spam_cdg(spam).is_acyclic()

    def test_updown_cdg_acyclic(self):
        network = random_irregular_network(10, extra_links=6, seed=7)
        updown = UpDownRouting.build(network)
        cdg = build_updown_cdg(updown)
        assert cdg.is_acyclic()

    def test_naive_cdg_cyclic_on_ring(self):
        ring = ring_network(6)
        naive = NaiveMinimalRouting(ring)
        cdg = build_naive_cdg(naive)
        assert not cdg.is_acyclic()
        cycle = cdg.find_cycle()
        assert cycle and len(cycle) >= 2

    def test_summary_shape(self):
        network = random_irregular_network(8, extra_links=3, seed=1)
        spam = SpamRouting.build(network)
        summary = build_spam_cdg(spam).summary()
        assert summary["acyclic"] is True
        assert summary["algorithm"] == "spam"

    def test_spam_cdg_has_no_down_to_up_dependency(self):
        """Structural invariant behind Theorem 1: no dependency ever leads
        from a down channel back to an up channel."""
        network = random_irregular_network(9, extra_links=5, seed=2)
        spam = SpamRouting.build(network)
        cdg = build_spam_cdg(spam)
        labeling = spam.labeling
        for src, successors in cdg.graph.items():
            for dst in successors:
                if not labeling.is_up(src):
                    assert not labeling.is_up(dst)


def _random_digraph(seed):
    """A seeded random digraph of up to 9 nodes, self-loops included, as
    the adjacency map a :class:`ChannelDependencyGraph` holds."""
    rng = random.Random(seed)
    size = rng.randint(1, 9)
    density = rng.choice([0.1, 0.2, 0.35, 0.5])
    return {
        node: {other: None for other in range(size) if rng.random() < density}
        for node in range(size)
    }


def _verification_cdgs():
    """The SPAM, up*/down* and naive CDGs the tests above build."""
    cdgs = []
    for seed in range(4):
        network = random_irregular_network(10, extra_links=6, seed=seed)
        cdgs.append(build_spam_cdg(SpamRouting.build(network)))
    for network in (lattice_irregular_network(24, seed=5), mesh_network(3, 4), ring_network(6)):
        cdgs.append(build_spam_cdg(SpamRouting.build(network)))
    network = random_irregular_network(10, extra_links=6, seed=7)
    cdgs.append(build_updown_cdg(UpDownRouting.build(network)))
    cdgs.append(build_naive_cdg(NaiveMinimalRouting(ring_network(6))))
    cdgs.append(build_naive_cdg(NaiveMinimalRouting(ring_network(8))))
    return cdgs


def _rotated(cycle):
    """``cycle`` rotated to start at its smallest node."""
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


class TestCycleRoutinesAgainstNetworkx:
    """The CDG's depth-first search and the deadlock report's cycle
    enumeration against networkx, an independent reference."""

    def _check(self, graph):
        reference = nx.DiGraph()
        reference.add_nodes_from(graph)
        reference.add_edges_from((src, dst) for src, succ in graph.items() for dst in succ)
        cdg = ChannelDependencyGraph(graph=graph, algorithm="test", network_name="test")
        assert cdg.num_channels == reference.number_of_nodes()
        assert cdg.num_dependencies == reference.number_of_edges()
        assert cdg.is_acyclic() == nx.is_directed_acyclic_graph(reference)
        cycle = cdg.find_cycle()
        if cycle is not None:
            # A closed walk of graph edges.
            assert all(reference.has_edge(src, dst) for src, dst in cycle)
            assert all(a[1] == b[0] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        cycles = _simple_cycles(list(reference.edges()))
        assert cycles == sorted(cycles)
        assert len(set(map(_rotated, cycles))) == len(cycles)
        assert set(map(_rotated, cycles)) == set(map(_rotated, nx.simple_cycles(reference)))

    def test_random_digraphs(self):
        for seed in range(2000):
            self._check(_random_digraph(seed))

    def test_verification_cdgs(self):
        verdicts = []
        for cdg in _verification_cdgs():
            self._check(cdg.graph)
            verdicts.append(cdg.is_acyclic())
        assert verdicts == [True] * 8 + [False, False]


class TestReachability:
    def test_unicast_reachability_exhaustive_small(self, small_irregular_spam):
        report = check_unicast_reachability(small_irregular_spam)
        assert report.ok, report.failures
        assert report.pairs_checked == 12 * 11
        assert report.max_route_length >= 2

    def test_unicast_reachability_sampled(self, lattice32_spam):
        report = check_unicast_reachability(lattice32_spam, sample_pairs=100)
        assert report.ok, report.failures
        assert report.pairs_checked <= 101

    def test_a_phase_order_violation_is_reported(self, ring8):
        """SPAM's walk made to follow naive minimal routing's choices takes
        the ring's cross channel after tree channels going down, which the
        phase order forbids; every such pair is reported, the rest pass."""
        spam = SpamRouting.build(ring8)
        assert check_unicast_reachability(spam).ok
        spam.decide = NaiveMinimalRouting(ring8).decide
        report = check_unicast_reachability(spam)
        assert not report.ok and report.pairs_checked == 8 * 7
        assert all("phase order violated" in failure for failure in report.failures)
        processors = ring8.processors()
        assert f"{processors[2]}->{processors[5]}: phase order violated at channel 4->5" in report.failures
        assert not any(failure.startswith(f"{processors[0]}->{processors[1]}:") for failure in report.failures)

    def test_a_route_that_never_arrives_is_reported(self, ring8):
        """A walk that circles the ring without delivering is a failure of
        its pair, not an exception out of the check."""
        from repro.core.decision import one_of

        spam = SpamRouting.build(ring8)
        spam.decide = lambda message, switch, in_channel: one_of(
            [ring8.channel_between(switch, (switch + 1) % 8)]
        )
        report = check_unicast_reachability(spam, sample_pairs=5)
        assert report.pairs_checked == 5 and len(report.failures) == 5
        assert all("did not terminate" in failure for failure in report.failures)

    def test_multicast_coverage(self, lattice32_spam, lattice32):
        processors = lattice32.processors()
        sets = [processors[1:5], processors[5:21], processors[1:]]
        report = check_multicast_coverage(lattice32_spam, sets, source=processors[0])
        assert report.ok, report.failures

    def test_routing_function_totality(self, small_irregular_spam):
        report = check_routing_function_totality(small_irregular_spam)
        assert report.ok, report.failures
        assert report.pairs_checked > 0

    def test_report_raise_if_failed(self):
        from repro.errors import VerificationError
        from repro.verification.reachability import ReachabilityReport

        report = ReachabilityReport()
        report.failures.append("boom")
        with pytest.raises(VerificationError):
            report.raise_if_failed()


class TestStressHarness:
    def test_spam_stress_delivers_everything(self, lattice32):
        spam = SpamRouting.build(lattice32)
        results = stress_test_deadlock_freedom(
            lattice32, spam, rounds=2, messages_per_round=30, rate_per_us=0.05, seed=3
        )
        assert all(result.all_delivered for result in results)
        assert all(not result.deadlocked for result in results)

    def test_updown_stress_delivers_everything(self, lattice32):
        updown = UpDownRouting.build(lattice32)
        results = stress_test_deadlock_freedom(
            lattice32, updown, rounds=1, messages_per_round=30, rate_per_us=0.05, seed=4
        )
        assert all(result.all_delivered for result in results)

    def test_naive_routing_deadlocks_on_ring(self, ring8):
        """A deterministic ring-shift pattern under naive minimal routing is
        the textbook circular-wait deadlock; ``run_workload`` must capture it
        (rather than hang or raise) so it can be asserted on."""
        from repro.simulator.config import SimulationConfig
        from repro.traffic.workload import MessageSpec, Workload

        naive = NaiveMinimalRouting(ring8)
        processors = ring8.processors()
        count = len(processors)
        specs = [
            MessageSpec(
                source=processors[index],
                destinations=(processors[(index + 2) % count],),
                at_ns=0,
            )
            for index in range(count)
        ]
        workload = Workload(name="ring-shift", specs=specs)
        result = run_workload(
            ring8, naive, workload, SimulationConfig(message_length_flits=64)
        )
        assert result.deadlocked
        assert not result.all_delivered
        # One circular wait, listed from its smallest message id.
        assert result.deadlock.cycles == [[0, 1, 2, 3, 4, 5, 6, 7]]

    def test_run_workload_reports_counts(self, lattice32, short_config):
        spam = SpamRouting.build(lattice32)
        workload = mixed_traffic_workload(lattice32, 0.02, 4, num_messages=25, seed=6)
        result = run_workload(lattice32, spam, workload, short_config)
        assert result.messages_submitted == 25
        assert result.messages_completed == 25
        assert result.all_delivered
        assert result.mean_latency_us > 10.0
