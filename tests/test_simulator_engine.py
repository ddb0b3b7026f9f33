"""Integration tests for the flit-level wormhole simulation engine."""

from __future__ import annotations

import gc
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from repro.core.decision import one_of
from repro.core.interface import RoutingAlgorithm
from repro.core.spam import SpamRouting
from repro.errors import ConfigurationError, DeadlockError, LivelockError, WorkloadError
from repro.routing.naive import NaiveMinimalRouting
from repro.routing.updown import UpDownRouting
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import _MAX_HOPS, WormholeSimulator
from repro.simulator.fingerprint import simulator_fingerprint
from repro.simulator.flit import FlitKind
from repro.topology.examples import figure1_network
from repro.topology.irregular import lattice_irregular_network
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.workload import mixed_traffic_workload


def expected_idle_unicast_latency(config: SimulationConfig, hops: int) -> int:
    """Closed-form latency of a unicast through an idle network.

    ``hops`` is the number of channels on the path (injection + switch
    channels + consumption).  The head pays the startup, one router setup per
    switch traversed, and one channel latency per channel; the remaining
    flits then stream in behind it at one flit per channel cycle.
    """
    switches = hops - 1  # every channel except the injection one ends a hop into a router/processor
    head = (
        config.startup_latency_ns
        + hops * config.channel_latency_ns
        + (hops - 1) * config.router_setup_ns
    )
    return head + (config.message_length_flits - 1) * config.channel_latency_ns


class TestUnicastTiming:
    def test_idle_unicast_latency_matches_closed_form(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        message = simulator.submit_message(source, [dest])
        simulator.run()
        path = spam.unicast_route(source, dest)
        expected = expected_idle_unicast_latency(short_config, len(path))
        assert message.latency_from_startup_ns == expected

    def test_latency_grows_with_path_length(self, line5, short_config):
        spam = SpamRouting.build(line5, root=line5.node_by_label("s0"))
        processors = line5.processors()
        latencies = []
        for dest in processors[1:]:
            simulator = WormholeSimulator(line5, spam, short_config)
            message = simulator.submit_message(processors[0], [dest])
            simulator.run()
            latencies.append(message.latency_from_startup_ns)
        assert latencies == sorted(latencies)
        assert len(set(latencies)) == len(latencies)

    def test_longer_messages_take_longer(self, two_switch):
        spam = SpamRouting.build(two_switch)
        source, dest = two_switch.processors()
        results = []
        for length in (8, 64, 128):
            simulator = WormholeSimulator(two_switch, spam, SimulationConfig(message_length_flits=length))
            message = simulator.submit_message(source, [dest])
            simulator.run()
            results.append(message.latency_from_startup_ns)
        assert results[0] < results[1] < results[2]
        # Each additional flit costs exactly one channel cycle at the bottleneck.
        assert results[1] - results[0] == 56 * 10
        assert results[2] - results[1] == 64 * 10

    def test_startup_latency_dominates_idle_latency(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        message = simulator.submit_message(source, [dest])
        simulator.run()
        assert message.latency_from_startup_ns > short_config.startup_latency_ns
        assert message.latency_from_startup_ns < 2 * short_config.startup_latency_ns


def _closed_form_run(network, routing, submit, flits):
    """Run ``submit``'s workload on the reference engine with tracing on.

    Returns the simulator and, per message whose header reached a
    destination, ``(header delivery time, header entry seq, next lane
    entry)``: the lane entry right after the header's delivery, and the
    ``seq`` of the header's own transfer entry (recorded when the transfer
    was scheduled)."""
    config = SimulationConfig(message_length_flits=flits, fast_path=False, trace=True)
    simulator = WormholeSimulator(network, routing, config)
    lane = simulator.events._lane
    start_transfer = simulator.try_start_transfer
    complete_transfer = simulator._complete_transfer
    header_seqs = {}
    headers = {}

    def carries_header(link):
        slots = link.out_buffer._slots
        return link.sink_is_processor and slots and slots[0].kind is FlitKind.HEAD

    def recording_start(link):
        busy = link.busy
        start_transfer(link)
        if not busy and link.busy and carries_header(link):
            header_seqs[link.out_buffer._slots[0].message_id] = lane[-1][1]

    def recording_complete(link):
        header = carries_header(link)
        mid = link.out_buffer._slots[0].message_id if header else None
        complete_transfer(link)
        if header:
            headers[mid] = (simulator.now, header_seqs[mid], lane[0] if lane else None)

    simulator.try_start_transfer = recording_start
    simulator._complete_transfer = recording_complete
    submit(simulator)
    simulator.run()
    return simulator, headers


class TestUnicastAfterItsHeaderLands:
    """The reference engine's closed form for a unicast whose header has
    reached its destination, with one-flit buffers.  With ``D`` links, ``L``
    flits and period ``p``: the tail arrives ``(L-1)p`` after the header;
    when ``L - 1 >= 2D`` the NI hands the tail to the injection link ``Dp``
    before delivery and the ``k``-th switch releases its output ``(D-k)p``
    before it; and the lane entry right after the header's delivery is the
    transfer on the link into the destination's switch, with the next
    ``seq``.  The fast path's unicast token rests on these facts
    (``docs/fast_path.md``, "Unicast tokens"); a refactor of either path
    that breaks one fails here."""

    def _check(self, simulator, headers, message):
        """Assert the four facts for ``message``; return whether it lies in
        the token's domain (``L - 1 >= 2D``), where the last three hold."""
        period = simulator.config.channel_latency_ns
        (destination,) = message.destinations
        links = message.hops + 1
        flits = message.length_flits
        header_ns, header_seq, following = headers[message.mid]
        delivered_ns = message.delivered_ns[destination]
        assert delivered_ns - header_ns == (flits - 1) * period
        # The link into the destination's switch is the one its header
        # arrived on there: the message's last ``head`` record.
        records = [
            event for event in simulator.trace.events
            if event.fields.get("message") == message.mid
        ]
        into = [event.fields["channel"] for event in records if event.kind == "head"]
        assert len(into) == links - 1
        time_ns, seq, _kind, link = following
        assert (time_ns, seq, link.cid) == (header_ns, header_seq + 1, into[-1])
        if flits - 1 < 2 * links:
            return False
        assert delivered_ns - message.injection_done_ns == links * period
        releases = sorted(event.time_ns for event in records if event.kind == "release")
        assert releases == [delivered_ns - (links - k) * period for k in range(1, links)]
        return True

    def test_lone_unicasts_over_several_paths(self, paper_network):
        network, spam = paper_network
        processors = network.processors()
        lengths = set()
        for source, destination in [(0, 50), (3, 100), (10, 11), (7, 90), (64, 2), (120, 30)]:
            simulator, headers = _closed_form_run(
                network,
                spam,
                lambda sim: sim.submit_message(processors[source], [processors[destination]]),
                flits=128,
            )
            (message,) = simulator.messages.values()
            assert self._check(simulator, headers, message)
            lengths.add(message.hops + 1)
        assert len(lengths) >= 4, f"too few distinct path lengths: {sorted(lengths)}"

    @pytest.mark.parametrize("flits", [32, 128])
    def test_every_unicast_of_a_contended_mixed_point(self, paper_network, flits):
        """A Figure-3 point at rate 0.03 with the smoke scale's 40 messages:
        queueing at consumption and shared channels, at the smoke and the
        paper message length."""
        network, spam = paper_network
        workload = mixed_traffic_workload(
            network, rate_per_us=0.03, multicast_destinations=8, num_messages=40, seed=23
        )
        simulator, headers = _closed_form_run(network, spam, workload.submit_to, flits)
        unicasts = [m for m in simulator.messages.values() if len(m.destinations) == 1]
        assert len(unicasts) > 25
        domain = [self._check(simulator, headers, message) for message in unicasts]
        assert any(domain)
        if flits == 32:
            assert not all(domain), "no unicast outside the token's domain"


class TestMulticastBehaviour:
    def test_figure1_multicast_delivers_to_all(self, figure1, short_config):
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        simulator = WormholeSimulator(figure1.network, spam, short_config)
        message = simulator.submit_message(figure1.source, figure1.destinations)
        stats = simulator.run()
        assert message.is_complete
        assert set(message.delivered_ns) == set(figure1.destinations)
        assert stats.messages_completed == 1

    def test_multicast_latency_close_to_unicast(self, lattice32, short_config):
        """The paper's headline: one worm reaches many destinations for
        roughly the cost of one unicast (same startup, slightly longer tree)."""
        spam = SpamRouting.build(lattice32)
        processors = lattice32.processors()

        uni = WormholeSimulator(lattice32, spam, short_config)
        unicast = uni.submit_message(processors[0], [processors[5]])
        uni.run()

        multi = WormholeSimulator(lattice32, spam, short_config)
        multicast = multi.submit_message(processors[0], processors[1:17])
        multi.run()

        assert multicast.latency_from_startup_ns < 2 * unicast.latency_from_startup_ns

    def test_broadcast_delivers_to_every_processor(self, lattice32, short_config):
        spam = SpamRouting.build(lattice32)
        simulator = WormholeSimulator(lattice32, spam, short_config)
        source = lattice32.processors()[0]
        message = simulator.submit_broadcast(source)
        simulator.run()
        assert message.is_complete
        assert len(message.delivered_ns) == lattice32.num_processors - 1

    def test_multicast_single_startup(self, lattice32, short_config):
        """A 16-destination multicast must incur exactly one startup: its
        latency stays far below two startup latencies."""
        spam = SpamRouting.build(lattice32)
        simulator = WormholeSimulator(lattice32, spam, short_config)
        source = lattice32.processors()[0]
        message = simulator.submit_message(source, lattice32.processors()[1:17])
        simulator.run()
        assert message.latency_from_startup_ns < 2 * short_config.startup_latency_ns

    def test_delivery_and_completion_callbacks(self, figure1, short_config):
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        simulator = WormholeSimulator(figure1.network, spam, short_config)
        deliveries = []
        completions = []
        simulator.delivery_callbacks.append(lambda m, d, t: deliveries.append((m.mid, d)))
        simulator.completion_callbacks.append(lambda m: completions.append(m.mid))
        message = simulator.submit_message(figure1.source, figure1.destinations)
        simulator.run()
        assert sorted(d for _, d in deliveries) == sorted(figure1.destinations)
        assert completions == [message.mid]

    def test_trace_records_paper_event_sequence(self, figure1):
        config = SimulationConfig(message_length_flits=8, trace=True)
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        simulator = WormholeSimulator(figure1.network, spam, config)
        simulator.submit_message(figure1.source, figure1.destinations)
        simulator.run()
        trace = simulator.trace
        assert trace is not None
        kinds = [event.kind for event in trace.events]
        assert "startup" in kinds and "acquire" in kinds and "complete" in kinds
        # The worm must acquire channels at the LCA (node 4) for both subtrees.
        acquires = [e for e in trace.of_kind("acquire") if e.fields["switch"] == figure1.lca]
        assert acquires and len(acquires[0].fields["channels"]) == 2


class TestContention:
    def test_two_messages_share_a_channel_serially(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        first = simulator.submit_message(source, [dest], at_ns=0)
        second = simulator.submit_message(source, [dest], at_ns=0)
        simulator.run()
        assert first.is_complete and second.is_complete
        # The second message queues behind the first at the source NI.
        assert second.completed_ns > first.completed_ns
        assert second.latency_from_creation_ns > first.latency_from_creation_ns

    def test_contending_multicasts_all_complete(self, lattice32, short_config):
        spam = SpamRouting.build(lattice32)
        simulator = WormholeSimulator(lattice32, spam, short_config)
        processors = lattice32.processors()
        messages = []
        for index in range(6):
            source = processors[index]
            destinations = [p for p in processors[8:20] if p != source]
            messages.append(simulator.submit_message(source, destinations, at_ns=0))
        simulator.run()
        assert all(message.is_complete for message in messages)

    def test_under_load_latency_increases(self, lattice32, short_config):
        spam = SpamRouting.build(lattice32)
        processors = lattice32.processors()

        light = WormholeSimulator(lattice32, spam, short_config)
        light_msg = light.submit_message(processors[0], [processors[9]])
        light.run()

        heavy = WormholeSimulator(lattice32, spam, short_config)
        for index in range(1, 8):
            heavy.submit_message(processors[index], [processors[9]], at_ns=0)
        heavy_msg = heavy.submit_message(processors[0], [processors[9]], at_ns=0)
        heavy.run()
        assert heavy_msg.latency_from_creation_ns >= light_msg.latency_from_creation_ns

    def test_stats_summary_counts(self, lattice32, short_config):
        spam = SpamRouting.build(lattice32)
        simulator = WormholeSimulator(lattice32, spam, short_config)
        processors = lattice32.processors()
        simulator.submit_message(processors[0], [processors[3]])
        simulator.submit_message(processors[1], processors[4:8])
        stats = simulator.run()
        summary = stats.summary()
        assert summary["messages_submitted"] == 2
        assert summary["messages_completed"] == 2
        assert sorted(record.kind for record in stats.records) == ["multicast", "unicast"]


class TestChannelPeriod:
    """Every channel forwards one flit per ``channel_latency_ns``, whatever
    its value: the closed-form timings hold off the paper's 10 ns grid, on
    the reference engine and on the fast path alike."""

    # Off the paper's 10 ns / 40 ns grid: a shorter and a longer period, a
    # setup that is no multiple of the period, and no setup at all.
    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])
    @pytest.mark.parametrize("period, setup", [(7, 40), (20, 40), (13, 45), (13, 0)])
    def test_idle_unicast_latency_matches_closed_form(self, line5, period, setup, fast_path):
        spam = SpamRouting.build(line5, root=line5.node_by_label("s0"))
        config = SimulationConfig(
            message_length_flits=64,
            channel_latency_ns=period,
            router_setup_ns=setup,
            fast_path=fast_path,
        )
        source, dest = line5.processors()[0], line5.processors()[-1]
        simulator = WormholeSimulator(line5, spam, config)
        message = simulator.submit_message(source, [dest])
        simulator.run()
        path = spam.unicast_route(source, dest)
        assert len(path) == 6  # injection, four switch hops, consumption
        assert message.latency_from_startup_ns == expected_idle_unicast_latency(config, len(path))

    @pytest.mark.parametrize("period", [7, 13, 20])
    def test_each_extra_flit_costs_one_period(self, two_switch, period):
        spam = SpamRouting.build(two_switch)
        source, dest = two_switch.processors()
        latencies = []
        for length in (8, 64):
            config = SimulationConfig(message_length_flits=length, channel_latency_ns=period)
            simulator = WormholeSimulator(two_switch, spam, config)
            message = simulator.submit_message(source, [dest])
            simulator.run()
            latencies.append(message.latency_from_startup_ns)
        assert latencies[1] - latencies[0] == 56 * period


class TestValidationAndSafety:
    def test_submit_rejects_invalid_endpoints(self, figure1, short_config):
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        simulator = WormholeSimulator(figure1.network, spam, short_config)
        with pytest.raises(ConfigurationError):
            simulator.submit_message(figure1.nodes[4], [figure1.nodes[8]])
        with pytest.raises(WorkloadError):
            simulator.submit_message(figure1.source, [figure1.source])
        with pytest.raises(WorkloadError):
            simulator.submit_message(figure1.source, [figure1.nodes[4]])

    def test_submit_rejects_explicit_zero_length(self, figure1, short_config):
        # Only an omitted length falls back to the configured one; an
        # explicit 0 is as invalid as 1.
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        simulator = WormholeSimulator(figure1.network, spam, short_config)
        for length in (0, 1):
            with pytest.raises(WorkloadError):
                simulator.submit_message(
                    figure1.source, figure1.destinations, length_flits=length
                )
        message = simulator.submit_message(figure1.source, figure1.destinations)
        assert message.length_flits == short_config.message_length_flits

    def test_channel_stats_collection(self, figure1):
        config = SimulationConfig(message_length_flits=8, collect_channel_stats=True)
        spam = SpamRouting.build(figure1.network, root=figure1.root)
        simulator = WormholeSimulator(figure1.network, spam, config)
        simulator.submit_message(figure1.source, figure1.destinations)
        stats = simulator.run()
        assert stats.channel_records
        carried = sum(record.data_flits for record in stats.channel_records)
        assert carried > 0

    def test_deadlock_detected_with_naive_routing_on_ring(self, ring8):
        """Naive minimal routing on a ring deadlocks under all-to-neighbour
        pressure; the simulator must detect and explain it rather than hang."""
        naive = NaiveMinimalRouting(ring8)
        config = SimulationConfig(message_length_flits=64)
        simulator = WormholeSimulator(ring8, naive, config)
        processors = ring8.processors()
        count = len(processors)
        # Every processor sends two switches clockwise at the same instant.
        for index, source in enumerate(processors):
            target = processors[(index + 2) % count]
            simulator.submit_message(source, [target], at_ns=0)
        with pytest.raises(DeadlockError) as excinfo:
            simulator.run()
        report = excinfo.value.report
        assert report.stalled_messages == list(range(count))
        # One circular wait, listed from its smallest message id.
        assert report.cycles == [list(range(count))]

    def test_a_worm_circling_a_ring_raises_livelock(self, ring8):
        """A routing that forwards every header one switch clockwise never
        delivers; the hop bound stops the 2-flit worm instead of the run
        spinning forever."""

        class Clockwise(RoutingAlgorithm):
            name = "clockwise"

            def decide(self, message, switch, in_channel):
                size = ring8.num_switches
                return one_of(
                    [c for c in ring8.channels_from(switch) if c.dst == (switch + 1) % size]
                )

        config = SimulationConfig(message_length_flits=2)
        simulator = WormholeSimulator(ring8, Clockwise(), config)
        source, destination = ring8.processors()[:2]
        message = simulator.submit_message(source, [destination])
        with pytest.raises(LivelockError, match=f"exceeded {_MAX_HOPS} hops"):
            simulator.run()
        assert message.hops == _MAX_HOPS + 1

    def test_importing_the_cli_leaves_scipy_and_networkx_unloaded(self):
        """Neither library is on the import path: deadlock diagnosis and
        the CDG check find cycles themselves, and the 95 % t quantiles the
        experiment scales need are frozen in ``repro.analysis.stats``.  So
        a fresh interpreter loads neither on importing the CLI, nor on
        running a smoke Figure 2 and a one-point smoke Figure 3, whose
        confidence intervals read the frozen table."""
        code = (
            "import contextlib, io, sys, repro.cli, repro.experiments, repro.sweeps\n"
            "loaded = lambda: sorted({'scipy', 'networkx'} & set(sys.modules))\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    repro.cli.main(['--scale', 'smoke', 'figure2', '--no-cache'])\n"
            "    repro.cli.main(['--scale', 'smoke', 'figure3', '--no-cache',\n"
            "                    '--degrees', '4', '--rates', '0.005'])\n"
            "print(loaded())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert result.stdout.split("\n") == ["[]", "[]", ""]

    def test_spam_does_not_deadlock_on_same_pressure(self, ring8):
        spam = SpamRouting.build(ring8)
        config = SimulationConfig(message_length_flits=64)
        simulator = WormholeSimulator(ring8, spam, config)
        processors = ring8.processors()
        count = len(processors)
        for index, source in enumerate(processors):
            target = processors[(index + 2) % count]
            simulator.submit_message(source, [target], at_ns=0)
        stats = simulator.run()
        assert stats.messages_completed == count

    def test_run_until_partial_then_resume(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        message = simulator.submit_message(source, [dest])
        simulator.run(until_ns=short_config.startup_latency_ns // 2)
        assert not message.is_complete
        simulator.run()
        assert message.is_complete


class TestDeepInputBuffers:
    """With input buffers deeper than one flit, the next worm's header can
    land behind the previous worm's tail.  It must reach the router only
    when it gets to the front of the FIFO: handling it on arrival replaced
    the live segment, which then popped the old worm's tail and raised
    ``SimulationError: ... arrived at switch 11 with no active segment``
    (depth 4; depth 8 failed the same way on message 13)."""

    @pytest.mark.parametrize("depth", [2, 4, 8])
    def test_headers_queued_behind_a_tail_deliver(self, lattice32, lattice32_spam, depth):
        workload = mixed_traffic_workload(
            lattice32,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=45,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=PoissonArrivals(0.03),
        )
        fingerprints = []
        for fast_path in (True, False):
            config = SimulationConfig(
                message_length_flits=128,
                input_buffer_depth=depth,
                fast_path=fast_path,
                trace=True,
                collect_channel_stats=True,
            )
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            workload.submit_to(simulator)
            stats = simulator.run()
            assert stats.messages_completed == 45
            fingerprints.append(simulator_fingerprint(simulator, stats))
        assert fingerprints[0] == fingerprints[1]


class TestFreedByReferenceCounting:
    """A finished simulation holds no reference cycle, so dropping its last
    reference frees it at once, with the cyclic collector switched off."""

    @pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])
    def test_completed_run_is_freed_without_the_collector(
        self, lattice32, lattice32_spam, fast_path
    ):
        processors = lattice32.processors()
        config = SimulationConfig(message_length_flits=128, fast_path=fast_path)
        gc.collect()
        gc.disable()
        try:
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            multicast = simulator.submit_message(processors[0], processors[1:9], at_ns=0)
            unicast = simulator.submit_message(processors[12], [processors[20]], at_ns=0)
            simulator.run()
            assert multicast.is_complete and unicast.is_complete
            # The fast path folded worms into tokens: they hold the NIs.
            assert (simulator.coalesced_ticks > 0) == fast_path
            alive = weakref.ref(simulator)
            del simulator
            assert alive() is None
        finally:
            gc.enable()


class TestDeterministicSnapshots:
    """Regression tests for set-iteration hazards fixed by repro-lint (R1)."""

    def test_active_segments_sorted_regardless_of_set_order(self, figure1, short_config):
        class FakeMessage:
            def __init__(self, mid: int) -> None:
                self.mid = mid

        class FakeSegment:
            def __init__(self, mid: int, switch: int) -> None:
                self.message = FakeMessage(mid)
                self.switch = switch

        spam = SpamRouting.build(figure1.network)
        simulator = WormholeSimulator(figure1.network, spam, short_config)
        # active_segments() orders by (message.mid, switch); seed the live-set
        # in scrambled insertion order to make hash-order leakage visible.
        fakes = [
            FakeSegment(mid, switch)
            for mid, switch in [(2, 1), (0, 3), (1, 0), (0, 1), (2, 0)]
        ]
        simulator._segments.update(fakes)
        snapshot = simulator.active_segments()
        keys = [(seg.message.mid, seg.switch) for seg in snapshot]
        assert keys == sorted(keys)
