"""Trace-equivalence tests for the engine's worm-token fast path, plus
regression tests for the partial-run clock and channel-utilisation fixes.

The fast path's contract is *bit-identical observable behaviour*: delivery
timestamps, trace records, message statistics, flit-hop counts, bubble
counts and per-channel utilisation must not change when worm tokens are
enabled (see ``docs/fast_path.md`` for the full contract).  Every scenario
here runs twice — ``fast_path=True`` against ``fast_path=False`` (the
reference per-flit execution) — and compares the full observable
fingerprint.  Where a scenario is expected to stream, the test
additionally asserts that a token skipped at least one worm-period
(``coalesced_ticks > 0``), so the equivalence claim is not vacuous.
"""

from __future__ import annotations

import pytest

from repro.core.spam import SpamRouting
from repro.errors import DeadlockError, SimulationError
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import PROBE_TIERS, WormholeSimulator, _DrainToken
from repro.simulator.fingerprint import simulator_fingerprint
from repro.topology.examples import two_switch_network
from repro.topology.irregular import lattice_irregular_network
from repro.traffic.arrivals import NegativeBinomialArrivals, PoissonArrivals
from repro.traffic.workload import mixed_traffic_workload


def _exits(simulator):
    """The simulator's ``coalesce_exits`` tally keyed by tier name."""
    return dict(zip(PROBE_TIERS, simulator.coalesce_exits))


def _run_pair(
    network,
    routing,
    submit,
    flits,
    run=None,
    expect_coalesced=False,
    **overrides,
):
    """Run a scenario with the fast path on and off; assert identical output.

    ``submit`` receives the simulator and schedules the workload; ``run``
    (default: one unbounded ``run()``) drives the simulation and returns the
    final stats.  ``overrides`` are extra :class:`SimulationConfig` fields
    (e.g. ``channel_latency_ns``).  Returns the fast-path simulator for
    extra assertions.
    """
    results = []
    simulators = []
    for fast in (True, False):
        config = SimulationConfig(
            message_length_flits=flits,
            fast_path=fast,
            trace=True,
            collect_channel_stats=True,
            **overrides,
        )
        simulator = WormholeSimulator(network, routing, config)
        submit(simulator)
        stats = simulator.run() if run is None else run(simulator)
        results.append(simulator_fingerprint(simulator, stats))
        simulators.append(simulator)
    fast_sim, ref_sim = simulators
    assert ref_sim.coalesced_ticks == 0
    if expect_coalesced:
        assert fast_sim.coalesced_ticks > 0, "no token skipped a period; test is vacuous"
    assert results[0] == results[1]
    return fast_sim


def _blocked_branch_submit(processors):
    """A long unicast acquires channels that one branch of a following
    multicast needs; while the branch waits, the multicast's fork segment
    emits one bubble per period into its free branch, for most of the
    unicast's drain."""

    def submit(sim):
        sim.submit_message(processors[1], [processors[10]], at_ns=0)
        sim.submit_message(
            processors[0],
            [p for p in processors[8:24] if p != processors[0]],
            at_ns=200,
        )

    return submit


@pytest.mark.equivalence
class TestTraceEquivalence:
    def test_figure1_multicast_with_replication_bubbles(self, figure1):
        """The paper's §3.2 walk-through network: asynchronous replication
        produces bubbles, and the fast path must reproduce the per-flit
        trace (including every ``bubble`` record) exactly."""
        spam = SpamRouting.build(figure1.network, root=figure1.root)

        def submit(sim):
            sim.submit_message(figure1.source, figure1.destinations)

        fast_sim = _run_pair(figure1.network, spam, submit, flits=64)
        assert fast_sim.stats.bubbles_created > 0

    def test_lattice_broadcast_steady_state(self, lattice32, lattice32_spam):
        """A broadcast on the irregular lattice reaches a long streaming
        phase; the fast path must coalesce it and stay bit-identical."""

        def submit(sim):
            sim.submit_broadcast(lattice32.processors()[0])

        fast_sim = _run_pair(
            lattice32, lattice32_spam, submit, flits=128, expect_coalesced=True
        )
        assert fast_sim.stats.bubbles_created > 0

    def test_contended_ocrq_multicasts(self, lattice32, lattice32_spam):
        """Six overlapping multicasts force OCRQ queueing and serial channel
        acquisition; equivalence must hold through the contention."""
        processors = lattice32.processors()

        def submit(sim):
            for index in range(6):
                source = processors[index]
                destinations = [p for p in processors[8:20] if p != source]
                sim.submit_message(source, destinations, at_ns=0)

        _run_pair(lattice32, lattice32_spam, submit, flits=64)

    def test_cross_traffic_unicasts(self, lattice32, lattice32_spam):
        processors = lattice32.processors()

        def submit(sim):
            for index in range(8):
                sim.submit_message(
                    processors[index],
                    [processors[(index + 11) % len(processors)]],
                    at_ns=0,
                )

        _run_pair(
            lattice32, lattice32_spam, submit, flits=256, expect_coalesced=True
        )

    def test_bounded_windows_equivalent(self, lattice32, lattice32_spam):
        """Driving the simulation in ``run_for`` windows (which materialise
        live tokens at every boundary) must match the reference windowed
        run."""

        def submit(sim):
            sim.submit_broadcast(lattice32.processors()[0])

        def run(sim):
            stats = sim.stats
            while sim.pending_messages:
                stats = sim.run_for(1_000)
            return stats

        _run_pair(
            lattice32, lattice32_spam, submit, flits=256, run=run,
            expect_coalesced=True,
        )

    def test_windowed_equals_unbounded_delivery_times(self, lattice32, lattice32_spam):
        config = SimulationConfig(message_length_flits=128)
        windowed = WormholeSimulator(lattice32, lattice32_spam, config)
        message_w = windowed.submit_broadcast(lattice32.processors()[0])
        while windowed.pending_messages:
            windowed.run_for(700)
        unbounded = WormholeSimulator(lattice32, lattice32_spam, config)
        message_u = unbounded.submit_broadcast(lattice32.processors()[0])
        unbounded.run()
        assert message_w.delivered_ns == message_u.delivered_ns


@pytest.mark.equivalence
class TestGeneralizedCoalescing:
    """Worms streaming alongside other traffic: staggered start times,
    mixed arrivals and blocked multicast branches.

    A token stands for one worm only, so worms that stream in different
    phases of the channel period, or next to a multicast whose blocked
    branch emits bubbles, each fold on their own.  Each scenario asserts the
    bit-identical fingerprint *and* that some token skipped a period.
    """

    def _mixed_workload(self, network, arrival_process):
        return mixed_traffic_workload(
            network,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=36,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=arrival_process,
        )

    def test_poisson_arrivals_mixed_traffic(self, lattice32, lattice32_spam):
        """Figure-3-style mixed traffic with Poisson arrivals: message starts
        fall on arbitrary nanoseconds, so concurrently-active worms stream in
        different congruence classes modulo the channel period; each worm's
        token keeps its own phase and the run stays bit-identical."""
        workload = self._mixed_workload(lattice32, PoissonArrivals(0.03))

        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=64,
            expect_coalesced=True,
        )
        assert fast_sim.stats.bubbles_created > 0

    def test_negative_binomial_arrivals_mixed_traffic(self, lattice32, lattice32_spam):
        """The paper's negative-binomial arrivals are quantised to the channel
        period, so worms stay phase-aligned; equivalence must hold through the
        mixed unicast/multicast contention (including the bubbles of blocked
        multicast branches)."""
        workload = self._mixed_workload(lattice32, NegativeBinomialArrivals(0.03))

        _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=64,
            expect_coalesced=True,
        )

    def test_phase_staggered_cross_traffic(self, lattice32, lattice32_spam):
        """Eight long unicasts deliberately submitted 3 ns apart (not a
        multiple of the 10 ns channel period) stream concurrently in
        different congruence classes; their tokens interleave in the lane."""
        processors = lattice32.processors()

        def submit(sim):
            for index in range(8):
                sim.submit_message(
                    processors[index],
                    [processors[(index + 11) % len(processors)]],
                    at_ns=index * 3,
                )

        _run_pair(
            lattice32,
            lattice32_spam,
            submit,
            flits=256,
            expect_coalesced=True,
        )

    def test_bubble_periodic_blocked_branch(self, lattice32, lattice32_spam):
        processors = lattice32.processors()
        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            _blocked_branch_submit(processors),
            flits=256,
            expect_coalesced=True,
        )
        assert fast_sim.stats.bubbles_created > 0

    def test_bubble_counters_match_reference_exactly(self, lattice32, lattice32_spam):
        """The total bubble count and every per-channel ``bubble_flits``
        counter must equal the reference engine's, flit for flit."""
        processors = lattice32.processors()
        counters = []
        for fast in (True, False):
            config = SimulationConfig(
                message_length_flits=256,
                fast_path=fast,
                collect_channel_stats=True,
            )
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            _blocked_branch_submit(processors)(simulator)
            stats = simulator.run()
            counters.append(
                (
                    stats.bubbles_created,
                    [(rec.cid, rec.bubble_flits) for rec in stats.channel_records],
                )
            )
        fast_counters, ref_counters = counters
        assert ref_counters[0] > 0
        assert fast_counters == ref_counters

    def test_bounded_windows_with_staggered_worms(self, lattice32, lattice32_spam):
        """``run_for`` windows that cut staggered worms' tokens short must
        still tile time exactly and stay bit-identical."""
        processors = lattice32.processors()

        def submit(sim):
            for index in range(6):
                sim.submit_message(
                    processors[index],
                    [processors[(index + 11) % len(processors)]],
                    at_ns=index * 7,
                )

        def run(sim):
            stats = sim.stats
            while sim.pending_messages:
                stats = sim.run_for(997)  # deliberately not a period multiple
            return stats

        _run_pair(
            lattice32,
            lattice32_spam,
            submit,
            flits=256,
            run=run,
            expect_coalesced=True,
        )


class TestPartialRunClock:
    """Regression: bounded runs must land exactly on the window boundary."""

    def test_run_for_advances_clock_on_idle_simulator(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        stats = simulator.run_for(500)
        assert simulator.now == 500
        assert stats.end_time_ns == 500
        simulator.run_for(250)
        assert simulator.now == 750

    def test_bound_in_the_past_raises(self, two_switch, short_config):
        """A bounded run that would end before ``now`` names both times
        instead of returning without running anything; an empty window is
        still a valid run."""
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        message = simulator.submit_message(source, [dest], at_ns=6_000)
        simulator.run_for(5_000)
        with pytest.raises(SimulationError, match="until 4900 ns.*current time is 5000 ns"):
            simulator.run_for(-100)
        with pytest.raises(SimulationError, match="until 1000 ns.*current time is 5000 ns"):
            simulator.run(until_ns=1_000)
        assert simulator.run_for(0).end_time_ns == 5_000
        simulator.run()
        assert message.is_complete

    def test_back_to_back_windows_tile_time(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        simulator.submit_message(source, [dest])
        window = 333  # deliberately not a multiple of any latency
        for index in range(1, 40):
            simulator.run_for(window)
            assert simulator.now == index * window
            if not simulator.pending_messages:
                break
        assert not simulator.pending_messages

    def test_bounded_run_boundary_with_pending_events(self, two_switch, short_config):
        """Stopping mid-startup leaves the clock at the boundary, not at the
        last popped event, and the remaining events still fire on resume."""
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        source, dest = two_switch.processors()
        message = simulator.submit_message(source, [dest])
        boundary = short_config.startup_latency_ns // 2
        stats = simulator.run(until_ns=boundary)
        assert simulator.now == boundary
        assert stats.end_time_ns == boundary
        assert not message.is_complete
        simulator.run()
        assert message.is_complete

    def test_submissions_after_window_use_boundary_time(self, two_switch, short_config):
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        simulator.run_for(1_000)
        source, dest = two_switch.processors()
        message = simulator.submit_message(source, [dest])
        assert message.created_ns == 1_000

    def test_submission_in_the_past_raises(self, two_switch, short_config):
        """A send request timed before ``now`` names both times instead of
        moving the message's creation time to ``now``, which would
        understate its ``latency_from_creation_ns``; ``at_ns=now`` is still
        valid, and nothing was submitted by the refused call."""
        spam = SpamRouting.build(two_switch)
        simulator = WormholeSimulator(two_switch, spam, short_config)
        simulator.run_for(1_000)
        source, dest = two_switch.processors()
        with pytest.raises(SimulationError, match="at 400 ns.*current time is 1000 ns"):
            simulator.submit_message(source, [dest], at_ns=400)
        assert not simulator.messages
        message = simulator.submit_message(source, [dest], at_ns=1_000)
        assert message.created_ns == 1_000
        simulator.run()
        assert message.latency_from_creation_ns == message.completed_ns - 1_000


class TestUtilisationAccounting:
    """Regression: links mid-transfer at a window boundary must report the
    open busy period up to the boundary."""

    def _injection_busy_ns(self, stats, simulator, processor):
        cid = simulator.network.injection_channel(processor).cid
        return next(rec.busy_ns for rec in stats.channel_records if rec.cid == cid)

    def test_open_busy_period_flushed_at_boundary(self):
        network = two_switch_network()
        spam = SpamRouting.build(network)
        config = SimulationConfig(
            message_length_flits=64, collect_channel_stats=True
        )
        source, dest = network.processors()
        # Timeline on the injection channel: the head crosses during
        # [10_000, 10_010], then stalls behind the routing decisions of the
        # two switches; once the pipeline opens, the body streams
        # continuously from 10_090 with wire slots [10_150, 10_160), etc.
        # A boundary inside a slot must flush the open busy period: busy
        # time is 10 + (boundary - 10_090), not the 70 ns of closed periods
        # the pre-fix accounting reported for every boundary in the slot.
        for boundary in (10_152, 10_155):
            simulator = WormholeSimulator(network, spam, config)
            simulator.submit_message(source, [dest])
            stats = simulator.run(until_ns=boundary)
            busy = self._injection_busy_ns(stats, simulator, source)
            assert busy == 10 + (boundary - 10_090)

    def test_flush_does_not_corrupt_resumed_accounting(self):
        network = two_switch_network()
        spam = SpamRouting.build(network)
        config = SimulationConfig(
            message_length_flits=64, collect_channel_stats=True
        )
        paused = WormholeSimulator(network, spam, config)
        source, dest = network.processors()
        paused.submit_message(source, [dest])
        paused.run(until_ns=10_015)
        final_paused = paused.run()

        straight = WormholeSimulator(network, spam, config)
        straight.submit_message(source, [dest])
        final_straight = straight.run()

        assert [
            (rec.cid, rec.data_flits, rec.busy_ns)
            for rec in final_paused.channel_records
        ] == [
            (rec.cid, rec.data_flits, rec.busy_ns)
            for rec in final_straight.channel_records
        ]

    def test_total_busy_not_undercounted_under_load(self, lattice32, lattice32_spam):
        config = SimulationConfig(
            message_length_flits=64, collect_channel_stats=True
        )
        simulator = WormholeSimulator(lattice32, lattice32_spam, config)
        simulator.submit_broadcast(lattice32.processors()[0])
        # Cut the run in the middle of the streaming phase.
        stats = simulator.run(until_ns=11_000)
        busy_links = [rec for rec in stats.channel_records if rec.busy_ns > 0]
        assert busy_links
        # A link that is mid-transfer reports time up to the boundary; no
        # record may exceed the elapsed window.
        assert all(rec.busy_ns <= 11_000 for rec in stats.channel_records)


class TestFastPathSafety:
    def test_deadlock_detection_unaffected_by_fast_path(self, ring8):
        """Deliberately broken routing must still deadlock identically with
        the fast path enabled (heads never coalesce)."""
        from repro.routing.naive import NaiveMinimalRouting

        for fast in (True, False):
            naive = NaiveMinimalRouting(ring8)
            config = SimulationConfig(message_length_flits=64, fast_path=fast)
            simulator = WormholeSimulator(ring8, naive, config)
            processors = ring8.processors()
            count = len(processors)
            for index, source in enumerate(processors):
                simulator.submit_message(
                    source, [processors[(index + 2) % count]], at_ns=0
                )
            with pytest.raises(DeadlockError):
                simulator.run()

    def test_fast_path_off_is_pure_reference(self, lattice32, lattice32_spam):
        config = SimulationConfig(message_length_flits=128, fast_path=False)
        simulator = WormholeSimulator(lattice32, lattice32_spam, config)
        simulator.submit_broadcast(lattice32.processors()[0])
        simulator.run()
        assert simulator.coalesced_ticks == 0

    def test_larger_buffers_remain_equivalent(self, lattice32, lattice32_spam):
        """Deeper output buffers change the steady-state shape (more flits
        per buffer); the verifier must still track them exactly."""
        results = []
        for fast in (True, False):
            config = SimulationConfig(
                message_length_flits=128,
                output_buffer_depth=4,
                input_buffer_depth=2,
                fast_path=fast,
                trace=True,
            )
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            message = simulator.submit_broadcast(lattice32.processors()[0])
            simulator.run()
            results.append(
                (
                    dict(message.delivered_ns),
                    simulator.trace.signature(),
                    simulator.stats.flit_hops,
                )
            )
        assert results[0] == results[1]


#: ``(channel_latency_ns, router_setup_ns)`` pairs off the paper's 10 ns /
#: 40 ns grid: a shorter and a longer period, a setup that is no multiple of
#: the period, and no setup at all.
OFF_GRID_TIMINGS = [(7, 40), (20, 40), (13, 45), (13, 0)]


@pytest.mark.equivalence
@pytest.mark.parametrize("bounded", [False, True], ids=["run", "run_for"])
@pytest.mark.parametrize("period, setup", OFF_GRID_TIMINGS)
def test_phases_batch_at_any_channel_period(lattice32, lattice32_spam, period, setup, bounded):
    """Every channel shares the one period, so a streaming worm repeats
    itself at any ``channel_latency_ns``: its token passes verification, and
    the run matches the reference bit for bit, with ``run()`` and with
    ``run_for`` windows that are not a period multiple."""
    processors = lattice32.processors()

    def run(sim):
        stats = sim.stats
        while sim.pending_messages:
            stats = sim.run_for(997)
        return stats

    fast_sim = _run_pair(
        lattice32,
        lattice32_spam,
        lambda sim: sim.submit_message(processors[0], [processors[11]]),
        flits=256,
        run=run if bounded else None,
        expect_coalesced=True,
        channel_latency_ns=period,
        router_setup_ns=setup,
    )
    assert _exits(fast_sim)["batch"] > 0


@pytest.mark.equivalence
@pytest.mark.parametrize("period", [7, 13, 20])
def test_broadcast_coalesces_at_any_channel_period(lattice32, lattice32_spam, period):
    """A broadcast replicates at every switch and leaves bubbles behind its
    slowest branches; off the 10 ns grid the fast path still coalesces its
    streaming phase and stays bit-identical."""
    source = lattice32.processors()[0]
    fast_sim = _run_pair(
        lattice32,
        lattice32_spam,
        lambda sim: sim.submit_broadcast(source),
        flits=128,
        expect_coalesced=True,
        channel_latency_ns=period,
    )
    assert fast_sim.stats.bubbles_created > 0


@pytest.mark.equivalence
class TestChurnPhaseBackoff:
    """Paper-length mixed traffic is churn-dominated: a token whose worm
    stops repeating itself within its first period fails verification, and
    its source NI waits a few periods before offering the worm again.
    However that retry paces the offers, traces and stats must stay
    bit-identical to the reference engine."""

    def _paper_length_workload(self, network, arrival_process):
        return mixed_traffic_workload(
            network,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=36,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=arrival_process,
        )

    @pytest.mark.parametrize(
        "arrival_cls", [NegativeBinomialArrivals, PoissonArrivals]
    )
    def test_verify_failure_backoff_stays_bit_identical(
        self, lattice32, lattice32_spam, arrival_cls
    ):
        """A 128-flit (paper message length) mixed-traffic run must fail
        some verifications without changing a single observable: the retry
        may only decide *when* a worm is offered, never what a token skips
        to."""
        workload = self._paper_length_workload(lattice32, arrival_cls(0.03))
        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=128,
            expect_coalesced=True,
        )
        exits = _exits(fast_sim)
        assert exits["verify_failure"] > 0, (
            "no token failed verification; the churn regime (and the retry "
            "under test) never engaged — test is vacuous"
        )
        # Failures recur across the run, so a regression in the retry's
        # bookkeeping would have more than one chance to corrupt state.
        assert exits["verify_failure"] > 1

    def test_reference_engine_counts_no_verify_failures(
        self, lattice32, lattice32_spam
    ):
        workload = self._paper_length_workload(
            lattice32, NegativeBinomialArrivals(0.03)
        )
        config = SimulationConfig(message_length_flits=128, fast_path=False)
        simulator = WormholeSimulator(lattice32, lattice32_spam, config)
        workload.submit_to(simulator)
        simulator.run()
        assert _exits(simulator)["verify_failure"] == 0
        assert _exits(simulator)["batch"] == 0


@pytest.mark.equivalence
class TestProbeTiers:
    """``_verify_token`` and ``_verify_unicast`` return their outcome tier
    and ``_pop_token`` counts it in ``coalesce_exits``.  The tally must equal
    the tiers the verifications returned, and every verification, failed or
    passed, ran the token's block through the per-flit machinery: one flit
    hop per link a worm token holds, and one for a unicast token's spine."""

    def _verification_log(self, simulator):
        """Wrap the instance's two verifications; return the list they
        append ``(token kind, tier name, the block ran per flit)`` to per
        verification."""
        log = []

        def recording(kind, verify, block_links):
            def recording_verify(token):
                hops = simulator.stats.flit_hops
                tier = verify(token)
                ran = simulator.stats.flit_hops - hops == block_links(token)
                log.append((kind, PROBE_TIERS[tier], ran))
                return tier

            return recording_verify

        simulator._verify_token = recording(
            "worm", simulator._verify_token, lambda token: len(token.links)
        )
        simulator._verify_unicast = recording(
            "unicast", simulator._verify_unicast, lambda token: 1
        )
        return log

    def test_returned_tier_names_the_counter_it_moved(self, lattice32, lattice32_spam):
        poisson = mixed_traffic_workload(
            lattice32,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=36,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=PoissonArrivals(0.03),
        )
        simulator = WormholeSimulator(
            lattice32, lattice32_spam, SimulationConfig(message_length_flits=128)
        )
        log = self._verification_log(simulator)
        poisson.submit_to(simulator)
        simulator.run()
        returned = [tier for _kind, tier, _executed in log]
        assert simulator.coalesce_exits == [returned.count(tier) for tier in PROBE_TIERS]
        assert all(executed for _kind, _tier, executed in log)
        seen = set(returned)
        assert seen == set(PROBE_TIERS), f"tiers never taken: {set(PROBE_TIERS) - seen}"
        assert {kind for kind, _tier, _executed in log} == {"worm", "unicast"}


def _link_state(simulator):
    """Every link's busy flag and buffered flits, and the pending transfers'
    times and links in lane order."""
    links = [
        (
            link.busy,
            [(flit.kind, flit.message_id, flit.seq) for flit in link.out_buffer.flits()],
            [(flit.kind, flit.message_id, flit.seq) for flit in link.in_buffer.flits()],
        )
        for link in simulator.links
    ]
    return links, [(time_ns, link.cid) for time_ns, _seq, _kind, link in simulator.events._lane]


@pytest.mark.equivalence
class TestTokenBoundaries:
    """A bounded run materialises every live token and turns it back into
    its transfers before it returns, so what a caller sees between windows
    is the reference state."""

    def _count_cuts(self, simulator):
        """Wrap the instance's token hooks; return the list that gets
        ``(token, skipped periods)`` for every token that a ``run_for``
        boundary thawed after it skipped a period."""
        pop_token, thaw = simulator._pop_token, simulator._thaw
        popping = []
        cuts = []

        def wrapped_pop(token):
            popping.append(token)
            try:
                pop_token(token)
            finally:
                popping.pop()

        def wrapped_thaw(token):
            if not popping and token.skipped:
                cuts.append((token, token.skipped))
            return thaw(token)

        simulator._pop_token = wrapped_pop
        simulator._thaw = wrapped_thaw
        return cuts

    @pytest.mark.parametrize("windows", [(997,), (333, 1_501, 70)], ids=["997", "mixed"])
    def test_every_window_boundary_matches_the_reference(
        self, lattice32, lattice32_spam, windows
    ):
        processors = lattice32.processors()
        simulators = []
        for fast in (True, False):
            config = SimulationConfig(
                message_length_flits=192,
                fast_path=fast,
                trace=True,
                collect_channel_stats=True,
            )
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            simulator.submit_broadcast(processors[0])
            for index in range(1, 6):
                simulator.submit_message(
                    processors[index],
                    [processors[(index + 11) % len(processors)]],
                    at_ns=index * 3_007,
                )
            simulators.append(simulator)
        fast_sim, ref_sim = simulators
        cuts = self._count_cuts(fast_sim)
        boundaries = 0
        while ref_sim.pending_messages:
            window = windows[boundaries % len(windows)]
            fast_stats = fast_sim.run_for(window)
            ref_stats = ref_sim.run_for(window)
            boundaries += 1
            assert simulator_fingerprint(fast_sim, fast_stats) == simulator_fingerprint(
                ref_sim, ref_stats
            ), f"boundary {boundaries} at {ref_sim.now} ns"
        assert not fast_sim.pending_messages
        assert cuts, "no run_for boundary cut through a live token; test is vacuous"
        assert fast_sim.coalesced_ticks > sum(skipped for _token, skipped in cuts)

    @pytest.mark.parametrize("first_window, advanced", [(11_725, 1), (11_755, 4), (11_795, 8)])
    def test_boundaries_inside_a_drain_match_the_reference(
        self, lattice32, lattice32_spam, first_window, advanced
    ):
        """The first window ends inside the drain of a broadcast whose tail
        is injected at 11,710 ns, after its drain token advanced 1, 4 or 8
        of its 9 levels; windows of 7, 13 and 23 ns then cut the rest of the
        run, including the drains of a unicast.  Every boundary hands back
        the reference state: the fingerprint, trace and channel statistics
        included, and every link's flits and pending transfer (no
        observable shows a body flit's seq, so they are compared here)."""
        processors = lattice32.processors()
        simulators = []
        for fast in (True, False):
            config = SimulationConfig(
                message_length_flits=128,
                fast_path=fast,
                trace=True,
                collect_channel_stats=True,
            )
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            simulator.submit_broadcast(processors[0])
            simulator.submit_message(processors[1], [processors[20]], at_ns=900)
            simulators.append(simulator)
        fast_sim, ref_sim = simulators
        cuts = self._count_cuts(fast_sim)
        windows = (first_window, 7, 13, 23)
        boundaries = 0
        while ref_sim.pending_messages:
            window = windows[0] if boundaries == 0 else windows[1 + boundaries % 3]
            fast_stats = fast_sim.run_for(window)
            ref_stats = ref_sim.run_for(window)
            boundaries += 1
            assert simulator_fingerprint(fast_sim, fast_stats) == simulator_fingerprint(
                ref_sim, ref_stats
            ), f"boundary {boundaries} at {ref_sim.now} ns"
            assert _link_state(fast_sim) == _link_state(ref_sim), f"boundary {boundaries}"
        assert not fast_sim.pending_messages
        drains = [skipped for token, skipped in cuts if isinstance(token, _DrainToken)]
        assert drains, "no run_for boundary cut through a live drain token; test is vacuous"
        assert drains[0] == advanced


@pytest.mark.equivalence
class TestBlockedBranch:
    """A multicast whose branch waits behind another worm streams bubbles on
    its free branches, but the worm is not offered to the fast path until
    that branch's header has arrived."""

    def test_no_token_before_the_blocked_branch_header_arrives(
        self, lattice32, lattice32_spam
    ):
        processors = lattice32.processors()
        submit = _blocked_branch_submit(processors)
        offers = []
        headers = []
        verified = []

        def instrumented_submit(sim):
            submit(sim)
            if not sim.config.fast_path:
                return
            form_token, header_delivered = sim.form_token, sim._header_delivered
            verify = sim._verify_token

            def recording_form(ni):
                offers.append((ni.current.mid, sim.now))
                form_token(ni)

            def recording_header(flit):
                message = sim.messages[flit.message_id]
                headers.append((flit.message_id, sim.now, sim.sources[message.source].next_seq))
                header_delivered(flit)

            def recording_verify(token):
                mid = token.ni.current.mid
                tier = verify(token)
                verified.append((mid, PROBE_TIERS[tier]))
                return tier

            sim.form_token = recording_form
            sim._header_delivered = recording_header
            sim._verify_token = recording_verify

        fast_sim = _run_pair(
            lattice32, lattice32_spam, instrumented_submit, flits=256, expect_coalesced=True
        )
        multicast = fast_sim.messages[1]
        assert len(multicast.destinations) > 1
        arrivals = [(time_ns, pushed) for mid, time_ns, pushed in headers if mid == 1]
        assert len(arrivals) == len(multicast.destinations)
        last_header_ns, pushed_by_then = max(arrivals)
        # The blocked branch held the header back while the NI kept pushing
        # body flits down the free branches (which therefore bubbled).
        assert pushed_by_then > 2
        assert fast_sim.stats.bubbles_created > 0
        assert last_header_ns > fast_sim.messages[0].startup_done_ns
        multicast_offers = [time_ns for mid, time_ns in offers if mid == 1]
        assert multicast_offers, "the multicast was never offered to the fast path"
        assert min(multicast_offers) >= last_header_ns
        assert (1, "batch") in verified, "the multicast never streamed as a token"


def _record_drains(simulator, log):
    """Wrap the instance's drain hooks: ``log`` gets ``("offered", now)``
    per bound period that offered a drain and ``(token, now)`` per drain
    pop, before the pop runs."""
    form_drain, pop_drain = simulator._form_drain, simulator._pop_drain

    def recording_form(token, message):
        log.append(("offered", simulator.now))
        form_drain(token, message)

    def recording_pop(token):
        log.append((token, simulator.now))
        pop_drain(token)

    simulator._form_drain = recording_form
    simulator._pop_drain = recording_pop


@pytest.mark.equivalence
class TestDrainToken:
    """Once the NI has injected the tail, a drain token advances the links
    ahead of it with no per-flit work and peels the level the tail enters
    next; the tail's own transfers run per flit (``docs/fast_path.md``,
    "Draining a token")."""

    def _run_logged(self, network, routing, submit, flits=128, **overrides):
        """``_run_pair`` with the fast path's drain hooks recorded."""
        log = []

        def logged_submit(sim):
            submit(sim)
            if sim.config.fast_path:
                _record_drains(sim, log)

        fast_sim = _run_pair(network, routing, logged_submit, flits=flits, **overrides)
        return fast_sim, log

    def test_multicast_tails_delivered_at_different_depths(self, lattice32, lattice32_spam):
        """A broadcast's branches end at different depths: its drain token
        peels one level per period, and tails reach the shallow destinations
        while the deeper levels are still folded in the token."""
        source = lattice32.processors()[0]
        fast_sim, log = self._run_logged(
            lattice32, lattice32_spam, lambda sim: sim.submit_broadcast(source)
        )
        pops = [(time_ns, token) for token, time_ns in log if isinstance(token, _DrainToken)]
        assert pops, "no drain token advanced; test is vacuous"
        token = pops[0][1]
        drain = [time_ns for time_ns, popped in pops if popped is token]
        assert len(drain) == len(token.levels) > 2
        delivered = sorted(set(fast_sim.messages[0].delivered_ns.values()))
        assert len(delivered) > 2
        # Tails were delivered before the token's last level was peeled.
        assert delivered[0] < drain[-1]

    def test_released_link_goes_to_the_ocrq_waiter_behind_the_tail(
        self, lattice32, lattice32_spam
    ):
        """A unicast waits in the OCRQ of a link the broadcast holds.  The
        tail's transfer releases that link right after the drain token's
        first pop, the waiter acquires it in the same event, and the drain
        token keeps advancing the broadcast's deeper levels."""
        processors = lattice32.processors()

        def submit(sim):
            sim.submit_broadcast(processors[0])
            sim.submit_message(processors[1], [processors[20]], at_ns=900)

        fast_sim, log = self._run_logged(lattice32, lattice32_spam, submit)
        drain = [time_ns for token, time_ns in log if isinstance(token, _DrainToken)]
        released = {}
        handoffs = []
        for event in fast_sim.trace.events:
            if event.kind == "release" and event.fields["message"] == 0:
                released.update(dict.fromkeys(event.fields["channels"], event.time_ns))
            elif event.kind == "acquire" and event.fields["message"] == 1:
                handoffs.extend(
                    event.time_ns
                    for cid in event.fields["channels"]
                    if released.get(cid) == event.time_ns
                )
        assert handoffs, "the waiter did not acquire a link the tail released"
        assert drain and drain[0] <= handoffs[0] < drain[-1]

    @pytest.mark.parametrize("depth", [2, 3])
    def test_deeper_buffers_decline_the_drain(self, lattice32, lattice32_spam, depth):
        """With 2- or 3-flit buffers the worm streams with more than one
        flit per buffer: its worm token skips periods, but at the bound no
        drain token forms, and the drain runs per flit as in the
        reference."""
        processors = lattice32.processors()
        fast_sim, log = self._run_logged(
            lattice32,
            lattice32_spam,
            lambda sim: sim.submit_message(processors[0], [processors[11]]),
            expect_coalesced=True,
            input_buffer_depth=depth,
            output_buffer_depth=depth,
        )
        assert ("offered", fast_sim.messages[0].injection_done_ns) in log
        assert not [token for token, _time_ns in log if isinstance(token, _DrainToken)]


#: Processor index pairs on the ``paper_network`` fixture by unicast path length
#: ``D`` (links, injection and consumption included).
PAPER_PAIRS = {3: (1, 49), 6: (0, 35), 12: (0, 21), 18: (0, 119), 30: (1, 119), 45: (75, 7)}


def _record_unicasts(simulator):
    """Wrap the instance's unicast-token hooks and its worm-token offers;
    return the log they fill.  ``verified`` gets ``(mid, tier name)`` per
    verification, ``pushed`` the mid of every token that pushed its tail,
    ``thawed`` ``(mid, skipped periods, run links, inside a pop)`` per
    materialised token, and ``offers`` ``(mid, now)`` per worm-token
    offer."""
    log = {"verified": [], "pushed": [], "thawed": [], "offers": []}
    verify, push = simulator._verify_unicast, simulator._push_unicast_tail
    pop, thaw, form = simulator._pop_unicast, simulator._thaw_unicast, simulator.form_token
    popping = []

    def recording_verify(token):
        tier = verify(token)
        log["verified"].append((token.mid, PROBE_TIERS[tier]))
        return tier

    def recording_push(token):
        log["pushed"].append(token.mid)
        push(token)

    def recording_pop(token):
        popping.append(token)
        try:
            pop(token)
        finally:
            popping.pop()

    def recording_thaw(token):
        log["thawed"].append((token.mid, token.skipped, token.size, bool(popping)))
        return thaw(token)

    def recording_form(ni):
        log["offers"].append((ni.current.mid, simulator.now))
        form(ni)

    simulator._verify_unicast = recording_verify
    simulator._push_unicast_tail = recording_push
    simulator._pop_unicast = recording_pop
    simulator._thaw_unicast = recording_thaw
    simulator.form_token = recording_form
    return log


def _unicast_pair(
    network, routing, submit, windows=(), flits=128, perturb=None, stalls=False, **overrides
):
    """Run ``submit``'s workload with the fast path on and off and compare
    them at every ``run_for`` boundary: the full fingerprint, every link's
    flits and busy flag, and the pending transfers in lane order.

    ``windows[0]`` is the first window; ``windows[1:]`` (or ``windows[0]``
    again) then cycle for up to 24 more boundaries before a final
    ``run()``, compared the same way.  With ``stalls``, both final runs
    must raise :class:`DeadlockError` with the same report.
    ``perturb``, if given, is applied to both simulators at the first
    boundary.  Returns the fast simulator and its unicast-token log
    (:func:`_record_unicasts`)."""
    simulators = []
    for fast in (True, False):
        config = SimulationConfig(
            message_length_flits=flits,
            fast_path=fast,
            trace=True,
            collect_channel_stats=True,
            **overrides,
        )
        simulator = WormholeSimulator(network, routing, config)
        submit(simulator)
        simulators.append(simulator)
    fast_sim, ref_sim = simulators
    log = _record_unicasts(fast_sim)

    def compare(where):
        assert simulator_fingerprint(fast_sim, fast_sim.stats) == simulator_fingerprint(
            ref_sim, ref_sim.stats
        ), where
        assert _link_state(fast_sim) == _link_state(ref_sim), where

    for boundary, window in enumerate((windows[:1] + (windows[1:] or windows) * 24)[:25]):
        if not len(ref_sim.events):
            break
        fast_sim.run_for(window)
        ref_sim.run_for(window)
        compare(f"boundary {boundary + 1} at {ref_sim.now} ns")
        if boundary == 0 and perturb is not None:
            perturb(fast_sim)
            perturb(ref_sim)
    if stalls:
        reports = []
        for simulator in (fast_sim, ref_sim):
            with pytest.raises(DeadlockError) as excinfo:
                simulator.run()
            reports.append(excinfo.value.report.describe())
        assert reports[0] == reports[1]
    else:
        fast_sim.run()
        ref_sim.run()
    compare("end of run()")
    return fast_sim, log


def _submit_pairs(processors, pairs, at_ns=0):
    def submit(sim):
        for source, destination in pairs:
            sim.submit_message(processors[source], [processors[destination]], at_ns=at_ns)

    return submit


def _path_cids(simulator, message):
    """The channel ids of a delivered unicast's path, from its injection
    link to its consumption link (from its ``head`` trace records: a path
    may pass a switch twice)."""
    heads = [
        event.fields["channel"]
        for event in simulator.trace.events
        if event.kind == "head" and event.fields["message"] == message.mid
    ]
    return heads + [simulator.network.consumption_channel(message.destinations[0]).cid]


@pytest.mark.equivalence
class TestUnicastToken:
    """Once a unicast's header lands, a unicast token carries the rest of
    its body, one lane entry per period, up to the tail push, and hands the
    links ahead of the tail to a drain token (``docs/fast_path.md``,
    "Unicast tokens").  Every scenario is compared with the reference at
    every ``run_for`` boundary and asserts that the token engaged or
    declined as intended."""

    @pytest.mark.parametrize("links", sorted(PAPER_PAIRS))
    @pytest.mark.parametrize("windows", [(), (997,)], ids=["run", "997"])
    def test_lone_unicasts_over_several_path_lengths(self, paper_network, links, windows):
        """From 3 to 45 links.  Left alone, the token pops once per period
        from its verification to the tail push (``L - 1 - D`` pops) and the
        drain token once per level (``D - 1``), and the NI offers no worm
        token while the unicast token lives."""
        network, spam = paper_network
        pair = PAPER_PAIRS[links]
        fast_sim, log = _unicast_pair(
            network, spam, _submit_pairs(network.processors(), [pair]), windows
        )
        (message,) = fast_sim.messages.values()
        assert message.hops + 1 == links
        assert log["verified"] == [(0, "batch")]
        if not windows:
            assert log["pushed"] == [0]
            assert fast_sim.coalesced_ticks == (127 - links) + (links - 1)
            header_ns = message.delivered_ns[message.destinations[0]] - 127 * 10
            assert not [
                time_ns for _mid, time_ns in log["offers"]
                if header_ns <= time_ns <= message.injection_done_ns
            ]

    def test_released_links_go_to_ocrq_waiters(self, paper_network):
        """Two unicasts share part of their path: the second waits in the
        OCRQ of a link the first holds, and takes it in the event in which
        the first's tail releases it, while a drain token carries the links
        ahead of that tail; both run as unicast tokens."""
        network, spam = paper_network
        processors = network.processors()

        def submit(sim):
            _submit_pairs(processors, [PAPER_PAIRS[30]])(sim)
            _submit_pairs(processors, [PAPER_PAIRS[18]], at_ns=1_000)(sim)

        fast_sim, log = _unicast_pair(network, spam, submit)
        assert sorted(log["pushed"]) == [0, 1]
        released = {}
        handoffs = []
        for event in fast_sim.trace.events:
            if event.kind == "release" and event.fields["message"] == 0:
                released.update(dict.fromkeys(event.fields["channels"], event.time_ns))
            elif event.kind == "acquire" and event.fields["message"] == 1:
                handoffs.extend(
                    event.time_ns
                    for cid in event.fields["channels"]
                    if released.get(cid) == event.time_ns
                )
        assert handoffs, "the waiter did not acquire a link the tail released"
        assert handoffs[0] > fast_sim.messages[0].injection_done_ns

    @pytest.mark.parametrize("windows", [(), (997,), (4_999, 333, 1_501, 70)], ids=["run", "997", "mixed"])
    def test_contended_figure3_point(self, paper_network, windows):
        network, spam = paper_network
        workload = mixed_traffic_workload(
            network, rate_per_us=0.03, multicast_destinations=8, num_messages=40, seed=23
        )
        fast_sim, log = _unicast_pair(network, spam, workload.submit_to, windows)
        unicasts = [m for m in fast_sim.messages.values() if len(m.destinations) == 1]
        assert {mid for mid, _tier in log["verified"]} == {m.mid for m in unicasts}
        assert len(log["pushed"]) > len(unicasts) // 2
        if windows:
            assert [cut for cut in log["thawed"] if not cut[3]], "no boundary cut a token"

    @pytest.mark.parametrize(
        "where", ["decompression", "streaming", "before_push", "at_push", "after_push"]
    )
    def test_boundaries_around_the_run(self, paper_network, where):
        """A ``run_for`` boundary inside the decompression, inside the
        streaming, one period before the tail push, at it, and one period
        after it: the token materialises (before the push) or the drain
        token does (from the push on), and each later boundary of 7, 13 and
        23 ns matches the reference too."""
        network, spam = paper_network
        submit = _submit_pairs(network.processors(), [PAPER_PAIRS[18]])
        message = _traced(network, spam, submit).messages[0]
        header_ns = message.delivered_ns[message.destinations[0]] - 127 * 10
        push_ns = message.injection_done_ns
        assert push_ns == header_ns + (127 - 18) * 10
        boundary = {
            "decompression": header_ns + 6 * 10 + 3,
            "streaming": header_ns + 22 * 10 + 5,
            "before_push": push_ns - 10,
            "at_push": push_ns,
            "after_push": push_ns + 10,
        }[where]
        fast_sim, log = _unicast_pair(network, spam, submit, (boundary, 7, 13, 23))
        cuts = [(skipped, size) for _mid, skipped, size, in_pop in log["thawed"] if not in_pop]
        if where in ("at_push", "after_push"):
            assert log["pushed"] == [0] and not cuts
        else:
            assert not log["pushed"]
            skipped = (boundary - header_ns) // 10
            assert cuts[0] == (skipped, min(18, skipped + 3))

    @pytest.mark.parametrize("depth", [(1, 2), (2, 1), (3, 3)], ids=["out2", "in2", "in3out3"])
    def test_deeper_buffers_decline(self, paper_network, depth):
        network, spam = paper_network
        fast_sim, log = _unicast_pair(
            network, spam, _submit_pairs(network.processors(), [PAPER_PAIRS[12]]), (997,),
            input_buffer_depth=depth[0], output_buffer_depth=depth[1],
        )
        assert not log["verified"]
        assert fast_sim.coalesced_ticks > 0

    def test_multicasts_decline(self, paper_network):
        network, spam = paper_network
        processors = network.processors()
        fast_sim, log = _unicast_pair(
            network, spam,
            lambda sim: sim.submit_message(processors[0], [processors[21], processors[119]]),
            (997,),
        )
        assert not log["verified"]
        assert fast_sim.coalesced_ticks > 0

    @pytest.mark.parametrize("flits, engages", [(90, False), (91, True)])
    def test_worm_shorter_than_twice_its_path_declines(self, paper_network, flits, engages):
        """On 45 links the tail of a 90-flit worm would be pushed before the
        run reaches the injection link (``L - 1 < 2D``); 91 flits engage."""
        network, spam = paper_network
        fast_sim, log = _unicast_pair(
            network, spam, _submit_pairs(network.processors(), [PAPER_PAIRS[45]]), (997,),
            flits=flits,
        )
        assert bool(log["verified"]) == engages

    def test_tail_pushed_before_the_header_lands_declines(self, paper_network):
        network, spam = paper_network
        fast_sim, log = _unicast_pair(
            network, spam, _submit_pairs(network.processors(), [PAPER_PAIRS[18]]), (997,),
            flits=8,
        )
        message = fast_sim.messages[0]
        assert message.injection_done_ns < message.delivered_ns[message.destinations[0]] - 7 * 10
        assert not log["verified"]

    @pytest.mark.parametrize("upstream, outcome", [(2, "verify_failure"), (5, "front")])
    def test_a_link_that_is_not_stalled_ends_the_token(self, paper_network, upstream, outcome):
        """The token's checks, exercised by fault injection: under the
        engine's rules a unicast's holes never meet its run.  Just before
        the header lands, both engines lose the flit in the input buffer of
        the ``upstream``-th link above the consumption link, which then
        never sends again, so the worm stalls.  Two links up, the
        verification fails; five links up, the run's front finds the link
        not stalled, the token materialises and its block runs per flit.
        Either way both engines stall alike."""
        network, spam = paper_network
        submit = _submit_pairs(network.processors(), [PAPER_PAIRS[18]])
        reference = _traced(network, spam, submit)
        message = reference.messages[0]
        header_ns = message.delivered_ns[message.destinations[0]] - 127 * 10
        path = _path_cids(reference, message)

        def lose_a_flit(sim):
            sim.links[path[-1 - upstream]].in_buffer._slots.popleft()

        fast_sim, log = _unicast_pair(
            network, spam, submit, (header_ns - 5, 997), perturb=lose_a_flit, stalls=True
        )
        assert not fast_sim.messages[0].is_complete
        if outcome == "verify_failure":
            assert log["verified"] == [(0, "verify_failure")]
        else:
            assert log["verified"] == [(0, "batch")]
            assert log["thawed"] == [(0, upstream - 3, upstream, True)]


def _traced(network, routing, submit):
    """``submit``'s workload run on the reference engine with tracing on."""
    simulator = WormholeSimulator(
        network, routing, SimulationConfig(fast_path=False, trace=True)
    )
    submit(simulator)
    simulator.run()
    return simulator
