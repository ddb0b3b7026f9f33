"""Trace-equivalence tests for the engine's steady-state fast path, plus
regression tests for the partial-run clock and channel-utilisation fixes.

The fast path's contract is *bit-identical observable behaviour*: delivery
timestamps, trace records, message statistics, flit-hop counts, bubble
counts and per-channel utilisation must not change when event coalescing is
enabled (see ``docs/fast_path.md`` for the full contract).  Every scenario
here runs twice — ``fast_path=True`` against ``fast_path=False`` (the
reference per-flit execution) — and compares the full observable
fingerprint.  Where a scenario is expected to reach a steady state, the
test additionally asserts that the fast path actually coalesced something
(and, for the phase-staggered and bubble-periodic patterns, that the
corresponding mode engaged), so the equivalence claim is not vacuous.
"""

from __future__ import annotations

import pytest

from repro.core.spam import SpamRouting
from repro.errors import SimulationError
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import PROBE_TIERS, WormholeSimulator
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
    expect_stagger=False,
    expect_bubbles=False,
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
        assert fast_sim.coalesced_ticks > 0, "fast path never engaged; test is vacuous"
    if expect_stagger:
        assert fast_sim.coalesced_stagger_ticks > 0, (
            "no phase-staggered window coalesced; test is vacuous"
        )
    if expect_bubbles:
        assert fast_sim.coalesced_bubble_ticks > 0, (
            "no bubble-periodic window coalesced; test is vacuous"
        )
    assert results[0] == results[1]
    return fast_sim


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
        """Driving the simulation in ``run_for`` windows (which can cut a
        steady-state batch short) must match the reference windowed run."""

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
    """The phase-staggered and bubble-periodic extensions of the fast path.

    Each scenario asserts the bit-identical fingerprint *and* that the mode
    under test actually replayed windows arithmetically (via the engine's
    ``coalesced_stagger_ticks`` / ``coalesced_bubble_ticks`` counters), so
    the equivalence claim is not vacuous.
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
        different congruence classes modulo the channel period — the
        phase-stagger mode must coalesce them and stay bit-identical."""
        workload = self._mixed_workload(lattice32, PoissonArrivals(0.03))

        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=64,
            expect_coalesced=True,
            expect_stagger=True,
        )
        assert fast_sim.stats.bubbles_created > 0

    def test_negative_binomial_arrivals_mixed_traffic(self, lattice32, lattice32_spam):
        """The paper's negative-binomial arrivals are quantised to the channel
        period, so worms stay phase-aligned; equivalence must hold through the
        mixed unicast/multicast contention (including bubble-periodic
        windows from blocked multicast branches)."""
        workload = self._mixed_workload(lattice32, NegativeBinomialArrivals(0.03))

        _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=64,
            expect_coalesced=True,
            expect_bubbles=True,
        )

    def test_phase_staggered_cross_traffic(self, lattice32, lattice32_spam):
        """Eight long unicasts deliberately submitted 3 ns apart (not a
        multiple of the 10 ns channel period) stream concurrently in
        different congruence classes; the stagger mode must batch them."""
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
            expect_stagger=True,
        )

    def _bubble_periodic_submit(self, processors):
        """A long unicast acquires channels that one branch of a following
        multicast needs; while the branch waits, the multicast's fork segment
        emits one bubble per period into its free branch — a bubble-periodic
        steady state lasting most of the unicast's drain."""

        def submit(sim):
            sim.submit_message(processors[1], [processors[10]], at_ns=0)
            sim.submit_message(
                processors[0],
                [p for p in processors[8:24] if p != processors[0]],
                at_ns=200,
            )

        return submit

    def test_bubble_periodic_blocked_branch(self, lattice32, lattice32_spam):
        processors = lattice32.processors()
        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            self._bubble_periodic_submit(processors),
            flits=256,
            expect_coalesced=True,
            expect_bubbles=True,
        )
        assert fast_sim.stats.bubbles_created > 0

    def test_bubble_counters_match_reference_exactly(self, lattice32, lattice32_spam):
        """Regression for the closed-form bubble replay: the total bubble
        count and every per-channel ``bubble_flits`` counter must equal the
        reference engine's, flit for flit."""
        processors = lattice32.processors()
        counters = []
        for fast in (True, False):
            config = SimulationConfig(
                message_length_flits=256,
                fast_path=fast,
                collect_channel_stats=True,
            )
            simulator = WormholeSimulator(lattice32, lattice32_spam, config)
            self._bubble_periodic_submit(processors)(simulator)
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
        """``run_for`` windows that cut staggered batches short must still
        tile time exactly and stay bit-identical."""
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
            expect_stagger=True,
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
        from repro.errors import DeadlockError
        from repro.routing.naive import NaiveMinimalRouting

        for fast in (True, False):
            naive = NaiveMinimalRouting(ring8)
            config = SimulationConfig(
                message_length_flits=64, deadlock_detection=True, fast_path=fast
            )
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
    """Every channel shares the one period, so a streaming worm's window is
    self-similar at any ``channel_latency_ns``: the probe batches, and the
    run matches the reference bit for bit, with ``run()`` and with
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
class TestDrainBails:
    """The cheap-scan drain bail (the ``drain_bail`` tier): windows that
    provably cannot verify at any period (a last-flit wire whose feeder is
    done, a blocked not-yet-active receiver) skip the doomed snapshot and
    take the verify-failure backoff instead."""

    def test_drain_bails_engage_on_churny_mixed_traffic(
        self, lattice32, lattice32_spam
    ):
        workload = mixed_traffic_workload(
            lattice32,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=36,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=PoissonArrivals(0.03),
        )
        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=128,
            expect_coalesced=True,
        )
        assert _exits(fast_sim)["drain_bail"] > 0, (
            "no probe exited through the drain bail; the tier (and the "
            "churn-phase economiser) never engaged — test is vacuous"
        )

    def test_reference_engine_never_drain_bails(self, lattice32, lattice32_spam):
        config = SimulationConfig(message_length_flits=64, fast_path=False)
        simulator = WormholeSimulator(lattice32, lattice32_spam, config)
        simulator.submit_broadcast(lattice32.processors()[0])
        simulator.run()
        assert _exits(simulator)["drain_bail"] == 0


@pytest.mark.equivalence
class TestChurnPhaseBackoff:
    """Paper-length mixed traffic is churn-dominated: most paid fast-path
    snapshots fail the self-similarity check and take the exponential
    backoff (``_coalesce_pause``).  The ROADMAP names this regime as the
    next engine bottleneck; these tests pin its contract *before* anyone
    attacks it — however the backoff paces its probes, traces and stats
    must stay bit-identical to the reference engine."""

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
        """A 128-flit (paper message length) mixed-traffic run must drive
        the verify-failure backoff — churn phases make paid snapshots fail
        — without changing a single observable: the backoff may only decide
        *when* to probe, never what a window replays to."""
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
            "no paid snapshot failed verification; the churn regime (and "
            "the backoff under test) never engaged — test is vacuous"
        )
        # The backoff is a real economiser here, not a one-off: failures
        # recur across the run, so a regression in its bookkeeping would
        # have many chances to corrupt state.
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
class TestGenericDeadlineBail:
    """The O(1) probe bail on the EventQueue-maintained earliest generic
    deadline (the churn-phase cheapener named in the ROADMAP)."""

    def test_bails_engage_on_churny_mixed_traffic(self, lattice32, lattice32_spam):
        """Paper-length mixed traffic is churn-dominated: submits, router
        decisions and acquisitions queue as generic events close to the
        streaming transfers, so most probes must exit through the O(1)
        generic-deadline bail — and the run must stay bit-identical."""
        workload = mixed_traffic_workload(
            lattice32,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=36,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=NegativeBinomialArrivals(0.03),
        )
        fast_sim = _run_pair(
            lattice32,
            lattice32_spam,
            workload.submit_to,
            flits=64,
            expect_coalesced=True,
        )
        assert _exits(fast_sim)["generic_bail"] > 0, (
            "no probe exited through the O(1) generic-deadline bail; "
            "the tier (and the optimisation) never engaged"
        )

    def test_reference_engine_never_bails(self, lattice32, lattice32_spam):
        config = SimulationConfig(message_length_flits=32, fast_path=False)
        simulator = WormholeSimulator(lattice32, lattice32_spam, config)
        simulator.submit_broadcast(lattice32.processors()[0])
        simulator.run()
        assert _exits(simulator)["generic_bail"] == 0


@pytest.mark.equivalence
class TestProbeTiers:
    """``_coalesce_tick`` returns its exit tier and ``run()`` counts it in
    ``coalesce_exits``.  The tally must equal the tiers the probe returned,
    and only the executing tiers (a verify failure or a batch) may have run
    any event."""

    def _probe_log(self, simulator):
        """Wrap the instance's probe; return the list it appends
        ``(tier name, flit hops moved)`` to per probe."""
        probe = simulator._coalesce_tick
        log = []

        def recording_probe(t0, until_ns):
            hops = simulator.stats.flit_hops
            tier = probe(t0, until_ns)
            log.append((PROBE_TIERS[tier], simulator.stats.flit_hops != hops))
            return tier

        simulator._coalesce_tick = recording_probe
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
        log = self._probe_log(simulator)
        poisson.submit_to(simulator)
        simulator.run()
        returned = [tier for tier, _executed in log]
        assert simulator.coalesce_exits == [returned.count(tier) for tier in PROBE_TIERS]
        for tier, executed in log:
            assert executed == (tier in ("verify_failure", "batch")), tier
        seen = set(returned)
        assert seen == set(PROBE_TIERS), f"tiers never taken: {set(PROBE_TIERS) - seen}"
