"""Tests for arrival processes, destination patterns and workload builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkloadError
from repro.traffic.arrivals import (
    DeterministicArrivals,
    NegativeBinomialArrivals,
    PoissonArrivals,
    make_arrival_process,
)
from repro.traffic.patterns import (
    broadcast_destinations,
    uniform_destinations,
    uniform_source,
)
from repro.traffic.workload import mixed_traffic_workload, single_multicast_workload


class TestArrivalProcesses:
    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(rate_per_us=0.01),
            NegativeBinomialArrivals(rate_per_us=0.01),
            DeterministicArrivals(rate_per_us=0.01),
        ],
    )
    def test_mean_interarrival_close_to_requested(self, process):
        rng = np.random.default_rng(0)
        samples = [process.next_interarrival_ns(rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        # 0.01 messages/us -> 100_000 ns mean inter-arrival.
        assert mean == pytest.approx(100_000, rel=0.1)
        assert all(s >= 1 for s in samples)

    def test_deterministic_is_constant(self):
        process = DeterministicArrivals(rate_per_us=0.1)
        rng = np.random.default_rng(1)
        values = {process.next_interarrival_ns(rng) for _ in range(10)}
        assert values == {10_000}

    def test_negative_binomial_is_burstier_than_deterministic(self):
        rng = np.random.default_rng(2)
        nb = NegativeBinomialArrivals(rate_per_us=0.05, r=1)
        samples = [nb.next_interarrival_ns(rng) for _ in range(2000)]
        assert np.std(samples) > 0

    def test_arrival_times_are_cumulative(self, lattice32):
        # A workload's per-processor clock adds one interarrival per message:
        # at a fixed 1 ms gap every processor sends at 1, 2 and 3 ms.
        workload = mixed_traffic_workload(
            lattice32,
            0.001,
            4,
            num_messages=3 * lattice32.num_processors,
            arrival_process=DeterministicArrivals(rate_per_us=0.001),
        )
        for processor in lattice32.processors():
            times = [spec.at_ns for spec in workload if spec.source == processor]
            assert times == [1_000_000, 2_000_000, 3_000_000]

    def test_factory_and_errors(self):
        assert isinstance(make_arrival_process("poisson", 0.01), PoissonArrivals)
        assert isinstance(make_arrival_process("negative-binomial", 0.01), NegativeBinomialArrivals)
        assert isinstance(make_arrival_process("deterministic", 0.01), DeterministicArrivals)
        with pytest.raises(ConfigurationError):
            make_arrival_process("weibull", 0.01)
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate_per_us=0)
        with pytest.raises(ConfigurationError):
            NegativeBinomialArrivals(rate_per_us=0.01, r=0)


class TestPatterns:
    def test_uniform_source_is_processor(self, lattice32):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert lattice32.is_processor(uniform_source(lattice32, rng))

    def test_uniform_destinations_exclude_source(self, lattice32):
        rng = np.random.default_rng(0)
        source = lattice32.processors()[0]
        destinations = uniform_destinations(lattice32, source, 10, rng)
        assert len(destinations) == 10
        assert len(set(destinations)) == 10
        assert source not in destinations
        assert all(lattice32.is_processor(d) for d in destinations)

    def test_uniform_destinations_bounds(self, lattice32):
        rng = np.random.default_rng(0)
        source = lattice32.processors()[0]
        with pytest.raises(WorkloadError):
            uniform_destinations(lattice32, source, 0, rng)
        with pytest.raises(WorkloadError):
            uniform_destinations(lattice32, source, lattice32.num_processors, rng)

    def test_broadcast_destinations(self, lattice32):
        source = lattice32.processors()[3]
        destinations = broadcast_destinations(lattice32, source)
        assert len(destinations) == lattice32.num_processors - 1
        assert source not in destinations


class TestSingleMulticastWorkload:
    def test_sample_count_and_spacing(self, lattice32):
        workload = single_multicast_workload(lattice32, num_destinations=5, samples=4, seed=1)
        assert len(workload) == 4
        assert workload.num_multicasts == 4
        arrival_times = [spec.at_ns for spec in workload]
        assert arrival_times == sorted(arrival_times)
        assert arrival_times[1] - arrival_times[0] >= 100_000

    def test_destination_count_respected(self, lattice32):
        workload = single_multicast_workload(lattice32, num_destinations=7, samples=3, seed=2)
        for spec in workload:
            assert len(spec.destinations) == 7
            assert spec.source not in spec.destinations

    def test_deterministic_given_seed(self, lattice32):
        a = single_multicast_workload(lattice32, 5, 3, seed=9)
        b = single_multicast_workload(lattice32, 5, 3, seed=9)
        assert [s.destinations for s in a] == [s.destinations for s in b]
        c = single_multicast_workload(lattice32, 5, 3, seed=10)
        assert [s.destinations for s in a] != [s.destinations for s in c]

    def test_invalid_samples(self, lattice32):
        with pytest.raises(WorkloadError):
            single_multicast_workload(lattice32, 5, 0)


class TestMixedTrafficWorkload:
    def test_message_count_and_multicast_fraction(self, lattice32):
        workload = mixed_traffic_workload(
            lattice32, rate_per_us=0.02, multicast_destinations=8, num_messages=200, seed=4
        )
        assert len(workload) == 200
        fraction = workload.num_multicasts / len(workload)
        assert 0.03 <= fraction <= 0.2  # nominal 0.1

    def test_multicast_degree(self, lattice32):
        workload = mixed_traffic_workload(
            lattice32, rate_per_us=0.02, multicast_destinations=6, num_messages=100, seed=5
        )
        for spec in workload:
            if spec.is_multicast:
                assert len(spec.destinations) == 6

    def test_arrival_times_sorted_and_rate_dependent(self, lattice32):
        slow = mixed_traffic_workload(lattice32, 0.001, 4, num_messages=60, seed=6)
        fast = mixed_traffic_workload(lattice32, 0.05, 4, num_messages=60, seed=6)
        assert [s.at_ns for s in slow] == sorted(s.at_ns for s in slow)
        assert slow.horizon_ns() > fast.horizon_ns()

    def test_sources_spread_over_processors(self, lattice32):
        workload = mixed_traffic_workload(lattice32, 0.02, 4, num_messages=150, seed=7)
        sources = {spec.source for spec in workload}
        assert len(sources) > lattice32.num_processors // 2

    def test_parameter_validation(self, lattice32):
        with pytest.raises(WorkloadError):
            mixed_traffic_workload(lattice32, 0.02, 4, num_messages=0)
        with pytest.raises(WorkloadError):
            mixed_traffic_workload(lattice32, 0.02, 4, num_messages=10, multicast_fraction=1.5)
        with pytest.raises(WorkloadError):
            mixed_traffic_workload(lattice32, 0.02, lattice32.num_processors, num_messages=10)

    def test_submit_to_simulator(self, lattice32, short_config):
        from repro.core.spam import SpamRouting
        from repro.simulator.engine import WormholeSimulator

        workload = mixed_traffic_workload(lattice32, 0.02, 4, num_messages=20, seed=8)
        spam = SpamRouting.build(lattice32)
        simulator = WormholeSimulator(lattice32, spam, short_config)
        messages = workload.submit_to(simulator)
        assert len(messages) == 20
        stats = simulator.run()
        assert stats.messages_completed == 20
