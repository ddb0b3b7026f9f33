"""Unit tests for the simulator's building blocks (flits, buffers, OCRQs,
event queue, configuration, messages)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.simulator.buffers import FlitBuffer
from repro.simulator.config import PAPER_CONFIG, SimulationConfig
from repro.simulator.events import EventQueue
from repro.simulator.links import LinkState
from repro.simulator.message import Message, MessageKind
from repro.simulator.ocrq import OutputChannelRequestQueue


class TestFlitBuffer:
    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            FlitBuffer(0)


class _FakeSegment:
    def __init__(self, mid):
        self.message = type("M", (), {"mid": mid})()

    def try_acquire(self):  # pragma: no cover - not exercised here
        pass


class TestOcrq:
    def test_fifo_and_head(self):
        ocrq = OutputChannelRequestQueue()
        a, b = _FakeSegment(1), _FakeSegment(2)
        assert ocrq.is_empty and ocrq.head() is None
        ocrq.enqueue(a)
        ocrq.enqueue(b)
        assert ocrq.head() is a
        assert ocrq.waiting_message_ids() == (1, 2)
        ocrq.pop_head(a)
        assert ocrq.head() is b

    def test_duplicate_enqueue_rejected(self):
        ocrq = OutputChannelRequestQueue()
        a = _FakeSegment(1)
        ocrq.enqueue(a)
        with pytest.raises(SimulationError):
            ocrq.enqueue(a)

    def test_pop_requires_head(self):
        ocrq = OutputChannelRequestQueue()
        a, b = _FakeSegment(1), _FakeSegment(2)
        ocrq.enqueue(a)
        ocrq.enqueue(b)
        with pytest.raises(SimulationError):
            ocrq.pop_head(b)

    def test_remove(self):
        ocrq = OutputChannelRequestQueue()
        a, b = _FakeSegment(1), _FakeSegment(2)
        ocrq.enqueue(a)
        ocrq.enqueue(b)
        ocrq.remove(b)
        assert len(ocrq) == 1
        with pytest.raises(SimulationError):
            ocrq.remove(b)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule(30, lambda: seen.append("c"))
        queue.schedule(10, lambda: seen.append("a"))
        queue.schedule(20, lambda: seen.append("b"))
        while len(queue):
            _time, _seq, _kind, callback = queue.pop_entry()
            callback()
        assert seen == ["a", "b", "c"]
        assert queue.now == 30

    def test_same_time_fifo(self):
        queue = EventQueue()
        seen = []
        for index in range(5):
            queue.schedule(7, lambda i=index: seen.append(i))
        while len(queue):
            queue.pop_entry()[3]()
        assert seen == [0, 1, 2, 3, 4]

    def test_scheduling_in_the_past_rejected(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.pop_entry()
        with pytest.raises(SimulationError):
            queue.schedule(5, lambda: None)

    def test_schedule_after_and_next_time(self):
        queue = EventQueue(start_ns=100)
        queue.schedule_after(50, lambda: None)
        assert len(queue) == 1
        assert queue.pop_entry()[0] == 150

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop_entry()


class TestEventQueueTransferEntries:
    """The tagged transfer entries backing the engine's fast path."""

    def test_transfer_entries_are_counted(self):
        queue = EventQueue()
        marker = object()
        queue.schedule(5, lambda: None)
        assert queue._transfer_pending == 0
        queue.schedule_transfer(10, marker)
        assert queue._transfer_pending == 1
        time_ns, _seq, kind, payload = queue.pop_entry()
        assert (time_ns, kind) == (5, 0)
        assert queue._transfer_pending == 1
        time_ns, _seq, kind, payload = queue.pop_entry()
        assert (time_ns, kind) == (10, 1)
        assert payload is marker
        assert queue._transfer_pending == 0

    def test_advance_to_moves_to_boundary_only(self):
        queue = EventQueue()
        queue.advance_to(100)
        assert queue.now == 100
        queue.advance_to(50)  # never backwards
        assert queue.now == 100
        queue.schedule(150, lambda: None)
        queue.advance_to(150)
        assert queue.now == 150
        queue.schedule(180, lambda: None)
        with pytest.raises(SimulationError):
            queue.advance_to(200)  # never past a pending event

    def test_shift_preserves_congruence_classes_and_order(self):
        """The phase-staggered batch advance: every transfer deadline moves
        by the same delta, so staggered deadlines keep their spacing (and
        congruence class modulo the period) and their relative order."""
        queue = EventQueue()
        early, late_first, late_second = object(), object(), object()
        queue.schedule_transfer(13, early)
        queue.schedule_transfer(17, late_first)
        queue.schedule_transfer(17, late_second)
        queue.shift_transfers(16, 50)
        assert queue.now == 16
        entries = [queue.pop_entry() for _ in range(3)]
        assert [entry[0] for entry in entries] == [63, 67, 67]
        assert entries[0][3] is early
        assert entries[1][3] is late_first and entries[2][3] is late_second

    def test_shift_keeps_generic_priority_on_ties(self):
        queue = EventQueue()
        transfer = object()
        queue.schedule(40, lambda: None)
        queue.schedule_transfer(10, transfer)
        queue.shift_transfers(10, 30)
        # The transfer lands on the generic event's timestamp; the generic
        # (scheduled before the batch began) must still fire first.
        entries = [queue.pop_entry() for _ in range(2)]
        assert [entry[0] for entry in entries] == [40, 40]
        assert [entry[2] for entry in entries] == [0, 1]
        assert entries[1][3] is transfer

    def test_shift_rejects_moving_backwards(self):
        queue = EventQueue()
        queue.schedule_transfer(10, object())
        queue.pop_entry()
        with pytest.raises(SimulationError):
            queue.shift_transfers(5, 10)
        with pytest.raises(SimulationError):
            queue.shift_transfers(15, -1)

    def test_shift_refuses_to_overtake_generic_events(self):
        queue = EventQueue()
        queue.schedule(20, lambda: None)
        queue.schedule_transfer(10, object())
        with pytest.raises(SimulationError):
            queue.shift_transfers(25, 30)

    # ``_generic_times`` is the side heap the probe's generic bail reads: its
    # head is the earliest pending generic deadline.
    def test_next_generic_time_tracks_generic_entries_only(self):
        queue = EventQueue()
        assert not queue._generic_times
        queue.schedule_transfer(5, object())
        assert not queue._generic_times  # transfers don't count
        queue.schedule(30, lambda: None)
        queue.schedule(10, lambda: None)
        assert queue._generic_times[0] == 10
        queue.pop_entry()  # transfer at 5
        assert queue._generic_times[0] == 10
        queue.pop_entry()  # generic at 10
        assert queue._generic_times[0] == 30
        queue.pop_entry()  # generic at 30
        assert not queue._generic_times

    def test_next_generic_time_survives_transfer_shift(self):
        queue = EventQueue()
        queue.schedule(100, lambda: None)
        queue.schedule_transfer(10, object())
        queue.shift_transfers(10, 40)
        # The shift retimes transfers only; the generic deadline is exact.
        assert queue._generic_times[0] == 100

    def test_next_generic_time_handles_equal_deadlines(self):
        queue = EventQueue()
        for _ in range(3):
            queue.schedule(50, lambda: None)
        queue.pop_entry()
        queue.pop_entry()
        assert queue._generic_times[0] == 50
        queue.pop_entry()
        assert not queue._generic_times


class TestSimulationConfig:
    def test_paper_defaults(self):
        assert PAPER_CONFIG.startup_latency_ns == 10_000
        assert PAPER_CONFIG.router_setup_ns == 40
        assert PAPER_CONFIG.channel_latency_ns == 10
        assert PAPER_CONFIG.message_length_flits == 128
        assert PAPER_CONFIG.input_buffer_depth == 1

    def test_with_overrides(self):
        config = PAPER_CONFIG.with_overrides(message_length_flits=16, trace=True)
        assert config.message_length_flits == 16
        assert config.trace
        assert PAPER_CONFIG.message_length_flits == 128  # original untouched

    def test_fast_path_defaults(self):
        # The fast path's patterns have no switches beyond ``fast_path``
        # itself.
        assert PAPER_CONFIG.fast_path
        assert not [f.name for f in fields(SimulationConfig) if f.name.startswith("coalesce")]

    def test_one_channel_period(self):
        # Every channel runs at ``channel_latency_ns``: neither the
        # configuration nor a link carries a latency of its own.
        latencies = [f.name for f in fields(SimulationConfig) if "latency" in f.name]
        assert latencies == ["startup_latency_ns", "channel_latency_ns"]
        assert not [slot for slot in LinkState.__slots__ if "latency" in slot]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"startup_latency_ns": -1},
            {"channel_latency_ns": 0},
            {"message_length_flits": 1},
            {"input_buffer_depth": 0},
            {"max_hops": 1},
            {"router_setup_ns": -5},
            {"output_buffer_depth": 0},
            # One boundary past each check: a negative period, a worm of no
            # flits, either buffer empty while the other is deep, no hops.
            {"channel_latency_ns": -7},
            {"message_length_flits": 0},
            {"input_buffer_depth": 0, "output_buffer_depth": 3},
            {"input_buffer_depth": 3, "output_buffer_depth": 0},
            {"max_hops": 0},
            {"startup_latency_ns": -10_000, "router_setup_ns": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**kwargs)


class TestMessage:
    def test_kind_and_normalisation(self):
        message = Message(0, source=9, destinations=[3, 1, 3], length_flits=4, created_ns=5)
        assert message.destinations == (1, 3)
        assert message.kind is MessageKind.MULTICAST
        assert message.num_destinations == 2
        unicast = Message(1, source=9, destinations=[2], length_flits=4, created_ns=0)
        assert unicast.kind is MessageKind.UNICAST

    def test_invalid_messages_rejected(self):
        with pytest.raises(WorkloadError):
            Message(0, source=1, destinations=[], length_flits=4, created_ns=0)
        with pytest.raises(WorkloadError):
            Message(0, source=1, destinations=[1], length_flits=4, created_ns=0)
        with pytest.raises(WorkloadError):
            Message(0, source=1, destinations=[2], length_flits=1, created_ns=0)

    def test_delivery_and_latency_accounting(self):
        message = Message(0, source=0, destinations=[1, 2], length_flits=4, created_ns=100)
        message.startup_began_ns = 150
        assert message.record_delivery(1, 500) is False
        assert message.record_delivery(2, 900) is True
        assert message.is_complete
        assert message.completed_ns == 900
        assert message.latency_from_creation_ns == 800
        assert message.latency_from_startup_ns == 750
        # Duplicate delivery does not change the completion time.
        message.record_delivery(1, 1000)
        assert message.completed_ns == 900

    def test_delivery_to_wrong_destination_rejected(self):
        message = Message(0, source=0, destinations=[1], length_flits=4, created_ns=0)
        with pytest.raises(WorkloadError):
            message.record_delivery(7, 10)

    def test_latencies_none_before_completion(self):
        message = Message(0, source=0, destinations=[1], length_flits=4, created_ns=0)
        assert message.latency_from_creation_ns is None
        assert message.latency_from_startup_ns is None


class TestStatsZeroTimestamps:
    def test_record_message_completing_at_t0(self):
        """A message created, started and completed at t=0 records an
        all-zero timeline — 0 is a real timestamp, not "unset"."""
        from repro.simulator.stats import SimulationStats

        message = Message(0, source=0, destinations=[1], length_flits=4, created_ns=0)
        message.startup_began_ns = 0
        assert message.record_delivery(1, 0) is True
        record = SimulationStats().record_message(message)
        assert record.startup_began_ns == 0
        assert record.completed_ns == 0
        assert record.latency_from_creation_ns == 0
        assert record.latency_from_startup_ns == 0

    def test_record_message_never_rewrites_a_zero_startup(self):
        """Regression: the falsy-`or` fallback rewrote ``startup_began_ns=0``
        to ``created_ns`` — a recorded timestamp must be reported verbatim;
        only ``None`` means "unset" and falls back."""
        from repro.simulator.stats import SimulationStats

        message = Message(0, source=0, destinations=[1], length_flits=4, created_ns=4)
        message.startup_began_ns = 0
        message.record_delivery(1, 8)
        record = SimulationStats().record_message(message)
        assert record.startup_began_ns == 0  # the old code reported 4 here
        assert record.latency_from_startup_ns == 8

    def test_record_message_falls_back_only_on_none(self):
        from repro.simulator.stats import SimulationStats

        message = Message(0, source=0, destinations=[1], length_flits=4, created_ns=4)
        message.record_delivery(1, 10)  # startup_began_ns stays None
        record = SimulationStats().record_message(message)
        assert record.startup_began_ns == 4  # created_ns fallback
        assert record.completed_ns == 10
