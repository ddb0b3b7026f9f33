"""Unit tests for the simulator's building blocks (flits, buffers, OCRQs,
event queue, configuration, messages)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.simulator.buffers import FlitBuffer
from repro.simulator.config import PAPER_CONFIG, SimulationConfig
from repro.simulator.events import EventQueue
from repro.simulator.flit import Flit, FlitKind
from repro.simulator.links import LinkState
from repro.simulator.message import Message, MessageKind
from repro.simulator.ocrq import OutputChannelRequestQueue


class TestFlitBuffer:
    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            FlitBuffer(0)

    def test_replace_contents_refills_the_same_deque(self):
        """A worm segment keeps a reference to its input buffer's deque, so
        a replacement refills that deque slot by slot; the replacement may
        be computed from the flits it replaces, and must hold as many."""
        buffer = FlitBuffer(2)
        slots = buffer._slots
        slots.extend([Flit(FlitKind.BODY, 0, 1), Flit(FlitKind.BODY, 0, 2)])
        buffer.replace_contents(Flit(flit.kind, 0, flit.seq + 3) for flit in slots)
        assert buffer._slots is slots
        assert [flit.seq for flit in slots] == [4, 5]
        with pytest.raises(SimulationError):
            buffer.replace_contents([slots[0]])


class _FakeSegment:
    def __init__(self, mid):
        self.message = type("M", (), {"mid": mid})()

    def try_acquire(self):  # pragma: no cover - not exercised here
        pass


class TestOcrq:
    def test_fifo_and_head(self):
        ocrq = OutputChannelRequestQueue()
        a, b, c = _FakeSegment(1), _FakeSegment(2), _FakeSegment(3)
        assert ocrq.is_empty and ocrq.head() is None
        ocrq.enqueue(a)
        ocrq.enqueue(b)
        ocrq.enqueue(c)
        assert ocrq.head() is a
        assert ocrq.waiting_message_ids() == (1, 2, 3)
        ocrq.pop_head(a)
        assert ocrq.head() is b
        assert ocrq.waiting() == (b, c)
        ocrq.pop_head(b)
        ocrq.pop_head(c)
        assert ocrq.is_empty and ocrq.head() is None

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
        a, b, c = _FakeSegment(1), _FakeSegment(2), _FakeSegment(3)
        ocrq.enqueue(a)
        ocrq.enqueue(b)
        ocrq.enqueue(c)
        ocrq.remove(b)
        assert ocrq.waiting() == (a, c)
        assert ocrq.head() is a
        ocrq.remove(a)
        assert ocrq.head() is c
        assert len(ocrq) == 1
        with pytest.raises(SimulationError):
            ocrq.remove(b)


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue(10)
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
        queue = EventQueue(10)
        seen = []
        for index in range(5):
            queue.schedule(7, lambda i=index: seen.append(i))
        while len(queue):
            queue.pop_entry()[3]()
        assert seen == [0, 1, 2, 3, 4]

    def test_scheduling_in_the_past_rejected(self):
        queue = EventQueue(10)
        queue.schedule(10, lambda: None)
        queue.pop_entry()
        with pytest.raises(SimulationError):
            queue.schedule(5, lambda: None)

    def test_schedule_after_and_next_time(self):
        queue = EventQueue(10, start_ns=100)
        queue.schedule_after(50, lambda: None)
        assert len(queue) == 1
        assert queue.pop_entry()[0] == 150

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue(10).pop_entry()


class TestEventQueueTransferEntries:
    """The FIFO lane of transfer entries and worm tokens: every transfer
    completes one channel period (here 10 ns) after it is scheduled, and
    pops interleave with generic events in ``(time, seq)`` order."""

    def test_transfer_entries_are_counted(self):
        queue = EventQueue(10)
        marker, later = object(), object()
        queue.schedule(5, lambda: None)
        queue.schedule_transfer(marker)
        assert len(queue) == 2
        time_ns, _seq, kind, payload = queue.pop_entry()
        assert (time_ns, kind) == (5, 0)
        queue.schedule_transfer(later)  # one period after the new clock
        assert len(queue) == 2
        entries = [queue.pop_entry() for _ in range(2)]
        assert [(entry[0], entry[2]) for entry in entries] == [(10, 1), (15, 1)]
        assert entries[0][3] is marker and entries[1][3] is later
        assert len(queue) == 0

    def test_advance_to_moves_to_boundary_only(self):
        queue = EventQueue(10)
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
        queue = EventQueue(10, start_ns=150)
        queue.schedule(180, lambda: None)
        queue.schedule_transfer(object())  # completes at 160
        with pytest.raises(SimulationError, match="pending event at 160 ns"):
            queue.advance_to(170)  # nor past a pending transfer
        queue.advance_to(160)
        assert queue.now == 160

    def test_token_folds_a_block_and_unfolds_in_place(self):
        """A worm token replaces the block of transfers at the lane's tail
        under the block's time and first ``seq``; unfolding puts the block
        back where the token stood, under the token's ``seq``."""
        queue = EventQueue(10)
        before, first, second, after = object(), object(), object(), object()
        queue.schedule_transfer(before)
        queue.advance_to(5)
        queue.schedule_transfer(first)
        queue.schedule_transfer(second)
        token = object()
        queue.fold_transfers(2, token)
        assert len(queue) == 2
        assert queue._lane[-1] == (15, 1, 2, token)
        queue.schedule_transfer(after)
        queue.unfold_tokens(lambda folded: [first, second] if folded is token else [])
        entries = [queue.pop_entry() for _ in range(4)]
        assert [entry[:3] for entry in entries] == [(10, 0, 1), (15, 1, 1), (15, 1, 1), (15, 3, 1)]
        assert [entry[3] for entry in entries] == [before, first, second, after]

    def test_token_folds_a_block_that_another_entry_follows(self):
        """A drain token folds the block in front of the tail's transfer:
        the following entry keeps its place behind the token, and unfolding
        puts the block back in front of it under the token's ``seq``."""
        queue = EventQueue(10)
        first, second, tail = object(), object(), object()
        queue.schedule_transfer(first)
        queue.schedule_transfer(second)
        queue.schedule_transfer(tail)
        token = object()
        queue.fold_transfers(2, token, following=1)
        assert list(queue._lane) == [(10, 0, 2, token), (10, 2, 1, tail)]
        queue.unfold_tokens(lambda folded: [first, second])
        entries = [queue.pop_entry() for _ in range(3)]
        assert [entry[:3] for entry in entries] == [(10, 0, 1), (10, 0, 1), (10, 2, 1)]
        assert [entry[3] for entry in entries] == [first, second, tail]

    def test_rescheduled_token_fires_after_an_earlier_generic_on_a_tie(self):
        """A token re-appended one period later takes one fresh ``seq``, so
        a generic event scheduled before it at the same time fires first,
        as it would before the transfers the token stands for."""
        queue = EventQueue(10)
        token = object()
        queue.schedule_transfer(object())
        queue.fold_transfers(1, token)
        queue.pop_entry()
        queue.schedule(20, lambda: None)
        queue.schedule_token(token)
        entries = [queue.pop_entry() for _ in range(2)]
        assert [entry[:3:2] for entry in entries] == [(20, 0), (20, 2)]
        assert entries[1][3] is token

    # The generic heap's head is the earliest pending generic deadline.
    def test_next_generic_time_tracks_generic_entries_only(self):
        queue = EventQueue(10)
        assert not queue._heap
        queue.schedule_transfer(object())
        assert not queue._heap  # transfers don't count
        queue.schedule(30, lambda: None)
        queue.schedule(20, lambda: None)
        assert queue._heap[0][0] == 20
        queue.pop_entry()  # transfer at 10
        assert queue._heap[0][0] == 20
        queue.pop_entry()  # generic at 20
        assert queue._heap[0][0] == 30
        queue.pop_entry()  # generic at 30
        assert not queue._heap

    def test_next_generic_time_handles_equal_deadlines(self):
        queue = EventQueue(10)
        for _ in range(3):
            queue.schedule(50, lambda: None)
        queue.pop_entry()
        queue.pop_entry()
        assert queue._heap[0][0] == 50
        queue.pop_entry()
        assert not queue._heap


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
        # The fast path has no switch beyond ``fast_path`` itself.
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
            {"router_setup_ns": -5},
            {"output_buffer_depth": 0},
            # One boundary past each check: a negative period, a worm of no
            # flits, either buffer empty while the other is deep.
            {"channel_latency_ns": -7},
            {"message_length_flits": 0},
            {"input_buffer_depth": 0, "output_buffer_depth": 3},
            {"input_buffer_depth": 3, "output_buffer_depth": 0},
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
