"""Property-based tests (hypothesis) for the core invariants.

These tests generate random irregular topologies, random roots and random
destination sets and check the structural invariants the paper's proofs rely
on:

* the channel labelling is a partition (every channel has exactly one label,
  a channel and its reverse have opposite orientations);
* up channels and down channels are both acyclic sub-networks;
* the routing function always offers a legal channel and greedy routes
  terminate with monotone phases;
* multicast plans cover exactly the destination set with down-tree channels;
* the end-to-end simulator delivers every message (deadlock/livelock freedom
  under the full protocol) and latency accounting is consistent;
* the sweep store (:class:`repro.sweeps.store.ResultStore`) serves every
  key's last row, also after a run killed mid-append left a truncated or
  newline-less tail, and stays appendable afterwards, and two instances
  appending to one root both serve the last rows;
* the two-lane event queue (:class:`repro.simulator.events.EventQueue`)
  pops, ticks and fails exactly like one heap of every entry.
"""

from __future__ import annotations

import heapq
import tempfile
from dataclasses import replace
from pathlib import Path

import networkx as nx
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.multicast import build_multicast_plan
from repro.core.spam import SpamRouting
from repro.errors import SimulationError
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import _MAX_HOPS, WormholeSimulator
from repro.simulator.events import EventQueue
from repro.spanning.ancestry import Ancestry, node_mask
from repro.spanning.labeling import label_channels
from repro.spanning.tree import bfs_spanning_tree
from repro.sweeps import ResultStore, SweepPointResult, SweepPointSpec
from repro.topology.examples import line_network
from repro.topology.irregular import random_irregular_network

# Hypothesis strategy building blocks -------------------------------------

network_params = st.tuples(
    st.integers(min_value=4, max_value=14),   # switches
    st.integers(min_value=0, max_value=10),   # extra links
    st.integers(min_value=0, max_value=2**16),  # topology seed
)

SLOW_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
FAST_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_network(params):
    switches, extra, seed = params
    return random_irregular_network(switches, extra_links=extra, seed=seed)


def build_spam(params, root_index=0):
    network = build_network(params)
    switches = network.switches()
    root = switches[root_index % len(switches)]
    return network, SpamRouting.build(network, root=root)


# Labelling invariants -----------------------------------------------------


@FAST_SETTINGS
@given(params=network_params, root_index=st.integers(min_value=0, max_value=100))
def test_labeling_is_a_partition(params, root_index):
    network = build_network(params)
    switches = network.switches()
    root = switches[root_index % len(switches)]
    labeling = label_channels(network, bfs_spanning_tree(network, root))
    for channel in network.channels():
        label = labeling.label(channel)
        reverse = labeling.label(network.channel(channel.reverse_cid))
        assert label.orientation != reverse.orientation
        assert label.kind == reverse.kind
    counts = labeling.counts()
    assert sum(counts.values()) == network.num_channels


@FAST_SETTINGS
@given(params=network_params, root_index=st.integers(min_value=0, max_value=100))
def test_up_and_down_subnetworks_are_acyclic(params, root_index):
    network = build_network(params)
    switches = network.switches()
    root = switches[root_index % len(switches)]
    labeling = label_channels(network, bfs_spanning_tree(network, root))
    up_graph = nx.DiGraph()
    down_graph = nx.DiGraph()
    for channel in network.channels():
        if labeling.is_up(channel):
            up_graph.add_edge(channel.src, channel.dst)
        else:
            down_graph.add_edge(channel.src, channel.dst)
    assert nx.is_directed_acyclic_graph(up_graph)
    assert nx.is_directed_acyclic_graph(down_graph)


@FAST_SETTINGS
@given(params=network_params)
def test_extended_ancestors_contain_tree_ancestors(params):
    network = build_network(params)
    labeling = label_channels(network, bfs_spanning_tree(network, network.switches()[0]))
    ancestry = Ancestry(labeling)
    root = ancestry.tree.root
    for node in network.nodes():
        anc = ancestry.ancestor_mask(node)
        ext = ancestry.extended_ancestor_mask(node)
        assert ext & anc == anc
        assert ancestry.is_ancestor(root, node)
        assert ancestry.is_extended_ancestor(root, node)
        assert ancestry.is_ancestor(node, node)


# Routing invariants --------------------------------------------------------


@FAST_SETTINGS
@given(
    params=network_params,
    pair_seed=st.integers(min_value=0, max_value=2**16),
)
def test_unicast_routes_terminate_with_monotone_phases(params, pair_seed):
    network, spam = build_spam(params, root_index=pair_seed)
    processors = network.processors()
    source = processors[pair_seed % len(processors)]
    destination = processors[(pair_seed // 7 + 1) % len(processors)]
    if source == destination:
        destination = processors[(processors.index(source) + 1) % len(processors)]
    path = spam.unicast_route(source, destination)
    assert path[0].src == source
    assert path[-1].dst == destination
    assert len(path) <= 2 * network.num_nodes
    rank = 0
    for channel in path:
        label = spam.labeling.label(channel)
        new_rank = 0 if label.is_up else (1 if label.is_down_cross else 2)
        assert new_rank >= rank
        rank = max(rank, new_rank)
    # No channel is used twice.
    cids = [channel.cid for channel in path]
    assert len(set(cids)) == len(cids)


@FAST_SETTINGS
@given(
    params=network_params,
    dest_seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=10),
)
def test_multicast_plan_covers_exactly_destinations(params, dest_seed, count):
    network, spam = build_spam(params)
    processors = network.processors()
    source = processors[dest_seed % len(processors)]
    others = [p for p in processors if p != source]
    count = min(count, len(others))
    step = max(1, len(others) // count)
    destinations = others[::step][:count]
    plan = build_multicast_plan(network, spam.ancestry, source, destinations)
    assert plan.destinations == tuple(sorted(destinations))
    # The LCA is a tree ancestor of every destination.
    for dest in destinations:
        assert spam.ancestry.is_ancestor(plan.lca, dest)
    if not plan.is_unicast:
        covered = {
            channel.dst for channel in plan.branch_channels if network.is_processor(channel.dst)
        }
        assert covered == set(destinations)
        # Branch channels are tree edges oriented away from the root and are
        # all within the LCA's subtree.
        lca_subtree = spam.ancestry.subtree_mask(plan.lca)
        for channel in plan.branch_channels:
            assert spam.ancestry.tree.parent(channel.dst) == channel.src
            assert lca_subtree >> channel.dst & 1


# Sweep-store crash safety ----------------------------------------------------
#
# Rows here are synthetic: built directly (no simulation), so hypothesis can
# drive many store shapes cheaply.  Each example uses a private temp
# directory (hypothesis re-runs the test body many times per test, so the
# per-test tmp_path fixture cannot be used).

_STORE_BASE_SPEC = SweepPointSpec(
    workload_kind="single-multicast",
    network_size=16,
    topology_seed=3,
    message_length_flits=16,
    workload_params=(("num_destinations", 4), ("samples", 1)),
    workload_seed=0,
    x=4.0,
)


def _store_result(seed: int, latency: float) -> SweepPointResult:
    return SweepPointResult(
        spec=replace(_STORE_BASE_SPEC, workload_seed=seed),
        latencies_us=(latency,),
        metrics=(("tree_root", 0),),
    )


def _served(store: ResultStore, seeds) -> dict[int, float]:
    """The latency ``store`` serves for each seed's spec."""
    return {
        seed: store.get(replace(_STORE_BASE_SPEC, workload_seed=seed)).latencies_us[0]
        for seed in seeds
    }


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),
            st.floats(min_value=0.5, max_value=9.5, allow_nan=False, width=16),
        ),
        max_size=12,
    ),
    flush=st.booleans(),
    tail=st.sampled_from([b"", b"{", b'{"key": "dead', b'{"key": "beef"}']),
)
def test_store_serves_last_rows_after_a_killed_append(rows, flush, tail):
    """Rows put one by one, duplicate keys included, then the tail a run
    killed mid-append leaves (nothing, a cut-off row, or a complete row
    without its newline): a reopened store serves every key's last row,
    and a later ``put`` is readable after another reopen."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = ResultStore(root)
        for seed, latency in rows:
            store.put(_store_result(seed, latency))
        if flush:
            store.flush_index()
        root.mkdir(parents=True, exist_ok=True)
        with open(store.results_path, "ab") as handle:
            handle.write(tail)
        last = dict(rows)

        reopened = ResultStore(root)
        assert len(reopened) == len(last)
        assert _served(reopened, last) == last
        reopened.put(_store_result(11, 1.5))

        final = ResultStore(root)
        assert len(final) == len(last) + 1
        assert _served(final, [*last, 11]) == {**last, 11: 1.5}


@settings(max_examples=40, deadline=None)
@given(
    puts=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.5, max_value=9.5, allow_nan=False, width=16),
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_two_instances_on_one_root_serve_the_last_rows(puts):
    """Two store instances on one root (a process that opens one for a
    cold run and another for a warm run) put rows in any interleaving, each
    flushing its index or not: both instances and a fresh open serve every
    key's last row, however stale the index an instance last flushed."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        stores = [ResultStore(root), ResultStore(root)]
        last: dict[int, float] = {}
        for which, seed, latency, flush in puts:
            stores[which].put(_store_result(seed, latency))
            if flush:
                stores[which].flush_index()
            last[seed] = latency
        for store in [*stores, ResultStore(root)]:
            assert len(store) == len(last)
            assert _served(store, last) == last


# End-to-end simulation invariants -------------------------------------------


@SLOW_SETTINGS
@given(
    params=network_params,
    workload_seed=st.integers(min_value=0, max_value=2**16),
    num_messages=st.integers(min_value=1, max_value=12),
    length=st.sampled_from([2, 4, 16]),
)
def test_simulator_delivers_every_message(params, workload_seed, num_messages, length):
    import numpy as np

    network, spam = build_spam(params)
    config = SimulationConfig(message_length_flits=length)
    simulator = WormholeSimulator(network, spam, config)
    rng = np.random.default_rng(workload_seed)
    processors = network.processors()
    submitted = []
    for index in range(num_messages):
        source = processors[int(rng.integers(0, len(processors)))]
        others = [p for p in processors if p != source]
        k = int(rng.integers(1, min(6, len(others)) + 1))
        chosen = rng.choice(len(others), size=k, replace=False)
        destinations = [others[int(i)] for i in chosen]
        at_ns = int(rng.integers(0, 5_000))
        submitted.append(simulator.submit_message(source, destinations, at_ns=at_ns))
    stats = simulator.run()

    assert stats.messages_completed == num_messages
    for message in submitted:
        assert message.is_complete
        assert set(message.delivered_ns) == set(message.destinations)
        # Latency accounting: completion after startup, startup after creation.
        assert message.startup_began_ns >= message.created_ns
        assert message.completed_ns > message.startup_began_ns
        assert message.latency_from_creation_ns >= message.latency_from_startup_ns
        # A worm visits at least one switch per destination-reaching path and
        # never more switches than the hop-limit allows.
        assert 1 <= message.hops <= _MAX_HOPS


@FAST_SETTINGS
@given(
    switches=st.integers(min_value=2, max_value=6),
    channel_latency_ns=st.integers(min_value=1, max_value=40),
    router_setup_ns=st.integers(min_value=0, max_value=100),
    length=st.integers(min_value=2, max_value=64),
    fast_path=st.booleans(),
)
def test_idle_unicast_latency_is_closed_form_at_any_timing(
    switches, channel_latency_ns, router_setup_ns, length, fast_path
):
    """End to end along a line of switches through an idle network, the head
    pays one period per channel and one router setup per switch, and the
    other flits follow one period apart, whatever the period and setup."""
    network = line_network(switches)
    spam = SpamRouting.build(network, root=network.switches()[0])
    config = SimulationConfig(
        message_length_flits=length,
        channel_latency_ns=channel_latency_ns,
        router_setup_ns=router_setup_ns,
        fast_path=fast_path,
    )
    simulator = WormholeSimulator(network, spam, config)
    processors = network.processors()
    message = simulator.submit_message(processors[0], [processors[-1]])
    simulator.run()
    channels = switches + 1  # injection, the switch-to-switch links, consumption
    assert message.latency_from_startup_ns == (
        config.startup_latency_ns
        + channels * channel_latency_ns
        + switches * router_setup_ns
        + (length - 1) * channel_latency_ns
    )


@SLOW_SETTINGS
@given(
    params=network_params,
    workload_seed=st.integers(min_value=0, max_value=2**16),
    num_messages=st.integers(min_value=1, max_value=8),
    length=st.sampled_from([8, 32, 64]),
    channel_latency_ns=st.sampled_from([7, 10, 13]),
    input_depth=st.integers(min_value=1, max_value=3),
    output_depth=st.integers(min_value=1, max_value=3),
    windows=st.lists(st.integers(min_value=0, max_value=3_000), max_size=6),
)
def test_fast_path_matches_reference_at_any_channel_period(
    params,
    workload_seed,
    num_messages,
    length,
    channel_latency_ns,
    input_depth,
    output_depth,
    windows,
):
    """The fast path is bit-identical to the per-flit reference engine on
    every observable, on random irregular networks at channel periods other
    than the paper's 10 ns too, with input and output buffers one to three
    flits deep, and at every boundary of a run split into random ``run_for``
    windows (each of which materialises the live worm tokens); submit
    times need not sit on the period grid."""
    import numpy as np

    network, spam = build_spam(params)
    processors = network.processors()
    rng = np.random.default_rng(workload_seed)
    specs = []
    for _ in range(num_messages):
        source = processors[int(rng.integers(0, len(processors)))]
        others = [p for p in processors if p != source]
        k = int(rng.integers(1, min(4, len(others)) + 1))
        chosen = rng.choice(len(others), size=k, replace=False)
        specs.append(
            (source, [others[int(i)] for i in chosen], int(rng.integers(0, 2_000)))
        )

    def fingerprint(simulator, stats):
        return (
            {m: dict(msg.delivered_ns) for m, msg in simulator.messages.items()},
            simulator.trace.signature(),
            stats.flit_hops,
            stats.bubbles_created,
            stats.end_time_ns,
            [
                (rec.cid, rec.data_flits, rec.bubble_flits, rec.busy_ns)
                for rec in stats.channel_records
            ],
        )

    runs = []
    for fast in (True, False):
        config = SimulationConfig(
            message_length_flits=length,
            trace=True,
            collect_channel_stats=True,
            channel_latency_ns=channel_latency_ns,
            input_buffer_depth=input_depth,
            output_buffer_depth=output_depth,
            fast_path=fast,
        )
        simulator = WormholeSimulator(network, spam, config)
        for source, destinations, at_ns in specs:
            simulator.submit_message(source, destinations, at_ns=at_ns)
        boundaries = [fingerprint(simulator, simulator.run_for(window)) for window in windows]
        boundaries.append(fingerprint(simulator, simulator.run()))
        runs.append(boundaries)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# The two-lane event queue against one heap of every entry
# ---------------------------------------------------------------------------
class _OneHeapQueue:
    """Reference model of :class:`EventQueue`: one ``heapq`` of generic and
    transfer entries and tokens.  A token's payload is the tuple of the
    payloads it folded."""

    def __init__(self, period_ns: int) -> None:
        self.heap: list = []
        self.seq = 0
        self.period = period_ns
        self.now = 0

    def _push(self, time_ns, kind, payload):
        heapq.heappush(self.heap, (time_ns, self.seq, kind, payload))
        self.seq += 1

    def schedule(self, time_ns, payload):
        if time_ns < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time_ns} ns, current time is {self.now} ns"
            )
        self._push(time_ns, 0, payload)

    def schedule_transfer(self, payload):
        self._push(self.now + self.period, 1, payload)

    def schedule_token(self, token):
        self._push(self.now + self.period, 2, token)

    def foldable(self, count, following):
        """The lane block ``fold_transfers(count, ..., following)`` would
        fold, if it is one: transfers due at one time with consecutive
        ``seq`` values, followed by ``following`` lane entries."""
        lane = sorted(entry for entry in self.heap if entry[2])
        if len(lane) < count + following:
            return None
        block = lane[len(lane) - following - count : len(lane) - following]
        time_ns, first = block[0][:2]
        if any(
            entry[:3] != (time_ns, first + index, 1) for index, entry in enumerate(block)
        ):
            return None
        return block

    def fold_transfers(self, count, token, following=0):
        block = self.foldable(count, following)
        self.heap = [entry for entry in self.heap if entry not in block]
        self.heap.append((block[0][0], block[0][1], 2, token))
        heapq.heapify(self.heap)

    def lane_head(self):
        """The lane's earliest entry (a transfer or a token), if any."""
        return min((entry for entry in self.heap if entry[2]), default=None)

    def fold_head(self, token):
        head = self.lane_head()
        self.heap.remove(head)
        self.heap.append((head[0], head[1], 2, token))
        heapq.heapify(self.heap)

    def unfold_tokens(self, expand):
        entries = []
        for time_ns, seq, kind, payload in self.heap:
            if kind == 2:
                entries.extend((time_ns, seq, 1, folded) for folded in expand(payload))
            else:
                entries.append((time_ns, seq, kind, payload))
        self.heap = entries
        heapq.heapify(self.heap)

    def pop_entry(self):
        if not self.heap:
            raise SimulationError("pop from an empty event queue")
        entry = heapq.heappop(self.heap)
        self.now = entry[0]
        return entry

    def advance_to(self, time_ns):
        if time_ns <= self.now:
            return
        if self.heap and self.heap[0][0] < time_ns:
            raise SimulationError(
                f"cannot advance the clock to {time_ns} ns past a pending event "
                f"at {self.heap[0][0]} ns"
            )
        self.now = time_ns


#: An operation and its time argument as ``(periods, nudge)``: the offset
#: from the clock is ``periods`` channel periods plus ``nudge`` ns, so most
#: times land on the transfers' grid and ties between the two lanes are
#: common.
queue_operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "schedule",
                "schedule_transfer",
                "pop_entry",
                "advance_to",
                "fold_transfers",
                "fold_head",
                "schedule_token",
                "unfold_tokens",
            ]
        ),
        st.integers(min_value=-1, max_value=4),
        st.sampled_from([0, 0, 0, -1, 1]),
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(period_ns=st.sampled_from([2, 7, 10, 13]), operations=queue_operations)
# A transfer due on the deadline of a generic event scheduled after it.
@example(
    period_ns=10,
    operations=[("schedule_transfer", 0, 0), ("schedule", 1, 0)] + [("pop_entry", 0, 0)] * 2,
)
def test_two_lane_queue_matches_one_heap(period_ns, operations):
    """Random interleavings of scheduling, popping, clock advances, token
    folds (with and without a following entry), folds of the lane's head
    transfer, token re-appends and unfolds give the same pop order, clock
    and errors as one heap of every entry."""
    queue, model = EventQueue(period_ns), _OneHeapQueue(period_ns)
    for payload, (name, periods, nudge) in enumerate(operations):
        offset = periods * period_ns + nudge
        count, following = periods + 2, int(nudge == 1)
        if name == "fold_transfers":
            block = model.foldable(count, following)
            if block is None:
                continue
            token = tuple(entry[3] for entry in block)
        elif name == "fold_head":
            # Only a transfer with its own seq, as the engine folds: an
            # unfolded token's transfers share one, and their lane order is
            # one this model cannot hold once one of them changes kind.
            head = model.lane_head()
            if head is None or head[2] != 1 or sum(e[1] == head[1] for e in model.heap) > 1:
                continue
            token = (head[3],)
        outcomes = []
        for subject in (queue, model):
            try:
                if name == "schedule":
                    result = subject.schedule(subject.now + offset, payload)
                elif name == "schedule_transfer":
                    result = subject.schedule_transfer(payload)
                elif name == "fold_transfers":
                    result = subject.fold_transfers(count, token, following)
                elif name == "fold_head":
                    result = subject.fold_head(token)
                elif name == "schedule_token":
                    result = subject.schedule_token((payload,))
                elif name == "unfold_tokens":
                    result = subject.unfold_tokens(lambda folded: folded)
                elif name == "pop_entry":
                    time_ns, _seq, kind, popped = subject.pop_entry()
                    result = (time_ns, kind, popped)
                else:
                    result = subject.advance_to(subject.now + offset)
            except SimulationError as error:
                result = ("error", str(error))
            outcomes.append((result, subject.now))
        assert outcomes[0] == outcomes[1], (name, offset)
        assert len(queue) == len(model.heap)
