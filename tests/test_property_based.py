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
* the sweep-store merge (:func:`repro.sweeps.store.merge_stores`) is
  idempotent, order-insensitive for disjoint stores, last-row-wins on key
  collisions, rejects rows computed under a different code salt, and
  recovers a source store's truncated tail (a shard host killed
  mid-append).
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.multicast import build_multicast_plan
from repro.core.spam import SpamRouting
from repro.errors import SweepError
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import WormholeSimulator
from repro.spanning.ancestry import Ancestry, node_mask
from repro.spanning.labeling import label_channels
from repro.spanning.tree import bfs_spanning_tree
from repro.sweeps import ResultStore, SweepPointResult, SweepPointSpec, merge_stores
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


# Sweep-store merge invariants ----------------------------------------------
#
# Stores here are synthetic: rows are built directly (no simulation), so
# hypothesis can drive many store shapes cheaply.  Each example builds its
# stores in a private temp directory (hypothesis re-runs the test body many
# times per test, so the per-test tmp_path fixture cannot be used).

_MERGE_BASE_SPEC = SweepPointSpec(
    workload_kind="single-multicast",
    network_size=16,
    topology_seed=3,
    message_length_flits=16,
    workload_params=(("num_destinations", 4), ("samples", 1)),
    workload_seed=0,
    x=4.0,
)

#: A store's contents as {seed: latency}: which points it holds and with
#: what (synthetic) observation — enough to exercise every merge path.
store_contents = st.dictionaries(
    st.integers(min_value=0, max_value=30),
    st.floats(min_value=0.5, max_value=9.5, allow_nan=False, width=16),
    max_size=8,
)

MERGE_SETTINGS = settings(max_examples=30, deadline=None)


def _merge_result(seed: int, latency: float) -> SweepPointResult:
    return SweepPointResult(
        spec=replace(_MERGE_BASE_SPEC, workload_seed=seed),
        latencies_us=(latency,),
        metrics=(("tree_root", 0),),
    )


def _build_store(root: Path, contents: dict[int, float], **kwargs) -> ResultStore:
    store = ResultStore(root, **kwargs)
    store.root.mkdir(parents=True, exist_ok=True)  # even when left empty
    for seed, latency in sorted(contents.items()):
        store.put(_merge_result(seed, latency))
    store.flush_index()
    return store


def _store_bytes(root: Path) -> bytes:
    """``results.jsonl`` contents; an empty (row-less) store reads as b""."""
    path = root / "results.jsonl"
    return path.read_bytes() if path.exists() else b""


def _visible(store: ResultStore) -> dict[int, float]:
    """The store's winning rows as {seed: latency}."""
    return {
        result.spec.workload_seed: result.latencies_us[0]
        for result in store.iter_results()
    }


@MERGE_SETTINGS
@given(dst_contents=store_contents, src_contents=store_contents)
def test_merge_is_idempotent(dst_contents, src_contents):
    """Merging the same source twice changes nothing — not even the bytes
    of ``results.jsonl`` (identical rows are skipped, not re-appended)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = _build_store(tmp / "src", src_contents)
        dst = _build_store(tmp / "dst", dst_contents)
        merge_stores(dst, src)
        once = _store_bytes(tmp / "dst")
        report = merge_stores(dst, src)
        assert _store_bytes(tmp / "dst") == once
        assert (report.appended, report.replaced) == (0, 0)


@MERGE_SETTINGS
@given(
    contents_a=store_contents,
    contents_b=store_contents,
    contents_c=store_contents,
)
def test_merge_order_insensitive_for_disjoint_stores(contents_a, contents_b, contents_c):
    """Disjoint sources merged in any order produce the same visible
    {key: row} mapping (file order differs; lookups don't)."""
    contents_b = {seed + 100: value for seed, value in contents_b.items()}
    contents_c = {seed + 200: value for seed, value in contents_c.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stores = [
            _build_store(tmp / name, contents)
            for name, contents in (("a", contents_a), ("b", contents_b), ("c", contents_c))
        ]
        merge_stores(tmp / "fwd", *stores)
        merge_stores(tmp / "rev", *reversed(stores))
        expected = {**contents_a, **contents_b, **contents_c}
        assert _visible(ResultStore(tmp / "fwd")) == expected
        assert _visible(ResultStore(tmp / "rev")) == expected


@MERGE_SETTINGS
@given(
    shared=st.dictionaries(
        st.integers(min_value=0, max_value=10),
        st.tuples(
            st.floats(min_value=0.5, max_value=9.5, allow_nan=False, width=16),
            st.floats(min_value=10.5, max_value=19.5, allow_nan=False, width=16),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_merge_last_row_wins_on_collisions(shared):
    """When sources collide on a key with different content, the row from
    the *later* source wins lookups in the merged store."""
    first = {seed: values[0] for seed, values in shared.items()}
    second = {seed: values[1] for seed, values in shared.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src_a = _build_store(tmp / "a", first)
        src_b = _build_store(tmp / "b", second)
        report = merge_stores(tmp / "dst", src_a, src_b)
        assert _visible(ResultStore(tmp / "dst")) == second
        assert report.replaced == len(shared)


@MERGE_SETTINGS
@given(src_contents=store_contents)
def test_merge_rejects_foreign_code_salt(src_contents):
    """Every row computed under a different code salt is rejected — never
    silently mixed into a store of current-code results."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = _build_store(tmp / "src", src_contents or {0: 1.0}, code_salt="foreign-v0")
        with pytest.raises(SweepError, match="foreign-v0"):
            merge_stores(tmp / "dst", src)


@MERGE_SETTINGS
@given(
    src_contents=store_contents,
    tail=st.sampled_from([b"{", b'{"key": "dead', b'{"key": "beef"}']),
)
def test_merge_recovers_truncated_source_tail(src_contents, tail):
    """A source store whose host died mid-append (truncated or
    newline-less trailing line) merges its valid prefix."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = _build_store(tmp / "src", src_contents)
        with open(src.results_path, "ab") as handle:
            handle.write(tail)
        report = merge_stores(tmp / "dst", ResultStore(tmp / "src"))
        assert _visible(ResultStore(tmp / "dst")) == src_contents
        assert report.appended == len(src_contents)


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
        assert 1 <= message.hops <= config.max_hops


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
    length=st.sampled_from([8, 32]),
    channel_latency_ns=st.sampled_from([7, 10, 13]),
)
def test_fast_path_matches_reference_at_any_channel_period(
    params, workload_seed, num_messages, length, channel_latency_ns
):
    """The fast path is bit-identical to the per-flit reference engine on
    every observable, on random irregular networks at channel periods other
    than the paper's 10 ns too: the probe window is one period, whatever
    its length, and submit times need not sit on the period grid."""
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

    fingerprints = []
    for fast in (True, False):
        config = SimulationConfig(
            message_length_flits=length,
            trace=True,
            collect_channel_stats=True,
            channel_latency_ns=channel_latency_ns,
            fast_path=fast,
        )
        simulator = WormholeSimulator(network, spam, config)
        for source, destinations, at_ns in specs:
            simulator.submit_message(source, destinations, at_ns=at_ns)
        stats = simulator.run()
        fingerprints.append(
            (
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
        )
    assert fingerprints[0] == fingerprints[1]
