"""The sweep spec layer: self-contained descriptions of simulation points.

Every data point of the paper's evaluation — a Figure 2 single multicast, a
Figure 3 mixed-traffic point, a §4 software-comparison measurement, an
ablation variant over roots/selection/buffers/partitioning — is an
independent simulation that can be described by a small frozen, picklable,
hashable record: a :class:`SweepPointSpec`.  The orchestrator
(:mod:`repro.sweeps.scheduler`) ships those records to worker processes and
the content-addressed store (:mod:`repro.sweeps.store`) keys results by a
stable hash of them, so *everything* that influences a point's result must
live in the spec (and nothing else may).

Worker processes rebuild networks and routing state from the spec's
parameters rather than receiving live objects; :func:`evaluate_spec` is the
single evaluation path shared by sequential runs, process pools and the
figure and ablation runners.  Each process keeps a small cache of SPAM
skeletons (network, spanning tree, channel labelling, ancestry) keyed by
``(network_size, topology_seed, root_strategy)``, so every point of a
series after the first skips the construction.

Workload kinds
--------------
``"single-multicast"``
    Figure 2 style: independent multicasts on an idle network; latency
    measured from startup.  Also carries the buffer/selection/root ablations
    through ``sim_overrides`` / ``selection`` / ``root_strategy``.
``"mixed"``
    Figure 3 style: 90 % unicast / 10 % multicast traffic with Poisson or
    negative-binomial arrivals (``workload_params["arrival"]``); latency
    measured from creation so source queueing is included.
``"software-comparison"``
    §4: measured SPAM latency vs the software-multicast lower bound, plus an
    optionally *executed* binomial-tree software baseline on up*/down*
    unicast routing.  Scalar results land in ``metrics``.
``"partitioned-multicast"``
    §5 destination partitioning: one logical broadcast split into ``groups``
    worms submitted at the same instant; the latency is the completion time
    of the whole logical broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..analysis.bounds import compare_against_bound
from ..core.partition import partition_destinations
from ..core.selection import DistanceToTargetSelection, make_selection
from ..core.spam import SpamRouting
from ..errors import ZeroDeliveryError
from ..routing.unicast_multicast import UnicastMulticastScheduler
from ..routing.updown import UpDownRouting
from ..simulator.config import SimulationConfig
from ..simulator.engine import WormholeSimulator
from ..topology.irregular import lattice_irregular_network
from ..traffic.arrivals import make_arrival_process
from ..traffic.patterns import uniform_destinations, uniform_source
from ..traffic.workload import mixed_traffic_workload, single_multicast_workload

__all__ = [
    "SweepPointSpec",
    "SweepPointResult",
    "WORKLOAD_KINDS",
    "evaluate_spec",
    "run_software_multicast_once",
    "spec_from_dict",
    "shard_specs",
    "parse_shard",
]


@dataclass(frozen=True)
class SweepPointSpec:
    """A self-contained, picklable, hashable description of one sweep point.

    Attributes
    ----------
    workload_kind:
        One of the kinds documented in the module docstring (the keys of
        :data:`WORKLOAD_KINDS`).
    network_size / topology_seed:
        Parameters of the paper-style irregular network the point runs on.
    message_length_flits:
        Worm length used by the simulation.
    workload_params:
        Keyword parameters of the workload, as a sorted-insertion tuple of
        ``(name, scalar)`` pairs so the spec stays hashable.  Which names are
        meaningful depends on ``workload_kind``.
    workload_seed:
        Seed of the workload builder (and of any per-point random draws).
    root_strategy / selection / selection_seed:
        SPAM construction knobs; ``selection_seed`` defaults to
        ``topology_seed`` when ``None`` (only the ``"random"`` selection
        strategy consumes it).
    sim_overrides:
        ``(field, value)`` overrides applied to the
        :class:`~repro.simulator.config.SimulationConfig` (e.g. buffer
        depths for the buffer ablation).
    label / x:
        Free-form identification of the point — the series label and x
        coordinate of the figure it belongs to — echoed back in the result
        so callers can reassemble series without relying on ordering.
    """

    workload_kind: str
    network_size: int
    topology_seed: int
    message_length_flits: int
    workload_params: tuple[tuple[str, object], ...]
    workload_seed: int
    root_strategy: str = "center"
    selection: str = "distance-to-lca"
    selection_seed: int | None = None
    sim_overrides: tuple[tuple[str, object], ...] = ()
    label: str = ""
    x: float = 0.0

    def params(self) -> dict[str, Any]:
        """``workload_params`` as a plain dict.

        Values are typed ``Any`` (not ``object``): callers immediately
        narrow them with ``int(...)`` / ``float(...)`` per workload kind.
        """
        return dict(self.workload_params)

    def as_dict(self) -> dict[str, object]:
        """JSON-serialisable view (tuples become lists); see
        :func:`spec_from_dict` for the inverse."""
        return {
            "workload_kind": self.workload_kind,
            "network_size": self.network_size,
            "topology_seed": self.topology_seed,
            "message_length_flits": self.message_length_flits,
            "workload_params": [[k, v] for k, v in self.workload_params],
            "workload_seed": self.workload_seed,
            "root_strategy": self.root_strategy,
            "selection": self.selection,
            "selection_seed": self.selection_seed,
            "sim_overrides": [[k, v] for k, v in self.sim_overrides],
            "label": self.label,
            "x": self.x,
        }

    def describe(self) -> str:
        """One-line human-readable identification (used in error messages)."""
        return (
            f"{self.workload_kind} point x={self.x} of series {self.label!r} "
            f"({self.network_size} switches, topology seed {self.topology_seed}, "
            f"workload seed {self.workload_seed})"
        )


def spec_from_dict(data: Mapping[str, object]) -> SweepPointSpec:
    """Rebuild a :class:`SweepPointSpec` from :meth:`SweepPointSpec.as_dict`."""
    kwargs: dict[str, Any] = dict(data)
    kwargs["workload_params"] = tuple((k, v) for k, v in kwargs.get("workload_params", ()))
    kwargs["sim_overrides"] = tuple((k, v) for k, v in kwargs.get("sim_overrides", ()))
    known = {f.name for f in fields(SweepPointSpec)}
    return SweepPointSpec(**{k: v for k, v in kwargs.items() if k in known})


# ----------------------------------------------------------------------
# Multi-host sharding
# ----------------------------------------------------------------------
def shard_specs(
    specs: Sequence[SweepPointSpec],
    index: int,
    count: int,
    code_salt: str | None = None,
) -> list[SweepPointSpec]:
    """Shard ``index`` (0-based) of ``count`` disjoint shards of ``specs``.

    Partitioning is by content, not position: a spec belongs to shard
    ``int(spec_key(spec), 16) % count``.  Consequences:

    * the ``count`` shards are a **disjoint cover** of any spec list — every
      spec lands in exactly one shard;
    * membership is **stable under spec-list reordering** (and under
      duplicates, drops or additions of *other* specs), so two hosts that
      build the list independently and run shards ``1/4`` and ``2/4`` never
      evaluate the same point twice and never miss one between them;
    * shards are only balanced statistically (hashes are uniform), not
      exactly — fine for the embarrassingly-parallel figure grids.

    ``code_salt`` must match across the participating hosts (they run the
    same code version, so the default salt does); it only rotates which
    shard a spec lands in, never the cover property.  Input order is
    preserved within the shard.
    """
    # Imported lazily: repro.sweeps.store imports this module at load time.
    from .store import spec_key

    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index must be in [0, {count}), got {index}")
    if count == 1:
        return list(specs)
    return [
        spec
        for spec in specs
        if int(spec_key(spec, code_salt), 16) % count == index
    ]


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a CLI-style ``"I/N"`` shard designator (1-based ``I``).

    Returns the ``(index, count)`` pair :func:`shard_specs` expects, with
    ``index`` converted to 0-based: ``"1/4"`` → ``(0, 4)``.
    """
    try:
        one_based, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise ValueError(
            f"shard designator must look like I/N (e.g. 2/4), got {text!r}"
        ) from None
    if count < 1 or not 1 <= one_based <= count:
        raise ValueError(
            f"shard designator {text!r} out of range: need 1 <= I <= N"
        )
    return one_based - 1, count


@dataclass(frozen=True)
class SweepPointResult:
    """The measurements of one :class:`SweepPointSpec`.

    ``latencies_us`` holds the per-message latency observations (every kind
    produces at least one); ``metrics`` holds named scalars for kinds whose
    natural result is a row (the software comparison's bound/speedup columns,
    the ablations' tree shape) as ``(name, value)`` pairs.
    """

    spec: SweepPointSpec
    latencies_us: tuple[float, ...]
    metrics: tuple[tuple[str, object], ...] = ()

    @property
    def mean_us(self) -> float:
        """Mean latency of the point.

        A point with no observations raises
        :class:`~repro.errors.ZeroDeliveryError` instead of returning a
        silent NaN (zero-delivery points indicate a broken workload or a
        simulation that never completed a message).
        """
        if not self.latencies_us:
            raise ZeroDeliveryError(
                f"sweep point delivered no messages: {self.spec.describe()}"
            )
        return sum(self.latencies_us) / len(self.latencies_us)

    def metrics_dict(self) -> dict[str, object]:
        """``metrics`` as a plain dict."""
        return dict(self.metrics)

    def metric(self, name: str):
        """Named scalar metric (raises ``KeyError`` when absent)."""
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(f"no metric {name!r} on point {self.spec.describe()}")


# ----------------------------------------------------------------------
# Shared construction helpers
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _skeleton(network_size: int, topology_seed: int, root_strategy: str) -> SpamRouting:
    """The network and SPAM skeleton of one key, with the default selection.

    The key fully determines the irregular network, the BFS spanning tree,
    the channel labelling and the ancestry relation; the selection function
    plays no part in any of them.  None of them changes during a simulation
    (per-run state lives on the simulator), so every point on the key in
    this process shares one build.  Both construction functions are looked
    up by name at call time, where ``benchmarks/e2e/tracing.py`` wraps them.
    """
    network = lattice_irregular_network(network_size, seed=topology_seed)
    return SpamRouting.build(network, root_strategy=root_strategy)


def _routing(spec: SweepPointSpec) -> SpamRouting:
    """The SPAM routing ``spec`` evaluates on.

    A ``distance-to-lca`` point uses the cached skeleton as is: that
    selection is a pure function of the network.  Any other selection is
    built fresh on the shared skeleton, so a stateful one (``random``)
    starts every point from its seed and never sees another point's RNG.
    """
    skeleton = _skeleton(spec.network_size, spec.topology_seed, spec.root_strategy)
    if spec.selection == DistanceToTargetSelection.name:
        return skeleton
    seed = spec.topology_seed if spec.selection_seed is None else spec.selection_seed
    return skeleton.with_selection(
        make_selection(spec.selection, skeleton.network, seed=seed)
    )


def _simulation_config(spec: SweepPointSpec) -> SimulationConfig:
    config = SimulationConfig(message_length_flits=spec.message_length_flits)
    if spec.sim_overrides:
        config = config.with_overrides(**dict(spec.sim_overrides))
    return config


def _run_latencies(
    network, routing, workload, config, from_creation: bool, telemetry: Any = None
) -> list[float]:
    """Run ``workload`` on a fresh simulator and return per-message latencies (µs).

    ``telemetry`` is an opaque wall-clock recorder (``repro.obs``) passed
    straight through to the engine; this module never reads it — the
    observables firewall (repro-lint R9) keeps telemetry out of every
    result constructed here.
    """
    simulator = WormholeSimulator(network, routing, config, telemetry=telemetry)
    workload.submit_to(simulator)
    stats = simulator.run()
    return stats.latencies_us(from_creation=from_creation)


def _require_latencies(spec: SweepPointSpec, latencies) -> tuple[float, ...]:
    values = tuple(latencies)
    if not values:
        raise ZeroDeliveryError(f"sweep point delivered no messages: {spec.describe()}")
    return values


def _tree_metrics(routing: SpamRouting) -> tuple[tuple[str, object], ...]:
    return (("tree_root", routing.tree.root), ("tree_height", routing.tree.height()))


# ----------------------------------------------------------------------
# Per-kind evaluators
# ----------------------------------------------------------------------
def _evaluate_single_multicast(
    spec: SweepPointSpec,
    telemetry: Any = None,
) -> SweepPointResult:
    routing = _routing(spec)
    network = routing.network
    params = spec.params()
    workload = single_multicast_workload(
        network,
        num_destinations=int(params["num_destinations"]),
        samples=int(params["samples"]),
        seed=spec.workload_seed,
    )
    latencies = _run_latencies(
        network,
        routing,
        workload,
        _simulation_config(spec),
        from_creation=False,
        telemetry=telemetry,
    )
    return SweepPointResult(
        spec=spec,
        latencies_us=_require_latencies(spec, latencies),
        metrics=_tree_metrics(routing),
    )


def _evaluate_mixed(
    spec: SweepPointSpec,
    telemetry: Any = None,
) -> SweepPointResult:
    routing = _routing(spec)
    network = routing.network
    params = spec.params()
    rate = float(params["rate_per_us"])
    arrival = str(params.get("arrival", "negative-binomial"))
    workload = mixed_traffic_workload(
        network,
        rate_per_us=rate,
        multicast_destinations=int(params["multicast_destinations"]),
        num_messages=int(params["num_messages"]),
        multicast_fraction=float(params.get("multicast_fraction", 0.1)),
        seed=spec.workload_seed,
        arrival_process=make_arrival_process(arrival, rate),
    )
    latencies = _run_latencies(
        network,
        routing,
        workload,
        _simulation_config(spec),
        from_creation=True,
        telemetry=telemetry,
    )
    return SweepPointResult(
        spec=spec,
        latencies_us=_require_latencies(spec, latencies),
        metrics=_tree_metrics(routing),
    )


def run_software_multicast_once(
    network,
    updown: UpDownRouting,
    source: int,
    destinations: list[int],
    sim_config,
    telemetry: Any = None,
) -> float:
    """Execute one binomial-tree software multicast and return its latency (µs).

    Every forwarding unicast pays the full startup latency at its sender,
    exactly as the software scheme would; the reported latency is the time
    from the source's first startup until the last destination has received
    the payload.
    """
    simulator = WormholeSimulator(network, updown, sim_config, telemetry=telemetry)
    scheduler = UnicastMulticastScheduler(source=source, destinations=tuple(destinations))
    last_delivery_ns = 0

    def on_delivery(message, destination, time_ns):
        nonlocal last_delivery_ns
        if message.metadata.get("software_multicast") is not True:
            return
        last_delivery_ns = max(last_delivery_ns, time_ns)
        for step in scheduler.on_delivery(destination):
            simulator.submit_message(
                step.sender,
                [step.recipient],
                metadata={"software_multicast": True, "phase": step.phase},
            )

    simulator.delivery_callbacks.append(on_delivery)
    for step in scheduler.initial_sends():
        simulator.submit_message(
            step.sender,
            [step.recipient],
            metadata={"software_multicast": True, "phase": step.phase},
        )
    simulator.run()
    if not scheduler.finished:
        raise RuntimeError("software multicast did not reach every destination")
    return last_delivery_ns / 1000.0


def _evaluate_software_comparison(
    spec: SweepPointSpec,
    telemetry: Any = None,
) -> SweepPointResult:
    spam = _routing(spec)
    network = spam.network
    params = spec.params()
    config = _simulation_config(spec)
    count = min(int(params["num_destinations"]), network.num_processors - 1)
    workload = single_multicast_workload(
        network,
        num_destinations=count,
        samples=int(params.get("samples", 1)),
        seed=spec.workload_seed,
    )
    latencies = _require_latencies(
        spec,
        _run_latencies(
            network, spam, workload, config, from_creation=False, telemetry=telemetry
        ),
    )
    spam_latency = sum(latencies) / len(latencies)
    comparison = compare_against_bound(
        count, spam_latency, startup_latency_us=config.startup_latency_ns / 1000.0
    )
    metrics = list(comparison.as_dict().items())
    if bool(params.get("run_software_baseline", True)):
        updown = UpDownRouting(network, spam.tree, spam.selection)
        rng = np.random.default_rng(spec.workload_seed)
        source = uniform_source(network, rng)
        destinations = uniform_destinations(network, source, count, rng)
        measured = run_software_multicast_once(
            network, updown, source, destinations, config, telemetry=telemetry
        )
        metrics.append(("software_measured_us", measured))
        metrics.append(("measured_speedup", measured / spam_latency))
    return SweepPointResult(spec=spec, latencies_us=latencies, metrics=tuple(metrics))


def _evaluate_partitioned_multicast(
    spec: SweepPointSpec,
    telemetry: Any = None,
) -> SweepPointResult:
    routing = _routing(spec)
    network = routing.network
    params = spec.params()
    config = _simulation_config(spec)
    count = min(int(params["num_destinations"]), network.num_processors - 1)
    rng = np.random.default_rng(spec.workload_seed)
    source = uniform_source(network, rng)
    destinations = uniform_destinations(network, source, count, rng)
    partitions = partition_destinations(
        routing.tree, destinations, int(params["groups"]), str(params.get("strategy", "contiguous"))
    )
    simulator = WormholeSimulator(network, routing, config, telemetry=telemetry)
    messages = [
        simulator.submit_message(source, part, at_ns=0, metadata={"group": index})
        for index, part in enumerate(partitions)
    ]
    simulator.run()
    completion_us = max(message.completed_ns for message in messages) / 1000.0
    return SweepPointResult(
        spec=spec,
        latencies_us=(completion_us,),
        metrics=_tree_metrics(routing)
        + (("groups", len(partitions)), ("worms", len(partitions))),
    )


#: Registry of workload kinds to their evaluators, each called as
#: ``(spec, telemetry)``.
WORKLOAD_KINDS: dict[str, Callable[[SweepPointSpec, Any], SweepPointResult]] = {
    "single-multicast": _evaluate_single_multicast,
    "mixed": _evaluate_mixed,
    "software-comparison": _evaluate_software_comparison,
    "partitioned-multicast": _evaluate_partitioned_multicast,
}


def evaluate_spec(spec: SweepPointSpec, telemetry: Any = None) -> SweepPointResult:
    """Run one sweep point to completion (executed inside worker processes).

    ``telemetry`` is an opaque ``repro.obs`` recorder forwarded to the
    point's engine(s); it never participates in spec identity, caching or
    the returned result.
    """
    evaluator = WORKLOAD_KINDS.get(spec.workload_kind)
    if evaluator is None:
        raise ValueError(
            f"unknown workload kind {spec.workload_kind!r} "
            f"(known: {sorted(WORKLOAD_KINDS)})"
        )
    return evaluator(spec, telemetry)
