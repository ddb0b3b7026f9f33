"""Ablation studies on SPAM's design choices.

The paper's §3 and §5 leave several knobs open — the selection function, the
spanning-tree root, the input-buffer depth, and the destination-partitioning
extension.  These drivers quantify each knob's effect with the same
single-multicast workload as Figure 2, so the ablation results are directly
comparable to the headline figure.

Each variant is one sweep point (the knobs map onto
:class:`~repro.sweeps.spec.SweepPointSpec` fields: ``sim_overrides`` for
buffer depths, ``selection``/``selection_seed`` and ``root_strategy`` for
the routing knobs, the ``"partitioned-multicast"`` workload kind for §5's
extension), evaluated by :func:`repro.sweeps.run_sweep` on the same path
as every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sweeps import SweepPointSpec, run_sweep
from .common import SCALES, ExperimentScale

__all__ = [
    "AblationConfig",
    "run_buffer_depth_ablation",
    "run_selection_ablation",
    "run_root_ablation",
    "run_partition_ablation",
]


@dataclass
class AblationConfig:
    """Shared parameters of the ablation drivers."""

    network_size: int = 64
    num_destinations: int = 32
    scale: ExperimentScale = SCALES["default"]
    topology_seed: int = 7
    workload_seed: int = 41


def _ablation_spec(
    config: AblationConfig,
    label: str,
    x: float,
    workload_kind: str = "single-multicast",
    workload_params: tuple[tuple[str, object], ...] | None = None,
    sim_overrides: tuple[tuple[str, object], ...] = (),
    root_strategy: str = "center",
    selection: str = "distance-to-lca",
    selection_seed: int | None = None,
) -> SweepPointSpec:
    scale = config.scale
    count = min(config.num_destinations, config.network_size - 1)
    if workload_params is None:
        workload_params = (
            ("num_destinations", count),
            ("samples", scale.samples_per_point),
        )
    return SweepPointSpec(
        workload_kind=workload_kind,
        network_size=config.network_size,
        topology_seed=config.topology_seed,
        message_length_flits=scale.message_length_flits,
        workload_params=workload_params,
        workload_seed=config.workload_seed,
        root_strategy=root_strategy,
        selection=selection,
        selection_seed=selection_seed,
        sim_overrides=sim_overrides,
        label=label,
        x=x,
    )


def run_buffer_depth_ablation(
    depths: tuple[int, ...] = (1, 2, 4, 8),
    config: AblationConfig | None = None,
) -> list[dict]:
    """Effect of input/output buffer depth on single-multicast latency.

    The paper (§5) conjectures that larger input buffers could further
    reduce latency while stressing that correctness never requires more than
    one flit of buffering.
    """
    config = config or AblationConfig()
    specs = [
        _ablation_spec(
            config,
            label=f"buffer-depth-{depth}",
            x=depth,
            sim_overrides=(
                ("input_buffer_depth", depth),
                ("output_buffer_depth", depth),
            ),
        )
        for depth in depths
    ]
    outcome = run_sweep(specs)
    return [
        {"buffer_depth": depth, "latency_us": result.mean_us}
        for depth, result in zip(depths, outcome.results)
    ]


def run_selection_ablation(
    strategies: tuple[str, ...] = ("distance-to-lca", "first-allowed", "random"),
    config: AblationConfig | None = None,
) -> list[dict]:
    """Effect of the selection function on single-multicast latency."""
    config = config or AblationConfig()
    specs = [
        _ablation_spec(
            config,
            label=f"selection-{strategy}",
            x=index,
            selection=strategy,
            selection_seed=config.workload_seed,
        )
        for index, strategy in enumerate(strategies)
    ]
    outcome = run_sweep(specs)
    return [
        {"selection": strategy, "latency_us": result.mean_us}
        for strategy, result in zip(strategies, outcome.results)
    ]


def run_root_ablation(
    strategies: tuple[str, ...] = ("center", "max-degree", "first"),
    config: AblationConfig | None = None,
) -> list[dict]:
    """Effect of the spanning-tree root choice on single-multicast latency."""
    config = config or AblationConfig()
    specs = [
        _ablation_spec(
            config,
            label=f"root-{strategy}",
            x=index,
            root_strategy=strategy,
        )
        for index, strategy in enumerate(strategies)
    ]
    outcome = run_sweep(specs)
    return [
        {
            "root_strategy": strategy,
            "root": result.metric("tree_root"),
            "tree_height": result.metric("tree_height"),
            "latency_us": result.mean_us,
        }
        for strategy, result in zip(strategies, outcome.results)
    ]


def run_partition_ablation(
    group_counts: tuple[int, ...] = (1, 2, 4),
    strategy: str = "contiguous",
    config: AblationConfig | None = None,
) -> list[dict]:
    """The paper's §5 destination-partitioning extension.

    A broadcast-sized destination set is split into ``k`` groups of
    contiguous (tree-order) destinations; one multicast worm is sent per
    group, all submitted at the same instant from the same source.  The
    reported latency is the time until the last destination of *any* group
    has been reached (i.e. the completion of the whole logical broadcast).
    Splitting trades extra startups for less root contention.
    """
    config = config or AblationConfig()
    count = min(config.num_destinations, config.network_size - 1)
    specs = [
        _ablation_spec(
            config,
            label=f"partition-{groups}",
            x=groups,
            workload_kind="partitioned-multicast",
            workload_params=(
                ("num_destinations", count),
                ("groups", groups),
                ("strategy", strategy),
            ),
        )
        for groups in group_counts
    ]
    outcome = run_sweep(specs)
    return [
        {
            "groups": result.metric("groups"),
            "strategy": strategy,
            "latency_us": result.mean_us,
            "worms": result.metric("worms"),
        }
        for result in outcome.results
    ]
