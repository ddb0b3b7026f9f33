"""Ablation studies on SPAM's design choices.

The paper's §3 and §5 leave several knobs open — the selection function, the
spanning-tree root, the input-buffer depth, and the destination-partitioning
extension.  These ablations quantify each knob's effect with the same
single-multicast workload as Figure 2, so the ablation results are directly
comparable to the headline figure.

Each variant is one sweep point (the knobs map onto
:class:`~repro.sweeps.spec.SweepPointSpec` fields: ``sim_overrides`` for
buffer depths, ``selection``/``selection_seed`` and ``root_strategy`` for
the routing knobs, the ``"partitioned-multicast"`` workload kind for §5's
extension).  :func:`ablation_specs` lists every variant of the four
ablations, :func:`ablation_rows` assembles their rows from the point
results, and :func:`run_ablations` runs them through
:func:`repro.sweeps.run_sweep`, as the ``repro-spam ablations`` verb does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..sweeps import SweepPointSpec, run_sweep
from .common import SCALES, ExperimentScale

__all__ = ["AblationConfig", "ablation_specs", "ablation_rows", "run_ablations"]

#: Input and output buffer depths, in flits.  The paper (§5) conjectures
#: that deeper input buffers could further reduce latency while stressing
#: that correctness never needs more than one flit of buffering.
BUFFER_DEPTHS = (1, 2, 4, 8)
#: Selection functions; the paper's is ``"distance-to-lca"``.
SELECTIONS = ("distance-to-lca", "first-allowed", "random")
#: Spanning-tree root choices.
ROOT_STRATEGIES = ("center", "max-degree", "first")
#: Group counts of the §5 destination-partitioning extension: the
#: destination set is split into ``k`` groups of destinations contiguous in
#: tree order, and one worm per group leaves the source at the same instant.
#: Splitting trades extra startups for less root contention.
PARTITION_GROUPS = (1, 2, 4)
PARTITION_STRATEGY = "contiguous"


@dataclass
class AblationConfig:
    """Shared parameters of the ablations."""

    network_size: int = 64
    num_destinations: int = 32
    scale: ExperimentScale = SCALES["default"]
    topology_seed: int = 7
    workload_seed: int = 41


def ablation_specs(config: AblationConfig | None = None) -> list[SweepPointSpec]:
    """One sweep spec per variant: the buffer depths, the selection
    functions, the roots, then the partition group counts.  Each variant
    changes one field of the same single multicast."""
    config = config or AblationConfig()
    scale = config.scale
    count = min(config.num_destinations, config.network_size - 1)
    multicast = SweepPointSpec(
        workload_kind="single-multicast",
        network_size=config.network_size,
        topology_seed=config.topology_seed,
        message_length_flits=scale.message_length_flits,
        workload_params=(("num_destinations", count), ("samples", scale.samples_per_point)),
        workload_seed=config.workload_seed,
    )
    return [
        *(
            replace(
                multicast, label=f"buffer-depth-{depth}", x=depth,
                sim_overrides=(("input_buffer_depth", depth), ("output_buffer_depth", depth)),
            )
            for depth in BUFFER_DEPTHS
        ),
        *(
            replace(
                multicast, label=f"selection-{selection}", x=index,
                selection=selection, selection_seed=config.workload_seed,
            )
            for index, selection in enumerate(SELECTIONS)
        ),
        *(
            replace(multicast, label=f"root-{strategy}", x=index, root_strategy=strategy)
            for index, strategy in enumerate(ROOT_STRATEGIES)
        ),
        *(
            replace(
                multicast, label=f"partition-{groups}", x=groups,
                workload_kind="partitioned-multicast",
                workload_params=(
                    ("num_destinations", count),
                    ("groups", groups),
                    ("strategy", PARTITION_STRATEGY),
                ),
            )
            for groups in PARTITION_GROUPS
        ),
    ]


def ablation_rows(config: AblationConfig, points) -> dict[str, list[dict]]:
    """The four ablations' rows, keyed by ablation, from the point results
    of :func:`ablation_specs` in its order.  A partition row's latency is
    the time until the last destination of any group has been reached."""
    results = iter(points)
    # Each zip takes its variants first, so it stops at the last variant
    # without drawing the next ablation's first point.
    return {
        "buffer_depth": [
            {"buffer_depth": depth, "latency_us": result.mean_us}
            for depth, result in zip(BUFFER_DEPTHS, results)
        ],
        "selection": [
            {"selection": selection, "latency_us": result.mean_us}
            for selection, result in zip(SELECTIONS, results)
        ],
        "root": [
            {
                "root_strategy": strategy,
                "root": result.metric("tree_root"),
                "tree_height": result.metric("tree_height"),
                "latency_us": result.mean_us,
            }
            for strategy, result in zip(ROOT_STRATEGIES, results)
        ],
        "partition": [
            {
                "groups": result.metric("groups"),
                "strategy": PARTITION_STRATEGY,
                "latency_us": result.mean_us,
                "worms": result.metric("worms"),
            }
            for _, result in zip(PARTITION_GROUPS, results)
        ],
    }


def run_ablations(config: AblationConfig | None = None) -> dict[str, list[dict]]:
    """Run the four ablations and return their rows (:func:`ablation_rows`)."""
    config = config or AblationConfig()
    return ablation_rows(config, run_sweep(ablation_specs(config)).results)
