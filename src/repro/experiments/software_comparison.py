"""SPAM versus software (unicast-based) multicast.

The paper's §4 quantifies the advantage of hardware-supported multicast by
comparing SPAM's measured broadcast latency against the *theoretical lower
bound* of software multicast, ``ceil(log2(d+1)) * t_startup``: "SPAM incurs a
latency of under 14 µs for a single broadcast in a 256 node network.  In
contrast, the theoretical lower bound for software-based multicast ...
impl[ies] a lower bound of 90 µs in this case; a more than six-fold
difference."

This driver reproduces that comparison and strengthens it by also *running*
the software scheme: a binomial-tree unicast-based multicast executed on the
same flit-level simulator on top of classic up*/down* unicast routing, so the
measured (not just bounded) software latency is reported as well.

Each destination count is one ``"software-comparison"`` sweep point
(:mod:`repro.sweeps.spec` hosts the evaluator, including the executable
binomial baseline), so the comparison caches, resumes and parallelises like
every other experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sweeps import SweepPointSpec, run_software_multicast_once, run_sweep
from .common import ExperimentScale, current_scale

__all__ = [
    "SoftwareComparisonConfig",
    "software_comparison_specs",
    "run_software_comparison",
    "run_software_multicast_once",
]


@dataclass
class SoftwareComparisonConfig:
    """Parameters of the SPAM vs software-multicast comparison."""

    network_size: int = 256
    destination_counts: tuple[int, ...] = (8, 32, 128, 255)
    scale: ExperimentScale | None = None
    topology_seed: int = 7
    workload_seed: int = 31
    #: Also execute the binomial software multicast on the simulator (slower
    #: but turns the bound comparison into a measured comparison).
    run_software_baseline: bool = True

    def resolved_scale(self) -> ExperimentScale:
        return self.scale or current_scale()


def software_comparison_specs(
    config: SoftwareComparisonConfig | None = None,
) -> list[SweepPointSpec]:
    """One sweep spec per destination count of the §4 comparison."""
    config = config or SoftwareComparisonConfig()
    scale = config.resolved_scale()
    specs: list[SweepPointSpec] = []
    for count in config.destination_counts:
        count = min(count, config.network_size - 1)
        specs.append(
            SweepPointSpec(
                workload_kind="software-comparison",
                network_size=config.network_size,
                topology_seed=config.topology_seed,
                message_length_flits=scale.message_length_flits,
                workload_params=(
                    ("num_destinations", count),
                    ("samples", max(1, scale.samples_per_point // 2)),
                    ("run_software_baseline", config.run_software_baseline),
                ),
                workload_seed=config.workload_seed + count,
                label="software-comparison",
                x=count,
            )
        )
    return specs


def run_software_comparison(config: SoftwareComparisonConfig | None = None) -> list[dict]:
    """Run the comparison and return one result row per destination count.

    Each row contains the measured SPAM latency, the software lower bound,
    the measured software (binomial) latency when enabled, and the resulting
    speedup factors.
    """
    config = config or SoftwareComparisonConfig()
    outcome = run_sweep(software_comparison_specs(config))
    return [result.metrics_dict() for result in outcome.results]
