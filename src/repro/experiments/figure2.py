"""Figure 2: latency versus number of destinations for a single multicast.

The paper measures the latency of one multicast (no background traffic) as
the destination count sweeps from 1 to the network size, in 128- and
256-switch irregular networks.  The result is that "message latency is
essentially independent of the number of destinations and largely
independent of the size of the network": both curves are flat between
roughly 11 and 14 µs.

:func:`run_figure2` regenerates the figure as a
:class:`~repro.analysis.sweeps.SweepResult` with one series per network
size.  The latency reported is the paper's metric — elapsed time from
message startup at the source until the last flit reaches the last
destination.

Execution routes through :mod:`repro.sweeps`: :func:`figure2_specs` turns
the configuration into one :class:`~repro.sweeps.spec.SweepPointSpec` per
data point, :func:`~repro.sweeps.run_sweep` evaluates them (in parallel and
against a content-addressed result store when given ``workers=`` and
``store=``, as the ``figure2`` CLI verb does), and
:func:`figure2_result_from_points` reassembles the figure from the point
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.sweeps import SweepResult, sweep_result_from_points
from ..sweeps import SweepPointSpec, run_sweep
from .common import SCALES, ExperimentScale

__all__ = [
    "Figure2Config",
    "default_destination_counts",
    "figure2_specs",
    "figure2_result_from_points",
    "run_figure2",
]


def default_destination_counts(num_switches: int) -> list[int]:
    """Destination counts to sweep for a network of ``num_switches`` processors.

    The paper sweeps from 1 destination up to (nearly) a full broadcast; we
    use a geometric-ish ladder (1, 2, 4, ... , n-1) capped at 8 values so
    that the default benchmark stays affordable while still covering the
    full range of the x-axis.
    """
    counts: list[int] = []
    value = 1
    while value < num_switches - 1 and len(counts) < 7:
        counts.append(value)
        value *= 2
    counts.append(num_switches - 1)  # full broadcast (every other processor)
    return sorted(set(counts))


@dataclass
class Figure2Config:
    """Parameters of the Figure 2 reproduction."""

    network_sizes: tuple[int, ...] = (128, 256)
    destination_counts: dict[int, list[int]] = field(default_factory=dict)
    scale: ExperimentScale = SCALES["default"]
    topology_seed: int = 7
    workload_seed: int = 11
    root_strategy: str = "center"

    def counts_for(self, num_switches: int) -> list[int]:
        if num_switches in self.destination_counts:
            return self.destination_counts[num_switches]
        return default_destination_counts(num_switches)


def figure2_specs(config: Figure2Config | None = None) -> list[SweepPointSpec]:
    """One sweep spec per Figure-2 data point, series by series."""
    config = config or Figure2Config()
    scale = config.scale
    specs: list[SweepPointSpec] = []
    for size in config.network_sizes:
        for count in config.counts_for(size):
            specs.append(
                SweepPointSpec(
                    workload_kind="single-multicast",
                    network_size=size,
                    topology_seed=config.topology_seed,
                    message_length_flits=scale.message_length_flits,
                    workload_params=(
                        ("num_destinations", count),
                        ("samples", scale.samples_per_point),
                    ),
                    workload_seed=config.workload_seed + count,
                    root_strategy=config.root_strategy,
                    label=f"{size}-switch network",
                    x=count,
                )
            )
    return specs


def figure2_result_from_points(config: Figure2Config, points) -> SweepResult:
    """Reassemble the Figure-2 :class:`SweepResult` from point results."""
    scale = config.scale
    return sweep_result_from_points(
        name="figure2-latency-vs-destinations",
        x_label="destinations",
        y_label="latency_us",
        points=points,
        parameters={
            "scale": scale.name,
            "message_length_flits": scale.message_length_flits,
            "samples_per_point": scale.samples_per_point,
            "startup_latency_us": 10.0,
        },
        series_metadata={
            f"{size}-switch network": {"num_switches": size}
            for size in config.network_sizes
        },
    )


def run_figure2(config: Figure2Config | None = None) -> SweepResult:
    """Regenerate Figure 2 and return its sweep data."""
    config = config or Figure2Config()
    return figure2_result_from_points(config, run_sweep(figure2_specs(config)).results)
