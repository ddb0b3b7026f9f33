"""Figure 3: latency versus average arrival rate under mixed traffic.

The paper's second experiment runs 90 % unicast / 10 % multicast traffic in
a 128-switch irregular network, with multicast degrees of 8, 16, 32 and 64
destinations and negative-binomial arrivals of varying average rate.  The
result is that "even in relatively heavy network traffic, latency remains
largely independent of the number of destinations per multicast": all four
curves lie nearly on top of each other, rising from the no-load latency
(≈ 10–20 µs) towards saturation as the arrival rate grows.

:func:`run_figure3` regenerates the figure as a
:class:`~repro.analysis.sweeps.SweepResult` with one series per multicast
degree.  Latency is measured from message creation (so source queueing under
load is included, which is what produces the saturation behaviour).

Execution routes through :mod:`repro.sweeps` (see
:mod:`repro.experiments.figure2` for the pattern): :func:`figure3_specs`
builds one spec per (degree, rate) point and the orchestrator handles
caching, resumption and process-level parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.sweeps import SweepResult, sweep_result_from_points
from ..sweeps import SweepPointSpec, run_sweep
from .common import ExperimentScale, current_scale

__all__ = ["Figure3Config", "figure3_specs", "figure3_result_from_points", "run_figure3"]


@dataclass
class Figure3Config:
    """Parameters of the Figure 3 reproduction."""

    network_size: int = 128
    multicast_degrees: tuple[int, ...] = (8, 16, 32, 64)
    #: Average per-processor arrival rates in messages per microsecond
    #: (the paper sweeps 0.005 – 0.04).
    arrival_rates_per_us: tuple[float, ...] = (0.005, 0.01, 0.02, 0.03, 0.04)
    multicast_fraction: float = 0.1
    #: Arrival process drawn at every processor: ``"negative-binomial"``
    #: (the paper's traffic model, quantised to the channel cycle) or
    #: ``"poisson"`` (arbitrary-nanosecond arrivals, which exercise the
    #: engine's phase-staggered coalescing; see ``docs/fast_path.md``).
    arrival: str = "negative-binomial"
    scale: ExperimentScale | None = None
    topology_seed: int = 7
    workload_seed: int = 23
    root_strategy: str = "center"
    #: Extra :class:`~repro.simulator.config.SimulationConfig` overrides
    #: applied to every point (e.g. ``(("input_buffer_depth", 4),)``).
    #: Overrides participate in spec identity — points computed under
    #: different overrides are distinct cache entries by design.
    sim_overrides: tuple[tuple[str, object], ...] = ()

    def resolved_scale(self) -> ExperimentScale:
        return self.scale or current_scale()


def figure3_specs(config: Figure3Config | None = None) -> list[SweepPointSpec]:
    """One sweep spec per Figure-3 data point, one series per degree."""
    config = config or Figure3Config()
    scale = config.resolved_scale()
    specs: list[SweepPointSpec] = []
    for degree in config.multicast_degrees:
        for rate in config.arrival_rates_per_us:
            specs.append(
                SweepPointSpec(
                    workload_kind="mixed",
                    network_size=config.network_size,
                    topology_seed=config.topology_seed,
                    message_length_flits=scale.message_length_flits,
                    workload_params=(
                        ("rate_per_us", rate),
                        ("multicast_destinations", degree),
                        ("num_messages", scale.messages_per_rate_point),
                        ("multicast_fraction", config.multicast_fraction),
                        ("arrival", config.arrival),
                    ),
                    workload_seed=config.workload_seed + degree,
                    root_strategy=config.root_strategy,
                    sim_overrides=config.sim_overrides,
                    label=f"{degree} destinations",
                    x=rate,
                )
            )
    return specs


def figure3_result_from_points(config: Figure3Config, points) -> SweepResult:
    """Reassemble the Figure-3 :class:`SweepResult` from point results."""
    scale = config.resolved_scale()
    return sweep_result_from_points(
        name="figure3-latency-vs-arrival-rate",
        x_label="arrival_rate_per_us",
        y_label="latency_us",
        points=points,
        parameters={
            "scale": scale.name,
            "network_size": config.network_size,
            "message_length_flits": scale.message_length_flits,
            "messages_per_point": scale.messages_per_rate_point,
            "multicast_fraction": config.multicast_fraction,
            "arrival": config.arrival,
        },
        series_metadata={
            f"{degree} destinations": {"multicast_degree": degree}
            for degree in config.multicast_degrees
        },
    )


def run_figure3(config: Figure3Config | None = None) -> SweepResult:
    """Regenerate Figure 3 and return its sweep data."""
    config = config or Figure3Config()
    return figure3_result_from_points(config, run_sweep(figure3_specs(config)).results)
