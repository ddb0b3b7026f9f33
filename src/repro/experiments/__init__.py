"""Experiment drivers regenerating every figure of the paper's evaluation,
plus the ablation studies motivated by its design-choice and future-work
discussions.

* :func:`~repro.experiments.figure2.run_figure2` — latency vs number of
  destinations (Figure 2).
* :func:`~repro.experiments.figure3.run_figure3` — latency vs arrival rate
  under mixed traffic (Figure 3).
* :func:`~repro.experiments.software_comparison.run_software_comparison` —
  SPAM vs the software multicast lower bound and a measured binomial-tree
  baseline (§4's six-fold-difference claim).
* :mod:`~repro.experiments.ablations` — buffer depth, selection function,
  root selection and destination partitioning.

Every driver routes through the :mod:`repro.sweeps` orchestrator: each data
point is a :class:`~repro.sweeps.spec.SweepPointSpec`, and the drivers
accept ``store=`` / ``workers=`` / ``resume=`` to cache, parallelise and
resume sweeps (see ``docs/sweeps.md``).
"""

from .ablations import (
    AblationConfig,
    run_buffer_depth_ablation,
    run_partition_ablation,
    run_root_ablation,
    run_selection_ablation,
)
from .common import ExperimentScale, SCALES, build_network_and_routing, current_scale, paper_config
from .figure2 import (
    Figure2Config,
    default_destination_counts,
    figure2_specs,
    run_figure2,
)
from .figure3 import Figure3Config, figure3_specs, run_figure3
from .software_comparison import (
    SoftwareComparisonConfig,
    run_software_comparison,
    run_software_multicast_once,
    software_comparison_specs,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "current_scale",
    "paper_config",
    "build_network_and_routing",
    "Figure2Config",
    "default_destination_counts",
    "figure2_specs",
    "run_figure2",
    "Figure3Config",
    "figure3_specs",
    "run_figure3",
    "SoftwareComparisonConfig",
    "software_comparison_specs",
    "run_software_comparison",
    "run_software_multicast_once",
    "AblationConfig",
    "run_buffer_depth_ablation",
    "run_selection_ablation",
    "run_root_ablation",
    "run_partition_ablation",
]
