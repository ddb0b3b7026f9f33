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
* :func:`~repro.experiments.ablations.run_ablations` — buffer depth,
  selection function, root selection and destination partitioning.

Every driver routes through the :mod:`repro.sweeps` orchestrator: each data
point is a :class:`~repro.sweeps.spec.SweepPointSpec`.  A cached, resumable
or parallel run passes an experiment's specs (:func:`figure2_specs`,
:func:`figure3_specs`, :func:`software_comparison_specs`,
:func:`ablation_specs`) to ``run_sweep(specs, store=..., workers=...)``, as
the ``repro-spam`` verbs do (see ``docs/sweeps.md``).  Each configuration
is the one place its grid is written: a verb's flags only override its
fields.
"""

from .ablations import AblationConfig, ablation_rows, ablation_specs, run_ablations
from .common import ExperimentScale, SCALES
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
    software_comparison_rows,
    software_comparison_specs,
)

__all__ = [
    "ExperimentScale",
    "SCALES",
    "Figure2Config",
    "default_destination_counts",
    "figure2_specs",
    "run_figure2",
    "Figure3Config",
    "figure3_specs",
    "run_figure3",
    "SoftwareComparisonConfig",
    "software_comparison_specs",
    "software_comparison_rows",
    "run_software_comparison",
    "AblationConfig",
    "ablation_specs",
    "ablation_rows",
    "run_ablations",
]
