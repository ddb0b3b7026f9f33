"""Shared infrastructure for the experiment drivers.

Every experiment driver follows the same pattern: build a paper-style
irregular network, build SPAM on it, run a workload on the flit-level
simulator, and aggregate per-message latencies; :mod:`repro.sweeps.spec`
runs those steps.  This module hosts the *scaling* machinery: flit-level
simulation in pure Python cannot re-run the paper's full sample counts in a
benchmark-friendly time budget, so each experiment has a default reduced
configuration and reads environment variables to scale back up:

``REPRO_SCALE``
    ``"smoke"`` (fastest, CI-sized), ``"default"`` or ``"paper"``.
``REPRO_FLITS``
    Override the message length in flits (paper: 128).
``REPRO_SAMPLES``
    Override the number of samples per data point.
``REPRO_SWEEP_WORKERS``
    Worker-process count picked up by the sweep orchestrator the drivers
    route through (see :mod:`repro.sweeps`); unset means sequential.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = [
    "ExperimentScale",
    "current_scale",
]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Scaling knobs applied to every experiment driver."""

    name: str
    message_length_flits: int
    samples_per_point: int
    messages_per_rate_point: int

    def with_env_overrides(self) -> "ExperimentScale":
        """Apply ``REPRO_FLITS`` / ``REPRO_SAMPLES`` overrides if present."""
        flits = _int_env("REPRO_FLITS", self.message_length_flits)
        samples = _int_env("REPRO_SAMPLES", self.samples_per_point)
        return ExperimentScale(
            name=self.name,
            message_length_flits=flits,
            samples_per_point=samples,
            messages_per_rate_point=self.messages_per_rate_point,
        )


#: Named scales.  "paper" matches the paper's message length and uses enough
#: samples for reasonably tight confidence intervals (still far fewer than
#: the paper's, which targeted 1 % relative CI half-width).
SCALES = {
    "smoke": ExperimentScale("smoke", message_length_flits=32, samples_per_point=2,
                             messages_per_rate_point=40),
    "default": ExperimentScale("default", message_length_flits=64, samples_per_point=4,
                               messages_per_rate_point=120),
    "paper": ExperimentScale("paper", message_length_flits=128, samples_per_point=12,
                             messages_per_rate_point=400),
}


def _int_env(name: str, default: int) -> int:
    """The integer environment variable ``name``, or ``default`` when unset."""
    raw = os.environ.get(name)  # repro-lint: disable=R4 -- documented scale knob; affects scope, not per-seed determinism
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"${name} must be an integer, got {raw!r}") from None


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_SCALE`` (default ``"default"``)."""
    name = os.environ.get("REPRO_SCALE", "default")  # repro-lint: disable=R4 -- documented scale knob; affects scope, not per-seed determinism
    if name not in SCALES:
        raise ConfigurationError(
            f"$REPRO_SCALE must be one of {', '.join(sorted(SCALES))}, got {name!r}"
        )
    return SCALES[name].with_env_overrides()
