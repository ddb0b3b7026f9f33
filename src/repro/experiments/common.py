"""Shared infrastructure for the experiment drivers.

Every experiment driver follows the same pattern: build a paper-style
irregular network, build SPAM on it, run a workload on the flit-level
simulator, and aggregate per-message latencies; :mod:`repro.sweeps.spec`
runs those steps.  This module hosts the *scaling* machinery: flit-level
simulation in pure Python cannot re-run the paper's full sample counts in a
benchmark-friendly time budget, so each experiment runs at one of the named
:data:`SCALES` — ``"smoke"`` (fastest, CI-sized), ``"default"`` or
``"paper"`` — passed through its configuration's ``scale`` field (the CLI's
``--scale`` flag).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ExperimentScale",
]


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """Scaling knobs applied to every experiment driver."""

    name: str
    message_length_flits: int
    samples_per_point: int
    messages_per_rate_point: int


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
