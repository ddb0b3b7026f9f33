"""Sanctioned process-environment knobs.

The determinism contract (``docs/determinism.md``) bans ambient environment
reads in result paths: a simulation or sweep result must be a pure function
of spec + config.  A small family of *runtime* knobs is exempt — values
that change how fast work runs, never what any run reports: the worker
count ``REPRO_SWEEP_WORKERS``.  (The scale
selectors and the store-location knob are *not* read here: scale changes
what is computed and the store module is an R9 sink that may not import
this package — those sites keep their own justified pragmas.)

:func:`env_knob` is the single sanctioned read path for such knobs.  It
lives in ``repro.obs`` because the package carries the rule-scoped
repro-lint sanction (R4 excludes ``src/repro/obs/``; R9's firewall keeps
everything read here out of observable results), so call sites need no
per-site pragma.  The contract for callers: a value read through
``env_knob`` may flow into scheduling decisions and telemetry, never into
``stats``/``trace``/store rows — R9 checks that statically.
"""

from __future__ import annotations

import os

__all__ = ["env_knob"]


def env_knob(name: str, default: str = "") -> str:
    """Read the runtime knob ``name`` from the process environment.

    Returns ``default`` when unset.  Only wall-clock/placement knobs may be
    read here (results must stay bit-identical for every value); anything
    that changes observable results must flow through configuration
    objects or sweep specs instead.
    """
    return os.environ.get(name, default)
