"""Sweep orchestration: the execution layer between the simulator and the
figures.

Every experiment of the reproduction — Figures 2 and 3, the §4 software
comparison, the ablations — is a *sweep*: a list of independent simulation
points.  This package turns those sweeps into cached, resumable, parallel
runs:

* :mod:`repro.sweeps.spec` — :class:`SweepPointSpec`, a frozen, picklable,
  hashable description of one point, and :func:`evaluate_spec`, the single
  evaluation path every workload kind shares (points on one network share
  its SPAM skeleton through a per-process cache);
* :mod:`repro.sweeps.store` — :class:`ResultStore`, a content-addressed,
  append-only JSONL file keyed by a stable hash of spec + code-version salt;
* :mod:`repro.sweeps.scheduler` — :func:`run_sweep`, one-point-per-task
  process-pool dispatch with per-point checkpointing, deterministic
  ordering, and a resume path that completes a partially finished sweep
  from the store.

The experiment drivers in :mod:`repro.experiments` build specs and route
through :func:`run_sweep`; the ``repro-spam figure2``/``figure3``/``compare``/
``ablations`` commands expose the same machinery on the command line.
``docs/sweeps.md`` documents the store layout, the hashing contract and the
resume semantics.
"""

from .scheduler import SweepOutcome, resolve_workers, run_sweep
from .spec import (
    SweepPointResult,
    SweepPointSpec,
    WORKLOAD_KINDS,
    evaluate_spec,
)
from .store import (
    DEFAULT_STORE_DIR,
    STORE_SCHEMA_VERSION,
    ResultStore,
    default_code_salt,
    spec_key,
)

__all__ = [
    "SweepPointSpec",
    "SweepPointResult",
    "WORKLOAD_KINDS",
    "evaluate_spec",
    "ResultStore",
    "spec_key",
    "default_code_salt",
    "DEFAULT_STORE_DIR",
    "STORE_SCHEMA_VERSION",
    "run_sweep",
    "SweepOutcome",
    "resolve_workers",
]
