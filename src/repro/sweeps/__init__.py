"""Sweep orchestration: the execution layer between the simulator and the
figures.

Every experiment of the reproduction — Figures 2 and 3, the §4 software
comparison, the ablations — is a *sweep*: a list of independent simulation
points.  This package turns those sweeps into cached, resumable, parallel
runs:

* :mod:`repro.sweeps.spec` — :class:`SweepPointSpec`, a frozen, picklable,
  hashable description of one point, :func:`evaluate_spec`, the single
  evaluation path every workload kind shares (points on one network share
  its SPAM skeleton through a per-process cache), and :func:`shard_specs`,
  the deterministic content-addressed partitioner behind multi-host
  sharding;
* :mod:`repro.sweeps.store` — :class:`ResultStore`, a content-addressed
  JSONL + index store keyed by a stable hash of spec + code-version salt,
  plus :func:`merge_stores`, which combines per-shard stores conflict-free
  and tracks completion through per-store ``manifest.json`` files;
* :mod:`repro.sweeps.scheduler` — :func:`run_sweep`, one-point-per-task
  process-pool dispatch with per-point checkpointing, deterministic
  ordering, a resume path that completes a partially finished sweep from
  the store, and a ``shard=(index, count)`` restriction for splitting a
  sweep across hosts.

The experiment drivers in :mod:`repro.experiments` build specs and route
through :func:`run_sweep`; the ``repro-spam figure2``/``figure3``/``compare``
commands expose the same machinery on the command line (including
``--shard I/N``), and ``repro-spam merge`` combines per-shard stores.
``docs/sweeps.md`` documents the store layout, the hashing contract, the
resume semantics and the sharding workflow.
"""

from .scheduler import SweepOutcome, resolve_workers, run_sweep
from .spec import (
    SweepPointResult,
    SweepPointSpec,
    WORKLOAD_KINDS,
    evaluate_spec,
    parse_shard,
    run_software_multicast_once,
    shard_specs,
    spec_from_dict,
)
from .store import (
    DEFAULT_STORE_DIR,
    STORE_SCHEMA_VERSION,
    ManifestStatus,
    MergeReport,
    ResultStore,
    default_code_salt,
    merge_stores,
    spec_key,
)

__all__ = [
    "SweepPointSpec",
    "SweepPointResult",
    "WORKLOAD_KINDS",
    "evaluate_spec",
    "spec_from_dict",
    "shard_specs",
    "parse_shard",
    "run_software_multicast_once",
    "ResultStore",
    "ManifestStatus",
    "MergeReport",
    "merge_stores",
    "spec_key",
    "default_code_salt",
    "DEFAULT_STORE_DIR",
    "STORE_SCHEMA_VERSION",
    "run_sweep",
    "SweepOutcome",
    "resolve_workers",
]
