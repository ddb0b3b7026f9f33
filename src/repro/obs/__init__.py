"""``repro.obs``: wall-clock observability behind the observables firewall.

The engine's normative observability surface (``coalesce_*`` counters,
``docs/engine_counters.md``) is *deterministic*: facts about how a
run executed that are pure functions of the inputs.  This package is the
complementary *wall-clock* surface — spans, counters and value
distributions measured on the host's monotonic clock — used to see where
engine and sweep time actually goes.

Wall-clock readings are nondeterministic by nature, so everything here
lives behind the **observables firewall** (``docs/observability.md``,
enforced statically by repro-lint rule R9): telemetry values may describe a
run, but may never flow into ``stats``/``trace``/store rows or any
fingerprinted observable.  The firewall direction is one-way — engine code
writes *into* telemetry; nothing reads telemetry back *out* into results.
Correspondingly, ``repro.obs`` itself is a leaf package: it imports only
the standard library, never the simulator or sweep layers.

Public surface:

* :class:`~repro.obs.telemetry.Telemetry` — the span/metric recorder, and
  :data:`~repro.obs.telemetry.NULL_TELEMETRY`, the module-level no-op
  singleton every consumer holds when telemetry is off.
* :mod:`repro.obs.export` — the schema-versioned JSON snapshot, the
  Chrome-trace/Perfetto ``trace_event`` exporter, and the snapshot
  validator used by tests and CI.
* :mod:`repro.obs.runtime` — the sanctioned process-environment knob
  reader (parallelism/scale knobs that may change wall-clock, never
  results).
"""

from .export import (
    SNAPSHOT_SCHEMA_ID,
    SNAPSHOT_SCHEMA_VERSION,
    chrome_trace_events,
    load_snapshot_schema,
    summarize_snapshot,
    validate_chrome_trace,
    validate_snapshot,
    write_chrome_trace,
    write_snapshot,
)
from .runtime import env_knob
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "SNAPSHOT_SCHEMA_ID",
    "SNAPSHOT_SCHEMA_VERSION",
    "chrome_trace_events",
    "load_snapshot_schema",
    "summarize_snapshot",
    "validate_chrome_trace",
    "validate_snapshot",
    "write_chrome_trace",
    "write_snapshot",
    "env_knob",
]
