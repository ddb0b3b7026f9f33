"""Telemetry exporters and the snapshot validator.

Two renderings of one :class:`~repro.obs.telemetry.Telemetry`:

* :func:`write_snapshot` — the *unified* structured JSON snapshot
  (``snapshot.schema.json``, schema-versioned): wall-clock spans, counters
  and value distributions side by side with whatever deterministic gauge
  values the engine published (``engine.coalesce_*``).  This is the
  machine-readable artifact CI validates and
  ``repro-spam obs summarize`` reads.
* :func:`write_chrome_trace` — Chrome ``trace_event`` JSON (the
  ``{"traceEvents": [...]}`` object form), loadable in Perfetto /
  ``chrome://tracing`` for timeline inspection.  Each telemetry track maps
  to one named thread; spans become complete (``"ph": "X"``) events.

Validation is a hand-rolled JSON-Schema *subset* interpreter
(:func:`validate_snapshot`): the repository deliberately has no
``jsonschema`` dependency, and the subset (type/const/required/properties/
additionalProperties/items/minimum) covers everything the checked-in
schema uses — the schema file stays standard so external tooling can use
it too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .telemetry import NullTelemetry, Telemetry

__all__ = [
    "SNAPSHOT_SCHEMA_ID",
    "SNAPSHOT_SCHEMA_VERSION",
    "snapshot_dict",
    "write_snapshot",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_snapshot_schema",
    "validate_snapshot",
    "validate_chrome_trace",
    "summarize_snapshot",
]

SNAPSHOT_SCHEMA_ID = "repro.obs/snapshot"
SNAPSHOT_SCHEMA_VERSION = 1

_SCHEMA_PATH = Path(__file__).with_name("snapshot.schema.json")


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
def snapshot_dict(telemetry: "Telemetry | NullTelemetry") -> dict[str, Any]:
    """The schema-versioned snapshot rendering of ``telemetry``."""
    return {
        "schema": SNAPSHOT_SCHEMA_ID,
        "version": SNAPSHOT_SCHEMA_VERSION,
        "track": telemetry.track,
        "spans": [dict(span) for span in telemetry.spans],
        "spans_dropped": telemetry.spans_dropped,
        "counters": dict(sorted(telemetry.counters.items())),
        "gauges": dict(sorted(telemetry.gauges.items())),
        "values": {
            name: dict(dist) for name, dist in sorted(telemetry.values.items())
        },
    }


def write_snapshot(telemetry: "Telemetry | NullTelemetry", path: "str | Path") -> Path:
    """Write the snapshot JSON to ``path`` (parents created) and return it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(snapshot_dict(telemetry), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


# ----------------------------------------------------------------------
# Chrome trace / Perfetto
# ----------------------------------------------------------------------
def chrome_trace_events(telemetry: "Telemetry | NullTelemetry") -> list[dict[str, Any]]:
    """``trace_event`` list: one complete event per span, one named thread
    per track (child tracks keep process-local clocks, so cross-track
    alignment is per-thread, not global — exactly how Perfetto renders
    it)."""
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = []
    for span in telemetry.spans:
        track = span["track"]
        tid = tids.get(track)
        if tid is None:
            tid = len(tids)
            tids[track] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 0,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        events.append(
            {
                "name": span["name"],
                "cat": "repro.obs",
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": span["start_ns"] / 1000.0,
                "dur": span["dur_ns"] / 1000.0,
                "args": dict(span.get("attrs", {})),
            }
        )
    return events


def write_chrome_trace(telemetry: "Telemetry | NullTelemetry", path: "str | Path") -> Path:
    """Write the Chrome-trace JSON to ``path`` and return it."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "displayTimeUnit": "ms",
        "otherData": {"exporter": SNAPSHOT_SCHEMA_ID},
        "traceEvents": chrome_trace_events(telemetry),
    }
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def validate_chrome_trace(document: Any) -> list[str]:
    """Well-formedness errors of a loaded Chrome-trace document (``[]`` = ok).

    Accepts both the object form (``{"traceEvents": [...]}``) and the bare
    array form; checks the fields Perfetto's importer requires.
    """
    if isinstance(document, Mapping):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            return ["traceEvents: missing or not an array"]
    elif isinstance(document, list):
        events = document
    else:
        return ["document: neither a trace object nor an event array"]
    errors: list[str] = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, Mapping):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            errors.append(f"{where}: missing phase 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: missing 'name'")
        if phase == "X":
            for field in ("ts", "dur", "pid", "tid"):
                if not isinstance(event.get(field), (int, float)) or isinstance(
                    event.get(field), bool
                ):
                    errors.append(f"{where}: complete event needs numeric {field!r}")
    return errors


# ----------------------------------------------------------------------
# Schema validation (JSON-Schema subset; no external dependency)
# ----------------------------------------------------------------------
def load_snapshot_schema() -> dict[str, Any]:
    """The checked-in snapshot schema as a dict."""
    return json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))


def _type_ok(value: Any, type_name: str) -> bool:
    if type_name == "object":
        return isinstance(value, Mapping)
    if type_name == "array":
        return isinstance(value, list)
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "null":
        return value is None
    return True  # unknown type names never fail (forward compatibility)


def _validate(value: Any, schema: Mapping[str, Any], path: str, errors: list[str]) -> None:
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return
    type_spec = schema.get("type")
    if type_spec is not None:
        names = type_spec if isinstance(type_spec, list) else [type_spec]
        if not any(_type_ok(value, name) for name in names):
            errors.append(f"{path}: expected type {type_spec}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']!r}")
        return
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            errors.append(f"{path}: {value!r} below minimum {minimum!r}")
    if isinstance(value, Mapping):
        properties = schema.get("properties", {})
        for name in schema.get("required", ()):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        additional = schema.get("additionalProperties", True)
        for name, item in value.items():
            subpath = f"{path}.{name}"
            if name in properties:
                _validate(item, properties[name], subpath, errors)
            elif additional is False:
                errors.append(f"{path}: unexpected property {name!r}")
            elif isinstance(additional, Mapping):
                _validate(item, additional, subpath, errors)
    elif isinstance(value, list):
        items = schema.get("items")
        if isinstance(items, Mapping):
            for index, item in enumerate(value):
                _validate(item, items, f"{path}[{index}]", errors)


def validate_snapshot(
    document: Any, schema: Mapping[str, Any] | None = None
) -> list[str]:
    """Validation errors of ``document`` against the snapshot schema.

    Returns ``[]`` when the document conforms.  ``schema`` defaults to the
    checked-in ``snapshot.schema.json``.
    """
    errors: list[str] = []
    _validate(document, load_snapshot_schema() if schema is None else schema, "$", errors)
    return errors


# ----------------------------------------------------------------------
# Summaries (the ``repro-spam obs summarize`` backend)
# ----------------------------------------------------------------------
def _strip_track(name: str) -> str:
    """Metric name with any ``track/`` prefixes removed."""
    return name.rsplit("/", 1)[-1]


def summarize_snapshot(document: Mapping[str, Any]) -> dict[str, list[dict[str, Any]]]:
    """Aggregated tables from a loaded snapshot document.

    Returns ``{"tiers": [...], "spans": [...]}``:

    * ``tiers`` — per-tier probe time attribution, aggregated across every
      track: one row per ``engine.probe.<tier>_ns`` distribution with the
      probe count, total milliseconds and share of total probe time.
    * ``spans`` — per-span-name totals (count, total ms), aggregated
      across tracks, sorted by total descending — where the wall-clock
      actually went.
    """
    values: Mapping[str, Mapping[str, Any]] = document.get("values", {})
    tier_totals: dict[str, dict[str, float]] = {}
    for name, dist in values.items():
        base = _strip_track(name)
        if not (base.startswith("engine.probe.") and base.endswith("_ns")):
            continue
        tier = base[len("engine.probe.") : -len("_ns")]
        row = tier_totals.setdefault(tier, {"count": 0, "total_ns": 0.0})
        row["count"] += int(dist["count"])
        row["total_ns"] += float(dist["total"])
    probe_total_ns = sum(row["total_ns"] for row in tier_totals.values())
    tiers = [
        {
            "tier": tier,
            "probes": int(row["count"]),
            "total_ms": row["total_ns"] / 1e6,
            "mean_us": (row["total_ns"] / row["count"]) / 1e3 if row["count"] else 0.0,
            "share": row["total_ns"] / probe_total_ns if probe_total_ns else 0.0,
        }
        for tier, row in sorted(
            tier_totals.items(), key=lambda item: -item[1]["total_ns"]
        )
    ]
    span_totals: dict[str, dict[str, float]] = {}
    for span in document.get("spans", ()):
        row = span_totals.setdefault(span["name"], {"count": 0, "total_ns": 0.0})
        row["count"] += 1
        row["total_ns"] += int(span["dur_ns"])
    spans = [
        {
            "span": name,
            "count": int(row["count"]),
            "total_ms": row["total_ns"] / 1e6,
        }
        for name, row in sorted(span_totals.items(), key=lambda item: -item[1]["total_ns"])
    ]
    return {"tiers": tiers, "spans": spans}
