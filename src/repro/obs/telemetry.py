"""The span/value recorder.

One :class:`Telemetry` instance records one *track* of wall-clock
observability — the main process or one pool worker of a sweep.
Worker processes ship their telemetry back as a plain picklable payload
(:meth:`Telemetry.to_payload`) and the parent folds it in with
:meth:`Telemetry.merge_child`, prefixing the child's value names with its
track label so nothing collides.

Two metric families, chosen to stay cheap on hot paths:

* **spans** — named ``[start_ns, start_ns + dur_ns)`` intervals on the
  monotonic clock, with free-form ``attrs``: timed around a ``with`` body
  by :meth:`span`, or recorded pre-measured with :meth:`span_at`.  The
  span list is bounded (``max_spans``); overflow increments
  ``spans_dropped`` instead of growing without limit.
* **values** — bounded distributions (``value``): count/total/min/max per
  name, used for per-probe durations where a span per event would be too
  much data.

The clock is injectable (``clock=``) so exporter tests are golden-file
deterministic; the default is the host's monotonic ``perf_counter_ns``
(sanctioned here and only here — repro-lint rule R4 excludes
``src/repro/obs/`` in exchange for rule R9's firewall, which keeps every
telemetry value out of the simulation's observable results).

Telemetry off is ``None``: consumers hold ``Telemetry | None`` and branch
on ``is None`` once, outside their hot loops.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

__all__ = ["Telemetry"]

#: Default bound on the recorded span list (see ``spans_dropped``).
DEFAULT_MAX_SPANS = 100_000


class Telemetry:
    """A live telemetry recorder (one per track).

    Parameters
    ----------
    track:
        Label for the execution context this instance records ("main",
        "engine", "worker", ...); every span carries it, and
        :meth:`merge_child` rewrites it when folding worker payloads in.
    clock:
        Monotonic nanosecond clock; injectable for deterministic tests.
    max_spans:
        Bound on the span list; further spans are counted in
        ``spans_dropped`` rather than stored.
    """

    def __init__(
        self,
        track: str = "main",
        clock: Callable[[], int] | None = None,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self.track = track
        self.clock: Callable[[], int] = (
            time.perf_counter_ns if clock is None else clock
        )
        self.max_spans = max_spans
        #: Finished spans: ``{"name", "track", "start_ns", "dur_ns", "attrs"}``.
        self.spans: list[dict[str, Any]] = []
        self.spans_dropped = 0
        #: ``name -> {"count", "total", "min", "max"}`` distributions.
        self.values: dict[str, dict[str, float]] = {}

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> "_SpanContext":
        """Context manager recording one span around the ``with`` body."""
        return _SpanContext(self, name, attrs)

    def span_at(self, name: str, start_ns: int, end_ns: int, **attrs: Any) -> None:
        """Record an already-measured span directly."""
        if len(self.spans) >= self.max_spans:
            self.spans_dropped += 1
            return
        self.spans.append(
            {
                "name": name,
                "track": self.track,
                "start_ns": int(start_ns),
                "dur_ns": max(0, int(end_ns) - int(start_ns)),
                "attrs": attrs,
            }
        )

    # -- values ---------------------------------------------------------
    def value(self, name: str, observation: float) -> None:
        """Fold one observation into the named bounded distribution."""
        dist = self.values.get(name)
        if dist is None:
            self.values[name] = {
                "count": 1,
                "total": observation,
                "min": observation,
                "max": observation,
            }
            return
        dist["count"] += 1
        dist["total"] += observation
        if observation < dist["min"]:
            dist["min"] = observation
        if observation > dist["max"]:
            dist["max"] = observation

    # -- worker shipping ------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """Plain picklable rendering for the worker→parent boundary."""
        return {
            "track": self.track,
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
            "values": {name: dict(dist) for name, dist in self.values.items()},
        }

    def merge_child(self, payload: Mapping[str, Any], track: str) -> None:
        """Fold a child payload (:meth:`to_payload`) into this recorder.

        The child's spans are re-labelled with ``track``; its value names
        are prefixed ``"{track}/{name}"`` so parallel children never
        collide.  Child clocks are process-local monotonic counters, so
        cross-track span timestamps are only comparable within one track —
        exactly what the per-track Chrome-trace rendering shows.
        """
        for span in payload.get("spans", ()):
            if len(self.spans) >= self.max_spans:
                self.spans_dropped += 1
                continue
            merged = dict(span)
            merged["track"] = track
            self.spans.append(merged)
        self.spans_dropped += int(payload.get("spans_dropped", 0))
        for name, dist in payload.get("values", {}).items():
            key = f"{track}/{name}"
            mine = self.values.get(key)
            if mine is None:
                self.values[key] = dict(dist)
            else:
                mine["count"] += dist["count"]
                mine["total"] += dist["total"]
                mine["min"] = min(mine["min"], dist["min"])
                mine["max"] = max(mine["max"], dist["max"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Telemetry(track={self.track!r}, spans={len(self.spans)}, "
            f"values={len(self.values)})"
        )


class _SpanContext:
    """Reusable ``with telemetry.span(...)`` support."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_start_ns")

    def __init__(self, telemetry: Telemetry, name: str, attrs: dict[str, Any]):
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self._start_ns = self._telemetry.clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._telemetry.span_at(
            self._name, self._start_ns, self._telemetry.clock(), **self._attrs
        )
