"""The span/metric recorder and its zero-overhead no-op twin.

One :class:`Telemetry` instance records one *track* of wall-clock
observability — the main process or one pool worker of a sweep.
Worker processes ship their telemetry back as a plain picklable payload
(:meth:`Telemetry.to_payload`) and the parent folds it in with
:meth:`Telemetry.merge_child`, prefixing the child's metric names with its
track label so nothing collides.

Three metric families, chosen to stay cheap on hot paths:

* **spans** — named ``[start_ns, start_ns + dur_ns)`` intervals on the
  monotonic clock, with free-form ``attrs``.  Nesting is by a plain open
  stack (:meth:`begin`/:meth:`end` or the :meth:`span` context manager);
  pre-measured intervals are recorded directly with :meth:`span_at`.  The
  span list is bounded (``max_spans``); overflow increments
  ``spans_dropped`` instead of growing without limit.
* **counters** — monotonically accumulated integers (``counter``).
* **gauges** — last-write-wins numbers (``gauge``); the engine publishes
  its deterministic ``coalesce_*`` counter values here at the end of every
  ``run()`` so one snapshot unifies wall-clock spans with the normative
  counters (re-publication after a later window simply overwrites).
* **values** — bounded distributions (``value``): count/total/min/max per
  name, used for per-probe durations where a span per event would be too
  much data.

The clock is injectable (``clock=``) so exporter tests are golden-file
deterministic; the default is the host's monotonic ``perf_counter_ns``
(sanctioned here and only here — repro-lint rule R4 excludes
``src/repro/obs/`` in exchange for rule R9's firewall, which keeps every
telemetry value out of the simulation's observable results).

:data:`NULL_TELEMETRY` is the disabled twin: a module-level singleton whose
recording methods do nothing and whose ``span()`` hands back a shared
reusable context manager.  Consumers branch on ``telemetry.enabled`` once,
outside their hot loops, and keep zero per-event overhead when telemetry
is off.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator, Mapping

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]

#: Default bound on the recorded span list (see ``spans_dropped``).
DEFAULT_MAX_SPANS = 100_000


class Telemetry:
    """A live telemetry recorder (one per track).

    Parameters
    ----------
    track:
        Label for the execution context this instance records ("main",
        "engine", "shard", "worker", ...); every span carries it, and
        :meth:`merge_child` rewrites it when folding worker payloads in.
    clock:
        Monotonic nanosecond clock; injectable for deterministic tests.
    max_spans:
        Bound on the span list; further spans are counted in
        ``spans_dropped`` rather than stored.
    """

    enabled: bool = True

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
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        #: ``name -> {"count", "total", "min", "max"}`` distributions.
        self.values: dict[str, dict[str, float]] = {}
        self._stack: list[dict[str, Any]] = []

    # -- spans ----------------------------------------------------------
    def begin(self, name: str, **attrs: Any) -> None:
        """Open a nested span; close it with :meth:`end`."""
        self._stack.append(
            {"name": name, "start_ns": self.clock(), "attrs": dict(attrs)}
        )

    def end(self, **attrs: Any) -> None:
        """Close the innermost open span (extra ``attrs`` merge in)."""
        open_span = self._stack.pop()
        if attrs:
            open_span["attrs"].update(attrs)
        self.span_at(
            open_span["name"],
            open_span["start_ns"],
            self.clock(),
            **open_span["attrs"],
        )

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

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op when none)."""
        if self._stack:
            self._stack[-1]["attrs"].update(attrs)

    # -- scalar metrics -------------------------------------------------
    def counter(self, name: str, delta: int = 1) -> None:
        """Accumulate an integer counter."""
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record a last-write-wins number."""
        self.gauges[name] = value

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

    # -- aggregation helpers --------------------------------------------
    def span_total_ns(self, name: str) -> int:
        """Summed duration of every recorded span called ``name``."""
        return sum(span["dur_ns"] for span in self.spans if span["name"] == name)

    def span_count(self, name: str) -> int:
        """Number of recorded spans called ``name``."""
        return sum(1 for span in self.spans if span["name"] == name)

    def iter_spans(self, name: str) -> Iterator[dict[str, Any]]:
        """Recorded spans called ``name``, in record order."""
        return (span for span in self.spans if span["name"] == name)

    # -- worker shipping ------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """Plain picklable rendering for the worker→parent boundary."""
        return {
            "track": self.track,
            "spans": list(self.spans),
            "spans_dropped": self.spans_dropped,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "values": {name: dict(dist) for name, dist in self.values.items()},
        }

    def merge_child(self, payload: Mapping[str, Any], track: str) -> None:
        """Fold a child payload (:meth:`to_payload`) into this recorder.

        The child's spans are re-labelled with ``track``; its counter,
        gauge and value names are prefixed ``"{track}/{name}"`` so parallel
        children never collide.  Child clocks are process-local monotonic
        counters, so cross-track span timestamps are only comparable within
        one track — exactly what the per-track Chrome-trace rendering
        shows.
        """
        for span in payload.get("spans", ()):
            if len(self.spans) >= self.max_spans:
                self.spans_dropped += 1
                continue
            merged = dict(span)
            merged["track"] = track
            self.spans.append(merged)
        self.spans_dropped += int(payload.get("spans_dropped", 0))
        for name, delta in payload.get("counters", {}).items():
            self.counter(f"{track}/{name}", delta)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(f"{track}/{name}", value)
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
            f"counters={len(self.counters)}, values={len(self.values)})"
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


class _NullSpanContext:
    """Shared inert context manager handed out by :class:`NullTelemetry`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class NullTelemetry:
    """The disabled recorder: every method is an allocation-free no-op.

    ``enabled`` is ``False`` so consumers can hoist the branch out of hot
    loops (the engine selects its un-instrumented probe once per ``run()``);
    code that does not care simply calls the no-op methods.  ``clock`` is
    ``None`` — holders that need a clock must check ``enabled`` first.
    """

    enabled: bool = False
    track: str = "null"
    clock: None = None
    spans: tuple = ()
    spans_dropped: int = 0
    counters: Mapping[str, int] = {}
    gauges: Mapping[str, float] = {}
    values: Mapping[str, dict[str, float]] = {}

    def begin(self, name: str, **attrs: Any) -> None:
        return None

    def end(self, **attrs: Any) -> None:
        return None

    def span(self, name: str, **attrs: Any) -> _NullSpanContext:
        return _NULL_SPAN

    def span_at(self, name: str, start_ns: int, end_ns: int, **attrs: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        return None

    def counter(self, name: str, delta: int = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def value(self, name: str, observation: float) -> None:
        return None

    def span_total_ns(self, name: str) -> int:
        return 0

    def span_count(self, name: str) -> int:
        return 0

    def iter_spans(self, name: str) -> Iterator[dict[str, Any]]:
        return iter(())

    def to_payload(self) -> dict[str, Any]:
        return {
            "track": self.track,
            "spans": [],
            "spans_dropped": 0,
            "counters": {},
            "gauges": {},
            "values": {},
        }

    def merge_child(self, payload: Mapping[str, Any], track: str) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NULL_TELEMETRY"


#: The module-level no-op singleton every consumer holds when telemetry is
#: off — one shared instance, so ``telemetry is NULL_TELEMETRY`` is a valid
#: (and the cheapest) disabled-check.
NULL_TELEMETRY = NullTelemetry()
