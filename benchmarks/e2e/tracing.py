"""Layer spans recorded from outside the package, for the traced run.

:class:`LayerTracer` wraps the public entry points of each ``src/repro``
layer — module functions, classes used as constructors, methods — in the
benchmark's own child process, times every call, and puts the original
back in :meth:`LayerTracer.restore`.  Nothing under ``src/`` changes; the
wrappers call straight through, so results are unchanged (``bench.py``
checks the traced digests against the untraced ones).

:func:`layer_metrics` turns the recorded spans, the engine's probe-tier
telemetry and the sweep accounting into the per-layer ledger.  Times are
inclusive; where spans of one layer nest inside another, the outer layer
also gets a ``<name>_self_s`` self time (duration minus the time covered
by its child spans, :func:`self_times`).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator

#: Engine probe tiers, as named by ``engine.probe.<tier>_ns`` telemetry.
PROBE_TIERS = ("batch", "verify_failure", "scan_reject", "generic_bail", "drain_bail")

#: Spans that run inside the scheduler between point evaluations; their
#: time is already part of the sweep overhead, so coverage skips them.
_SWEEP_INTERNAL = ("sweeps.store_append",)


def self_times(spans: list[dict[str, Any]]) -> tuple[list[int], list[int | None]]:
    """Self time and parent index of every span in ``spans``.

    ``spans`` holds ``{"name", "start_ns", "end_ns"}`` dicts recorded by one
    thread, so any two either nest or are disjoint.  A span's parent is the
    innermost span containing it; its self time is its duration minus the
    union of its direct children's intervals.  Returns ``(self_ns,
    parents)`` aligned with ``spans``.
    """
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i]["start_ns"], -spans[i]["end_ns"]),
    )
    parents: list[int | None] = [None] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    stack: list[int] = []
    for index in order:
        start = spans[index]["start_ns"]
        while stack and spans[stack[-1]]["end_ns"] <= start:
            stack.pop()
        if stack:
            parents[index] = stack[-1]
            children[stack[-1]].append(index)
        stack.append(index)
    self_ns = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span["start_ns"]
        for child in children[index]:  # already in start order
            begin = max(cursor, spans[child]["start_ns"])
            end = min(span["end_ns"], spans[child]["end_ns"])
            if end > begin:
                covered += end - begin
                cursor = end
        self_ns.append(span["end_ns"] - span["start_ns"] - covered)
    return self_ns, parents


class LayerTracer:
    """Times calls into layer entry points by patching them in place.

    ``telemetry`` is a ``repro.obs.Telemetry``: its clock times the spans
    and every span is also recorded on it, so the exported span file and
    Perfetto trace show the layers next to the engine's own spans.
    """

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.clock: Callable[[], int] = telemetry.clock
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, int] = {}
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _record(self, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append({"name": name, "start_ns": start_ns, "end_ns": end_ns})
        self.telemetry.span_at(name, start_ns, end_ns)

    def count(self, name: str, delta: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(delta)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the ``with`` body as one span called ``name``."""
        start_ns = self.clock()
        try:
            yield
        finally:
            self._record(name, start_ns, self.clock())

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args)`` adds counts."""

        def wrapper(*args, **kwargs):
            start_ns = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._record(name, start_ns, self.clock())
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        """Replace ``owner.attr`` (module or class) with a timed wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.timed(name, original.__func__, after))
        else:
            replacement = self.timed(name, original, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the ledger reports."""
        import repro.core.spam as spam
        import repro.sweeps.spec as spec
        from repro.simulator.engine import WormholeSimulator
        from repro.sweeps.store import ResultStore
        from repro.traffic.workload import Workload

        def after_generate(workload, args):
            self.count("traffic.messages", len(workload))

        def after_run(stats, args):
            simulator = args[0]
            self.count("simulator.flit_hops", stats.flit_hops)
            self.count("simulator.coalesced_ticks", simulator.coalesced_ticks)

        def after_put_many(result, args):
            self.count("sweeps.store_appends", len(args[1]))

        self.patch(spec, "lattice_irregular_network", "topology.build")
        self.patch(spam, "select_root", "spanning.root")
        self.patch(spam, "bfs_spanning_tree", "spanning.tree")
        self.patch(spam, "label_channels", "spanning.label")
        self.patch(spam, "Ancestry", "spanning.ancestry")
        self.patch(spam.SpamRouting, "build", "core.skeleton")
        self.patch(spec, "UpDownRouting", "routing.updown_build")
        self.patch(spec, "run_software_multicast_once", "routing.software_run")
        self.patch(spec, "mixed_traffic_workload", "traffic.generate", after_generate)
        self.patch(spec, "single_multicast_workload", "traffic.generate", after_generate)
        self.patch(WormholeSimulator, "__init__", "simulator.init")
        self.patch(Workload, "submit_to", "simulator.submit")
        self.patch(WormholeSimulator, "run", "simulator.run", after_run)
        self.patch(ResultStore, "put_many", "sweeps.store_append", after_put_many)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


#: Span names the ledger reports as ``<name>_s`` (inclusive seconds).
LAYER_SPANS = (
    "topology.build",
    "spanning.root",
    "spanning.tree",
    "spanning.label",
    "spanning.ancestry",
    "core.skeleton",
    "routing.updown_build",
    "routing.software_run",
    "traffic.generate",
    "simulator.init",
    "simulator.submit",
    "simulator.run",
    "sweeps.store_append",
    "analysis.assemble",
)

#: Spans that contain other layers' spans and so also report a self time.
NESTING_SPANS = ("core.skeleton", "routing.software_run")


def layer_metrics(tracer: LayerTracer, telemetry, wall_ns: int, sweeps: list[dict]) -> dict:
    """The traced child's per-layer ledger (seconds, counts and ratios).

    ``wall_ns`` is the traced run's timed region and ``sweeps`` the
    accounting of each ``run_sweep`` call in it.  Metrics that need the
    untraced runs (pool efficiency, overhead ratio, warm-run numbers) are
    added by ``bench.py``.
    """
    spans = tracer.spans
    self_ns, parents = self_times(spans)
    total: dict[str, int] = dict.fromkeys(LAYER_SPANS, 0)
    own: dict[str, int] = dict.fromkeys(NESTING_SPANS, 0)
    calls: dict[str, int] = dict.fromkeys(LAYER_SPANS, 0)
    top_level_ns = 0
    for index, span in enumerate(spans):
        duration = span["end_ns"] - span["start_ns"]
        total[span["name"]] += duration
        calls[span["name"]] += 1
        if span["name"] in own:
            own[span["name"]] += self_ns[index]
        if parents[index] is None and span["name"] not in _SWEEP_INTERNAL:
            top_level_ns += duration

    metrics: dict[str, float] = {f"{name}_s": total[name] / 1e9 for name in LAYER_SPANS}
    metrics.update({f"{name}_self_s": own[name] / 1e9 for name in NESTING_SPANS})
    metrics["topology.builds"] = calls["topology.build"]
    metrics["simulator.runs"] = calls["simulator.run"]
    for name in ("traffic.messages", "simulator.flit_hops", "simulator.coalesced_ticks",
                 "sweeps.store_appends"):
        metrics[name] = tracer.counts.get(name, 0)
    hops = metrics["simulator.flit_hops"]
    metrics["simulator.ns_per_flit_hop"] = total["simulator.run"] / hops if hops else 0.0

    values = telemetry.values
    probe_ns = 0.0
    probes = 0
    for tier in PROBE_TIERS:
        dist = values.get(f"engine.probe.{tier}_ns", {"count": 0, "total": 0})
        metrics[f"simulator.probe.{tier}_s"] = dist["total"] / 1e9
        metrics[f"simulator.probe.{tier}"] = int(dist["count"])
        probe_ns += dist["total"]
        probes += int(dist["count"])
    metrics["simulator.loop_self_s"] = (total["simulator.run"] - probe_ns) / 1e9
    metrics["simulator.probe.useful_ratio"] = (
        metrics["simulator.probe.batch"] / probes if probes else 0.0
    )

    overhead_ns = sum(
        (sweep["elapsed_s"] - sweep["computed_s"]) * 1e9 for sweep in sweeps
    )
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.coverage"] = (top_level_ns + overhead_ns) / wall_ns
    return metrics
