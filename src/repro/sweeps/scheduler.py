"""Resumable parallel sweep scheduler.

:func:`run_sweep` is the single execution path for every experiment: it
takes a list of :class:`~repro.sweeps.spec.SweepPointSpec`, satisfies what
it can from the content-addressed :class:`~repro.sweeps.store.ResultStore`,
evaluates the rest — sequentially or over a
:class:`~concurrent.futures.ProcessPoolExecutor`, one point per task — and
returns results in the order the specs were given, regardless of
completion order.

Guarantees:

* **Determinism** — evaluation is a pure function of the spec (seeds
  included), so parallel and sequential runs produce bit-identical results
  and the returned list order always matches the input order.  Each
  process shares network/routing skeletons between points through the
  spec layer's cache, which never changes a result.
* **Per-point checkpointing** — every computed result is appended to the
  store the moment it arrives, so a killed run loses at most the points
  still in flight.
* **Resume** — a re-run of the same spec list completes exactly the
  missing points (``resume=False`` recomputes everything but still
  refreshes the store).
* **Explicit failures** — a point that delivers no messages raises
  :class:`~repro.errors.ZeroDeliveryError` out of :func:`run_sweep` instead
  of contributing a silent NaN row.
* **Sharding** — ``shard=(index, count)`` restricts the run to one
  deterministic, content-addressed shard of the spec list
  (:func:`~repro.sweeps.spec.shard_specs`), so several hosts can split a
  sweep without coordination and later combine their stores with
  :func:`~repro.sweeps.store.merge_stores`.  The store's ``manifest.json``
  records which points the (possibly sharded) run was responsible for.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs import Telemetry
from .spec import SweepPointResult, SweepPointSpec, evaluate_spec, shard_specs
from .store import ResultStore

__all__ = ["SweepOutcome", "run_sweep", "resolve_workers"]

#: Progress callback signature: ``(points_done, points_total, last_spec)``.
ProgressCallback = Callable[[int, int, SweepPointSpec], None]


@dataclass
class SweepOutcome:
    """What :func:`run_sweep` did: the results plus cache/time accounting."""

    results: list[SweepPointResult]
    cache_hits: int
    computed: int
    #: Wall-clock seconds the whole :func:`run_sweep` call took.
    elapsed_seconds: float = 0.0
    #: Wall-clock seconds spent evaluating points, summed across workers
    #: (exceeds ``elapsed_seconds`` under real parallelism).
    computed_seconds: float = 0.0
    #: Wall-clock seconds the cache scan took to satisfy ``cache_hits``.
    hit_seconds: float = 0.0

    @property
    def total(self) -> int:
        """Number of sweep points (== ``len(results)``)."""
        return len(self.results)

    def summary(self) -> str:
        """One-line accounting string for CLI/log output.

        The cache accounting prefix is stable (CI greps for the
        ``"N computed"`` token); timing is appended parenthetically and
        only when it was measured.
        """
        line = (
            f"{self.total} points: {self.cache_hits} cache hits, "
            f"{self.computed} computed"
        )
        if self.elapsed_seconds > 0.0:
            line += (
                f" ({self.computed_seconds:.2f} s computing, "
                f"{self.hit_seconds:.3f} s cache scan, "
                f"{self.elapsed_seconds:.2f} s elapsed)"
            )
        return line


def resolve_workers(workers: int) -> int:
    """Effective worker count: ``workers``, where ``0`` and negative values
    mean "one per CPU"."""
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _evaluate_point(
    spec: SweepPointSpec, collect_detail: bool = False
) -> tuple[SweepPointResult, dict]:
    """Worker-side entry point: evaluate one spec.

    Records the point's ``sweep.point.evaluate`` span on a private
    ``worker`` track (the parent folds the payload in for wall-time
    accounting); ``collect_detail`` additionally threads the recorder into
    the point's engine for per-probe spans.  A failing spec raises out of
    the future like any other task error.
    """
    worker = Telemetry(track="worker")
    clock = worker.clock
    start_ns = clock()
    result = evaluate_spec(spec, telemetry=worker if collect_detail else None)
    end_ns = clock()
    worker.span_at("sweep.point.evaluate", start_ns, end_ns, workload=spec.workload_kind)
    worker.value("sweep.point.evaluate_ns", end_ns - start_ns)
    return result, worker.to_payload()


def run_sweep(
    specs: Sequence[SweepPointSpec],
    store: ResultStore | None = None,
    workers: int = 1,
    resume: bool = True,
    progress: ProgressCallback | None = None,
    shard: tuple[int, int] | None = None,
    telemetry: Telemetry | None = None,
) -> SweepOutcome:
    """Evaluate ``specs``, reusing and checkpointing results via ``store``.

    Parameters
    ----------
    specs:
        The sweep points; the returned results preserve this order.
        Duplicate specs are evaluated once and fanned back out.
    store:
        Content-addressed result store; ``None`` disables caching entirely
        (no reads, no writes) — the orchestrator then just computes.
    workers:
        Process count; ``1`` (the default) runs in-process, ``0`` or
        negative means one per CPU (see :func:`resolve_workers`).
    resume:
        When ``True`` (default), stored results are reused and only missing
        points run.  When ``False`` every point is recomputed, and the fresh
        rows are appended to the store (last row wins on lookup).
    progress:
        Optional callback invoked after every completed point with
        ``(points_done, points_total, spec)``.
    shard:
        Optional 0-based ``(index, count)``: run only that deterministic
        shard of ``specs`` (see :func:`~repro.sweeps.spec.shard_specs`).
        Results cover the shard's points only; ``SweepOutcome.total`` is
        the shard size, not the full sweep's.
    telemetry:
        Wall-clock recorder (``repro.obs``).  ``None`` (the default) still
        measures the outcome's time accounting on a private recorder;
        passing a live :class:`~repro.obs.Telemetry` additionally threads
        it into every point's engine (per-probe spans) and keeps the full
        span record — worker-process telemetry is shipped back and merged
        under ``chunk{i}`` track labels, one per point.  Recording never
        changes any result (the observables firewall,
        ``docs/observability.md``).

    When a store is given, the points this run was responsible for (the
    shard's, under sharding) are recorded in the store's ``manifest.json``
    before evaluation starts, so an interrupted shard still documents what
    it owes (``ResultStore.manifest_status``).
    """
    # Accounting always runs on *some* recorder: the caller's, or a private
    # one whose spans are discarded with the outcome's timing extracted.
    acct = telemetry if telemetry is not None else Telemetry(track="sweep")
    collect_detail = telemetry is not None
    clock = acct.clock
    run_start_ns = clock()
    computed_ns = 0
    hit_ns = 0

    specs = list(specs)
    if shard is not None:
        index, count = shard
        specs = shard_specs(
            specs, index, count,
            code_salt=None if store is None else store.code_salt,
        )
    if store is not None:
        store.record_expected(specs, shard=shard)
    results: list[SweepPointResult | None] = [None] * len(specs)
    cache_hits = 0
    if store is not None and resume:
        scan_start_ns = clock()
        for index, spec in enumerate(specs):
            cached = store.get(spec)
            if cached is not None:
                results[index] = cached
                cache_hits += 1
        hit_ns = clock() - scan_start_ns
        acct.span_at(
            "sweep.cache.scan",
            scan_start_ns,
            scan_start_ns + hit_ns,
            points=len(specs),
            hits=cache_hits,
        )

    # Unique missing specs, in first-appearance order (determinism).
    pending: dict[SweepPointSpec, list[int]] = {}
    for index, result in enumerate(results):
        if result is None:
            pending.setdefault(specs[index], []).append(index)
    unique = list(pending)
    done = len(specs) - sum(len(indices) for indices in pending.values())

    def record(result: SweepPointResult) -> None:
        nonlocal done
        indices = pending[result.spec]
        for index in indices:
            results[index] = result
        if store is not None:
            with acct.span("sweep.point.store_append"):
                store.put(result)
        done += len(indices)
        if progress is not None:
            progress(done, len(specs), result.spec)

    workers = min(resolve_workers(workers), len(unique))
    try:
        if workers <= 1:
            for spec in unique:
                point_start_ns = clock()
                result = evaluate_spec(spec, telemetry=acct if collect_detail else None)
                point_end_ns = clock()
                computed_ns += point_end_ns - point_start_ns
                acct.span_at(
                    "sweep.point.evaluate",
                    point_start_ns,
                    point_end_ns,
                    workload=spec.workload_kind,
                )
                record(result)
        else:
            first_error: Exception | None = None
            dispatch_start_ns = clock()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_evaluate_point, spec, collect_detail) for spec in unique
                ]
                # Track labels come from submission order, not completion
                # order, so merged worker telemetry is stably named.
                task_index = {future: i for i, future in enumerate(futures)}
                for future in as_completed(futures):
                    try:
                        result, task_telemetry = future.result()
                    except Exception as exc:
                        # Keep draining, and cancel nothing: every other
                        # point runs to completion and is checkpointed, so a
                        # re-run only repeats the failed points — whatever
                        # the executor had or had not started when the
                        # error came.
                        if first_error is None:
                            first_error = exc
                        continue
                    evaluate_dist = task_telemetry["values"]["sweep.point.evaluate_ns"]
                    computed_ns += int(evaluate_dist["total"])
                    acct.merge_child(task_telemetry, track=f"chunk{task_index[future]}")
                    record(result)
            acct.span_at(
                "sweep.pool.dispatch",
                dispatch_start_ns,
                clock(),
                points=len(unique),
                workers=workers,
            )
            if first_error is not None:
                raise first_error
    finally:
        if store is not None:
            store.flush_index()

    elapsed_ns = clock() - run_start_ns
    acct.span_at(
        "sweep.run",
        run_start_ns,
        run_start_ns + elapsed_ns,
        points=len(specs),
        computed=len(unique),
        cache_hits=cache_hits,
    )
    return SweepOutcome(
        results=[result for result in results if result is not None],
        cache_hits=cache_hits,
        computed=len(unique),
        elapsed_seconds=elapsed_ns / 1e9,
        computed_seconds=computed_ns / 1e9,
        hit_seconds=hit_ns / 1e9,
    )
