"""Resumable parallel sweep scheduler.

:func:`run_sweep` is the single execution path for every experiment: it
takes a list of :class:`~repro.sweeps.spec.SweepPointSpec`, satisfies what
it can from the content-addressed :class:`~repro.sweeps.store.ResultStore`,
evaluates the rest — sequentially or over a chunked
:class:`~concurrent.futures.ProcessPoolExecutor` — and returns results in
the order the specs were given, regardless of completion order.

Guarantees:

* **Determinism** — evaluation is a pure function of the spec (seeds
  included), so parallel and sequential runs produce bit-identical results
  and the returned list order always matches the input order.
* **Per-point checkpointing** — every computed result is appended to the
  store the moment it arrives, so a killed run loses at most the points
  still in flight.  Batched replication mode keeps the granularity: a
  batch's results are checkpointed under their individual spec keys as the
  batch lands, and a failure mid-batch still checkpoints the replications
  that completed before it.
* **Batched replications** — ``batch_replications > 0`` groups points that
  share a network/routing skeleton (same ``network_size`` /
  ``topology_seed`` / ``root_strategy``) into
  :class:`~repro.sweeps.spec.ReplicationBatchSpec` tasks evaluated with
  shared immutable state, bit-identical per replication to the per-point
  path (:func:`~repro.sweeps.spec.iter_evaluate_batch`).
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

Worker counts default to ``$REPRO_SWEEP_WORKERS`` (sequential when unset),
so the experiment drivers and benchmarks pick up process-level parallelism
without any call-site changes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Sequence

from ..errors import SweepError
from ..obs import NullTelemetry, Telemetry, env_knob
from .spec import (
    ReplicationBatchSpec,
    SweepPointResult,
    SweepPointSpec,
    evaluate_spec,
    group_replications,
    iter_evaluate_batch,
    shard_specs,
)
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
    #: Wall-clock seconds the whole :func:`run_sweep` call took (telemetry
    #: accounting; 0.0 when the caller supplied a disabled recorder).
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


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: explicit value, else ``$REPRO_SWEEP_WORKERS``,
    else 1 (sequential).  ``0`` and negative values mean "one per CPU"."""
    if workers is None:
        raw = env_knob("REPRO_SWEEP_WORKERS", "1") or "1"
        try:
            workers = int(raw)
        except ValueError:
            raise SweepError(
                f"$REPRO_SWEEP_WORKERS must be an integer worker count "
                f"(0 or negative for one per CPU), got {raw!r}"
            ) from None
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def _evaluate_chunk(
    specs: list[SweepPointSpec], collect_detail: bool = False
) -> tuple[list[SweepPointResult], dict, Exception | None]:
    """Worker-side entry point: evaluate a chunk of specs.

    Always records one ``sweep.point.evaluate`` span per spec on a private
    ``worker`` track (the parent folds the payload in for wall-time
    accounting); ``collect_detail`` additionally threads the recorder into
    each point's engine for per-probe spans.

    A failing spec does not discard the chunk: the results computed before
    it are returned alongside the exception (third element) so the parent
    can checkpoint them — a resume then repeats only the failed point and
    whatever followed it in the chunk.
    """
    worker = Telemetry(track="worker")
    clock = worker.clock
    results: list[SweepPointResult] = []
    error: Exception | None = None
    for spec in specs:
        start_ns = clock()
        try:
            result = evaluate_spec(
                spec, telemetry=worker if collect_detail else None
            )
        except Exception as exc:
            error = exc
            break
        end_ns = clock()
        worker.span_at(
            "sweep.point.evaluate", start_ns, end_ns, workload=spec.workload_kind
        )
        worker.value("sweep.point.evaluate_ns", end_ns - start_ns)
        results.append(result)
    return results, worker.to_payload(), error


def _evaluate_batch(
    batch: ReplicationBatchSpec, collect_detail: bool = False
) -> tuple[list[SweepPointResult], dict, Exception | None]:
    """Worker-side entry point: evaluate one replication batch.

    Mirrors :func:`_evaluate_chunk` — one ``sweep.point.evaluate`` span and
    one ``sweep.point.evaluate_ns`` sample per replication on a private
    ``worker`` track, partial results plus the exception on a mid-batch
    failure — but drives :func:`~repro.sweeps.spec.iter_evaluate_batch`, so
    the network and SPAM skeleton are built once for the whole batch (the
    first replication's span absorbs that shared construction cost).
    """
    worker = Telemetry(track="worker")
    clock = worker.clock
    results: list[SweepPointResult] = []
    error: Exception | None = None
    replications = iter_evaluate_batch(
        batch, telemetry=worker if collect_detail else None
    )
    for spec in batch.specs:
        start_ns = clock()
        try:
            result = next(replications)
        except Exception as exc:
            error = exc
            break
        end_ns = clock()
        worker.span_at(
            "sweep.point.evaluate", start_ns, end_ns, workload=spec.workload_kind
        )
        worker.value("sweep.point.evaluate_ns", end_ns - start_ns)
        results.append(result)
    return results, worker.to_payload(), error


def run_sweep(
    specs: Sequence[SweepPointSpec],
    store: ResultStore | None = None,
    workers: int | None = None,
    resume: bool = True,
    chunk_size: int = 1,
    batch_replications: int = 0,
    progress: ProgressCallback | None = None,
    shard: tuple[int, int] | None = None,
    telemetry: Telemetry | NullTelemetry | None = None,
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
        Process count (see :func:`resolve_workers`); ``1`` runs in-process.
    resume:
        When ``True`` (default), stored results are reused and only missing
        points run.  When ``False`` every point is recomputed, and the fresh
        rows are appended to the store (last row wins on lookup).
    chunk_size:
        Specs per pool task.  The default of 1 gives per-point
        checkpointing and the finest progress; raise it when points are so
        cheap that pickling dominates.  Ignored in batched mode (the batch
        is the task).
    batch_replications:
        When ``> 0``, enable batched Monte-Carlo evaluation: points sharing
        a network/routing skeleton are grouped into
        :class:`~repro.sweeps.spec.ReplicationBatchSpec` batches of at most
        this many replications and evaluated with shared immutable state —
        bit-identical per replication to the per-point path, but the
        network/tree/labelling/ancestry construction is paid once per batch
        instead of once per replication.  Results are still checkpointed
        under their individual spec keys, so warm-cache, resume and
        sharding semantics are unchanged.  Use it for replication-heavy
        statistics (many points on one topology); use ``chunk_size`` when
        points are merely cheap but heterogeneous.
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
        under ``chunk{i}`` track labels (``batch{i}`` in batched mode, one
        per-replication span each).  Recording never changes any result
        (the observables firewall, ``docs/observability.md``).

    When a store is given, the points this run was responsible for (the
    shard's, under sharding) are recorded in the store's ``manifest.json``
    before evaluation starts, so an interrupted shard still documents what
    it owes (``ResultStore.manifest_status``).
    """
    # Accounting always runs on *some* recorder: the caller's, or a private
    # one whose spans are discarded with the outcome's timing extracted.
    acct: Telemetry | NullTelemetry = (
        telemetry if telemetry is not None else Telemetry(track="sweep")
    )
    collect_detail = telemetry is not None and acct.enabled
    clock = acct.clock if acct.enabled else None
    run_start_ns = clock() if clock is not None else 0
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
        scan_start_ns = clock() if clock is not None else 0
        for index, spec in enumerate(specs):
            cached = store.get(spec)
            if cached is not None:
                results[index] = cached
                cache_hits += 1
        if clock is not None:
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

    def record_all(batch_results: Sequence[SweepPointResult]) -> None:
        nonlocal done
        if not batch_results:
            return
        for result in batch_results:
            indices = pending[result.spec]
            for index in indices:
                results[index] = result
        if store is not None:
            # One append handle per arriving group — per-replication rows
            # under individual spec keys, without per-row open/close.
            with acct.span("sweep.point.store_append"):
                store.put_many(batch_results)
        for result in batch_results:
            done += len(pending[result.spec])
            if progress is not None:
                progress(done, len(specs), result.spec)

    def record(result: SweepPointResult) -> None:
        record_all([result])

    workers = resolve_workers(workers)
    batch_size = max(0, int(batch_replications or 0))
    try:
        if workers <= 1 or len(unique) <= 1:
            if batch_size > 0:
                for batch in group_replications(unique, max_batch_size=batch_size):
                    replications = iter_evaluate_batch(
                        batch, telemetry=acct if collect_detail else None
                    )
                    for spec in batch.specs:
                        point_start_ns = clock() if clock is not None else 0
                        # A mid-batch failure propagates from here with the
                        # earlier replications already recorded below.
                        result = next(replications)
                        if clock is not None:
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
                for spec in unique:
                    point_start_ns = clock() if clock is not None else 0
                    result = evaluate_spec(
                        spec, telemetry=acct if collect_detail else None
                    )
                    if clock is not None:
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
            if batch_size > 0:
                track_label = "batch"
                tasks: list = group_replications(unique, max_batch_size=batch_size)
            else:
                track_label = "chunk"
                chunk = max(1, int(chunk_size))
                tasks = [unique[i : i + chunk] for i in range(0, len(unique), chunk)]
            first_error: Exception | None = None
            dispatch_start_ns = clock() if clock is not None else 0
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
                # Explicit submit call per task shape: repro-lint R7 needs a
                # module-level callable named at the submission site.
                if batch_size > 0:
                    futures = [
                        pool.submit(_evaluate_batch, task, collect_detail)
                        for task in tasks
                    ]
                else:
                    futures = [
                        pool.submit(_evaluate_chunk, task, collect_detail)
                        for task in tasks
                    ]
                # Track labels come from submission order, not completion
                # order, so merged worker telemetry is stably named.
                task_index = {future: i for i, future in enumerate(futures)}

                def fail(exc: Exception) -> None:
                    nonlocal first_error
                    # Keep draining, and cancel nothing: every other task
                    # runs to completion and is checkpointed, so a re-run
                    # only repeats the failed points — whatever the
                    # executor had or had not started when the error came.
                    if first_error is None:
                        first_error = exc

                for future in as_completed(futures):
                    try:
                        task_results, task_telemetry, task_error = future.result()
                    except Exception as exc:
                        fail(exc)
                        continue
                    evaluate_dist = task_telemetry.get("values", {}).get(
                        "sweep.point.evaluate_ns"
                    )
                    if evaluate_dist is not None:
                        computed_ns += int(evaluate_dist["total"])
                    acct.merge_child(
                        task_telemetry, track=f"{track_label}{task_index[future]}"
                    )
                    record_all(task_results)
                    if task_error is not None:
                        fail(task_error)
            if clock is not None:
                acct.span_at(
                    "sweep.pool.dispatch",
                    dispatch_start_ns,
                    clock(),
                    chunks=len(tasks),
                    workers=min(workers, len(tasks)),
                )
            if first_error is not None:
                raise first_error
    finally:
        if store is not None:
            store.flush_index()

    elapsed_ns = 0
    if clock is not None:
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
