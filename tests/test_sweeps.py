"""Tests for the sweep orchestration subsystem (:mod:`repro.sweeps`).

Covers the satellite guarantees the subsystem exists to provide:

* spec hashing is stable and sensitive to every field plus the code salt;
* the store round-trips results, survives a truncated trailing line (a run
  killed mid-append), serves rows another instance appended and ignores a
  leftover ``index.json``, but refuses a corrupt row before the tail and
  never serves a row of another code salt;
* parallel and sequential runs are bit-identical under the same seeds;
* cache hit/miss accounting and code-salt invalidation;
* an interrupted sweep resumes by computing exactly the missing points;
* a failing point stops no other point from being stored, at any worker
  count;
* progress reports every stored point once, and fewer than two missing
  points start no process pool;
* the sharding, manifest and merging API and CLI surface stay deleted;
* zero-delivery points surface as explicit errors, not NaN rows;
* ``tools/sweep_resume_check.py`` passes end to end, including its
  stored Figure-3 digest.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import SweepError, ZeroDeliveryError
from repro.experiments.figure2 import Figure2Config, figure2_result_from_points, figure2_specs
from repro.experiments.figure3 import Figure3Config, figure3_specs
from repro.experiments.common import ExperimentScale, SCALES
from repro.simulator.engine import WormholeSimulator
from repro.simulator.links import LinkState
from repro.simulator.router import SourceInterface, WormSegment
import repro.sweeps.store as store_module
from repro.sweeps import (
    ResultStore,
    SweepOutcome,
    SweepPointResult,
    SweepPointSpec,
    evaluate_spec,
    resolve_workers,
    run_sweep,
    spec_key,
)

ROOT = Path(__file__).resolve().parent.parent
SMOKE = SCALES["smoke"]


def small_specs(counts=(1, 4), network_size=16, samples=1):
    config = Figure2Config(
        network_sizes=(network_size,),
        destination_counts={network_size: list(counts)},
        scale=ExperimentScale(
            name="tiny", message_length_flits=16, samples_per_point=samples,
            messages_per_rate_point=10,
        ),
    )
    return config, figure2_specs(config)


BASE_SPEC = SweepPointSpec(
    workload_kind="single-multicast",
    network_size=16,
    topology_seed=3,
    message_length_flits=16,
    workload_params=(("num_destinations", 4), ("samples", 2)),
    workload_seed=5,
    x=4.0,
)


def synthetic_result(seed=5, latency=1.0, metrics=(("tree_root", 0),)) -> SweepPointResult:
    """A result of ``BASE_SPEC`` at workload seed ``seed``, built directly
    (no simulation), for store tests that only need rows."""
    return SweepPointResult(
        spec=replace(BASE_SPEC, workload_seed=seed),
        latencies_us=(latency,),
        metrics=metrics,
    )


def next_schema_version(monkeypatch) -> None:
    """Give every key and row from here on a new code salt, as a bump of
    ``STORE_SCHEMA_VERSION`` does."""
    monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", store_module.STORE_SCHEMA_VERSION + 1)


class TestSpecKey:
    def test_stable_for_equal_specs(self):
        clone = SweepPointSpec(**{f: getattr(BASE_SPEC, f) for f in (
            "workload_kind", "network_size", "topology_seed", "message_length_flits",
            "workload_params", "workload_seed", "root_strategy", "selection",
            "selection_seed", "sim_overrides", "label", "x")})
        assert spec_key(BASE_SPEC) == spec_key(clone)

    def test_sensitive_to_every_field(self):
        base = spec_key(BASE_SPEC)
        from dataclasses import replace
        variants = [
            replace(BASE_SPEC, workload_seed=6),
            replace(BASE_SPEC, topology_seed=4),
            replace(BASE_SPEC, message_length_flits=32),
            replace(BASE_SPEC, workload_params=(("num_destinations", 5), ("samples", 2))),
            replace(BASE_SPEC, sim_overrides=(("input_buffer_depth", 2),)),
            replace(BASE_SPEC, selection="first-allowed"),
            replace(BASE_SPEC, root_strategy="first"),
            replace(BASE_SPEC, label="other"),
            replace(BASE_SPEC, x=5.0),
        ]
        keys = {base} | {spec_key(v) for v in variants}
        assert len(keys) == len(variants) + 1

    def test_sensitive_to_code_salt(self, monkeypatch):
        before = spec_key(BASE_SPEC)
        next_schema_version(monkeypatch)
        assert spec_key(BASE_SPEC) != before


class TestResultStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        result = evaluate_spec(BASE_SPEC)
        assert store.get(BASE_SPEC) is None
        store.put(result)
        # A brand-new store instance (fresh scan) sees the same row.
        reopened = ResultStore(tmp_path / "cache")
        loaded = reopened.get(BASE_SPEC)
        assert loaded is not None
        assert loaded.latencies_us == result.latencies_us
        assert loaded.metrics == result.metrics

    def test_an_instance_serves_rows_another_instance_appended(self, tmp_path):
        """An instance whose offset map predates another instance's append
        notices it (the file's size no longer matches the size the map
        covers), rescans and serves the new row; a fresh open serves
        every row."""
        spec_a, spec_b = BASE_SPEC, replace(BASE_SPEC, workload_seed=6)
        store = ResultStore(tmp_path / "cache")
        store.put(synthetic_result(seed=5, latency=1.0))
        assert store.get(spec_b) is None
        ResultStore(tmp_path / "cache").put(synthetic_result(seed=6, latency=2.0))
        assert store.get(spec_b).latencies_us == (2.0,)
        for instance in (store, ResultStore(tmp_path / "cache")):
            assert len(instance) == 2
            assert instance.get(spec_a).latencies_us == (1.0,)
            assert instance.get(spec_b).latencies_us == (2.0,)

    def test_the_file_is_rescanned_only_after_it_changed(self, tmp_path, monkeypatch):
        """The offset map is built by one scan and kept in step by the
        instance's own appends; only another instance's append, which
        changes the file's size behind it, makes an access scan again."""
        scans = []
        scan = ResultStore._scan
        monkeypatch.setattr(ResultStore, "_scan", lambda store: (scans.append(store), scan(store)))
        spec_2 = replace(BASE_SPEC, workload_seed=2)
        writer = ResultStore(tmp_path / "cache")
        writer.put_many([synthetic_result(seed=1, latency=1.0), synthetic_result(seed=2, latency=2.0)])
        writer.put(synthetic_result(seed=3, latency=3.0))
        assert len(writer) == 3 and writer.get(spec_2).latencies_us == (2.0,)
        assert scans == [writer]
        reader = ResultStore(tmp_path / "cache")
        for _ in range(3):
            assert reader.get(spec_2).latencies_us == (2.0,) and len(reader) == 3
        assert scans == [writer, reader]
        writer.put(synthetic_result(seed=4, latency=4.0))
        assert len(reader) == 4 and len(writer) == 4
        assert scans == [writer, reader, reader]

    def test_truncated_tail_is_dropped(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(evaluate_spec(BASE_SPEC))
        # Simulate a run killed mid-append: garbage half-line at the end.
        with open(store.results_path, "ab") as handle:
            handle.write(b'{"key": "deadbeef", "latencies')
        reopened = ResultStore(tmp_path / "cache")
        assert reopened.get(BASE_SPEC) is not None
        # The partial line was cut off, so appends produce a valid file.
        from dataclasses import replace
        other = replace(BASE_SPEC, workload_seed=6)
        reopened.put(evaluate_spec(other))
        final = ResultStore(tmp_path / "cache")
        assert final.get(other) is not None
        assert len(final) == 2

    @pytest.mark.parametrize("tail", [b"{", b'{"key": "dead', b'{"key": "beef"}'],
                             ids=["brace", "cut-off-row", "row-without-newline"])
    def test_killed_append_is_cut_back_to_the_last_complete_row(self, tmp_path, tail):
        """The next open truncates the file to exactly its rows that end in
        a newline, a complete row without one included, so the next append
        starts on a line of its own."""
        store = ResultStore(tmp_path / "cache")
        store.put(synthetic_result(seed=1))
        valid = store.results_path.read_bytes()
        with open(store.results_path, "ab") as handle:
            handle.write(tail)
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 1
        assert store.results_path.read_bytes() == valid
        reopened.put(synthetic_result(seed=2))
        data = store.results_path.read_bytes()
        assert data.startswith(valid) and data.count(b"\n") == 2
        assert len(ResultStore(tmp_path / "cache")) == 2

    @pytest.mark.parametrize("row", [b"not json\n", b'{"salt": "x"}\n', b"[1, 2]\n"],
                             ids=["not-json", "no-key", "not-an-object"])
    def test_corrupt_row_before_the_tail_raises(self, tmp_path, row):
        """Only the last line may be cut off: a bad row with a row after it
        is corruption, reported with its byte offset, and the file is left
        as it was."""
        store = ResultStore(tmp_path / "cache")
        store.put(synthetic_result())
        valid = store.results_path.read_bytes()
        with open(store.results_path, "ab") as handle:
            handle.write(row + valid)
        corrupt = store.results_path.read_bytes()
        with pytest.raises(SweepError, match=f"corrupt sweep store row at byte {len(valid)} "):
            ResultStore(tmp_path / "cache").get(BASE_SPEC)
        assert store.results_path.read_bytes() == corrupt

    @pytest.mark.parametrize("leftover", ["garbage", "swapped-offsets"])
    def test_a_leftover_index_json_is_neither_read_nor_rewritten(self, tmp_path, leftover):
        """Older versions kept a byte-offset map, ``index.json``, next to the
        rows and trusted it whenever its recorded size matched the data
        file.  A root that still holds one, garbage or of the right size
        with two rows' offsets swapped, serves every row correctly, and
        reads, appends and a sweep leave the file's bytes as they were."""
        store = ResultStore(tmp_path / "cache")
        keys = store.put_many([synthetic_result(seed=1, latency=1.0),
                               synthetic_result(seed=2, latency=2.0)])
        first_row = store.results_path.read_bytes().splitlines(keepends=True)[0]
        index_path = store.root / "index.json"
        if leftover == "garbage":
            index_path.write_bytes(b"{")
        else:
            index_path.write_text(json.dumps({
                "size": store.results_path.stat().st_size,
                "offsets": {keys[0]: len(first_row), keys[1]: 0},
            }, sort_keys=True))
        leftover_bytes = index_path.read_bytes()
        spec_1, spec_2 = (replace(BASE_SPEC, workload_seed=seed) for seed in (1, 2))

        reopened = ResultStore(tmp_path / "cache")
        assert reopened.get(spec_1).latencies_us == (1.0,)
        assert reopened.get(spec_2).latencies_us == (2.0,)
        reopened.put(synthetic_result(seed=3, latency=3.0))
        outcome = run_sweep([spec_2, spec_1], store=ResultStore(tmp_path / "cache"))
        assert (outcome.cache_hits, outcome.computed) == (2, 0)
        assert [result.latencies_us for result in outcome.results] == [(2.0,), (1.0,)]
        assert index_path.read_bytes() == leftover_bytes

    def test_put_many_appends_in_order_and_returns_the_keys(self, tmp_path):
        """One ``put_many`` writes its rows in the order given, returns their
        keys in that order, and a key written twice serves its last row."""
        results = [synthetic_result(7, 1.0), synthetic_result(3, 2.0), synthetic_result(7, 3.0)]
        store = ResultStore(tmp_path / "cache")
        keys = store.put_many(results)
        assert keys == [store.key(result.spec) for result in results]
        rows = store.results_path.read_bytes().splitlines()
        assert [json.loads(row)["key"] for row in rows] == keys
        again = replace(BASE_SPEC, workload_seed=7)
        assert store.get(again).latencies_us == (3.0,)
        assert ResultStore(tmp_path / "cache").get(again).latencies_us == (3.0,)

    def test_put_many_of_nothing_writes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        assert store.put_many([]) == []
        assert not store.root.exists()

    def test_metric_order_survives_the_round_trip(self, tmp_path):
        """Metrics are stored as pairs, so their order (the report tables'
        column order) is not sorted away by canonical JSON."""
        metrics = (("zeta", 1), ("alpha", 2.5), ("mid", 3))
        store = ResultStore(tmp_path / "cache")
        store.put(synthetic_result(metrics=metrics))
        assert ResultStore(tmp_path / "cache").get(BASE_SPEC).metrics == metrics

    def test_rows_of_another_code_salt_are_never_served(self, tmp_path, monkeypatch):
        """A root that spans a code upgrade holds one spec's rows under both
        salts; each store serves only the row of the current salt."""
        old = store_module.STORE_SCHEMA_VERSION
        ResultStore(tmp_path / "cache").put(synthetic_result(latency=1.0))
        next_schema_version(monkeypatch)
        new = ResultStore(tmp_path / "cache")
        assert new.get(BASE_SPEC) is None and BASE_SPEC not in new
        new.put(synthetic_result(latency=2.0))
        for version, latency in ((old + 1, 2.0), (old, 1.0)):
            monkeypatch.setattr(store_module, "STORE_SCHEMA_VERSION", version)
            assert ResultStore(tmp_path / "cache").get(BASE_SPEC).latencies_us == (latency,)


class TestRunSweep:
    def test_results_preserve_spec_order(self):
        _config, specs = small_specs((4, 1))
        outcome = run_sweep(specs)
        assert [r.spec.x for r in outcome.results] == [s.x for s in specs]
        assert outcome.computed == len(specs)
        assert outcome.cache_hits == 0

    def test_duplicate_specs_computed_once(self):
        _config, specs = small_specs((1,))
        outcome = run_sweep(specs * 3)
        assert outcome.total == 3
        assert outcome.computed == 1
        assert len({id(r) for r in outcome.results}) == 1

    @pytest.mark.slow
    def test_parallel_matches_sequential_bit_identically(self):
        _config, specs = small_specs((1, 4, 8))
        sequential = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert [r.latencies_us for r in sequential.results] == [
            r.latencies_us for r in parallel.results
        ]
        assert [r.metrics for r in sequential.results] == [
            r.metrics for r in parallel.results
        ]

    def test_cache_hit_miss_accounting(self, tmp_path):
        _config, specs = small_specs((1, 4))
        store = ResultStore(tmp_path / "cache")
        cold = run_sweep(specs, store=store)
        assert (cold.cache_hits, cold.computed) == (0, 2)
        assert [path.name for path in store.root.iterdir()] == ["results.jsonl"]
        warm = run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        assert (warm.cache_hits, warm.computed) == (2, 0)
        assert [r.latencies_us for r in warm.results] == [
            r.latencies_us for r in cold.results
        ]

    def test_code_salt_invalidates(self, tmp_path, monkeypatch):
        _config, specs = small_specs((1,))
        run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        next_schema_version(monkeypatch)
        salted = run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        assert (salted.cache_hits, salted.computed) == (0, 1)

    def test_no_resume_recomputes_but_refreshes_store(self, tmp_path):
        _config, specs = small_specs((1,))
        store = ResultStore(tmp_path / "cache")
        run_sweep(specs, store=store)
        again = run_sweep(specs, store=store, resume=False)
        assert (again.cache_hits, again.computed) == (0, 1)
        assert ResultStore(tmp_path / "cache").get(specs[0]) is not None

    def test_resume_completes_exactly_the_missing_points(self, tmp_path):
        _config, specs = small_specs((1, 4, 8, 15))
        full = run_sweep(specs, store=ResultStore(tmp_path / "full"))
        # Simulate an interrupted sweep: a store holding only half the rows.
        partial_store = ResultStore(tmp_path / "partial")
        for result in full.results[:2]:
            partial_store.put(result)
        resumed = run_sweep(specs, store=ResultStore(tmp_path / "partial"))
        assert (resumed.cache_hits, resumed.computed) == (2, 2)
        assert [r.latencies_us for r in resumed.results] == [
            r.latencies_us for r in full.results
        ]
        # The store now holds the complete sweep.
        assert all(spec in ResultStore(tmp_path / "partial") for spec in specs)

    def test_zero_delivery_is_an_explicit_error(self, monkeypatch):
        import repro.sweeps.spec as spec_module
        monkeypatch.setattr(spec_module, "_run_latencies",
                            lambda *args, **kwargs: [])
        _config, specs = small_specs((1,))
        with pytest.raises(ZeroDeliveryError):
            run_sweep(specs, workers=1)

    def test_mean_us_raises_on_empty(self):
        result = SweepPointResult(spec=BASE_SPEC, latencies_us=())
        with pytest.raises(ZeroDeliveryError):
            result.mean_us

    def test_stateful_selection_is_deterministic_per_point(self):
        """A spec using the stateful "random" selection must evaluate to the
        same result every time: routing built on a stateful selection is
        never shared between evaluations (regression: a shared lru-cached
        RandomSelection RNG made results depend on evaluation history,
        breaking the content-addressed cache contract)."""
        from dataclasses import replace

        spec = replace(BASE_SPEC, selection="random", selection_seed=17)
        first = evaluate_spec(spec)
        second = evaluate_spec(spec)
        assert first.latencies_us == second.latencies_us

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_failure_still_checkpoints_completed_points(self, tmp_path, workers):
        """A failing point must not discard other points' checkpoints, at
        any worker count: every other point is evaluated and stored before
        the first error is raised."""
        good = BASE_SPEC
        bad = replace(BASE_SPEC, workload_kind="bogus-kind")
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(ValueError, match="bogus-kind"):
            run_sweep([bad, good], store=store, workers=workers)
        assert ResultStore(tmp_path / "cache").get(good) is not None

    def test_first_failing_point_is_raised_after_the_rest_are_stored(self, tmp_path):
        """In-process, points run in spec order: of two failing points the
        first one's error is raised, and the good point between them is
        stored first."""
        first = replace(BASE_SPEC, workload_kind="bogus-first")
        second = replace(BASE_SPEC, workload_kind="bogus-second")
        with pytest.raises(ValueError, match="bogus-first"):
            run_sweep([first, BASE_SPEC, second], store=ResultStore(tmp_path / "cache"))
        assert ResultStore(tmp_path / "cache").get(BASE_SPEC) is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_reports_each_stored_point_once(self, tmp_path, workers):
        """Progress fires once per computed point, as it is stored; its count
        starts from the cache hits and advances by every copy of a repeated
        spec, so the last call reports the total."""
        _config, specs = small_specs((1, 4, 8))
        store = ResultStore(tmp_path / "cache")
        run_sweep(specs[:1], store=store)
        calls = []
        run_sweep(
            [*specs, specs[1]], store=store, workers=workers,
            progress=lambda done, total, spec: calls.append((done, total, spec)),
        )
        copies = {specs[1]: 2, specs[2]: 1}
        assert len(calls) == 2 and {spec for _, _, spec in calls} == set(copies)
        done = 1  # the cache hit
        for reported, total, spec in calls:
            done += copies[spec]
            assert (reported, total) == (done, 4)
        if workers == 1:
            assert [spec for _, _, spec in calls] == specs[1:]

    @pytest.mark.parametrize("warm", [False, True], ids=["one-missing-point", "warm"])
    def test_no_pool_for_fewer_than_two_missing_points(self, tmp_path, monkeypatch, warm):
        """``workers`` is capped by the number of distinct missing points:
        one missing point runs in-process, and a warm re-run starts no
        pool, whatever ``workers`` asks for."""
        import repro.sweeps.scheduler as scheduler

        store = ResultStore(tmp_path / "cache")
        if warm:
            run_sweep([BASE_SPEC], store=store)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(scheduler, "ProcessPoolExecutor", no_pool)
        outcome = run_sweep([BASE_SPEC, BASE_SPEC], store=store, workers=4)
        assert (outcome.cache_hits, outcome.computed) == ((2, 0) if warm else (0, 1))

    def test_without_a_store_nothing_is_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        outcome = run_sweep([BASE_SPEC], store=None)
        assert outcome.computed == 1
        assert list(tmp_path.iterdir()) == []

    def test_run_sweep_takes_no_shard(self):
        """One store per run: passing the deleted ``shard`` parameter is a
        TypeError, not a silently whole run."""
        with pytest.raises(TypeError, match="shard"):
            run_sweep([BASE_SPEC], shard=(1, 2))

    def test_summary_keeps_its_accounting_prefix(self):
        """The summary starts with the point, hit and computed counts (CI
        greps the ``N computed`` token); timing follows only when measured."""
        results = [synthetic_result(seed) for seed in (1, 2, 3)]
        untimed = SweepOutcome(results=results, cache_hits=2, computed=1)
        assert untimed.summary() == "3 points: 2 cache hits, 1 computed"
        timed = replace(untimed, elapsed_seconds=1.5, computed_seconds=2.25, hit_seconds=0.004)
        assert timed.summary() == (
            "3 points: 2 cache hits, 1 computed "
            "(2.25 s computing, 0.004 s cache scan, 1.50 s elapsed)"
        )


#: Smoke-sized parameters of every workload kind ``evaluate_spec`` runs.
_KIND_PARAMS = {
    "single-multicast": (("num_destinations", 8), ("samples", SMOKE.samples_per_point)),
    "mixed": (
        ("rate_per_us", 0.02),
        ("multicast_destinations", 4),
        ("num_messages", SMOKE.messages_per_rate_point),
    ),
    "software-comparison": (
        ("num_destinations", 8),
        ("samples", 1),
        ("run_software_baseline", True),
    ),
    "partitioned-multicast": (("num_destinations", 12), ("groups", 2)),
}


@pytest.mark.parametrize("kind", sorted(_KIND_PARAMS))
def test_evaluated_point_leaves_no_engine_object_for_the_collector(kind):
    """Every simulator a point runs is freed by reference counting when
    ``evaluate_spec`` returns: with the cyclic collector off, no engine,
    link, worm segment or source NI it created is left."""
    spec = SweepPointSpec(
        workload_kind=kind,
        network_size=32,
        topology_seed=3,
        message_length_flits=SMOKE.message_length_flits,
        workload_params=_KIND_PARAMS[kind],
        workload_seed=5,
    )
    engine_types = (WormholeSimulator, LinkState, WormSegment, SourceInterface)
    gc.collect()
    gc.disable()
    try:
        # Held, so that no id of an older object is reused by a new one.
        older = [obj for obj in gc.get_objects() if type(obj) in engine_types]
        seen = {id(obj) for obj in older}
        result = evaluate_spec(spec)
        left = [
            obj for obj in gc.get_objects()
            if type(obj) in engine_types and id(obj) not in seen
        ]
    finally:
        gc.enable()
    assert result.latencies_us
    assert left == []


class TestResolveWorkers:
    def test_env_values_still_resolve(self, monkeypatch):
        """Whatever the former ``$REPRO_SWEEP_WORKERS`` holds, a worker count
        resolves from the argument alone: ``0`` or negative means one per
        usable CPU, anything else is taken as given.  Pinned to one CPU of
        two (``taskset -c 0``), one per usable CPU is one worker."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert resolve_workers(0) == resolve_workers(-1) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(2) == 2

    def test_falls_back_to_the_cpu_count_without_affinity(self, monkeypatch):
        """Platforms without ``sched_getaffinity`` (macOS, Windows) count
        every CPU, and at least one."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_workers(0) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1


class TestFigureIntegration:
    def test_figure2_warm_cache_is_bit_identical(self, tmp_path):
        config, specs = small_specs((1, 4, 15))
        store = ResultStore(tmp_path / "cache")
        cold = run_sweep(specs, store=store)
        warm = run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        assert warm.cache_hits == len(specs)
        cold_fig = figure2_result_from_points(config, cold.results)
        warm_fig = figure2_result_from_points(config, warm.results)
        assert json.dumps(cold_fig.as_dict(), sort_keys=True) == json.dumps(
            warm_fig.as_dict(), sort_keys=True
        )

    def test_figure3_specs_route_through_orchestrator(self, tmp_path):
        config = Figure3Config(
            network_size=16,
            multicast_degrees=(4,),
            arrival_rates_per_us=(0.01,),
            scale=SMOKE,
        )
        outcome = run_sweep(figure3_specs(config), store=ResultStore(tmp_path / "c"))
        assert outcome.total == 1
        assert outcome.results[0].latencies_us
        again = run_sweep(figure3_specs(config), store=ResultStore(tmp_path / "c"))
        assert again.cache_hits == 1


class TestSweepCli:
    def test_sweep_command_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "--scale", "smoke", "figure2", "--network-sizes", "16",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        rc = main(argv + ["--export", str(tmp_path / "cold.json")])
        assert rc == 0
        cold_out = capsys.readouterr().out
        assert "0 cache hits" in cold_out
        rc = main(argv + ["--export", str(tmp_path / "warm.json")])
        assert rc == 0
        warm_out = capsys.readouterr().out
        assert " 0 computed" in warm_out
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    @pytest.mark.parametrize("argv, error", [
        (["figure2", "--rates", "0.01"], "unrecognized arguments"),
        (["compare", "--degrees", "8"], "unrecognized arguments"),
        (["ablations", "--network-size", "16"], "unrecognized arguments"),
        (["--scale", "smoke", "figure2", "--into", "DST"], "unrecognized arguments"),
        # One store per run: no --shard flag and no merge verb.
        (["figure2", "--shard", "1/2"], "unrecognized arguments"),
        (["merge", "--into", "DST", "SRC"], "invalid choice"),
    ], ids=["figure2-rates", "compare-degrees", "ablations-network-size", "figure2-into",
            "figure2-shard", "merge"])
    def test_flags_of_other_verbs_are_rejected(self, argv, error, tmp_path, capsys, monkeypatch):
        """Each verb takes only its own flags; a flag of another verb, or a
        flag or verb that does not exist, is a usage error that writes
        nothing rather than being silently dropped."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert error in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_command_no_cache(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)  # the default store is CWD-relative
        rc = main([
            "--scale", "smoke", "compare", "--network-size", "16",
            "--destinations", "8", "--bound-only", "--no-cache",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert not (tmp_path / ".sweep-cache").exists()

    def test_no_resume_recomputes_every_point_into_the_same_store(self, tmp_path, capsys):
        """``--no-resume`` reads no stored row, appends a fresh row per
        point (the last row wins), and exports the same bytes."""
        from repro.cli import main

        cache = tmp_path / "cache"
        argv = ["--scale", "smoke", "figure2", "--network-sizes", "16", "--cache-dir", str(cache)]
        assert main(argv + ["--export", str(tmp_path / "cold.json")]) == 0
        rows = len((cache / "results.jsonl").read_bytes().splitlines())
        capsys.readouterr()
        assert main(argv + ["--no-resume", "--export", str(tmp_path / "again.json")]) == 0
        assert f"{rows} points: 0 cache hits, {rows} computed" in capsys.readouterr().out
        assert len((cache / "results.jsonl").read_bytes().splitlines()) == 2 * rows
        assert len(ResultStore(cache)) == rows
        assert [path.name for path in cache.iterdir()] == ["results.jsonl"]
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_workers_help_counts_usable_cpus(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["figure3", "--help"])
        assert exit_info.value.code == 0
        assert "0 = one per usable CPU" in " ".join(capsys.readouterr().out.split())


def test_sharding_and_merging_api_is_gone():
    """One store per run: the sharding, manifest and merging names are not
    importable from any module that once held them."""
    import repro.analysis.sweeps as analysis_sweeps
    import repro.sweeps as sweeps
    import repro.sweeps.spec as spec_module
    import repro.sweeps.store as store_module

    removed = {
        sweeps: ("spec_from_dict", "shard_specs", "parse_shard", "ManifestStatus",
                 "MergeReport", "merge_stores"),
        spec_module: ("shard_specs", "parse_shard", "spec_from_dict"),
        store_module: ("merge_stores", "MergeReport", "ManifestStatus", "read_manifest",
                       "record_expected", "manifest_status"),
        ResultStore: ("iter_results", "clear", "get_row", "iter_raw_rows", "append_rows"),
        analysis_sweeps: ("SweepCoverage", "sweep_coverage"),
    }
    for owner, names in removed.items():
        assert [name for name in names if hasattr(owner, name)] == [], owner
    assert len(sweeps.__all__) == 12
    assert all(hasattr(sweeps, name) for name in sweeps.__all__)


def test_sweep_resume_check_tool_passes():
    """The CI sweep-smoke job's tool: cold export against the stored
    Figure-3 digest, warm re-run, and resume after losing half the rows."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep_resume_check.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "sweep resume check PASSED" in completed.stdout
