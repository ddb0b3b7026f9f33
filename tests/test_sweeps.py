"""Tests for the sweep orchestration subsystem (:mod:`repro.sweeps`).

Covers the satellite guarantees the subsystem exists to provide:

* spec hashing is stable and sensitive to every field plus the code salt;
* the store round-trips results, survives a truncated trailing line (a run
  killed mid-append) and rebuilds a stale index;
* parallel and sequential runs are bit-identical under the same seeds;
* cache hit/miss accounting and code-salt invalidation;
* an interrupted sweep resumes by computing exactly the missing points;
* zero-delivery points surface as explicit errors, not NaN rows;
* multi-host sharding: `shard_specs` is a reorder-stable disjoint cover,
  shards merged with `merge_stores` reproduce the unsharded figure export
  byte for byte, manifests account for owed points, and a cleared store's
  index is never trusted stale after a merge re-populates it.
"""

from __future__ import annotations

import gc
import json
import os
from dataclasses import replace

import pytest

from repro.errors import SweepError, ZeroDeliveryError
from repro.experiments.figure2 import Figure2Config, figure2_result_from_points, figure2_specs
from repro.experiments.figure3 import Figure3Config, figure3_result_from_points, figure3_specs
from repro.experiments.common import ExperimentScale, SCALES
from repro.simulator.engine import WormholeSimulator
from repro.simulator.links import LinkState
from repro.simulator.router import SourceInterface, WormSegment
from repro.sweeps import (
    ResultStore,
    SweepPointResult,
    SweepPointSpec,
    evaluate_spec,
    merge_stores,
    parse_shard,
    run_sweep,
    shard_specs,
    spec_key,
)

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

    def test_sensitive_to_code_salt(self):
        assert spec_key(BASE_SPEC, "salt-a") != spec_key(BASE_SPEC, "salt-b")


class TestResultStore:
    def test_roundtrip_and_persistence(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        result = evaluate_spec(BASE_SPEC)
        assert store.get(BASE_SPEC) is None
        store.put(result)
        store.flush_index()
        # A brand-new store instance (fresh index load) sees the same row.
        reopened = ResultStore(tmp_path / "cache")
        loaded = reopened.get(BASE_SPEC)
        assert loaded is not None
        assert loaded.latencies_us == result.latencies_us
        assert loaded.metrics == result.metrics

    def test_stale_index_triggers_rescan(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(evaluate_spec(BASE_SPEC))
        store.flush_index()
        # Append another row without updating the index: size mismatch.
        from dataclasses import replace
        other = replace(BASE_SPEC, workload_seed=6)
        second = ResultStore(tmp_path / "cache")
        second.put(evaluate_spec(other))
        third = ResultStore(tmp_path / "cache")
        assert third.get(BASE_SPEC) is not None
        assert third.get(other) is not None

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

    def test_iter_results_rebuilds_specs(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        result = evaluate_spec(BASE_SPEC)
        store.put(result)
        (loaded,) = list(store.iter_results())
        assert loaded.spec == BASE_SPEC
        assert loaded.latencies_us == result.latencies_us


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
        warm = run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        assert (warm.cache_hits, warm.computed) == (2, 0)
        assert [r.latencies_us for r in warm.results] == [
            r.latencies_us for r in cold.results
        ]

    def test_code_salt_invalidates(self, tmp_path):
        _config, specs = small_specs((1,))
        run_sweep(specs, store=ResultStore(tmp_path / "cache"))
        salted = run_sweep(specs, store=ResultStore(tmp_path / "cache", code_salt="v2"))
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
        partial_store.flush_index()
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
    def test_worker_failure_still_checkpoints_completed_points(self, tmp_path):
        """A failing point must not discard other points' checkpoints: the
        pool path drains remaining futures and stores their results before
        re-raising the first error."""
        from dataclasses import replace

        good = BASE_SPEC
        bad = replace(BASE_SPEC, workload_kind="bogus-kind")
        store = ResultStore(tmp_path / "cache")
        with pytest.raises(ValueError):
            run_sweep([bad, good], store=store, workers=2)
        assert ResultStore(tmp_path / "cache").get(good) is not None


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
    "partitioned-multicast": (
        ("num_destinations", 12),
        ("groups", 2),
        ("strategy", "contiguous"),
    ),
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
        CPU, anything else is taken as given."""
        from repro.sweeps import resolve_workers

        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert resolve_workers(0) == resolve_workers(-1) == (os.cpu_count() or 1)
        assert resolve_workers(1) == 1
        assert resolve_workers(2) == 2


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


class TestSharding:
    def test_disjoint_cover_for_several_shardings(self):
        """For several (index, count) combinations, the shards partition the
        spec list: pairwise disjoint and jointly exhaustive."""
        specs = [replace(BASE_SPEC, workload_seed=seed) for seed in range(17)]
        whole = sorted(spec_key(spec) for spec in specs)
        for count in (1, 2, 3, 4, 7):
            shards = [shard_specs(specs, index, count) for index in range(count)]
            keys = [set(spec_key(spec) for spec in shard) for shard in shards]
            for i in range(count):
                for j in range(i + 1, count):
                    assert not keys[i] & keys[j], (count, i, j)
            assert sorted(key for shard_keys in keys for key in shard_keys) == whole

    def test_membership_stable_under_reordering(self):
        """Two hosts building the spec list in different orders agree on
        every spec's shard (partitioning is content-addressed, not
        positional)."""
        specs = [replace(BASE_SPEC, workload_seed=seed) for seed in range(11)]
        forward = shard_specs(specs, 1, 3)
        backward = shard_specs(list(reversed(specs)), 1, 3)
        assert {spec_key(s) for s in forward} == {spec_key(s) for s in backward}
        # Input order is preserved within a shard.
        assert forward == list(reversed(backward))

    def test_single_shard_is_identity(self):
        specs = [replace(BASE_SPEC, workload_seed=seed) for seed in range(5)]
        assert shard_specs(specs, 0, 1) == specs

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            shard_specs([BASE_SPEC], 2, 2)
        with pytest.raises(ValueError):
            shard_specs([BASE_SPEC], -1, 2)
        with pytest.raises(ValueError):
            shard_specs([BASE_SPEC], 0, 0)

    def test_parse_shard(self):
        assert parse_shard("1/4") == (0, 4)
        assert parse_shard("4/4") == (3, 4)
        for bad in ("0/4", "5/4", "1", "a/b", "1/0", "1/2/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_mixed_shard_runs_drop_the_manifest_tag(self, tmp_path):
        """Two different shards accumulating into one store union their
        expected keys, but the manifest's shard tag must drop to None —
        labelling the union with the latest shard would mis-attribute the
        other shard's owed points to it."""
        _config, specs = small_specs((1, 4, 8, 15))
        store = ResultStore(tmp_path / "cache")
        store.record_expected(shard_specs(specs, 0, 2), shard=(0, 2))
        assert store.manifest_status().shard == (0, 2)
        store.record_expected(shard_specs(specs, 0, 2), shard=(0, 2))
        assert store.manifest_status().shard == (0, 2)  # same tag survives
        store.record_expected(shard_specs(specs, 1, 2), shard=(1, 2))
        status = store.manifest_status()
        assert status.shard is None
        assert set(status.expected) == {store.key(spec) for spec in specs}

    def test_run_sweep_shard_records_manifest(self, tmp_path):
        _config, specs = small_specs((1, 4, 8, 15))
        store = ResultStore(tmp_path / "cache")
        outcome = run_sweep(specs, store=store, shard=(0, 2))
        shard = shard_specs(specs, 0, 2, code_salt=store.code_salt)
        assert outcome.total == len(shard)
        status = ResultStore(tmp_path / "cache").manifest_status()
        assert status is not None
        assert status.shard == (0, 2)
        assert status.complete
        assert set(status.expected) == {store.key(spec) for spec in shard}


class TestManifestStatusEdgeCases:
    """Regression pins for `manifest_status` corner cases that `sweep merge`
    and the resume check lean on (both read completion straight off the
    manifest)."""

    def test_no_manifest_returns_none(self, tmp_path):
        assert ResultStore(tmp_path / "cache").manifest_status() is None

    def test_corrupt_manifest_reads_as_absent(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.root.mkdir(parents=True, exist_ok=True)
        store.manifest_path.write_text("{not json")
        assert store.manifest_status() is None
        # A well-formed payload without an "expected" list is equally void.
        store.manifest_path.write_text(json.dumps({"schema": 1, "salt": "s"}))
        assert store.manifest_status() is None

    def test_empty_manifest_is_vacuously_complete(self, tmp_path):
        """An empty expected set (recorded before any specs existed) owes
        nothing: complete, zero counts, and a shard-less describe line."""
        store = ResultStore(tmp_path / "cache")
        store.record_expected([])
        status = store.manifest_status()
        assert status is not None
        assert status.expected == () and status.done == () and status.missing == ()
        assert status.complete
        assert status.describe() == "store: 0/0 expected points done"

    def test_expected_but_empty_store_owes_every_point(self, tmp_path):
        """A manifest recorded up front (a shard run does this before it
        computes anything) against a store with no rows yet: nothing done,
        everything missing, and the describe line says so."""
        _config, specs = small_specs((1, 4))
        store = ResultStore(tmp_path / "cache")
        store.record_expected(specs)
        status = store.manifest_status()
        assert status is not None and not status.complete
        assert status.done == ()
        assert set(status.missing) == {store.key(spec) for spec in specs}
        assert status.describe() == "store: 0/2 expected points done, 2 missing"

    def test_null_shard_tag_survives_and_mixed_designators_stay_null(self, tmp_path):
        """A store that accumulated mixed shard designators keeps the null
        tag on *every* later recording — once the expected set spans
        several shards no single designator may ever re-label it."""
        _config, specs = small_specs((1, 4, 8, 15))
        store = ResultStore(tmp_path / "cache")
        store.record_expected(shard_specs(specs, 0, 2), shard=(0, 2))
        store.record_expected(shard_specs(specs, 1, 2), shard=(1, 2))
        assert store.manifest_status().shard is None
        # Re-recording the original shard must not resurrect its tag.
        store.record_expected(shard_specs(specs, 0, 2), shard=(0, 2))
        status = store.manifest_status()
        assert status.shard is None
        assert status.describe().startswith("store:")
        assert set(status.expected) == {store.key(spec) for spec in specs}


class TestShardWholeDifferential:
    """The shard/engine contract: a figure assembled from N merged shard
    stores is byte-identical to the figure from one unsharded run."""

    CONFIG = Figure3Config(
        network_size=16,
        multicast_degrees=(2, 4),
        arrival_rates_per_us=(0.01, 0.02),
        scale=SCALES["smoke"],
    )

    @staticmethod
    def _export(config, results) -> bytes:
        figure = figure3_result_from_points(config, results)
        return json.dumps(figure.as_dict(), indent=2, sort_keys=True).encode()

    def test_three_merged_shards_match_one_shard_byte_identically(self, tmp_path):
        config = self.CONFIG
        specs = figure3_specs(config)

        whole = run_sweep(specs, store=ResultStore(tmp_path / "whole"))
        whole_export = self._export(config, whole.results)

        shard_stores = []
        covered = 0
        for index in range(3):
            store = ResultStore(tmp_path / f"shard{index}")
            outcome = run_sweep(specs, store=store, shard=(index, 3))
            covered += outcome.total
            shard_stores.append(store)
        assert covered == len(specs)

        report = merge_stores(tmp_path / "merged", *shard_stores)
        assert report.appended == len(specs)
        assert not report.missing

        merged = run_sweep(specs, store=ResultStore(tmp_path / "merged"))
        assert (merged.cache_hits, merged.computed) == (len(specs), 0)
        assert self._export(config, merged.results) == whole_export


class TestMergeStores:
    def _result(self, seed: int, latency: float = 1.0) -> SweepPointResult:
        return SweepPointResult(
            spec=replace(BASE_SPEC, workload_seed=seed),
            latencies_us=(latency,),
            metrics=(("tree_root", 0),),
        )

    def test_salt_mismatch_rejected_with_clear_error(self, tmp_path):
        src = ResultStore(tmp_path / "src", code_salt="elsewhere-v2")
        src.put(self._result(1))
        dst = ResultStore(tmp_path / "dst")
        with pytest.raises(SweepError, match="elsewhere-v2"):
            merge_stores(dst, src)

    def test_merge_into_itself_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(self._result(1))
        with pytest.raises(ValueError):
            merge_stores(store, ResultStore(tmp_path / "store"))

    def test_nonexistent_source_rejected(self, tmp_path):
        """A typo'd shard path must not pass as an empty store and report a
        successful zero-row merge."""
        with pytest.raises(SweepError, match="does not exist"):
            merge_stores(tmp_path / "dst", tmp_path / "no-such-shard")

    def test_last_source_wins_on_key_collision(self, tmp_path):
        first = ResultStore(tmp_path / "a")
        second = ResultStore(tmp_path / "b")
        first.put(self._result(1, latency=1.0))
        second.put(self._result(1, latency=2.0))
        dst = ResultStore(tmp_path / "dst")
        report = merge_stores(dst, first, second)
        assert (report.appended, report.replaced) == (1, 1)
        assert dst.get(replace(BASE_SPEC, workload_seed=1)).latencies_us == (2.0,)

    def test_merged_manifest_reports_missing_shard_points(self, tmp_path):
        """Merging an incomplete shard leaves exactly the owed keys in the
        merged manifest, so the host running the merge knows what to re-run."""
        _config, specs = small_specs((1, 4, 8))
        store = ResultStore(tmp_path / "shard")
        store.record_expected(specs, shard=(0, 1))
        run_sweep(specs[:2], store=store)
        report = merge_stores(tmp_path / "merged", store)
        missing = {store.key(spec) for spec in specs[2:]}
        assert set(report.missing) == missing
        status = ResultStore(tmp_path / "merged").manifest_status()
        assert set(status.missing) == missing
        # Completing the owed points and re-merging settles the account.
        run_sweep(specs, store=ResultStore(tmp_path / "shard"))
        report = merge_stores(tmp_path / "merged", ResultStore(tmp_path / "shard"))
        assert not report.missing
        assert ResultStore(tmp_path / "merged").manifest_status().complete


class TestClearStaleIndex:
    def test_clear_then_merge_rebuilds_index(self, tmp_path):
        """Regression: after ``clear()``, a merge into the same root (through
        a second store instance) must be visible to the original instance —
        the advisory index is rebuilt from the new ``results.jsonl``, never
        trusted stale."""
        spec_a = BASE_SPEC
        spec_b = replace(BASE_SPEC, workload_seed=6)
        src = ResultStore(tmp_path / "src")
        src.put(evaluate_spec(spec_a))
        src.flush_index()

        store = ResultStore(tmp_path / "dst")
        store.put(evaluate_spec(spec_b))
        store.flush_index()
        store.clear()
        assert store.get(spec_b) is None

        merge_stores(ResultStore(tmp_path / "dst"), src)  # a separate instance
        # The cleared instance sees the merged row (no stale empty index)...
        assert store.get(spec_a) is not None
        assert store.get(spec_b) is None
        # ...and persisting its index must not poison later opens.
        store.flush_index()
        assert ResultStore(tmp_path / "dst").get(spec_a) is not None

    def test_flush_after_external_append_does_not_poison_index(self, tmp_path):
        """An index flushed by an instance that missed an external append
        must be detected as stale (its recorded size covers only what the
        instance indexed), so the next open rescans and sees every row."""
        spec_a, spec_b = BASE_SPEC, replace(BASE_SPEC, workload_seed=6)
        store = ResultStore(tmp_path / "cache")
        store.put(evaluate_spec(spec_a))
        # Another writer appends behind this instance's back...
        ResultStore(tmp_path / "cache").put(evaluate_spec(spec_b))
        # ...and the stale instance persists its (older) view.
        store.flush_index()
        reopened = ResultStore(tmp_path / "cache")
        assert reopened.get(spec_a) is not None
        assert reopened.get(spec_b) is not None


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

    def test_sweep_shard_and_merge_roundtrip(self, tmp_path, capsys):
        """CLI end-to-end: two sharded runs on disjoint cache dirs, a
        ``merge`` (sources trail ``--into``), then an unsharded warm run off
        the merged store that computes nothing and exports
        byte-identically."""
        from repro.cli import main

        base = [
            "--scale", "smoke", "figure2", "--network-sizes", "16",
        ]
        rc = main(base + ["--cache-dir", str(tmp_path / "whole"),
                          "--export", str(tmp_path / "whole.json")])
        assert rc == 0
        capsys.readouterr()
        for index in (1, 2):
            rc = main(base + ["--shard", f"{index}/2",
                              "--cache-dir", str(tmp_path / f"shard{index}")])
            assert rc == 0
            assert f"[shard {index}/2:" in capsys.readouterr().out
        rc = main(["merge", "--into", str(tmp_path / "merged"),
                   str(tmp_path / "shard1"), str(tmp_path / "shard2")])
        assert rc == 0
        assert "still missing" not in capsys.readouterr().out
        rc = main(base + ["--cache-dir", str(tmp_path / "merged"),
                          "--export", str(tmp_path / "merged.json")])
        assert rc == 0
        assert " 0 computed" in capsys.readouterr().out
        assert (tmp_path / "merged.json").read_bytes() == (
            tmp_path / "whole.json"
        ).read_bytes()

    def test_sweep_merge_requires_into_and_sources(self, capsys):
        from repro.cli import main

        for argv in (
            ["merge", "SRC"],
            ["merge", "--into", "DST"],
            ["--scale", "smoke", "figure2", "--into", "DST"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["figure2", "--rates", "0.01"],
        ["compare", "--degrees", "8"],
        ["merge", "--into", "DST", "SRC", "--export", "x.json"],
    ])
    def test_flags_of_other_verbs_are_rejected(self, argv, tmp_path, capsys, monkeypatch):
        """Each verb takes only its own flags; a flag of another verb is a
        usage error rather than silently dropped."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_invalid_shard_designator(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--scale", "smoke", "figure2", "--shard", "9/4"])
        assert exit_info.value.code == 2
        assert "shard" in capsys.readouterr().err

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
