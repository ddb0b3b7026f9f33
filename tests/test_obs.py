"""Tests for ``repro.obs``: the recorder, the exporters, and the firewall's
dynamic half — telemetry on vs off must be observably bit-identical.

The static half of the observables firewall (nothing from ``repro.obs``
flows into fingerprinted results) is enforced by repro-lint rule R9 and
tested in ``tests/test_repro_lint.py``.  This module tests the dynamic
contract the sanction rests on:

* recording telemetry never changes any observable — every equivalence
  regime (the engine's fast path, bounded windows, sweep evaluation with
  and without a real process pool) fingerprints identically with and
  without a recorder;
* telemetry off is ``None`` and the engine then calls the raw probe (zero
  per-event cost);
* the exporters are deterministic given an injected clock, produce
  schema-valid snapshots and loadable Chrome traces, and the summary
  tables ``repro-spam obs summarize`` prints add up.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    Telemetry,
    chrome_trace_events,
    summarize_snapshot,
    validate_chrome_trace,
    validate_snapshot,
    write_chrome_trace,
    write_snapshot,
)
from repro.obs.export import snapshot_dict
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import PROBE_TIERS, WormholeSimulator
from repro.simulator.fingerprint import simulator_fingerprint
from repro.sweeps import run_sweep
from repro.sweeps.spec import SweepPointSpec
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.workload import (
    MessageSpec,
    Workload,
    mixed_traffic_workload,
    single_multicast_workload,
)


class _FakeClock:
    """Deterministic monotonic clock for golden-file exporter tests."""

    def __init__(self, step_ns: int = 100):
        self.now_ns = 0
        self.step_ns = step_ns

    def __call__(self) -> int:
        self.now_ns += self.step_ns
        return self.now_ns


def _span_count(telemetry: Telemetry, name: str) -> int:
    """Number of recorded spans called ``name``."""
    return sum(1 for span in telemetry.spans if span["name"] == name)


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------
class TestTelemetryRecorder:
    def test_span_context_manager_records_duration(self):
        tel = Telemetry(clock=_FakeClock(step_ns=50))
        with tel.span("work", shard=3):
            pass
        (span,) = tel.spans
        assert span["name"] == "work"
        assert span["track"] == "main"
        assert span["start_ns"] == 50
        assert span["dur_ns"] == 50
        assert span["attrs"] == {"shard": 3}

    def test_span_at_clamps_negative_durations(self):
        tel = Telemetry(clock=_FakeClock())
        tel.span_at("backwards", 100, 40)
        assert tel.spans[0]["dur_ns"] == 0

    def test_counters_gauges_and_value_distributions(self):
        # Values are the only scalar family: a count is a distribution's
        # ``count``, and the payload carries no counters or gauges
        # (snapshot schema version 2).
        tel = Telemetry(clock=_FakeClock())
        for observation in (30.0, 10.0, 20.0):
            tel.value("probe_ns", observation)
        assert tel.values == {
            "probe_ns": {"count": 3, "total": 60.0, "min": 10.0, "max": 30.0}
        }
        assert set(tel.to_payload()) == {"track", "spans", "spans_dropped", "values"}

    def test_span_list_is_bounded(self):
        tel = Telemetry(clock=_FakeClock(), max_spans=2)
        for index in range(5):
            tel.span_at("s", index, index + 1)
        assert len(tel.spans) == 2
        assert tel.spans_dropped == 3

    def test_payload_roundtrip_and_child_merge(self):
        child = Telemetry(track="worker", clock=_FakeClock())
        child.span_at("evaluate", 0, 100)
        child.value("evaluate_ns", 100.0)
        payload = child.to_payload()
        # The payload must survive JSON (the pickling boundary is at least
        # this strict).
        payload = json.loads(json.dumps(payload))

        parent = Telemetry(track="main", clock=_FakeClock())
        parent.value("evaluate_ns", 50.0)
        parent.merge_child(payload, track="chunk0")
        (span,) = parent.spans
        assert span["track"] == "chunk0"  # re-labelled on the way in
        assert parent.values["evaluate_ns"]["count"] == 1
        assert parent.values["chunk0/evaluate_ns"]["count"] == 1

    def test_merge_child_folds_distributions_and_dropped_counts(self):
        parent = Telemetry(clock=_FakeClock())
        parent.merge_child(
            {
                "values": {"d": {"count": 2, "total": 30.0, "min": 10.0, "max": 20.0}},
                "spans_dropped": 4,
            },
            track="w",
        )
        parent.merge_child(
            {"values": {"d": {"count": 1, "total": 5.0, "min": 5.0, "max": 5.0}}},
            track="w",
        )
        assert parent.values["w/d"] == {
            "count": 3,
            "total": 35.0,
            "min": 5.0,
            "max": 20.0,
        }
        assert parent.spans_dropped == 4

    def test_merge_child_respects_span_bound(self):
        parent = Telemetry(clock=_FakeClock(), max_spans=1)
        payload = {
            "spans": [
                {"name": "a", "track": "w", "start_ns": 0, "dur_ns": 1, "attrs": {}},
                {"name": "b", "track": "w", "start_ns": 1, "dur_ns": 1, "attrs": {}},
            ]
        }
        parent.merge_child(payload, track="w")
        assert len(parent.spans) == 1
        assert parent.spans_dropped == 1


class TestTelemetryOff:
    """Telemetry off is ``None``."""

    def test_disabled_engine_holds_none_and_raw_probe(self):
        # Without a recorder the engine holds ``None`` and leaves the fast
        # path's probe entry un-instrumented (zero per-event overhead).
        from repro.topology.examples import two_switch_network

        net = two_switch_network()
        from repro.core.spam import SpamRouting

        simulator = WormholeSimulator(
            net, SpamRouting.build(net), SimulationConfig(message_length_flits=256)
        )
        assert simulator.telemetry is None

        def instrumented_probe(t0, until_ns):
            raise AssertionError("telemetry-off run called the instrumented probe")

        simulator._coalesce_tick_timed = instrumented_probe
        source, dest = net.processors()
        simulator.submit_message(source, [dest])
        simulator.run()
        assert simulator.coalesced_ticks > 0


# ----------------------------------------------------------------------
# Telemetry on vs off: bit-identical observables (the dynamic firewall)
# ----------------------------------------------------------------------
def _engine_fingerprint(network, routing, workload, config, telemetry=None, until_ns=None):
    simulator = WormholeSimulator(network, routing, config, telemetry=telemetry)
    workload.submit_to(simulator)
    stats = simulator.run(until_ns=until_ns)
    return simulator_fingerprint(simulator, stats), simulator


def _scenario_workloads(lattice32):
    """The equivalence regimes, as (name, workload, flits, overrides)."""
    processors = lattice32.processors()
    broadcast = Workload("broadcast")
    broadcast.specs.append(MessageSpec(processors[0], tuple(processors[1:]), 0))
    contended = Workload("contended")
    for index in range(4):
        contended.specs.append(
            MessageSpec(processors[index], tuple(processors[8:16]), index * 30)
        )
    single = single_multicast_workload(lattice32, num_destinations=6, samples=2, seed=5)
    return [
        ("broadcast", broadcast, 64, {}),
        ("contended_multicasts", contended, 32, {}),
        (
            "mixed_poisson_128f",
            mixed_traffic_workload(
                lattice32,
                rate_per_us=0.02,
                multicast_destinations=8,
                num_messages=40,
                seed=11,
                arrival_process=PoissonArrivals(0.02),
            ),
            128,
            {},
        ),
        (
            "mixed_negative_binomial_128f",
            mixed_traffic_workload(
                lattice32, rate_per_us=0.02, multicast_destinations=8,
                num_messages=40, seed=11,
            ),
            128,
            {},
        ),
        ("channel_period_7ns", single, 96, {"channel_latency_ns": 7}),
    ]


@pytest.mark.equivalence
class TestTelemetryOnOffEquivalence:
    """A telemetry recorder may never change a fingerprint, anywhere."""

    def test_engine_scenarios_bit_identical(self, lattice32, lattice32_spam):
        for name, workload, flits, overrides in _scenario_workloads(lattice32):
            base = SimulationConfig(
                message_length_flits=flits,
                trace=True,
                collect_channel_stats=True,
                **overrides,
            )
            off, _ = _engine_fingerprint(lattice32, lattice32_spam, workload, base)
            tel = Telemetry(track="engine")
            on, simulator = _engine_fingerprint(
                lattice32, lattice32_spam, workload, base, telemetry=tel
            )
            assert on == off, f"telemetry changed observables in {name!r}"
            assert _span_count(tel, "engine.run") == 1, name
            # Non-vacuity: the instrumented probe timed every probe, and each
            # tier's duration distribution counts exactly the probes the
            # deterministic tally counted for that tier.
            exits = simulator.coalesce_exits
            assert sum(exits) > 0, f"{name!r} never engaged the fast path probe"
            assert _span_count(tel, "engine.probe") == sum(exits), name
            timed = [
                tel.values.get(f"engine.probe.{tier}_ns", {"count": 0})["count"]
                for tier in PROBE_TIERS
            ]
            assert timed == exits, name

    def test_bounded_windows_bit_identical(self, lattice32, lattice32_spam):
        workload = mixed_traffic_workload(
            lattice32, rate_per_us=0.02, multicast_destinations=8,
            num_messages=24, seed=3,
        )
        base = SimulationConfig(
            message_length_flits=64, trace=True, collect_channel_stats=True
        )
        fingerprints = []
        for telemetry in (None, Telemetry()):
            simulator = WormholeSimulator(
                lattice32, lattice32_spam, base, telemetry=telemetry
            )
            workload.submit_to(simulator)
            while not all(m.is_complete for m in simulator.messages.values()):
                simulator.run_for(25_000)
            fingerprints.append(simulator_fingerprint(simulator, simulator.stats))
        assert fingerprints[0] == fingerprints[1]

    def test_sweep_results_identical_and_worker_telemetry_merged(self):
        specs = [
            SweepPointSpec(
                workload_kind="single-multicast",
                network_size=16,
                topology_seed=2,
                message_length_flits=16,
                workload_params=(("num_destinations", degree), ("samples", 2)),
                workload_seed=degree,
            )
            for degree in (2, 4, 6)
        ]
        plain = run_sweep(list(specs))
        tel = Telemetry(track="sweep")
        observed = run_sweep(list(specs), telemetry=tel)
        assert observed.results == plain.results
        assert _span_count(tel, "sweep.point.evaluate") == len(specs)
        assert observed.computed_seconds > 0.0
        assert observed.elapsed_seconds > 0.0

        pooled_tel = Telemetry(track="sweep")
        pooled = run_sweep(list(specs), workers=2, telemetry=pooled_tel)
        assert pooled.results == plain.results
        # Worker-process telemetry came back under chunk{i} track labels.
        chunk_tracks = {
            span["track"]
            for span in pooled_tel.spans
            if span["track"].startswith("chunk")
        }
        assert chunk_tracks, "no worker telemetry shipped back"
        assert _span_count(pooled_tel, "sweep.pool.dispatch") == 1
        assert pooled.computed_seconds > 0.0

    def test_sweep_time_accounting_without_caller_recorder(self, tmp_path):
        # run_sweep measures its outcome timing even with telemetry=None,
        # and the summary line carries the accounting the resume check and
        # CI grep on.
        from repro.sweeps import ResultStore

        specs = [
            SweepPointSpec(
                workload_kind="single-multicast",
                network_size=16,
                topology_seed=2,
                message_length_flits=16,
                workload_params=(("num_destinations", 4), ("samples", 2)),
                workload_seed=7,
            )
        ]
        store = ResultStore(tmp_path / "cache")
        cold = run_sweep(list(specs), store=store)
        warm = run_sweep(list(specs), store=store)
        assert cold.computed == 1 and cold.computed_seconds > 0.0
        assert warm.cache_hits == 1 and warm.computed_seconds == 0.0
        assert warm.hit_seconds > 0.0
        assert "1 computed" in cold.summary()
        assert "s elapsed)" in cold.summary()


# ----------------------------------------------------------------------
# Exporters (deterministic via the injected clock)
# ----------------------------------------------------------------------
def _golden_telemetry() -> Telemetry:
    tel = Telemetry(track="main", clock=_FakeClock(step_ns=1000))
    with tel.span("engine.run", bounded=False):
        tel.span_at("engine.probe", 1500, 2500, tier="batch", k=2, ticks=40)
    tel.value("engine.probe.batch_ns", 1000.0)
    tel.merge_child(
        {
            "spans": [
                {
                    "name": "sweep.point.evaluate",
                    "track": "worker",
                    "start_ns": 0,
                    "dur_ns": 500,
                    "attrs": {"workload": "mixed"},
                }
            ],
            "values": {
                "engine.probe.scan_reject_ns": {
                    "count": 3, "total": 300.0, "min": 50.0, "max": 150.0,
                }
            },
        },
        track="chunk0",
    )
    return tel


class TestExporters:
    def test_snapshot_golden(self):
        document = snapshot_dict(_golden_telemetry())
        assert document == {
            "schema": "repro.obs/snapshot",
            "version": 2,
            "track": "main",
            "spans": [
                {
                    "name": "engine.probe",
                    "track": "main",
                    "start_ns": 1500,
                    "dur_ns": 1000,
                    "attrs": {"tier": "batch", "k": 2, "ticks": 40},
                },
                {
                    "name": "engine.run",
                    "track": "main",
                    "start_ns": 1000,
                    "dur_ns": 1000,
                    "attrs": {"bounded": False},
                },
                {
                    "name": "sweep.point.evaluate",
                    "track": "chunk0",
                    "start_ns": 0,
                    "dur_ns": 500,
                    "attrs": {"workload": "mixed"},
                },
            ],
            "spans_dropped": 0,
            "values": {
                "engine.probe.batch_ns": {
                    "count": 1, "total": 1000.0, "min": 1000.0, "max": 1000.0,
                },
                "chunk0/engine.probe.scan_reject_ns": {
                    "count": 3, "total": 300.0, "min": 50.0, "max": 150.0,
                },
            },
        }

    def test_written_snapshot_validates_against_checked_in_schema(self, tmp_path):
        path = write_snapshot(_golden_telemetry(), tmp_path / "obs" / "snap.json")
        document = json.loads(path.read_text())
        assert validate_snapshot(document) == []

    def test_validator_rejects_malformed_snapshots(self):
        good = snapshot_dict(_golden_telemetry())
        assert validate_snapshot(good) == []

        wrong_schema = dict(good, schema="something.else")
        assert any("expected" in error for error in validate_snapshot(wrong_schema))

        missing = dict(good)
        del missing["values"]
        assert any("values" in error for error in validate_snapshot(missing))

        # Version 1 carried counters and gauges; the version-2 schema rejects it.
        old = dict(good, version=1, counters={}, gauges={})
        errors = validate_snapshot(old)
        assert any("expected 2" in error for error in errors)
        assert any("counters" in error for error in errors)

        bad_span = json.loads(json.dumps(good))
        bad_span["spans"][0]["dur_ns"] = -5
        assert any("minimum" in error for error in validate_snapshot(bad_span))

        extra = dict(good, surprise=1)
        assert any("surprise" in error for error in validate_snapshot(extra))

        bad_value = json.loads(json.dumps(good))
        bad_value["values"]["engine.probe.batch_ns"]["count"] = "three"
        assert validate_snapshot(bad_value) != []

    def test_chrome_trace_golden_and_well_formed(self, tmp_path):
        events = chrome_trace_events(_golden_telemetry())
        # One thread-name metadata record per track, in first-seen order.
        meta = [event for event in events if event["ph"] == "M"]
        assert [event["args"]["name"] for event in meta] == ["main", "chunk0"]
        complete = [event for event in events if event["ph"] == "X"]
        assert [event["name"] for event in complete] == [
            "engine.probe", "engine.run", "sweep.point.evaluate",
        ]
        probe = complete[0]
        assert probe["ts"] == 1.5 and probe["dur"] == 1.0  # ns -> us
        assert probe["args"] == {"tier": "batch", "k": 2, "ticks": 40}
        assert {event["tid"] for event in complete} == {0, 1}

        path = write_chrome_trace(_golden_telemetry(), tmp_path / "snap.trace.json")
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        assert document["traceEvents"] == events

    def test_chrome_trace_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace(42) != []
        assert validate_chrome_trace({"notTraceEvents": []}) != []
        assert validate_chrome_trace({"traceEvents": [{"name": "x"}]}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0, "dur": 1.0,
                              "pid": 0, "tid": True}]}
        ) != []
        assert validate_chrome_trace([]) == []  # bare array form

    def test_summarize_snapshot_tables(self):
        document = snapshot_dict(_golden_telemetry())
        tables = summarize_snapshot(document)
        tiers = {row["tier"]: row for row in tables["tiers"]}
        # Track prefixes are stripped, so the worker's scan rejects aggregate
        # with the parent's batch tier into one attribution table.
        assert set(tiers) == {"batch", "scan_reject"}
        assert tiers["batch"]["probes"] == 1
        assert tiers["scan_reject"]["probes"] == 3
        assert tiers["batch"]["total_ms"] == pytest.approx(1000.0 / 1e6)
        assert sum(row["share"] for row in tables["tiers"]) == pytest.approx(1.0)
        spans = {row["span"]: row for row in tables["spans"]}
        assert spans["engine.run"]["count"] == 1
        assert spans["sweep.point.evaluate"]["total_ms"] == pytest.approx(500.0 / 1e6)


# ----------------------------------------------------------------------
# CLI: --telemetry artifacts, obs validate / obs summarize
# ----------------------------------------------------------------------
class TestObsCli:
    def test_figure2_telemetry_artifacts_validate_end_to_end(self, capsys, tmp_path):
        out = tmp_path / "fig2.obs.json"
        rc = main([
            "--scale", "smoke", "figure2", "--network-sizes", "16", "--no-cache",
            "--telemetry", str(out),
        ])
        assert rc == 0
        trace = out.with_suffix(".trace.json")
        assert out.exists() and trace.exists()
        document = json.loads(out.read_text())
        assert validate_snapshot(document) == []
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        # The smoke figure exercised the engine, so per-tier probe
        # distributions made it into the unified snapshot.
        assert any(
            key.rsplit("/", 1)[-1].startswith("engine.probe.")
            for key in document["values"]
        )
        capsys.readouterr()

        assert main(["obs", "validate", str(out)]) == 0
        validated = capsys.readouterr().out
        assert "ok" in validated and str(trace) in validated

        assert main(["obs", "summarize", str(out)]) == 0
        summary = capsys.readouterr().out
        assert "probe time attribution" in summary
        assert "sweep.run" in summary

    def test_obs_validate_fails_on_malformed_snapshot(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.obs/snapshot"}))
        assert main(["obs", "validate", str(bad)]) == 1
        assert "missing required" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["validate", "summarize"])
    def test_missing_snapshot_is_reported_not_raised(self, capsys, tmp_path, verb):
        missing = tmp_path / "nope.json"
        assert main(["obs", verb, str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"snapshot: {missing}: ")

    @pytest.mark.parametrize("verb", ["validate", "summarize"])
    def test_non_json_snapshot_is_reported_not_raised(self, capsys, tmp_path, verb):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json {")
        assert main(["obs", verb, str(garbage)]) == 1
        assert capsys.readouterr().err.startswith(f"snapshot: {garbage}: not JSON")

    def test_missing_trace_file_is_reported_not_raised(self, capsys, tmp_path):
        snap = write_snapshot(_golden_telemetry(), tmp_path / "snap.json")
        missing = tmp_path / "nope.trace.json"
        assert main(["obs", "validate", str(snap), "--trace", str(missing)]) == 1
        assert capsys.readouterr().err.startswith(f"trace: {missing}: ")

    @pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "sibling"])
    def test_non_json_trace_is_reported_not_raised(self, capsys, tmp_path, explicit):
        snap = write_snapshot(_golden_telemetry(), tmp_path / "snap.json")
        garbage = tmp_path / "snap.trace.json"  # the sibling ``validate`` finds on its own
        garbage.write_text("not json {")
        argv = ["obs", "validate", str(snap)] + (["--trace", str(garbage)] if explicit else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"trace: {garbage}: not JSON")

    def test_obs_validate_checks_an_explicit_trace_file(self, capsys, tmp_path):
        snap = write_snapshot(_golden_telemetry(), tmp_path / "snap.json")
        bad_trace = tmp_path / "bad.trace.json"
        bad_trace.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        assert main(["obs", "validate", str(snap), "--trace", str(bad_trace)]) == 1
        assert "trace:" in capsys.readouterr().err
