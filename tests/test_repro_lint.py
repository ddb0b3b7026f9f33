"""Tests for ``tools/repro_lint`` — the determinism static analyzer.

Each rule gets at least one *positive* snippet (the hazard fires) and one
*negative* snippet (the corrected code is silent), written to a temporary
project tree that mirrors the repository's scoped paths.  On top of the
per-rule tests: pragma discipline, baseline round-trips, the CLI contract,
and the tier-1 "self-clean" test asserting the real repository lints clean
with an empty baseline.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import DEFAULT_PATHS, all_rules, run_lint, write_baseline  # noqa: E402


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def lint_project(tmp_path, files, select=None, **kwargs):
    """Write ``files`` (relpath -> dedented text) under ``tmp_path``, lint."""
    for relpath, text in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    return run_lint(root=tmp_path, paths=list(DEFAULT_PATHS), select=select, **kwargs)


def lint_snippet(tmp_path, code, relpath="src/repro/module.py", select=None):
    return lint_project(tmp_path, {relpath: code}, select=select)


def rule_ids(result):
    return [finding.rule for finding in result.findings]


# ----------------------------------------------------------------------
# R1: set-iteration order
# ----------------------------------------------------------------------
def test_r1_fires_on_for_loop_over_set_parameter(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def collect(items: set[int]) -> list[int]:
            out = []
            for item in items:
                out.append(item)
            return out
        """,
        select=["R1"],
    )
    assert rule_ids(result) == ["R1"]


def test_r1_silent_when_wrapped_in_sorted(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def collect(items: set[int]) -> list[int]:
            out = []
            for item in sorted(items):
                out.append(item)
            return out
        """,
        select=["R1"],
    )
    assert rule_ids(result) == []


def test_r1_fires_on_sum_and_comprehension_over_set_literal(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f():
            values = {1, 2, 3}
            total = sum(values)
            doubled = [v * 2 for v in values]
            return total, doubled
        """,
        select=["R1"],
    )
    assert rule_ids(result) == ["R1", "R1"]


def test_r1_sorted_with_key_still_flagged_but_plain_sorted_is_safe(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[str]):
            good = sorted(items)
            bad = sorted(items, key=len)
            return good, bad
        """,
        select=["R1"],
    )
    assert rule_ids(result) == ["R1"]
    assert "sorted(key=...)" in result.findings[0].message


def test_r1_tracks_self_set_attributes(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        class Engine:
            def __init__(self):
                self._segments = set()

            def snapshot(self):
                return list(self._segments)
        """,
        select=["R1"],
    )
    assert rule_ids(result) == ["R1"]


def test_r1_order_insensitive_consumers_are_safe(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[int]):
            return len(items), any(i > 0 for i in items), set(items)
        """,
        select=["R1"],
    )
    assert rule_ids(result) == []


def test_r1_out_of_scope_path_is_ignored(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[int]):
            return sum(items)
        """,
        relpath="src/other/module.py",
        select=["R1"],
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R2: builtin hash()/id()
# ----------------------------------------------------------------------
def test_r2_fires_on_builtin_hash_and_id(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def key(spec):
            return hash(spec), id(spec)
        """,
        select=["R2"],
    )
    assert rule_ids(result) == ["R2", "R2"]


def test_r2_silent_on_stable_digests(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import hashlib

        def key(payload: bytes) -> str:
            return hashlib.sha256(payload).hexdigest()
        """,
        select=["R2"],
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R3: RNG discipline
# ----------------------------------------------------------------------
def test_r3_fires_on_global_numpy_rng_state(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import numpy as np

        def f():
            np.random.seed(42)
            return np.random.random()
        """,
        select=["R3"],
    )
    assert rule_ids(result) == ["R3", "R3"]


def test_r3_fires_on_unseeded_generators(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import random
        from numpy.random import default_rng

        def f():
            return random.Random(), default_rng()
        """,
        select=["R3"],
    )
    assert rule_ids(result) == ["R3", "R3"]


def test_r3_silent_on_seeded_generators(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import random
        from numpy.random import default_rng

        def f(seed: int):
            return random.Random(seed), default_rng(seed)
        """,
        select=["R3"],
    )
    assert rule_ids(result) == []


def test_r3_fires_on_stdlib_global_random(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import random

        def f(xs):
            random.shuffle(xs)
            return xs
        """,
        select=["R3"],
    )
    assert rule_ids(result) == ["R3"]


# ----------------------------------------------------------------------
# R4: wall-clock & environment leaks
# ----------------------------------------------------------------------
def test_r4_fires_on_wall_clock_entropy_and_env_reads(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import os
        import time
        from datetime import datetime

        def f():
            started = time.time()
            stamp = datetime.now()
            noise = os.urandom(8)
            knob = os.environ.get("SOME_KNOB")
            raw = os.environ["OTHER_KNOB"]
            return started, stamp, noise, knob, raw
        """,
        select=["R4"],
    )
    assert rule_ids(result) == ["R4"] * 5


def test_r4_silent_on_simulated_time(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def advance(now_ns: int, delta_ns: int) -> int:
            return now_ns + delta_ns
        """,
        select=["R4"],
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R5: float accumulation order
# ----------------------------------------------------------------------
def test_r5_fires_in_stats_scope_and_r1_does_not_double_report(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def mean(values: set[float]) -> float:
            return sum(values) / len(values)
        """,
        relpath="src/repro/simulator/stats.py",
        select=["R1", "R5"],
    )
    assert rule_ids(result) == ["R5"]


def test_r5_silent_when_accumulating_sorted_values(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def mean(values: set[float]) -> float:
            return sum(sorted(values)) / len(values)
        """,
        relpath="src/repro/analysis/stats.py",
        select=["R1", "R5"],
    )
    assert rule_ids(result) == []


def test_r5_fires_on_generator_driven_by_set(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def total(values: set[float]) -> float:
            return sum(v * 2.0 for v in values)
        """,
        relpath="src/repro/analysis/aggregate.py",
        select=["R5"],
    )
    assert rule_ids(result) == ["R5"]


# ----------------------------------------------------------------------
# R6: counter discipline
# ----------------------------------------------------------------------
def test_r6_fires_on_uninitialized_counter(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        class Engine:
            def __init__(self):
                self.ready = 0

            def step(self):
                self.coalesce_hits += 1
        """,
        relpath="src/repro/simulator/thing.py",
        select=["R6"],
    )
    assert rule_ids(result) == ["R6"]
    assert "coalesce_hits" in result.findings[0].message


def test_r6_silent_when_counter_initialized_in_init_or_reset(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        class Engine:
            def __init__(self):
                self.coalesce_hits = 0

            def reset_counters(self):
                self.coalesce_misses = 0

            def step(self):
                self.coalesce_hits += 1
                self.coalesce_misses += 1
        """,
        relpath="src/repro/simulator/thing.py",
        select=["R6"],
    )
    assert rule_ids(result) == []


_ENGINE_WITH_COUNTER = """
    class WormholeSimulator:
        def __init__(self):
            self.coalesce_documented = 0
            self.coalesce_mystery = 0
"""


def test_r6_doc_coverage_both_directions(tmp_path):
    result = lint_project(
        tmp_path,
        {
            "src/repro/simulator/engine.py": _ENGINE_WITH_COUNTER,
            "docs/engine_counters.md": """
                ### `coalesce_documented`
                Documented counter.

                ### `coalesce_stale`
                No longer exists.
            """,
        },
        select=["R6"],
    )
    messages = {finding.rule + ":" + finding.path: finding.message for finding in result.findings}
    assert len(result.findings) == 2
    assert "coalesce_mystery" in messages["R6:src/repro/simulator/engine.py"]
    assert "coalesce_stale" in messages["R6:docs/engine_counters.md"]


def test_r6_doc_coverage_clean(tmp_path):
    result = lint_project(
        tmp_path,
        {
            "src/repro/simulator/engine.py": """
                class WormholeSimulator:
                    def __init__(self):
                        self.coalesce_documented = 0
            """,
            "docs/engine_counters.md": """
                ### `coalesce_documented`
                Documented counter.
            """,
        },
        select=["R6"],
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R7: process-pool purity
# ----------------------------------------------------------------------
def test_r7_fires_on_lambda_and_bound_method_submission(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def run(pool, worker):
            pool.submit(lambda: 1)
            pool.submit(worker.run, 1)
        """,
        select=["R7"],
    )
    assert rule_ids(result) == ["R7", "R7"]


def test_r7_fires_on_locally_defined_callable(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def run(pool):
            def task():
                return 1
            pool.submit(task)
        """,
        select=["R7"],
    )
    assert rule_ids(result) == ["R7"]


def test_r7_fires_on_module_state_mutation(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        RESULTS = []

        def task(x):
            RESULTS.append(x)
            return x

        def run(pool, xs):
            return [pool.submit(task, x) for x in xs]
        """,
        select=["R7"],
    )
    assert rule_ids(result) == ["R7"]
    assert "RESULTS" in result.findings[0].message


def test_r7_silent_on_pure_module_level_function(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def task(x):
            return x * 2

        def run(pool, xs):
            return [pool.submit(task, x) for x in xs]
        """,
        select=["R7"],
    )
    assert rule_ids(result) == []


def test_r7_covers_executor_map(tmp_path):
    """``Executor.map`` is the other door a callable crosses the process
    boundary through; the same purity contract applies."""
    result = lint_snippet(
        tmp_path,
        """
        SEEN = []

        def impure(task):
            SEEN.append(task)
            return task

        def run(pool, tasks):
            return list(pool.map(impure, tasks))
        """,
        select=["R7"],
    )
    assert rule_ids(result) == ["R7"]
    assert "SEEN" in result.findings[0].message


def test_r7_map_with_lambda_flagged_pure_map_silent(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def shard_worker(task):
            return task * 2

        def run(pool, tasks):
            bad = pool.map(lambda t: t, tasks)
            good = pool.map(shard_worker, tasks)
            return bad, good
        """,
        select=["R7"],
    )
    assert rule_ids(result) == ["R7"]


def test_r7_builtin_map_is_not_a_pool_call(tmp_path):
    """The builtin ``map(f, xs)`` is a plain Name call, not an executor
    method; closures there are fine and must not be flagged."""
    result = lint_snippet(
        tmp_path,
        """
        def run(xs):
            return list(map(lambda x: x + 1, xs))
        """,
        select=["R7"],
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R8: config-knob docs
# ----------------------------------------------------------------------
_CONFIG_SNIPPET = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class SimulationConfig:
        documented_knob: int = 1
        mystery_knob: int = 2
"""


def test_r8_fires_on_undocumented_knob_and_ignores_prose_mentions(tmp_path):
    result = lint_project(
        tmp_path,
        {
            "src/repro/simulator/config.py": _CONFIG_SNIPPET,
            # mystery_knob appears only in prose (no code span): not enough.
            "README.md": "The `documented_knob` knob. Also mystery_knob prose.",
            "docs/fast_path.md": "Nothing here.",
        },
        select=["R8"],
    )
    assert rule_ids(result) == ["R8"]
    assert "mystery_knob" in result.findings[0].message


def test_r8_silent_when_every_knob_in_code_spans(tmp_path):
    result = lint_project(
        tmp_path,
        {
            "src/repro/simulator/config.py": _CONFIG_SNIPPET,
            "README.md": "| `documented_knob` | docs |",
            "docs/fast_path.md": "```python\nconfig.mystery_knob\n```",
        },
        select=["R8"],
    )
    assert rule_ids(result) == []


# ----------------------------------------------------------------------
# R9: observables firewall
# ----------------------------------------------------------------------
def test_r9_fires_when_sink_module_imports_obs(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        from ..obs import Telemetry

        class TraceEvent:
            pass
        """,
        relpath="src/repro/simulator/trace.py",
        select=["R9"],
    )
    assert rule_ids(result) == ["R9"]
    assert "sink module" in result.findings[0].message


def test_r9_fires_on_absolute_obs_import_in_sink_module(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import repro.obs.export
        """,
        relpath="src/repro/sweeps/store.py",
        select=["R9"],
    )
    assert rule_ids(result) == ["R9"]


def test_r9_allows_orchestration_modules_to_import_obs(tmp_path):
    # The engine/scheduler layer may hold a recorder; only the modules
    # defining observable result types are locked down.
    result = lint_snippet(
        tmp_path,
        """
        from ..obs import NULL_TELEMETRY, Telemetry

        def run(telemetry=NULL_TELEMETRY):
            with telemetry.span("engine.run"):
                return 1
        """,
        relpath="src/repro/simulator/engine.py",
        select=["R9"],
    )
    assert rule_ids(result) == []


def test_r9_fires_on_telemetry_value_fed_to_sink_call(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def finish(store, result, telemetry):
            span_ns = telemetry.span_total_ns("engine.run")
            store.put(result, probe_span=span_ns)
        """,
        select=["R9"],
    )
    assert rule_ids(result) == ["R9"]
    assert "store.put" not in result.findings[0].message  # terminal name only
    assert "put()" in result.findings[0].message


def test_r9_fires_on_telemetry_positional_arg_to_sink_constructor(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def build(telemetry_ns):
            return TraceEvent(telemetry_ns)
        """,
        select=["R9"],
    )
    assert rule_ids(result) == ["R9"]


def test_r9_spanning_tree_vocabulary_does_not_trip_the_taint_heuristic(tmp_path):
    # ``span`` must match as a whole component: the simulator's spanning-tree
    # vocabulary is legitimate observable input.
    result = lint_snippet(
        tmp_path,
        """
        def build(spanning_tree, spanning):
            record(spanning_tree, depth=spanning.depth)
            return observable_fingerprint(spanning_tree)
        """,
        select=["R9"],
    )
    assert rule_ids(result) == []


def test_r9_obs_package_must_stay_stdlib_leaf(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        from ..simulator.stats import SimulationStats
        """,
        relpath="src/repro/obs/export.py",
        select=["R9"],
    )
    assert rule_ids(result) == ["R9"]
    assert "leaf" in result.findings[0].message


def test_r9_obs_package_absolute_repro_import_also_fires(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import repro.simulator.config
        """,
        relpath="src/repro/obs/runtime.py",
        select=["R9"],
    )
    assert rule_ids(result) == ["R9"]


def test_r9_obs_package_stdlib_and_intra_obs_imports_are_fine(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        import json
        import time
        from pathlib import Path
        from .telemetry import Telemetry
        """,
        relpath="src/repro/obs/export.py",
        select=["R9"],
    )
    assert rule_ids(result) == []


def test_r4_excludes_obs_package_by_rule_scoped_sanction(tmp_path):
    # The same perf_counter read that R4 flags in the library is sanctioned
    # inside src/repro/obs/* (R9's firewall bounds what can flow out).
    code = """
        import time

        def stamp():
            return time.perf_counter_ns()
    """
    flagged = lint_snippet(tmp_path / "library", code, select=["R4"])
    assert rule_ids(flagged) == ["R4"]
    sanctioned = lint_snippet(
        tmp_path / "obs", code, relpath="src/repro/obs/telemetry.py", select=["R4"]
    )
    assert rule_ids(sanctioned) == []


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_pragma_with_reason_suppresses(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[int]):
            return min(items)  # repro-lint: disable=R1 -- min over ints is order-independent
        """,
        select=["R1"],
    )
    assert rule_ids(result) == []
    assert result.suppressed == 1


def test_pragma_without_reason_is_r0_and_suppresses_nothing(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[int]):
            return min(items)  # repro-lint: disable=R1
        """,
        select=["R1"],
    )
    assert sorted(rule_ids(result)) == ["R0", "R1"]
    assert result.suppressed == 0


def test_pragma_on_own_line_governs_next_line(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[int]):
            # repro-lint: disable=R1 -- documented deliberate iteration
            return min(items)
        """,
        select=["R1"],
    )
    assert rule_ids(result) == []
    assert result.suppressed == 1


def test_pragma_for_other_rule_does_not_suppress(tmp_path):
    result = lint_snippet(
        tmp_path,
        """
        def f(items: set[int]):
            return min(items)  # repro-lint: disable=R4 -- wrong rule id
        """,
        select=["R1"],
    )
    assert rule_ids(result) == ["R1"]


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    files = {
        "src/repro/module.py": """
        def f(items: set[int]):
            return sum(items)
        """
    }
    baseline = tmp_path / "baseline.json"
    first = lint_project(tmp_path, files, select=["R1"], baseline=baseline)
    assert first.exit_code == 1
    write_baseline(baseline, first)

    second = run_lint(
        root=tmp_path, paths=list(DEFAULT_PATHS), select=["R1"], baseline=baseline
    )
    assert second.exit_code == 0
    assert second.baselined == 1

    # The baseline is line-text keyed: moving the offending line down must
    # not un-baseline it ...
    shifted = "# leading comment\n" + textwrap.dedent(files["src/repro/module.py"])
    (tmp_path / "src/repro/module.py").write_text(shifted, encoding="utf-8")
    third = run_lint(
        root=tmp_path, paths=list(DEFAULT_PATHS), select=["R1"], baseline=baseline
    )
    assert third.exit_code == 0 and third.baselined == 1

    # ... but a *new* identical hazard elsewhere is NOT covered.
    (tmp_path / "src/repro/other.py").write_text(
        textwrap.dedent(files["src/repro/module.py"]), encoding="utf-8"
    )
    fourth = run_lint(
        root=tmp_path, paths=list(DEFAULT_PATHS), select=["R1"], baseline=baseline
    )
    assert fourth.exit_code == 1 and fourth.baselined == 1


def test_unreadable_baseline_is_an_error(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("not json", encoding="utf-8")
    with pytest.raises(ValueError):
        lint_project(
            tmp_path,
            {"src/repro/module.py": "x = 1\n"},
            select=["R1"],
            baseline=baseline,
        )


# ----------------------------------------------------------------------
# Framework details
# ----------------------------------------------------------------------
def test_unparseable_file_is_e0(tmp_path):
    result = lint_project(tmp_path, {"src/repro/broken.py": "def f(:\n"})
    assert rule_ids(result) == ["E0"]


def test_unknown_select_rule_raises(tmp_path):
    with pytest.raises(ValueError):
        lint_project(tmp_path, {"src/repro/module.py": "x = 1\n"}, select=["R99"])


def test_registry_covers_r1_through_r9():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == sorted(ids)
    for expected in ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]:
        assert expected in ids


# ----------------------------------------------------------------------
# Tier-1 self-clean: the real repository lints clean, empty baseline
# ----------------------------------------------------------------------
def test_repository_is_self_clean_with_empty_baseline():
    result = run_lint(root=REPO_ROOT, paths=list(DEFAULT_PATHS))
    assert result.baselined == 0, "repository policy: the baseline stays empty"
    assert result.findings == [], "\n".join(f.render() for f in result.findings)
    assert result.exit_code == 0


def test_checked_in_baseline_is_empty():
    payload = json.loads(
        (REPO_ROOT / "tools/repro_lint/baseline.json").read_text(encoding="utf-8")
    )
    assert payload["findings"] == []


# ----------------------------------------------------------------------
# CLI & shim
# ----------------------------------------------------------------------
def test_cli_json_output_and_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", "src", "tools", "benchmarks", "--json"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["files_scanned"] > 0


def test_cli_list_rules():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", "--list-rules"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for rule_id in ["R1", "R4", "R8"]:
        assert rule_id in proc.stdout


def test_docs_selection_detects_an_injected_mismatch(tmp_path):
    # The CI docs job runs ``python -m tools.repro_lint --select R6,R8 src``.
    result = lint_project(
        tmp_path,
        {
            "src/repro/simulator/engine.py": _ENGINE_WITH_COUNTER,
            "docs/engine_counters.md": "### `coalesce_documented`\n",
        },
        select=["R6", "R8"],
    )
    assert result.exit_code == 1
    assert any("coalesce_mystery" in f.message for f in result.findings)


# ----------------------------------------------------------------------
# mypy (gated: the local image may not ship mypy; CI installs it)
# ----------------------------------------------------------------------
def test_mypy_scoped_modules_are_clean():
    pytest.importorskip("mypy", reason="mypy not installed; the CI lint job runs it")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
