"""Golden corpus: the engine's observables pinned to a checked-in file.

Every other bit-identity test compares two code paths of the same tree
(fast path vs reference, telemetry on vs off).  A refactor that moves both
sides together passes all of them.  This module closes that gap: each
scenario below is run with the fast path on and off, and both runs must
reproduce the sha256 digest of the strict run fingerprint
(:func:`repro.simulator.fingerprint.simulator_fingerprint`) stored in
``tests/golden/engine.json``.  The stored ``stats.summary()`` next to each
digest makes a failure say what moved.

The scenarios are the engine equivalence regimes: the Figure-1 multicast
with replication bubbles, a lattice broadcast, contended OCRQ multicasts,
cross-traffic unicasts, 128-flit mixed traffic under both arrival
processes, and a bounded run window cut mid-stream.

The experiments are pinned the same way: ``tests/golden/sweeps.json`` holds
the sha256 of the exact bytes ``repro-spam <experiment> ... --export``
writes for three smoke-scale runs (Figure 2 and the software comparison on
their configurations' grids, and the Figure-3 grid of the CI sweep-smoke
job), each computed in-process with no result store, and of each of the
four row lists in the export of ``repro-spam --scale smoke ablations``.
The cache and resume check has a stored reference too:
``tools/sweep_resume_check.py`` hashes its cold Figure-3 export against the
same digest.

A third corpus, ``tests/golden/fuzz.json``, pins 200 seeded random
scenarios the hand-built ones do not reach: ``random_irregular_network``
topologies, mixed unicast/multicast messages of 2–64 flits, a channel
period of 10, 7 or 13 ns, ``run()`` or a ``run_for`` tiling, and input and
output buffers 1–3 flits deep (:func:`fuzz_scenario`).  Tier-1 checks the
fixed slice :data:`FUZZ_TIER1` on both paths; CI checks all of them::

    PYTHONPATH=src python tests/test_golden.py --fuzz          # every seed
    PYTHONPATH=src python tests/test_golden.py --fuzz 37 128   # named seeds

The whole-corpus check also counts the seeds on which the fast path
advanced at least one worm token, drain token and unicast token, and
fails below :data:`FUZZ_MIN_TOKEN_SEEDS`, :data:`FUZZ_MIN_DRAIN_SEEDS` or
:data:`FUZZ_MIN_UNICAST_SEEDS`: a corpus the tokens no longer reach would
match on both paths without proving anything about them.

Regenerate the corpora only for a change that is *meant* to move results,
and say in the commit message why it moved::

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.cli import main as cli_main
from repro.core.spam import SpamRouting
from repro.simulator.config import SimulationConfig
from repro.simulator.engine import WormholeSimulator
from repro.simulator.fingerprint import simulator_fingerprint
from repro.topology.examples import figure1_network
from repro.topology.irregular import lattice_irregular_network, random_irregular_network
from repro.topology.network import Network
from repro.traffic.arrivals import NegativeBinomialArrivals, PoissonArrivals
from repro.traffic.workload import MessageSpec, Workload, mixed_traffic_workload

GOLDEN_PATH = Path(__file__).parent / "golden" / "engine.json"
SWEEP_GOLDEN_PATH = Path(__file__).parent / "golden" / "sweeps.json"
FUZZ_GOLDEN_PATH = Path(__file__).parent / "golden" / "fuzz.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py --regenerate"


@dataclass
class Scenario:
    """One pinned run: a workload on a network under one configuration."""

    network: Network
    routing: SpamRouting
    workload: Workload
    flits: int
    until_ns: int | None = None


def _lattice() -> tuple[Network, SpamRouting]:
    network = lattice_irregular_network(32, seed=7)
    return network, SpamRouting.build(network)


def _workload(name: str, specs) -> Workload:
    workload = Workload(name)
    workload.specs.extend(specs)
    return workload


def _figure1_multicast() -> Scenario:
    fixture = figure1_network()
    spam = SpamRouting.build(fixture.network, root=fixture.root)
    specs = [MessageSpec(fixture.source, tuple(fixture.destinations), 0)]
    return Scenario(fixture.network, spam, _workload("figure1", specs), flits=64)


def _lattice_broadcast(flits: int = 128, until_ns: int | None = None) -> Scenario:
    network, spam = _lattice()
    source = network.processors()[0]
    destinations = tuple(p for p in network.processors() if p != source)
    specs = [MessageSpec(source, destinations, 0)]
    return Scenario(
        network, spam, _workload("broadcast", specs), flits=flits, until_ns=until_ns
    )


def _contended_ocrq() -> Scenario:
    network, spam = _lattice()
    processors = network.processors()
    specs = [
        MessageSpec(
            processors[index],
            tuple(p for p in processors[8:20] if p != processors[index]),
            0,
        )
        for index in range(6)
    ]
    return Scenario(network, spam, _workload("contended", specs), flits=64)


def _cross_traffic() -> Scenario:
    network, spam = _lattice()
    processors = network.processors()
    specs = [
        MessageSpec(processors[index], (processors[(index + 11) % len(processors)],), 0)
        for index in range(8)
    ]
    return Scenario(network, spam, _workload("cross", specs), flits=256)


def _mixed_traffic(arrival_cls) -> Callable[[], Scenario]:
    """The 128-flit churn-regime workload of ``TestChurnPhaseBackoff``."""

    def build() -> Scenario:
        network, spam = _lattice()
        workload = mixed_traffic_workload(
            network,
            rate_per_us=0.03,
            multicast_destinations=8,
            num_messages=36,
            multicast_fraction=0.15,
            seed=23,
            arrival_process=arrival_cls(0.03),
        )
        return Scenario(network, spam, workload, flits=128)

    return build


#: Scenario name -> builder.  Names key ``tests/golden/engine.json``.
SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "figure1_multicast": _figure1_multicast,
    "lattice_broadcast": _lattice_broadcast,
    "contended_ocrq": _contended_ocrq,
    "cross_traffic_unicasts": _cross_traffic,
    "mixed_128f_negative_binomial": _mixed_traffic(NegativeBinomialArrivals),
    "mixed_128f_poisson": _mixed_traffic(PoissonArrivals),
    "bounded_window_11000ns": lambda: _lattice_broadcast(flits=256, until_ns=11_000),
}


def digest(fingerprint: dict) -> str:
    """sha256 of a fingerprint's compact JSON rendering."""
    payload = json.dumps(fingerprint, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(payload.encode()).hexdigest()


def observe(scenario: Scenario, fast_path: bool, **overrides) -> dict:
    """Run ``scenario`` and return its golden entry: digest and summary."""
    config = SimulationConfig(
        message_length_flits=scenario.flits,
        trace=True,
        collect_channel_stats=True,
        fast_path=fast_path,
        **overrides,
    )
    simulator = WormholeSimulator(scenario.network, scenario.routing, config)
    scenario.workload.submit_to(simulator)
    stats = simulator.run(until_ns=scenario.until_ns)
    fingerprint = simulator_fingerprint(simulator, stats)
    return {"sha256": digest(fingerprint), "summary": fingerprint["summary"]}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["scenarios"]


def compare(name: str, observed: dict, golden: dict) -> None:
    """Raise ``AssertionError`` naming ``name`` unless ``observed`` matches."""
    expected = golden[name]
    if observed == expected:
        return
    moved = [
        f"  {key}: golden {expected['summary'].get(key)!r} -> {value!r}"
        for key, value in observed["summary"].items()
        if expected["summary"].get(key) != value
    ]
    raise AssertionError(
        f"golden scenario {name!r} moved (sha256 {expected['sha256'][:12]} -> "
        f"{observed['sha256'][:12]})"
        + ("\n" + "\n".join(moved) if moved else "; summary unchanged")
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return load_golden()


@pytest.mark.equivalence
@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_engine_matches_golden(name, fast_path, golden):
    compare(name, observe(SCENARIOS[name](), fast_path), golden)


def test_corpus_covers_exactly_the_scenarios(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.equivalence
def test_single_channel_perturbation_fails_the_comparison(golden):
    """One more nanosecond of router setup must trip the gate by name."""
    name = "cross_traffic_unicasts"
    mutated = observe(SCENARIOS[name](), fast_path=True, router_setup_ns=41)
    with pytest.raises(AssertionError, match=name):
        compare(name, mutated, golden)


#: Export name -> ``repro-spam`` arguments of the run whose ``--export``
#: bytes are pinned.  Names key ``tests/golden/sweeps.json``.
SWEEP_EXPORTS: dict[str, list[str]] = {
    "figure2": ["--scale", "smoke", "figure2"],
    "compare": ["--scale", "smoke", "compare"],
    "figure3": [
        "--scale", "smoke", "figure3",
        "--network-size", "32", "--degrees", "4", "8", "--rates", "0.005", "0.02",
    ],
}


def sweep_export(argv: list[str]) -> bytes:
    """The ``--export`` file of ``repro-spam <argv> --no-cache``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([*argv, "--no-cache", "--export", str(path)]) == 0
        return path.read_bytes()


def sweep_export_digest(argv: list[str]) -> str:
    """sha256 of the ``--export`` file of ``repro-spam <argv> --no-cache``."""
    return hashlib.sha256(sweep_export(argv)).hexdigest()


def load_sweep_golden(section: str = "exports") -> dict:
    return json.loads(SWEEP_GOLDEN_PATH.read_text())[section]


@pytest.mark.parametrize("name", list(SWEEP_EXPORTS))
def test_sweep_export_matches_golden(name):
    expected = load_sweep_golden()[name]
    assert expected["argv"] == SWEEP_EXPORTS[name]
    assert sweep_export_digest(SWEEP_EXPORTS[name]) == expected["sha256"], (
        f"sweep export {name!r} moved from its golden digest"
    )


#: The ablations, keying both the rows of the ``ablations`` export and the
#: ``ablations`` section of ``tests/golden/sweeps.json``.
ABLATIONS = ("buffer_depth", "selection", "root", "partition")


@functools.cache
def ablation_digests() -> dict[str, str]:
    """Ablation -> sha256 of its rows in the ``--export`` of ``repro-spam
    --scale smoke ablations``, each rendered like an ``--export`` file."""
    rows = json.loads(sweep_export(["--scale", "smoke", "ablations"]))["rows"]
    return {
        name: hashlib.sha256((json.dumps(table, indent=2, sort_keys=True) + "\n").encode()).hexdigest()
        for name, table in rows.items()
    }


@pytest.mark.parametrize("name", ABLATIONS)
def test_ablation_rows_match_golden(name):
    assert ablation_digests()[name] == load_sweep_golden("ablations")[name]["sha256"], (
        f"ablation {name!r} moved from its golden digest"
    )


def test_sweep_corpus_covers_exactly_the_exports():
    assert sorted(load_sweep_golden()) == sorted(SWEEP_EXPORTS)
    assert sorted(load_sweep_golden("ablations")) == sorted(ABLATIONS) == sorted(ablation_digests())


#: Seeds of the fuzz corpus, and the fixed slice tier-1 checks: every
#: fourth seed, about 2 s on both paths on a 2-core container (the whole
#: corpus takes about 8 s).
FUZZ_SEEDS = range(200)
FUZZ_TIER1 = FUZZ_SEEDS[::4]
#: Fewest corpus seeds on which the fast path must advance a worm token
#: (``coalesced_ticks > 0``); 167 of the 200 did when it was set.
FUZZ_MIN_TOKEN_SEEDS = 150
#: Fewest corpus seeds on which the fast path must advance a drain token;
#: 21 of the 200 did when it was set (most fuzz worms stream with 2-3
#: flits per buffer, where no drain token forms).
FUZZ_MIN_DRAIN_SEEDS = 18
#: Fewest corpus seeds on which the fast path must advance a unicast
#: token; 17 of the 200 did when it was set (a unicast token needs
#: one-flit buffers and a worm at least twice as long as its path, and the
#: corpus's worms have 2-64 flits).
FUZZ_MIN_UNICAST_SEEDS = 14
#: The token kinds the fuzz check counts, each with its floor.
FUZZ_TOKEN_FLOORS = {
    "worm": FUZZ_MIN_TOKEN_SEEDS,
    "drain": FUZZ_MIN_DRAIN_SEEDS,
    "unicast": FUZZ_MIN_UNICAST_SEEDS,
}


@dataclass
class FuzzScenario:
    """One seeded random scenario of ``tests/golden/fuzz.json``."""

    network: Network
    routing: SpamRouting
    #: ``(source, destinations, at_ns, length_flits)`` per message.
    messages: list[tuple[int, tuple[int, ...], int, int]]
    overrides: dict
    #: ``None`` for one ``run()``, else ``(window_ns, windows)``: that many
    #: ``run_for(window_ns)`` calls before the final ``run()``.
    tiling: tuple[int, int] | None

    def describe(self) -> str:
        """The scenario's dimensions, on one line."""
        return (
            f"{len(self.network.switches())} switches, "
            f"{len(self.network.channels())} channels, "
            f"{len(self.messages)} messages "
            f"({sum(len(m[1]) == 1 for m in self.messages)} unicast), "
            f"{min(m[3] for m in self.messages)}-{max(m[3] for m in self.messages)} flits, "
            f"buffers in/out {self.overrides['input_buffer_depth']}/"
            f"{self.overrides['output_buffer_depth']}, "
            f"channel period {self.overrides['channel_latency_ns']} ns, "
            + ("run()" if self.tiling is None else "run_for({}) x{} + run()".format(*self.tiling))
        )


def fuzz_scenario(seed: int) -> FuzzScenario:
    """Draw the scenario of ``seed``.  Append new draws at the end only:
    reordering them moves every digest."""
    rng = random.Random(seed)
    network = random_irregular_network(
        rng.randint(4, 14), extra_links=rng.randint(0, 10), seed=seed
    )
    processors = network.processors()
    messages = []
    for _ in range(rng.randint(1, 12)):
        source = rng.choice(processors)
        others = [p for p in processors if p != source]
        count = 1 if rng.random() < 0.4 else rng.randint(2, len(others))
        destinations = tuple(sorted(rng.sample(others, count)))
        messages.append((source, destinations, 10 * rng.randrange(1000), rng.randint(2, 64)))
    period = 10
    if rng.random() < 0.5:
        # The corpus once drew a slow channel here; drawing (and discarding)
        # its channel id keeps every later draw's value.
        rng.randrange(len(network.channels()))
        period = rng.choice((7, 13))
    tiling = None
    if rng.random() < 0.5:
        tiling = (rng.randrange(50, 5000), rng.randint(1, 20))
    overrides = {
        "channel_latency_ns": period,
        "input_buffer_depth": rng.choice((1, 2, 3)),
        "output_buffer_depth": rng.choice((1, 2, 3)),
    }
    return FuzzScenario(network, SpamRouting.build(network), messages, overrides, tiling)


def fuzz_digest(scenario: FuzzScenario, fast_path: bool) -> str:
    """sha256 of the fingerprint of ``scenario`` on one path."""
    return fuzz_run(scenario, fast_path)[0]


def fuzz_run(scenario: FuzzScenario, fast_path: bool) -> tuple[str, dict[str, int]]:
    """Run ``scenario`` on one path: the sha256 of its fingerprint, and how
    many periods each kind of token advanced (``coalesced_ticks`` split
    into worm, drain and unicast tokens)."""
    config = SimulationConfig(
        trace=True, collect_channel_stats=True, fast_path=fast_path, **scenario.overrides
    )
    simulator = WormholeSimulator(scenario.network, scenario.routing, config)
    advanced = {"drain": 0, "unicast": 0}

    def counting(kind, pop):
        def counting_pop(token) -> None:
            ticks = simulator.coalesced_ticks
            pop(token)
            advanced[kind] += simulator.coalesced_ticks - ticks

        return counting_pop

    simulator._pop_drain = counting("drain", simulator._pop_drain)
    simulator._pop_unicast = counting("unicast", simulator._pop_unicast)
    for source, destinations, at_ns, length in scenario.messages:
        simulator.submit_message(source, destinations, at_ns=at_ns, length_flits=length)
    if scenario.tiling is not None:
        window_ns, windows = scenario.tiling
        for _ in range(windows):
            simulator.run_for(window_ns)
    stats = simulator.run()
    advanced["worm"] = simulator.coalesced_ticks - advanced["drain"] - advanced["unicast"]
    return digest(simulator_fingerprint(simulator, stats)), advanced


def load_fuzz_golden() -> dict[int, str]:
    digests = json.loads(FUZZ_GOLDEN_PATH.read_text())["digests"]
    return {int(seed): sha for seed, sha in digests.items()}


def fuzz_check(seed: int, golden: dict[int, str]) -> tuple[list[str], set[str]]:
    """One line per path whose digest moved from the golden, each naming
    the seed, the scenario and a one-line reproducer; and the kinds of
    token (of :data:`FUZZ_TOKEN_FLOORS`) the fast path advanced."""
    scenario = fuzz_scenario(seed)
    lines = []
    kinds: set[str] = set()
    for fast_path in (True, False):
        observed, advanced = fuzz_run(scenario, fast_path)
        if fast_path:
            kinds = {kind for kind, periods in advanced.items() if periods}
        if observed != golden[seed]:
            lines.append(
                f"fuzz seed {seed} moved on the {'fast' if fast_path else 'reference'} path "
                f"(sha256 {golden[seed][:12]} -> {observed[:12]}): {scenario.describe()}; "
                f"reproduce: PYTHONPATH=src python tests/test_golden.py --fuzz {seed}"
            )
    return lines, kinds


@pytest.fixture(scope="module")
def fuzz_golden() -> dict[int, str]:
    return load_fuzz_golden()


@pytest.mark.equivalence
@pytest.mark.parametrize("seed", FUZZ_TIER1)
def test_fuzz_scenario_matches_golden(seed, fuzz_golden):
    mismatches, _kinds = fuzz_check(seed, fuzz_golden)
    assert not mismatches, "\n".join(mismatches)


def test_fuzz_corpus_covers_exactly_the_seeds(fuzz_golden):
    assert sorted(fuzz_golden) == list(FUZZ_SEEDS)


def check_fuzz(seeds: list[int]) -> bool:
    """Check ``seeds`` (all of them when empty) on both paths; print one
    line per moved path, the number of seeds whose fast path advanced each
    kind of token, and the seeds that advanced a unicast token.  Returns
    whether the check failed: a seed moved, or the whole corpus advanced a
    kind of token on fewer seeds than its floor in
    :data:`FUZZ_TOKEN_FLOORS`."""
    golden = load_fuzz_golden()
    moved = 0
    seeds_by_kind: dict[str, list[int]] = {kind: [] for kind in FUZZ_TOKEN_FLOORS}
    for seed in seeds or FUZZ_SEEDS:
        mismatches, kinds = fuzz_check(seed, golden)
        if seeds:
            print(f"seed {seed}: {fuzz_scenario(seed).describe()}")
        for line in mismatches:
            print(line)
        moved += bool(mismatches)
        for kind in kinds:
            seeds_by_kind[kind].append(seed)
    checked = len(seeds) if seeds else len(FUZZ_SEEDS)
    print(f"fuzz corpus: {checked - moved} of {checked} seeds match on both paths")
    for kind, advanced in seeds_by_kind.items():
        print(f"fuzz corpus: the fast path advanced a {kind} token on {len(advanced)} of {checked} seeds")
    print(f"fuzz corpus: unicast-token seeds: {' '.join(map(str, seeds_by_kind['unicast']))}")
    too_few = False
    for kind, floor in FUZZ_TOKEN_FLOORS.items():
        if not seeds and len(seeds_by_kind[kind]) < floor:
            print(f"fuzz corpus: fewer than {floor} seeds advanced a {kind} token")
            too_few = True
    return bool(moved) or too_few


def regenerate() -> None:
    """Rewrite the three corpora: the engine scenarios and the fuzz
    scenarios (fast path and reference must agree on every scenario before
    anything is written), and the experiment export and ablation digests."""
    scenarios = {}
    for name, build in SCENARIOS.items():
        fast = observe(build(), fast_path=True)
        reference = observe(build(), fast_path=False)
        if fast != reference:
            raise SystemExit(f"{name}: fast path and reference disagree; not writing")
        scenarios[name] = fast
        print(f"{name}: {fast['sha256']}")
    document = {"regenerate": REGENERATE, "scenarios": scenarios}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    exports = {}
    for name, argv in SWEEP_EXPORTS.items():
        exports[name] = {"argv": argv, "sha256": sweep_export_digest(argv)}
        print(f"{name}: {exports[name]['sha256']}")
    ablations = {}
    for name in ABLATIONS:
        ablations[name] = {"sha256": ablation_digests()[name]}
        print(f"{name}: {ablations[name]['sha256']}")
    document = {"regenerate": REGENERATE, "exports": exports, "ablations": ablations}
    SWEEP_GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {SWEEP_GOLDEN_PATH}")
    digests = {}
    for seed in FUZZ_SEEDS:
        scenario = fuzz_scenario(seed)
        fast = fuzz_digest(scenario, fast_path=True)
        if fast != fuzz_digest(scenario, fast_path=False):
            raise SystemExit(f"fuzz seed {seed}: fast path and reference disagree; not writing")
        digests[str(seed)] = fast
    document = {"regenerate": REGENERATE, "digests": digests}
    FUZZ_GOLDEN_PATH.write_text(json.dumps(document, indent=0) + "\n")
    print(f"wrote {FUZZ_GOLDEN_PATH} ({len(digests)} scenarios)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--regenerate", action="store_true",
        help="rewrite tests/golden/engine.json, sweeps.json and fuzz.json",
    )
    parser.add_argument(
        "--fuzz", nargs="*", type=int, metavar="SEED",
        help="check the fuzz corpus on both paths (every seed, or the named ones)",
    )
    args = parser.parse_args()
    if args.regenerate:
        regenerate()
    elif args.fuzz is not None:
        sys.exit(1 if check_fuzz(args.fuzz) else 0)
    else:
        parser.print_help()
