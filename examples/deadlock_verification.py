#!/usr/bin/env python
"""Empirically verify the paper's deadlock-freedom claim (Theorem 1).

Four complementary checks are run and printed:

1. **Channel dependency graph** — the dependency relation induced by SPAM's
   routing rules is enumerated on a random irregular topology and checked to
   be acyclic (the Dally/Seitz condition).  The same check is run for the
   classic up*/down* baseline (also acyclic) and for a naive minimal-path
   router (cyclic), to show the check is not vacuous.
2. **Reachability** — every sampled source/destination pair is routed to
   its destination within a bounded number of hops (Theorem 2).
3. **Stress simulation** — heavy mixed traffic is run through the flit-level
   simulator with SPAM; every message must be delivered.
4. **Deadlock injection** — on an 8-switch ring, every processor sends a
   64-flit message to the processor two switches clockwise at the same
   instant, routed by the naive minimal router; the simulator's deadlock
   detector must fire, and its wait-for cycle is printed.  The script exits
   1 if the run does not deadlock.

Run with:  python examples/deadlock_verification.py
"""

from __future__ import annotations

from repro import SimulationConfig, SpamRouting, UpDownRouting
from repro.routing import NaiveMinimalRouting
from repro.topology import lattice_irregular_network, ring_network
from repro.traffic.workload import MessageSpec, Workload
from repro.verification import (
    build_naive_cdg,
    build_spam_cdg,
    build_updown_cdg,
    check_unicast_reachability,
    run_workload,
    stress_test_deadlock_freedom,
)


def main() -> None:
    network = lattice_irregular_network(32, seed=3)
    spam = SpamRouting.build(network)
    updown = UpDownRouting(network, spam.tree)

    print("=== 1. Channel dependency graphs ===")
    for name, cdg in (
        ("SPAM", build_spam_cdg(spam)),
        ("up*/down*", build_updown_cdg(updown)),
        ("naive minimal (ring)", build_naive_cdg(NaiveMinimalRouting(ring_network(8)))),
    ):
        summary = cdg.summary()
        print(
            f"  {name:<22} channels={summary['channels']:<5} "
            f"dependencies={summary['dependencies']:<7} acyclic={summary['acyclic']}"
        )

    print("\n=== 2. Livelock freedom: exhaustive reachability ===")
    reach = check_unicast_reachability(spam, sample_pairs=200)
    print(
        f"  routed {reach.pairs_checked} source/destination pairs, "
        f"longest route {reach.max_route_length} channels, failures: {len(reach.failures)}"
    )

    print("\n=== 3. Stress simulation with SPAM (must deliver everything) ===")
    for result in stress_test_deadlock_freedom(network, spam, rounds=2, messages_per_round=40):
        print(
            f"  delivered {result.messages_completed}/{result.messages_submitted} messages, "
            f"deadlocked={result.deadlocked}, mean latency {result.mean_latency_us:.1f} us"
        )

    print("\n=== 4. Deadlock injection with naive minimal routing on a ring ===")
    ring = ring_network(8)
    processors = ring.processors()
    count = len(processors)
    # Every processor sends two switches clockwise at the same instant.
    workload = Workload(
        name="ring-shift",
        specs=[
            MessageSpec(source=source, destinations=(processors[(index + 2) % count],), at_ns=0)
            for index, source in enumerate(processors)
        ],
    )
    result = run_workload(
        ring, NaiveMinimalRouting(ring), workload, SimulationConfig(message_length_flits=64)
    )
    print(
        f"  delivered {result.messages_completed}/{result.messages_submitted} messages, "
        f"deadlocked={result.deadlocked}"
    )
    if not result.deadlocked:
        raise SystemExit("  the naive ring run did not deadlock (expected a circular wait)")
    for cycle in result.deadlock.cycles:
        waits = " -> ".join(str(mid) for mid in cycle + [cycle[0]])
        print(f"  detector found the circular wait {waits}")


if __name__ == "__main__":
    main()
