"""Routing-function reachability and progress checks (livelock freedom).

The paper's Theorem 2 states that SPAM is livelock-free.  The structural
argument is that the up sub-network, the down-cross relation and the
down-tree relation are each acyclic and a route moves through them in a
fixed order, so every route is finite; and the routing function always
offers at least one legal channel until the target is reached, so every
worm eventually arrives.  These helpers check both halves of that argument
exhaustively on a concrete topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.phases import Phase, may_follow
from ..core.spam import SpamRouting
from ..core.unicast import unicast_options
from ..errors import VerificationError

__all__ = ["ReachabilityReport", "check_unicast_reachability", "check_multicast_coverage"]


@dataclass
class ReachabilityReport:
    """Outcome of the exhaustive reachability check."""

    pairs_checked: int = 0
    max_route_length: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when every pair was routable within the hop bound."""
        return not self.failures

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` summarising any failures."""
        if self.failures:
            raise VerificationError("; ".join(self.failures[:10]))


def check_unicast_reachability(
    routing: SpamRouting, sample_pairs: int | None = None
) -> ReachabilityReport:
    """Check that SPAM routes every source to every destination.

    Follows the selection function's first choice from every source processor
    to every destination processor (or a deterministic subsample of pairs
    when ``sample_pairs`` is given) and verifies termination within the
    route walk's bound (:meth:`~repro.core.interface.RoutingAlgorithm.unicast_route`)
    as well as monotone phase progression.
    """
    processors = routing.network.processors()
    report = ReachabilityReport()

    pairs = [(s, d) for s in processors for d in processors if s != d]
    if sample_pairs is not None and sample_pairs < len(pairs):
        stride = max(1, len(pairs) // sample_pairs)
        pairs = pairs[::stride][:sample_pairs]

    for source, destination in pairs:
        report.pairs_checked += 1
        try:
            path = routing.unicast_route(source, destination)
        except Exception as exc:
            report.failures.append(f"{source}->{destination}: {exc}")
            continue
        # Phase monotonicity along the concrete path.
        phases = [routing.phase_of(channel) for channel in path]
        for channel, before, after in zip(path[1:], phases, phases[1:]):
            if not may_follow(before, after):
                report.failures.append(
                    f"{source}->{destination}: phase order violated at channel "
                    f"{channel.src}->{channel.dst}"
                )
                break
        report.max_route_length = max(report.max_route_length, len(path))
    return report


def check_multicast_coverage(
    routing: SpamRouting, destination_sets: list[list[int]], source: int
) -> ReachabilityReport:
    """Check that multicast plans cover exactly their destination sets."""
    report = ReachabilityReport()
    for destinations in destination_sets:
        report.pairs_checked += 1
        plan = routing.multicast_plan(source, destinations)
        covered = {
            channel.dst
            for channel in plan.branch_channels
            if routing.network.is_processor(channel.dst)
        }
        expected = set(plan.destinations)
        if plan.is_unicast:
            # Unicast plans carry no branch channels; the reachability of the
            # single destination is covered by check_unicast_reachability.
            continue
        if covered != expected:
            report.failures.append(
                f"multicast from {source} to {sorted(expected)} covers {sorted(covered)}"
            )
    return report


def check_routing_function_totality(routing: SpamRouting) -> ReachabilityReport:
    """Check that the routing function never strands a worm.

    For every switch, every incoming phase and every target, if the switch is
    not the target then at least one legal output channel must exist.
    """
    network = routing.network
    report = ReachabilityReport()
    for switch in network.switches():
        for phase in (Phase.UP, Phase.DOWN_CROSS, Phase.DOWN_TREE):
            for target in network.nodes():
                if target == switch:
                    continue
                report.pairs_checked += 1
                options = unicast_options(
                    routing.labeling, routing.ancestry, switch, phase, target
                )
                if phase is Phase.UP and not options:
                    report.failures.append(
                        f"no legal channel at switch {switch} (phase {phase.value}) "
                        f"towards {target}"
                    )
    return report
