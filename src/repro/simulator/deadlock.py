"""Deadlock diagnosis.

SPAM is provably deadlock-free (paper Theorem 1), but the simulator also
hosts baseline algorithms and deliberately broken configurations (in tests),
so it must be able to *detect and explain* a deadlock rather than silently
hanging.  A deadlock manifests as the event queue draining while messages
are still undelivered: every remaining worm is waiting for a buffer or a
channel that can only be freed by another waiting worm.

:func:`diagnose` builds the message-level wait-for graph from the engine
state and reports the cycles it finds, which is also what the
deadlock-injection tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DeadlockReport", "diagnose"]


@dataclass
class DeadlockReport:
    """Result of a deadlock diagnosis.

    Attributes
    ----------
    stalled_messages:
        Message ids that were submitted but never completed.
    waiting_segments:
        Human-readable description of every worm segment that is stuck
        waiting for output channels.
    wait_for_edges:
        Edges ``(waiting_mid, holding_mid)`` of the message wait-for graph.
    cycles:
        Simple cycles found in the wait-for graph; a non-empty list is the
        signature of a true circular-wait deadlock (as opposed to, say, a
        workload that simply stopped injecting).
    """

    stalled_messages: list[int] = field(default_factory=list)
    waiting_segments: list[str] = field(default_factory=list)
    wait_for_edges: list[tuple[int, int]] = field(default_factory=list)
    cycles: list[list[int]] = field(default_factory=list)

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"{len(self.stalled_messages)} message(s) did not complete: "
            f"{sorted(self.stalled_messages)}",
        ]
        lines.extend(self.waiting_segments)
        if self.cycles:
            lines.append("circular waits:")
            for cycle in self.cycles:
                lines.append("  " + " -> ".join(str(mid) for mid in cycle + [cycle[0]]))
        else:
            lines.append("no circular wait found (messages stalled for another reason)")
        return "\n".join(lines)


def diagnose(engine) -> DeadlockReport:
    """Build a :class:`DeadlockReport` from a stalled engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.simulator.engine.WormholeSimulator` whose event
        queue has drained with undelivered messages.
    """
    # networkx is imported here, not at module level: a run that never
    # stalls (and every import of ``repro``) does not pay for loading it.
    import networkx as nx

    report = DeadlockReport()
    report.stalled_messages = [
        message.mid for message in engine.messages.values() if not message.is_complete
    ]

    graph = nx.DiGraph()
    for segment in engine.active_segments():
        blocking = segment.waiting_on()
        if not blocking:
            continue
        waiting_mid = segment.message.mid
        for link in blocking:
            holder = link.reserved_by
            queue_ahead = [
                s.message.mid for s in link.ocrq.waiting() if s is not segment
            ]
            description = (
                f"message {waiting_mid} waits at switch {segment.switch} for channel "
                f"{link.channel.src}->{link.channel.dst}"
                f" (held by {holder}, queued behind {queue_ahead})"
            )
            report.waiting_segments.append(description)
            if holder is not None and holder != waiting_mid:
                graph.add_edge(waiting_mid, holder)
                report.wait_for_edges.append((waiting_mid, holder))
            for ahead in queue_ahead:
                if ahead != waiting_mid:
                    graph.add_edge(waiting_mid, ahead)
                    report.wait_for_edges.append((waiting_mid, ahead))

    report.cycles = [list(cycle) for cycle in nx.simple_cycles(graph)]
    return report
