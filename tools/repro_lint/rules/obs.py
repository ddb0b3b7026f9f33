"""R9: the observables firewall around ``repro.obs``.

The telemetry package is the one place in the library allowed to read the
wall clock and the process environment (R4 carries a rule-scoped exclusion
for ``src/repro/obs/*``).  That sanction is only sound if nothing recorded
there can flow back into simulation or sweep *observables* — the stats,
traces and store rows whose bytes the determinism contract fingerprints.
R9 enforces that boundary statically, from both sides:

1. **Sink modules stay obs-free.**  The modules that define observable
   result types (``simulator/stats.py``, ``trace.py``, ``message.py``,
   ``flit.py``, ``fingerprint.py``; ``sweeps/store.py``,
   ``sweeps/spec.py``) may not import ``repro.obs`` at all — neither
   ``from ..obs import …`` nor the absolute form.  Code that
   *orchestrates* (engine, scheduler) may hold a recorder, but the modules
   whose values are fingerprinted cannot even name one.

2. **Telemetry values stay out of sink constructors.**  Anywhere in the
   library outside ``repro.obs``, an argument whose name looks like
   telemetry state (``telemetry``, ``span``/``spans``, ``gauge``/
   ``gauges``, ``obs``/``tele`` prefixes and suffixes) must not appear in
   a call that builds or feeds an observable — ``TraceEvent(...)``,
   ``SweepPointResult(...)``, ``record_message(...)``,
   ``observable_fingerprint(...)``, ``store.put(...)`` and friends.  This
   is a heuristic tripwire, not a full dataflow analysis: it catches the
   obvious "smuggle a duration into a result row" mistake at the call
   site where it happens.

3. **``repro.obs`` is a leaf.**  Files under ``src/repro/obs/*`` may
   import only the standard library and each other.  The firewall is a
   one-way valve: the library pushes marks *into* obs, and nothing from
   the rest of ``repro`` (configs, stats, specs) is reachable from inside
   it, so obs code cannot mutate observables even in principle.

Genuinely needing to cross the firewall (say, persisting a telemetry
snapshot *next to* a store) is a design change: write the exporter in
``repro.obs.export`` against the snapshot schema instead.
"""

from __future__ import annotations

import ast
import re
import sys
from typing import Iterator

from ..framework import FileContext, FileRule, Finding, Project, register

#: Modules that define observable result types; importing ``repro.obs``
#: here is banned outright (check 1).
_SINK_MODULES = {
    "src/repro/simulator/stats.py",
    "src/repro/simulator/trace.py",
    "src/repro/simulator/message.py",
    "src/repro/simulator/flit.py",
    "src/repro/simulator/fingerprint.py",
    "src/repro/sweeps/store.py",
    "src/repro/sweeps/spec.py",
}

#: Callables that build or feed observable results (check 2).  Matched by
#: the terminal name of the call target, so both ``TraceEvent(...)`` and
#: ``module.TraceEvent(...)``, ``store.put(...)`` and ``self.store.put(...)``
#: resolve here.
_SINK_CALLS = {
    "TraceEvent",
    "MessageRecord",
    "ChannelRecord",
    "SweepPointResult",
    "record_message",
    "record_delivery",
    "trace_event",
    "record",
    "observable_fingerprint",
    "put",
}

#: Identifier shapes that mark a value as telemetry-derived.  Anchored so
#: that legitimate simulator vocabulary (``spanning_tree``, ``spanning``)
#: does not trip the wire: ``span`` must be the whole first component or a
#: whole ``_``-delimited suffix.
_TELEMETRY_NAME_PATTERNS = (
    re.compile(r"^(telemetry|tele|obs|span|spans|gauge|gauges)$"),
    re.compile(r"^(telemetry|obs|span|tel)_"),
    re.compile(r"_(telemetry|span|spans)$"),
)

_STDLIB_MODULES = frozenset(sys.stdlib_module_names)


def _is_telemetry_name(name: str) -> bool:
    return any(pattern.search(name) for pattern in _TELEMETRY_NAME_PATTERNS)


def _call_target_name(func: ast.expr) -> str | None:
    """Terminal identifier of a call target (``a.b.put`` -> ``put``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _telemetry_idents(node: ast.expr) -> Iterator[str]:
    """Telemetry-shaped identifiers appearing anywhere in an expression."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_telemetry_name(sub.id):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and _is_telemetry_name(sub.attr):
            yield sub.attr


def _imports_obs(node: ast.stmt) -> bool:
    """True if the import statement reaches ``repro.obs`` from anywhere."""
    if isinstance(node, ast.Import):
        return any(
            alias.name == "repro.obs" or alias.name.startswith("repro.obs.")
            for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level >= 1:
            # Relative: ``from ..obs import …`` / ``from ..obs.export import …``
            # (any level — sink modules all live one or two packages deep).
            return module == "obs" or module.startswith("obs.")
        return module == "repro.obs" or module.startswith("repro.obs.")
    return False


@register
class ObservablesFirewallRule(FileRule):
    """R9: nothing from ``repro.obs`` flows into fingerprinted observables."""

    rule_id = "R9"
    name = "observables-firewall"
    description = (
        "repro.obs may read the wall clock (R4 sanction); in exchange its "
        "values must never reach stats/trace/store observables — sink "
        "modules cannot import obs, telemetry-shaped values cannot feed "
        "sink constructors, and obs itself imports only the stdlib"
    )
    scope = ("src/repro/*",)

    def check_file(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        if ctx.relpath.startswith("src/repro/obs/"):
            yield from self._check_obs_leaf(ctx)
            return
        yield from self._check_sink_imports(ctx)
        yield from self._check_tainted_sink_calls(ctx)

    # -- check 1: sink modules stay obs-free ------------------------------
    def _check_sink_imports(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.relpath not in _SINK_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and _imports_obs(node):
                yield self.finding(
                    ctx.relpath,
                    node,
                    "observable sink module imports repro.obs: modules defining "
                    "fingerprinted result types must not name telemetry at all; "
                    "thread recorders through orchestration layers instead",
                )

    # -- check 2: telemetry values stay out of sink calls ------------------
    def _check_tainted_sink_calls(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target_name(node.func)
            if target not in _SINK_CALLS:
                continue
            tainted: list[str] = []
            for arg in node.args:
                tainted.extend(_telemetry_idents(arg))
            for keyword in node.keywords:
                if keyword.arg is not None and _is_telemetry_name(keyword.arg):
                    tainted.append(keyword.arg)
                tainted.extend(_telemetry_idents(keyword.value))
            if tainted:
                unique = sorted(set(tainted))
                yield self.finding(
                    ctx.relpath,
                    node,
                    f"telemetry-shaped value(s) {', '.join(unique)} passed to "
                    f"observable sink {target}(): wall-clock-derived data must "
                    f"never reach fingerprinted results; export it via "
                    f"repro.obs.export instead",
                )

    # -- check 3: repro.obs is a leaf --------------------------------------
    def _check_obs_leaf(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root not in _STDLIB_MODULES:
                        yield self.finding(
                            ctx.relpath,
                            node,
                            f"repro.obs imports non-stdlib module {alias.name!r}: "
                            f"the telemetry package must stay a leaf (stdlib and "
                            f"intra-obs imports only) so it cannot reach "
                            f"observables",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level >= 2 or (node.level == 0 and module.split(".", 1)[0] == "repro"):
                    yield self.finding(
                        ctx.relpath,
                        node,
                        "repro.obs imports from the wider repro package: the "
                        "telemetry package must stay a leaf (stdlib and "
                        "intra-obs imports only) so it cannot reach observables",
                    )
                elif node.level == 0 and module.split(".", 1)[0] not in _STDLIB_MODULES:
                    yield self.finding(
                        ctx.relpath,
                        node,
                        f"repro.obs imports non-stdlib module {module!r}: the "
                        f"telemetry package must stay a leaf (stdlib and "
                        f"intra-obs imports only) so it cannot reach observables",
                    )
