"""R4: wall-clock and environment leaks in result paths.

A simulation's observable results are nanosecond timestamps computed on the
*simulated* clock; a sweep's results are pure functions of specs.  Reading
the wall clock (``time.time``, ``datetime.now``), OS entropy
(``os.urandom``, ``uuid.uuid4``) or the process environment inside the
library makes results depend on when/where they ran — the exact failure
mode the content-addressed store exists to prevent.

No environment knob is sanctioned: scale, worker count and store location
are arguments, so the library reads no environment variable.  The
``repro.obs`` package as a whole is excluded from this rule (a rule-scoped
sanction: it owns the monotonic telemetry clock), with rule R9's
observables firewall statically bounding what can flow out of it.  Any new
site must flow through configuration objects or argue its own pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, FileRule, Finding, Project, register
from .rng import _dotted, _module_aliases

_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "time.process_time": "wall-clock read",
    "os.urandom": "OS entropy read",
    "os.getrandom": "OS entropy read",
    "uuid.uuid1": "host/time-derived identifier",
    "uuid.uuid4": "entropy-derived identifier",
    "secrets.token_bytes": "OS entropy read",
    "secrets.token_hex": "OS entropy read",
    "os.getenv": "environment read",
    "os.environ.get": "environment read",
    "os.environb.get": "environment read",
}

#: ``datetime.now()`` etc., matched by attribute name on anything imported
#: from the ``datetime`` module (the chains ``datetime.datetime.now`` and
#: ``from datetime import datetime; datetime.now`` both resolve here).
_DATETIME_ATTRS = {"now", "utcnow", "today"}


@register
class EnvironmentLeakRule(FileRule):
    """R4: wall-clock, entropy and environment reads in the library."""

    rule_id = "R4"
    name = "environment-leak"
    description = (
        "time.time/datetime.now/os.urandom/uuid4 and os.environ reads make "
        "simulation or sweep results depend on when/where they ran; route "
        "everything through config objects and simulated time"
    )
    scope = ("src/repro/*",)
    # Rule-scoped sanction: repro.obs owns the monotonic telemetry clock
    # (Telemetry's default perf_counter_ns); R9's observables firewall keeps
    # everything recorded there out of simulation/sweep results, which is
    # the property this rule protects per-site everywhere else.
    exclude = ("src/repro/obs/*",)

    def check_file(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        aliases, names = _module_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            # Subscript read: os.environ["X"] (write would be setitem too —
            # mutating the environment is just as banned).
            if isinstance(node, ast.Subscript):
                dotted = _dotted(node.value, aliases)
                if dotted in {"os.environ", "os.environb"}:
                    yield self.finding(
                        ctx.relpath,
                        node,
                        "environment access (os.environ[...]) in library code: results "
                        "must not depend on ambient environment variables; use explicit "
                        "configuration (or pragma a sanctioned knob)",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted(func, aliases) if isinstance(func, ast.Attribute) else None
            if dotted is None and isinstance(func, ast.Name):
                dotted = names.get(func.id)
            if dotted in _BANNED_CALLS:
                yield self.finding(
                    ctx.relpath,
                    node,
                    f"{_BANNED_CALLS[dotted]} ({dotted}) in library code: simulation "
                    f"and sweep results must be pure functions of spec + config "
                    f"(simulated time only)",
                )
                continue
            # datetime.now() and friends, however the class was imported.
            if isinstance(func, ast.Attribute) and func.attr in _DATETIME_ATTRS:
                base = func.value
                base_dotted = _dotted(base, aliases)
                from_datetime = base_dotted is not None and (
                    base_dotted == "datetime" or base_dotted.startswith("datetime.")
                )
                if not from_datetime and isinstance(base, ast.Name):
                    origin = names.get(base.id, "")
                    from_datetime = origin.startswith("datetime.")
                if from_datetime:
                    yield self.finding(
                        ctx.relpath,
                        node,
                        f"wall-clock read (datetime …{func.attr}()) in library code: "
                        f"results must be functions of simulated time, not the host clock",
                    )
