"""R2: salted-hash hazards — builtin ``hash()`` / ``id()`` in keyed contexts.

The content-addressed store and every export key results by **stable
digests** (``hashlib.sha256`` over canonical JSON — see ``docs/sweeps.md``).
Builtin ``hash()`` is salted per process for ``str``/``bytes``
(``PYTHONHASHSEED``) and ``id()`` is an address: using either in an
ordering key, a spec key or any persisted value silently breaks
reproducibility across processes and hosts.  The
rule flags *every* call of the two builtins inside the library — a
legitimate use (none exist today) must carry a justified pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, FileRule, Finding, Project, register

_BANNED = {
    "hash": (
        "builtin hash() is salted per process (PYTHONHASHSEED) for str/bytes; "
        "spec keys and orderings must use a stable digest "
        "(hashlib.sha256 over canonical JSON, see repro.sweeps.store.spec_key)"
    ),
    "id": (
        "id() is a memory address — different on every run; never use it for "
        "ordering, keys or persisted values (use a stable identifier such as "
        "message.mid or a spec key)"
    ),
}


@register
class SaltedHashRule(FileRule):
    """R2: builtin ``hash()``/``id()`` anywhere in the library."""

    rule_id = "R2"
    name = "salted-hash"
    description = (
        "builtin hash() and id() are process-local (hash salting, addresses); "
        "keys and orderings must use stable digests"
    )
    scope = ("src/repro/*",)

    def check_file(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in _BANNED:
                yield self.finding(ctx.relpath, node, _BANNED[func.id])
