"""R6: counter discipline — initialize-before-increment, and doc coverage.

Two related contracts on the engine's observability counters
(``docs/engine_counters.md`` is normative):

* **Initialization**: every ``self.x += ...`` in a simulator class must
  have ``x`` initialized in ``__init__`` (or a ``reset*``/``clear*``
  method, or as a dataclass field).  An increment to an attribute that is
  only *sometimes* created raises ``AttributeError`` on some code paths —
  and, worse for observability, silently starts from a stale value after a
  partial reset.
* **Documentation**: every public ``coalesce*`` counter the engine assigns
  must have a ``### `name` `` heading in ``docs/engine_counters.md``, and
  every documented heading must still exist in the engine.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..framework import FileContext, FileRule, Finding, Project, register

_ENGINE = "src/repro/simulator/engine.py"
_REFERENCE = "docs/engine_counters.md"
_HEADING = re.compile(r"^###\s+`(coalesce\w*)`", re.MULTILINE)

_INIT_METHODS = re.compile(r"^(__init__|reset\w*|clear\w*|_reset\w*)$")


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _initialized_attrs(cls: ast.ClassDef) -> set[str]:
    """Attributes a class is guaranteed to create before normal operation."""
    initialized: set[str] = set()
    for stmt in cls.body:
        # Dataclass fields / class-level defaults.
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            initialized.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    initialized.add(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _INIT_METHODS.match(stmt.name):
                continue
            for node in ast.walk(stmt):
                targets: list[ast.expr] = []
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Tuple):
                        for element in target.elts:
                            attr = _self_attr(element)
                            if attr:
                                initialized.add(attr)
                    else:
                        attr = _self_attr(target)
                        if attr:
                            initialized.add(attr)
    return initialized


def _public_counter_assigns(cls: ast.ClassDef) -> dict[str, int]:
    """``coalesce*`` attributes assigned anywhere in the class -> first line."""
    counters: dict[str, int] = {}
    for node in ast.walk(cls):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr and attr.startswith("coalesce") and not attr.startswith("_"):
                counters.setdefault(attr, node.lineno)
    return counters


@register
class CounterDisciplineRule(FileRule):
    """R6: increments need initialization; ``coalesce*`` counters need docs."""

    rule_id = "R6"
    name = "counter-discipline"
    description = (
        "every self.x += … in a simulator class must be initialized in "
        "__init__/reset*, and every public coalesce* engine counter must "
        "have a heading in docs/engine_counters.md (and vice versa)"
    )
    scope = ("src/repro/simulator/*",)

    def check_file(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            initialized = _initialized_attrs(node)
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _INIT_METHODS.match(method.name):
                    continue
                for inner in ast.walk(method):
                    if not isinstance(inner, ast.AugAssign):
                        continue
                    attr = _self_attr(inner.target)
                    if attr is not None and attr not in initialized:
                        yield self.finding(
                            ctx.relpath,
                            inner,
                            f"counter 'self.{attr}' is incremented in "
                            f"{node.name}.{method.name}() but never initialized in "
                            f"__init__/reset; add an explicit zero initialization",
                        )
        if ctx.relpath == _ENGINE:
            yield from self._check_doc_coverage(ctx, project)

    def _check_doc_coverage(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        counters: dict[str, int] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                counters.update(_public_counter_assigns(node))
        reference = project.read_text(_REFERENCE)
        if reference is None:
            yield self.finding(
                ctx.relpath,
                1,
                f"engine counter reference {_REFERENCE} is missing; it is the "
                f"normative documentation for every coalesce* counter",
            )
            return
        documented: dict[str, int] = {}
        for match in _HEADING.finditer(reference):
            documented.setdefault(
                match.group(1), reference.count("\n", 0, match.start()) + 1
            )
        for name in sorted(set(counters) - set(documented)):
            yield self.finding(
                ctx.relpath,
                counters[name],
                f"engine counter '{name}' has no '### `{name}`' heading in "
                f"{_REFERENCE}; document its meaning and increment rule",
            )
        for name in sorted(set(documented) - set(counters)):
            yield Finding(
                path=_REFERENCE,
                line=documented[name],
                col=0,
                rule=self.rule_id,
                message=(
                    f"[{self.name}] documents counter '{name}', which no longer "
                    f"exists in {_ENGINE}; delete or rename the section"
                ),
            )
