"""R7: process-pool purity — submitted functions must be self-contained.

The sweep scheduler ships work to ``ProcessPoolExecutor`` workers.  Under
the default ``fork`` start method a submitted function can *appear* to work
while closing over or mutating module-level state — state that silently
diverges between parent and children, differs under ``spawn`` (macOS,
Windows), and breaks the parallel-vs-sequential bit-identity guarantee the
scheduler tests enforce.  The rule checks every ``….submit(f, …)`` and
``….map(f, …)`` call site (the sweep scheduler ships workers through
``submit``; ``Executor.map`` is the other way a callable crosses the
process boundary):

* ``f`` must be a plain module-level function (or an import) — lambdas and
  locally-defined closures are flagged outright;
* a same-module ``f`` must not rebind globals (``global x``; ``x = …`` at
  module scope via ``global``), mutate module-level containers
  (``STATE.append(…)``, ``CACHE[k] = v``) or set attributes on
  module-level objects.

The analysis is one level deep by design (it does not chase the cross-
module call graph): the scheduler's worker entry points are small by
contract, and anything deeper should be restructured rather than argued.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..framework import FileContext, FileRule, Finding, Project, register

_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "sort",
    "reverse",
    "appendleft",
    "extendleft",
}


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _module_level_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _local_names(func: ast.FunctionDef) -> set[str]:
    """Parameters plus names assigned (and not declared global) in ``func``."""
    args = func.args
    local = {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
    if args.vararg:
        local.add(args.vararg.arg)
    if args.kwarg:
        local.add(args.kwarg.arg)
    declared_global: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and isinstance(
            node.target, ast.Name
        ):
            local.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            local.add(node.target.id)
        elif isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name):
            local.add(node.target.id)
    return local - declared_global


def _mutations_of_module_state(
    func: ast.FunctionDef, module_names: set[str]
) -> Iterator[tuple[ast.AST, str]]:
    local = _local_names(func)
    shadowed = local  # a module name rebound locally is local
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield node, f"declares 'global {name}' (rebinding module state)"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS:
                base = node.func.value
                if (
                    isinstance(base, ast.Name)
                    and base.id in module_names
                    and base.id not in shadowed
                ):
                    yield node, (
                        f"mutates module-level '{base.id}' via .{node.func.attr}()"
                    )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                base: ast.expr | None = None
                how = ""
                if isinstance(target, ast.Subscript):
                    base, how = target.value, "item assignment"
                elif isinstance(target, ast.Attribute):
                    base, how = target.value, "attribute assignment"
                if (
                    base is not None
                    and isinstance(base, ast.Name)
                    and base.id in module_names
                    and base.id not in shadowed
                ):
                    yield node, f"mutates module-level '{base.id}' via {how}"


@register
class ProcessPoolPurityRule(FileRule):
    """R7: callables given to ``.submit`` stay pure of module state."""

    rule_id = "R7"
    name = "pool-purity"
    description = (
        "functions handed to the process pool (.submit/.map) must be "
        "module-level and must not close over or mutate module-level mutable "
        "state (fork/spawn divergence breaks the parallel-vs-sequential "
        "bit-identity guarantee)"
    )
    scope = ("src/repro/*", "tools/*", "benchmarks/*")

    #: Executor methods whose first argument crosses the process boundary.
    _POOL_CALLS = frozenset({"submit", "map"})

    def check_file(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        module_functions = _module_level_functions(ctx.tree)
        module_names = _module_level_names(ctx.tree)
        checked: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._POOL_CALLS
                and node.args
            ):
                continue
            target = node.args[0]
            if isinstance(target, ast.Lambda):
                yield self.finding(
                    ctx.relpath,
                    target,
                    "a lambda submitted to the process pool closes over its "
                    "defining frame; submit a module-level function taking "
                    "explicit arguments",
                )
                continue
            if not isinstance(target, ast.Name):
                # e.g. a bound method — carries its instance through pickle.
                yield self.finding(
                    ctx.relpath,
                    target,
                    "submit a plain module-level function to the process pool; "
                    "bound methods / attribute lookups carry hidden instance "
                    "state into the workers",
                )
                continue
            name = target.id
            function = module_functions.get(name)
            if function is None:
                # Imported callables are fine (one-level analysis by design);
                # a *local* def or assignment of this name is a closure risk.
                if self._is_local_callable(node, name, ctx):
                    yield self.finding(
                        ctx.relpath,
                        target,
                        f"'{name}' is defined inside a function; submitted "
                        f"callables must be module-level so workers rebuild "
                        f"state from arguments, not from a closure",
                    )
                continue
            if name in checked:
                continue
            checked.add(name)
            for offender, what in _mutations_of_module_state(function, module_names):
                yield self.finding(
                    ctx.relpath,
                    offender,
                    f"pool-submitted function '{name}' {what}; worker-side "
                    f"module state diverges from the parent and across start "
                    f"methods — pass state in, return results out",
                )

    @staticmethod
    def _is_local_callable(call: ast.Call, name: str, ctx: FileContext) -> bool:
        """Does a function enclosing ``call`` define ``name`` locally?"""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            span_end = getattr(node, "end_lineno", node.lineno)
            if not (node.lineno <= call.lineno <= span_end):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if inner is not node and inner.name == name:
                        return True
                if isinstance(inner, ast.Assign):
                    for assign_target in inner.targets:
                        if isinstance(assign_target, ast.Name) and assign_target.id == name:
                            return True
        return False
