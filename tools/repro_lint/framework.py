"""The ``repro-lint`` framework: findings, pragmas, rule registry.

``repro-lint`` is an AST-based static analyzer enforcing the repository's
*determinism contract*: every simulation, sweep and export must be
bit-identical run to run, host to host (``docs/determinism.md``).  The
dynamic half of that contract is the equivalence test suite; this framework
is the static half — it proves properties of the program text (no
salted-hash ordering, no set-iteration in result paths, no global RNG
state, ...) instead of sampling executions.

Architecture
------------
* A :class:`Rule` inspects a :class:`Project` (parsed source files plus the
  repository's documentation) and yields :class:`Finding` objects.  Rules
  self-register via :func:`register`; :data:`all_rules` returns them in
  rule-id order so output is deterministic.
* :class:`FileRule` is the common case: a per-file rule restricted to a
  tuple of ``scope`` glob patterns (repository-relative posix paths).
* **Pragmas** suppress a finding at an intentionally order-insensitive
  site::

      x = min(ids)  # repro-lint: disable=R1 -- min over ints is order-independent

  The justification after ``--`` is mandatory; a pragma without one is
  itself reported (rule ``R0``).  A pragma on a line of its own applies to
  the next source line.  There is no baseline of tolerated findings: a
  finding is fixed or pragma'd with a reason.

Exit codes (:func:`tools.repro_lint.cli.main`): 0 clean, 1 findings,
2 usage/internal error — deterministic, CI-friendly.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "Project",
    "Rule",
    "FileRule",
    "LintResult",
    "register",
    "all_rules",
    "run_lint",
    "DEFAULT_PATHS",
]

#: Paths scanned when the CLI is given none (repository-relative).
DEFAULT_PATHS = ("src", "tools", "benchmarks")

#: ``# repro-lint: disable=R1,R4 -- justification``
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9,\s]+?)"
    r"(?:--\s*(?P<reason>.*\S))?\s*$"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One determinism-contract violation at one source location."""

    path: str  #: repository-relative posix path
    line: int  #: 1-based
    col: int  #: 0-based (ast convention)
    rule: str  #: e.g. ``"R1"``
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class FileContext:
    """One parsed python source file."""

    relpath: str  #: posix path relative to the project root
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)


class Project:
    """Everything a rule may inspect: parsed sources plus documentation.

    ``files`` holds every successfully parsed python file under the scanned
    paths, in sorted relpath order (determinism).  Documentation is read
    lazily through :meth:`read_text` so project-level rules (counter/knob
    doc coverage) can diff code against ``README.md`` / ``docs/*.md``.
    """

    def __init__(self, root: Path, files: Sequence[FileContext]):
        self.root = Path(root)
        self.files = sorted(files, key=lambda ctx: ctx.relpath)
        self._by_path = {ctx.relpath: ctx for ctx in self.files}

    def file(self, relpath: str) -> FileContext | None:
        """The parsed file at ``relpath``, or ``None`` when not scanned."""
        return self._by_path.get(relpath)

    def read_text(self, relpath: str) -> str | None:
        """Raw text of any repository file (``None`` when absent)."""
        path = self.root / relpath
        try:
            return path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return None


class Rule:
    """Base class: one named, registered determinism check."""

    rule_id: str = ""
    name: str = ""
    #: One-line rationale, shown by ``--list-rules`` and in docs.
    description: str = ""
    severity: str = "error"

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, relpath: str, node_or_line: ast.AST | int, message: str, col: int | None = None
    ) -> Finding:
        if isinstance(node_or_line, int):
            line, column = node_or_line, 0 if col is None else col
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0) if col is None else col
        return Finding(
            path=relpath,
            line=line,
            col=column,
            rule=self.rule_id,
            message=f"[{self.name}] {message}",
            severity=self.severity,
        )


class FileRule(Rule):
    """A rule that inspects files matching its ``scope`` glob patterns."""

    #: Repository-relative posix glob patterns (``fnmatch`` on the full
    #: relpath); empty means "every scanned file".
    scope: tuple[str, ...] = ()
    #: Glob patterns carved *out* of the scope — a rule-scoped sanction
    #: (e.g. R4 excludes ``src/repro/obs/*``: the telemetry package owns
    #: the monotonic clock, and rule R9's firewall bounds what can flow
    #: out of it).  Prefer an exclusion with a documented contract over
    #: per-site pragmas when a whole package is exempt by design.
    exclude: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if any(fnmatch.fnmatch(relpath, pattern) for pattern in self.exclude):
            return False
        if not self.scope:
            return True
        return any(fnmatch.fnmatch(relpath, pattern) for pattern in self.scope)

    def check(self, project: Project) -> Iterator[Finding]:
        for ctx in project.files:
            if self.applies_to(ctx.relpath):
                yield from self.check_file(ctx, project)

    def check_file(self, ctx: FileContext, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


#: Registry, populated by the :mod:`tools.repro_lint.rules` package.
_REGISTRY: dict[str, Rule] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (keyed by rule id)."""
    rule = rule_class()
    if not rule.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule_class


def all_rules() -> list[Rule]:
    """Every registered rule, in rule-id order (import triggers registration)."""
    from . import rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Pragma suppression
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Pragma:
    line: int  #: line the pragma applies to (its own, or the next for bare lines)
    rules: tuple[str, ...]
    reason: str | None
    declared_line: int  #: line the comment physically sits on


def _parse_pragmas(ctx: FileContext) -> list[Pragma]:
    pragmas: list[Pragma] = []
    for lineno, text in enumerate(ctx.lines, start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip().upper() for part in match.group("rules").split(",") if part.strip()
        )
        reason = match.group("reason")
        applies_to = lineno
        if text.lstrip().startswith("#"):
            # A pragma on a line of its own governs the next line.
            applies_to = lineno + 1
        pragmas.append(
            Pragma(line=applies_to, rules=rules, reason=reason, declared_line=lineno)
        )
    return pragmas


def _apply_pragmas(
    ctx: FileContext, findings: list[Finding]
) -> tuple[list[Finding], list[Finding], int]:
    """Split ``findings`` into (kept, pragma-discipline findings, suppressed count)."""
    pragmas = _parse_pragmas(ctx)
    discipline: list[Finding] = []
    by_line: dict[int, list[Pragma]] = {}
    for pragma in pragmas:
        if not pragma.reason:
            discipline.append(
                Finding(
                    path=ctx.relpath,
                    line=pragma.declared_line,
                    col=0,
                    rule="R0",
                    message=(
                        "[pragma-discipline] suppression pragma has no justification; "
                        "write '# repro-lint: disable=<rules> -- <why this site is safe>'"
                    ),
                )
            )
            continue  # an unjustified pragma suppresses nothing
        by_line.setdefault(pragma.line, []).append(pragma)

    kept: list[Finding] = []
    suppressed = 0
    for finding in findings:
        covering = by_line.get(finding.line, ())
        if any(finding.rule in pragma.rules for pragma in covering):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, discipline, suppressed


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class LintResult:
    """What a lint run produced, pre-sorted for deterministic output."""

    findings: list[Finding]
    files_scanned: int
    suppressed: int  #: findings silenced by justified pragmas

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def summary(self) -> str:
        status = "FAIL" if self.findings else "ok"
        return (
            f"repro-lint: {len(self.findings)} finding(s) across "
            f"{self.files_scanned} file(s) "
            f"({self.suppressed} pragma-suppressed): {status}"
        )


def _discover(root: Path, paths: Sequence[str]) -> list[Path]:
    """Python files under ``paths`` (files or directories), sorted."""
    found: set[Path] = set()
    for raw in paths:
        path = (root / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        if path.is_file() and path.suffix == ".py":
            found.add(path)
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if any(part.startswith(".") or part == "__pycache__" for part in candidate.parts):
                    continue
                found.add(candidate)
    return sorted(found)


def run_lint(
    root: Path,
    paths: Sequence[str] = DEFAULT_PATHS,
    select: Iterable[str] | None = None,
    disable: Iterable[str] = (),
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Run the analyzer and return a :class:`LintResult`.

    Parameters
    ----------
    root:
        Repository root; every reported path and every scope pattern is
        relative to it.
    paths:
        Files or directories (relative to ``root``) to scan.
    select / disable:
        Restrict to / drop the given rule ids (``select`` wins first).
    rules:
        Explicit rule instances (tests); defaults to the full registry.
    """
    root = Path(root).resolve()
    active = list(all_rules()) if rules is None else list(rules)
    if select is not None:
        wanted = {rule_id.upper() for rule_id in select}
        unknown = wanted - {rule.rule_id for rule in active}
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        active = [rule for rule in active if rule.rule_id in wanted]
    dropped = {rule_id.upper() for rule_id in disable}
    active = [rule for rule in active if rule.rule_id not in dropped]

    contexts: list[FileContext] = []
    parse_failures: list[Finding] = []
    for path in _discover(root, paths):
        try:
            relpath = path.relative_to(root).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=relpath)
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            lineno = getattr(exc, "lineno", 1) or 1
            parse_failures.append(
                Finding(
                    path=relpath,
                    line=int(lineno),
                    col=0,
                    rule="E0",
                    message=f"[unparseable] cannot analyze file: {exc}",
                )
            )
            continue
        contexts.append(
            FileContext(relpath=relpath, text=text, tree=tree, lines=text.splitlines())
        )

    project = Project(root, contexts)
    raw: dict[str, list[Finding]] = {ctx.relpath: [] for ctx in contexts}
    for rule in active:
        for finding in rule.check(project):
            raw.setdefault(finding.path, []).append(finding)

    kept: list[Finding] = list(parse_failures)
    suppressed_total = 0
    for ctx in contexts:
        file_findings = sorted(raw.get(ctx.relpath, []))
        file_kept, discipline, suppressed = _apply_pragmas(ctx, file_findings)
        kept.extend(file_kept)
        kept.extend(discipline)
        suppressed_total += suppressed
    # Findings attributed to files outside the scan set (e.g. a doc-coverage
    # rule blaming a missing markdown heading) bypass pragma handling.
    for relpath, file_findings in raw.items():
        if project.file(relpath) is None:
            kept.extend(file_findings)

    kept.sort()
    return LintResult(findings=kept, files_scanned=len(contexts), suppressed=suppressed_total)
