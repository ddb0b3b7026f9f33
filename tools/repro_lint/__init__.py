"""``repro-lint``: the repository's determinism & invariant static analyzer.

Usage (from a checkout, no install needed)::

    python -m tools.repro_lint src/ tools/ benchmarks/
    python -m tools.repro_lint --json          # machine-readable findings
    python -m tools.repro_lint --list-rules    # rule ids + rationale

Library entry points: :func:`run_lint` (programmatic runs; the test-suite
uses it) and :func:`all_rules`.  The contract the rules enforce is documented in
``docs/determinism.md``; the framework lives in
:mod:`tools.repro_lint.framework`.
"""

from .framework import (
    DEFAULT_BASELINE,
    DEFAULT_PATHS,
    FileContext,
    FileRule,
    Finding,
    LintResult,
    Project,
    Rule,
    all_rules,
    load_baseline,
    run_lint,
    write_baseline,
)

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_PATHS",
    "FileContext",
    "FileRule",
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "all_rules",
    "load_baseline",
    "run_lint",
    "write_baseline",
]
