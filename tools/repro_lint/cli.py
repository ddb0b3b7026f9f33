"""Command-line front end for ``repro-lint``.

Deterministic by construction: findings are sorted (path, line, col, rule),
JSON output is stable, and the exit code is a pure function of the findings
— 0 clean, 1 findings, 2 usage/internal error — so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .framework import DEFAULT_PATHS, all_rules, run_lint


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description=(
            "AST-based determinism & invariant analyzer for this repository "
            "(rules and policy: docs/determinism.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files/directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected from this file's location)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run exclusively (e.g. R1,R4)",
    )
    parser.add_argument(
        "--disable",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule registry and exit"
    )
    return parser


def _split(raw: str | None) -> list[str]:
    if not raw:
        return []
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name}: {rule.description}")
        return 0

    root = (
        Path(args.root).resolve()
        if args.root is not None
        else Path(__file__).resolve().parent.parent.parent
    )
    try:
        result = run_lint(
            root=root,
            paths=args.paths,
            select=_split(args.select) or None,
            disable=_split(args.disable),
        )
    except ValueError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "findings": [finding.as_dict() for finding in result.findings],
            "files_scanned": result.files_scanned,
            "suppressed": result.suppressed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render(), file=sys.stderr)
        print(result.summary())
    return result.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
