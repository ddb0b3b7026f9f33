#!/usr/bin/env python
"""Link-check the repository's markdown documentation.

Checks every inline markdown link (``[text](target)``) in the given files:

* **relative targets** must resolve to an existing file or directory
  (anchors are stripped; a bare ``#anchor`` is checked against the headings
  of the containing file);
* **absolute URLs** (anything with a scheme, ``mailto:`` included) are
  skipped: CI must not depend on network access.

Exits non-zero listing every broken link.  Used by the CI docs job::

    python tools/check_doc_links.py README.md docs/*.md
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline links; deliberately simple (no images with nested brackets in this
#: repo) but tolerant of titles: [text](target "title").
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


def _anchor_of(heading: str) -> str:
    """GitHub-style anchor for a heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def check_file(path: Path) -> list[str]:
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    anchors = {_anchor_of(h) for h in _HEADING.findall(text)}
    for match in _LINK.finditer(text):
        target = match.group(1)
        line = text.count("\n", 0, match.start()) + 1
        if _SCHEME.match(target):
            continue  # external URL or mailto; not checked offline
        if target.startswith("#"):
            if target[1:] not in anchors:
                errors.append(f"{path}:{line}: broken anchor {target!r}")
            continue
        rel, _, _anchor = target.partition("#")
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            errors.append(f"{path}:{line}: broken link {target!r} -> {resolved}")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_doc_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    errors: list[str] = []
    checked = 0
    for arg in argv:
        path = Path(arg)
        if not path.exists():
            errors.append(f"{path}: file not found")
            continue
        checked += 1
        errors.extend(check_file(path))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {checked} file(s): {'FAIL' if errors else 'ok'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
