"""Content-addressed sweep result store.

Results are stored under a cache directory (the CLI's ``--cache-dir``,
default ``.sweep-cache/``) in one file, ``results.jsonl``: append-only JSON
Lines, one row per completed sweep point::

    {"key": <sha256>, "salt": <code salt>, "spec": {...},
     "latencies_us": [...], "metrics": {...}}

Appending (never rewriting) is what makes the scheduler's per-point
checkpointing crash-safe: a killed run leaves a valid prefix plus at most
one truncated trailing line, which the next open detects and drops.  When a
key is appended twice the *last* row wins.

A store instance builds its key → byte-offset map by one scan of the file,
keeps it in step on every append and reads rows on demand.  The map is
checked against the file's size on every access, so an instance notices
when another instance on the same root appended underneath it, and
rescans.  Nothing else is persisted: an ``index.json`` that older versions
left in a root is neither read nor rewritten.

Hashing contract
----------------
The key of a row is ``sha256(canonical-json({"salt": ..., "spec":
spec.as_dict()}))``: every field of :class:`~repro.sweeps.spec.SweepPointSpec`
participates, so any parameter change produces a different key, and the
*code salt* (:func:`default_code_salt`) folds the library version plus a
store schema version in, so results computed by older code are never
silently reused after an upgrade (bump :data:`STORE_SCHEMA_VERSION` when
changing what the simulator's observable behaviour or the row format
means).  Identity of results is content-addressed; nothing depends on file
order or timestamps.

The store is single-writer: one orchestrator process appends (worker
processes return results over the pool, they never touch the store).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Sequence

from ..errors import SweepError
from .spec import SweepPointResult, SweepPointSpec

__all__ = [
    "DEFAULT_STORE_DIR",
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "default_code_salt",
    "spec_key",
]

#: Default cache directory (relative to the working directory).
DEFAULT_STORE_DIR = ".sweep-cache"

#: Bump when the meaning of stored rows changes (simulator behaviour,
#: spec semantics, row format): all previously stored rows become misses.
STORE_SCHEMA_VERSION = 1


def default_code_salt() -> str:
    """The code-version salt: library version + store schema."""
    from .. import __version__

    return f"repro-{__version__}/sweep-schema-{STORE_SCHEMA_VERSION}"


def spec_key(spec: SweepPointSpec) -> str:
    """Stable content hash of ``spec`` under the code salt.

    Canonical JSON (sorted keys, no whitespace) of the spec dict plus the
    salt, hashed with SHA-256.  Two specs share a key iff every field is
    equal and they were produced under the same salt.
    """
    payload = {"salt": default_code_salt(), "spec": spec.as_dict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed store of :class:`SweepPointResult` rows.

    Parameters
    ----------
    root:
        Cache directory.  Created on first write.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.results_path = self.root / "results.jsonl"
        self._offsets: dict[str, int] = {}
        #: Data-file size the offset map covers; ``None`` until the first
        #: scan.  Checked against the actual file size on every access so
        #: another instance's appends are noticed.
        self._indexed_size: int | None = None

    # ------------------------------------------------------------------
    # Offset map
    # ------------------------------------------------------------------
    def _data_size(self) -> int:
        try:
            return self.results_path.stat().st_size
        except FileNotFoundError:
            return 0

    def _ensure_index(self) -> dict[str, int]:
        """The key → offset map, rebuilt by a scan of ``results.jsonl``
        whenever the file's size differs from the size the map covers."""
        if self._indexed_size != self._data_size():
            self._scan()
        return self._offsets

    def _scan(self) -> None:
        """Rebuild the offset map from the data file.

        A truncated trailing line (a run killed mid-append) is cut off so
        subsequent appends produce a valid file again; corruption anywhere
        else raises :class:`~repro.errors.SweepError`.
        """
        offsets: dict[str, int] = {}
        try:
            with open(self.results_path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            data = b""
        position = 0
        valid_until = 0
        while position < len(data):
            newline = data.find(b"\n", position)
            line = data[position : len(data) if newline < 0 else newline]
            try:
                row = json.loads(line)
                key = row["key"]
            except (json.JSONDecodeError, KeyError, TypeError):
                if newline < 0:
                    break  # truncated tail from a killed run: drop it below
                raise SweepError(
                    f"corrupt sweep store row at byte {position} of "
                    f"{self.results_path}; delete the store to recover"
                )
            if newline < 0:
                break  # complete JSON but no newline: treat as truncated too
            offsets[str(key)] = position
            position = newline + 1
            valid_until = position
        if valid_until < len(data):
            with open(self.results_path, "r+b") as handle:
                handle.truncate(valid_until)
        self._offsets = offsets
        self._indexed_size = valid_until

    # ------------------------------------------------------------------
    # Content-addressed access
    # ------------------------------------------------------------------
    def key(self, spec: SweepPointSpec) -> str:
        """The content hash of ``spec`` (:func:`spec_key`)."""
        return spec_key(spec)

    def __contains__(self, spec: SweepPointSpec) -> bool:
        return self.key(spec) in self._ensure_index()

    def __len__(self) -> int:
        return len(self._ensure_index())

    def get(self, spec: SweepPointSpec) -> SweepPointResult | None:
        """The stored result of ``spec``, or ``None`` on a cache miss."""
        offset = self._ensure_index().get(self.key(spec))
        if offset is None:
            return None
        row = self._read_row(offset)
        return SweepPointResult(
            spec=spec,
            latencies_us=tuple(row["latencies_us"]),
            metrics=tuple((k, v) for k, v in row.get("metrics", ())),
        )

    def _row(self, result: SweepPointResult) -> dict:
        """The raw store-row form of ``result``: what :meth:`put_many`
        appends."""
        return {
            "key": self.key(result.spec),
            "salt": default_code_salt(),
            "spec": result.spec.as_dict(),
            "latencies_us": list(result.latencies_us),
            # Pair list, not an object: metric order is part of the result
            # (report tables use it for column order) and canonical-JSON key
            # sorting must not scramble it.
            "metrics": [[k, v] for k, v in result.metrics],
        }

    def put(self, result: SweepPointResult) -> str:
        """Append ``result`` (checkpoint) and return its key."""
        return self.put_many([result])[0]

    def put_many(self, results: Sequence[SweepPointResult]) -> list[str]:
        """Append ``results`` under one file handle; returns their keys.

        Each result lands under its own content-addressed spec key, so
        warm-cache lookups cannot tell whether a row was written singly or
        as part of a group (last row wins on lookup).
        """
        rows = [self._row(result) for result in results]
        if not rows:
            return []
        offsets = self._ensure_index()
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.results_path, "ab") as handle:
            end = handle.tell()
            for row in rows:
                data = (
                    json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                ).encode("utf-8")
                handle.write(data)
                offsets[row["key"]] = end
                end += len(data)
        self._indexed_size = end
        return [row["key"] for row in rows]

    def _read_row(self, offset: int) -> dict:
        with open(self.results_path, "rb") as handle:
            handle.seek(offset)
            line = handle.readline()
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise SweepError(
                f"corrupt sweep store row at byte {offset} of {self.results_path}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(root={str(self.root)!r}, rows={len(self)})"
