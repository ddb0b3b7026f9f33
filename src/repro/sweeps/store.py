"""Content-addressed sweep result store.

Results are stored under a cache directory (default ``.sweep-cache/``,
overridable via ``REPRO_SWEEP_CACHE``) in two files:

``results.jsonl``
    Append-only JSON Lines; one row per completed sweep point::

        {"key": <sha256>, "salt": <code salt>, "spec": {...},
         "latencies_us": [...], "metrics": {...}}

    Appending (never rewriting) is what makes the scheduler's per-point
    checkpointing crash-safe: a killed run leaves a valid prefix plus at
    most one truncated trailing line, which the next open detects and
    drops.  When a key is appended twice the *last* row wins.

``index.json``
    Acceleration structure: ``{"size": <bytes indexed>, "offsets":
    {key: byte offset into results.jsonl}}``.  The index is advisory —
    whenever its recorded size differs from the data file's actual size
    (a killed run, a hand-edited store, a merge performed by another
    process) the data file is rescanned and the index rebuilt, so deleting
    ``index.json`` is always safe.  The same staleness check is applied to
    the in-memory index on every access, so a store instance notices when
    the data file changed underneath it (e.g. :func:`merge_stores` into a
    root another instance had open, or after :meth:`ResultStore.clear`).

``manifest.json``
    Per-shard completion manifest: ``{"schema": 1, "salt": <code salt>,
    "shard": [index, count] | null, "expected": [<sha256>, ...]}`` — the
    spec keys a sweep was *asked* to produce, independent of what has been
    computed so far.  ``done``/``missing`` are derived by intersecting
    ``expected`` with the data file, so ``repro-spam merge`` can report which
    shards still owe points (:meth:`ResultStore.manifest_status`).
    Re-recording unions the expected keys while the salt matches; a salt
    change (code upgrade) resets the manifest.

Hashing contract
----------------
The key of a row is ``sha256(canonical-json({"salt": ..., "spec":
spec.as_dict()}))``: every field of :class:`~repro.sweeps.spec.SweepPointSpec`
participates, so any parameter change produces a different key, and the
*code salt* folds the library version plus a store schema version in, so
results computed by older code are never silently reused after an upgrade
(bump :data:`STORE_SCHEMA_VERSION` when changing what the simulator's
observable behaviour or the row format means).  Identity of results is
content-addressed; nothing depends on file order or timestamps.

The store is single-writer: one orchestrator process appends (worker
processes return results over the pool, they never touch the store).
Multi-host sweeps therefore use one store *per shard* and combine them
afterwards with :func:`merge_stores` — content-addressed keys make the
merge conflict-free (last row wins), and rows computed under a different
code salt are rejected rather than silently mixed in.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..errors import SweepError
from .spec import SweepPointResult, SweepPointSpec, spec_from_dict

__all__ = [
    "DEFAULT_STORE_DIR",
    "STORE_SCHEMA_VERSION",
    "ManifestStatus",
    "MergeReport",
    "ResultStore",
    "default_code_salt",
    "merge_stores",
    "spec_key",
]

#: Default cache directory (relative to the working directory).
DEFAULT_STORE_DIR = ".sweep-cache"

#: Bump when the meaning of stored rows changes (simulator behaviour,
#: spec semantics, row format): all previously stored rows become misses.
STORE_SCHEMA_VERSION = 1


def default_code_salt() -> str:
    """The default code-version salt: library version + store schema."""
    from .. import __version__

    return f"repro-{__version__}/sweep-schema-{STORE_SCHEMA_VERSION}"


def spec_key(spec: SweepPointSpec, code_salt: str | None = None) -> str:
    """Stable content hash of ``spec`` under ``code_salt``.

    Canonical JSON (sorted keys, no whitespace) of the spec dict plus the
    salt, hashed with SHA-256.  Two specs share a key iff every field is
    equal and they were produced under the same salt.
    """
    payload = {
        "salt": default_code_salt() if code_salt is None else code_salt,
        "spec": spec.as_dict(),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Bump when the manifest layout changes meaning.
_MANIFEST_SCHEMA = 1


@dataclass(frozen=True)
class ManifestStatus:
    """Completion accounting of a store against its recorded manifest."""

    #: ``(index, count)`` of the shard the manifest was recorded for
    #: (0-based index), or ``None`` for an unsharded / merged store.
    shard: tuple[int, int] | None
    #: Every spec key the sweep was asked to produce (sorted).
    expected: tuple[str, ...]
    #: The expected keys present in ``results.jsonl``.
    done: tuple[str, ...]
    #: The expected keys still absent.
    missing: tuple[str, ...]

    @property
    def complete(self) -> bool:
        return not self.missing

    def describe(self) -> str:
        """One-line accounting string for CLI/log output."""
        label = "store" if self.shard is None else (
            f"shard {self.shard[0] + 1}/{self.shard[1]}"
        )
        return (
            f"{label}: {len(self.done)}/{len(self.expected)} expected points done"
            + ("" if self.complete else f", {len(self.missing)} missing")
        )


class ResultStore:
    """Content-addressed store of :class:`SweepPointResult` rows.

    Parameters
    ----------
    root:
        Cache directory; defaults to ``$REPRO_SWEEP_CACHE`` or
        ``.sweep-cache``.  Created on first write.
    code_salt:
        Override the code-version salt (tests use this to exercise
        invalidation; everything else should keep the default).
    """

    def __init__(self, root: str | os.PathLike | None = None, code_salt: str | None = None):
        if root is None:
            root = os.environ.get("REPRO_SWEEP_CACHE", DEFAULT_STORE_DIR)  # repro-lint: disable=R4 -- cache location knob; stored results are content-addressed so the path cannot change values
        self.root = Path(root)
        self.results_path = self.root / "results.jsonl"
        self.index_path = self.root / "index.json"
        self.manifest_path = self.root / "manifest.json"
        self.code_salt = default_code_salt() if code_salt is None else code_salt
        self._offsets: dict[str, int] | None = None
        #: Data-file size the in-memory index covers; ``None`` means "no
        #: in-memory index yet".  Checked against the actual file size on
        #: every access so external writes (a merge, a clear) are noticed.
        self._indexed_size: int | None = None

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _data_size(self) -> int:
        try:
            return self.results_path.stat().st_size
        except FileNotFoundError:
            return 0

    def _ensure_index(self) -> dict[str, int]:
        """Load the key → offset map, rescanning ``results.jsonl`` when the
        persisted *or in-memory* index is missing or stale.

        Staleness is judged by data-file size, for both indexes: an
        in-memory map built before another writer appended (or before the
        store was cleared and re-populated by a merge) is as untrustworthy
        as an out-of-date ``index.json``.
        """
        size = self._data_size()
        if self._offsets is not None and self._indexed_size == size:
            return self._offsets
        if self.index_path.exists():
            try:
                persisted = json.loads(self.index_path.read_text())
            except (OSError, json.JSONDecodeError):
                persisted = None
            if (
                isinstance(persisted, dict)
                and persisted.get("size") == size
                and isinstance(persisted.get("offsets"), dict)
            ):
                self._offsets = {str(k): int(v) for k, v in persisted["offsets"].items()}
                self._indexed_size = size
                return self._offsets
        self._offsets = self._scan()
        # _scan may have cut a truncated tail off, shrinking the file.
        self._indexed_size = self._data_size()
        return self._offsets

    def _scan(self) -> dict[str, int]:
        """Rebuild the offset map from the data file.

        A truncated trailing line (a run killed mid-append) is cut off so
        subsequent appends produce a valid file again; corruption anywhere
        else raises :class:`~repro.errors.SweepError`.
        """
        offsets: dict[str, int] = {}
        if not self.results_path.exists():
            return offsets
        with open(self.results_path, "rb") as handle:
            data = handle.read()
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
        return offsets

    def flush_index(self) -> None:
        """Persist the offset map so the next open skips the full rescan.

        The recorded size is the size the in-memory map actually covers,
        *not* a fresh ``stat`` of the data file: if another writer appended
        since this instance last looked, re-statting would persist a
        size-matching index with missing offsets — a poisoned index that
        later opens would trust.  Recording the covered size instead makes
        such an index merely stale, which the next open detects and repairs
        by rescanning.
        """
        if self._offsets is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {"size": self._indexed_size, "offsets": self._offsets}
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(self.index_path)

    # ------------------------------------------------------------------
    # Content-addressed access
    # ------------------------------------------------------------------
    def key(self, spec: SweepPointSpec) -> str:
        """The content hash of ``spec`` under this store's code salt."""
        return spec_key(spec, self.code_salt)

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
        """The raw store-row form of ``result`` under this store's salt:
        what :meth:`put_many` appends and :func:`merge_stores` transplants."""
        return {
            "key": self.key(result.spec),
            "salt": self.code_salt,
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
        warm-cache lookups and merges cannot tell whether a row was written
        singly or as part of a group.
        """
        rows = [self._row(result) for result in results]
        self.append_rows(rows)
        return [str(row["key"]) for row in rows]

    def append_rows(self, rows: Sequence[dict]) -> None:
        """Append raw store rows under one file handle (last row wins on
        lookup).

        Merges use this to transplant rows between stores verbatim, so row
        count does not translate into open/close round-trips.  Each row's
        ``key`` field is trusted: only rows that came out of a store under
        the same salt should ever be re-appended.
        """
        if not rows:
            return
        offsets = self._ensure_index()
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.results_path, "ab") as handle:
            end = handle.tell()
            for row in rows:
                offset = end
                data = (
                    json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
                ).encode("utf-8")
                handle.write(data)
                offsets[str(row["key"])] = offset
                end = offset + len(data)
        self._indexed_size = end

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

    def iter_results(self):
        """Yield every stored :class:`SweepPointResult` (any salt), rebuilding
        specs from the stored rows — the loader path for reassembling figures
        without re-running anything."""
        for offset in self._ensure_index().values():
            row = self._read_row(offset)
            yield SweepPointResult(
                spec=spec_from_dict(row["spec"]),
                latencies_us=tuple(row["latencies_us"]),
                metrics=tuple((k, v) for k, v in row.get("metrics", ())),
            )

    def get_row(self, key: str) -> dict | None:
        """The raw (winning) store row under ``key``, or ``None``."""
        offset = self._ensure_index().get(key)
        if offset is None:
            return None
        return self._read_row(offset)

    def iter_raw_rows(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(key, row)`` for every key's *winning* raw row, in
        first-appearance order — the transplant path for merges (duplicate
        superseded rows are skipped, any salt included)."""
        for key, offset in self._ensure_index().items():
            yield key, self._read_row(offset)

    # ------------------------------------------------------------------
    # Completion manifest
    # ------------------------------------------------------------------
    def read_manifest(self) -> dict | None:
        """The raw ``manifest.json`` payload, or ``None`` when absent or
        unreadable (a manifest is advisory, like the index)."""
        try:
            payload = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or not isinstance(payload.get("expected"), list):
            return None
        return payload

    def _write_manifest(self, expected: Iterable[str], shard: tuple[int, int] | None) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _MANIFEST_SCHEMA,
            "salt": self.code_salt,
            "shard": None if shard is None else [int(shard[0]), int(shard[1])],
            "expected": sorted(set(expected)),
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        tmp.replace(self.manifest_path)

    def record_expected(
        self,
        specs: Sequence[SweepPointSpec],
        shard: tuple[int, int] | None = None,
    ) -> None:
        """Record ``specs`` (under this store's salt) as expected points.

        Expected keys accumulate across runs while the salt matches —
        several experiments can share one store and the manifest covers
        their union — and reset on a salt change (a code upgrade makes old
        expectations unreachable anyway).  ``shard`` tags the manifest with
        the 0-based ``(index, count)`` the sweep was restricted to; when
        runs with *different* shard designators accumulate into one store,
        the tag drops to ``None`` — the expected set then spans several
        shards and labelling it with the latest one would mis-attribute
        the others' owed points.
        """
        expected = {self.key(spec) for spec in specs}
        existing = self.read_manifest()
        if existing is not None and existing.get("salt") == self.code_salt:
            expected.update(str(key) for key in existing["expected"])
            if existing["expected"]:
                previous = existing.get("shard")
                same_tag = (
                    previous is None
                    and shard is None
                ) or (
                    previous is not None
                    and shard is not None
                    and [int(s) for s in previous] == [int(s) for s in shard]
                )
                if not same_tag:
                    shard = None
        self._write_manifest(expected, shard)

    def manifest_status(self) -> ManifestStatus | None:
        """Completion accounting against the recorded manifest (``None``
        when the store has no manifest)."""
        manifest = self.read_manifest()
        if manifest is None:
            return None
        offsets = self._ensure_index()
        expected = tuple(sorted(str(key) for key in manifest["expected"]))
        done = tuple(key for key in expected if key in offsets)
        missing = tuple(key for key in expected if key not in offsets)
        shard = manifest.get("shard")
        return ManifestStatus(
            shard=None if shard is None else (int(shard[0]), int(shard[1])),
            expected=expected,
            done=done,
            missing=missing,
        )

    def clear(self) -> None:
        """Delete every stored row, the index and the manifest."""
        for path in (self.results_path, self.index_path, self.manifest_path):
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._offsets = None
        self._indexed_size = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(root={str(self.root)!r}, rows={len(self)})"


# ----------------------------------------------------------------------
# Conflict-free store merge
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MergeReport:
    """What :func:`merge_stores` did."""

    #: Source store roots, in merge order.
    sources: tuple[str, ...]
    #: Rows whose key was new to the destination.
    appended: int
    #: Rows that superseded a destination row with different content
    #: (last-row-wins: the source row now wins lookups).
    replaced: int
    #: Rows already present with byte-identical content (skipped, which is
    #: what makes the merge idempotent at the file level).
    unchanged: int
    #: Distinct keys in the destination after the merge.
    total_rows: int
    #: Expected-but-absent keys after the merge (from the merged manifests).
    missing: tuple[str, ...]

    def summary(self) -> str:
        """One-line accounting string for CLI/log output."""
        return (
            f"merged {len(self.sources)} store(s): {self.appended} appended, "
            f"{self.replaced} replaced, {self.unchanged} unchanged; "
            f"{self.total_rows} rows total"
            + ("" if not self.missing else f", {len(self.missing)} expected points still missing")
        )


def merge_stores(
    dst: ResultStore | str | os.PathLike,
    *srcs: ResultStore | str | os.PathLike,
) -> MergeReport:
    """Merge shard stores ``srcs`` into ``dst``, conflict-free.

    Content-addressed keys make the merge a concatenation with dedup:

    * a key new to ``dst`` is appended verbatim;
    * a key already present with *identical* content is skipped — merging
      is idempotent (byte-for-byte: re-merging the same sources leaves
      ``results.jsonl`` unchanged) and order-insensitive for disjoint
      sources;
    * a key present with *different* content is superseded: the source row
      is appended and, per the store's last-row-wins rule, wins lookups.
      Later sources therefore override earlier ones on collisions;
    * a row whose ``salt`` differs from the destination's code salt is
      **rejected** with :class:`~repro.errors.SweepError` — results
      computed by a different code version must be recomputed, never mixed.

    Sources are opened with the store's usual crash recovery, so a shard
    store with a truncated trailing line (a host killed mid-append) merges
    its valid prefix.  Manifests are merged too: expected keys from every
    salt-matching manifest (destination included) plus every merged row are
    unioned into the destination's manifest, so any one host can ask the
    merged store which points are still owed (`manifest_status`).  The
    destination's index is rebuilt and flushed from the merged data —
    never trusted stale (see :meth:`ResultStore.clear`).
    """
    dst_store = dst if isinstance(dst, ResultStore) else ResultStore(dst)
    if not srcs:
        raise ValueError("merge_stores needs at least one source store")
    dst_root = dst_store.root.resolve()
    appended = replaced = unchanged = 0
    expected: set[str] = set()
    dst_manifest = dst_store.read_manifest()
    if dst_manifest is not None and dst_manifest.get("salt") == dst_store.code_salt:
        expected.update(str(key) for key in dst_manifest["expected"])
    source_roots: list[str] = []
    for src in srcs:
        src_store = src if isinstance(src, ResultStore) else ResultStore(src)
        source_roots.append(str(src_store.root))
        if not src_store.root.is_dir():
            # A nonexistent source must not pass as an empty store: a
            # typo'd shard path would "merge" successfully with 0 rows and
            # the operator would re-run a shard that actually completed.
            raise SweepError(
                f"source store {src_store.root} does not exist "
                f"(no such directory); check the shard store paths"
            )
        if src_store.root.resolve() == dst_root:
            raise ValueError(f"cannot merge store {src_store.root} into itself")
        to_append: list[dict] = []
        for key, row in src_store.iter_raw_rows():
            salt = row.get("salt")
            if salt != dst_store.code_salt:
                raise SweepError(
                    f"cannot merge {src_store.results_path}: row {key[:12]}… was "
                    f"computed under code salt {salt!r} but the destination "
                    f"store expects {dst_store.code_salt!r}; recompute the "
                    f"source under the current code version (or merge into a "
                    f"store opened with the matching salt)"
                )
            existing = dst_store.get_row(key)
            if existing == row:
                unchanged += 1
                continue
            if existing is None:
                appended += 1
            else:
                replaced += 1
            to_append.append(row)
        # One write handle per source (a source's keys are unique, so its
        # rows cannot collide with each other; the index update must land
        # before the next source is compared against the destination).
        dst_store.append_rows(to_append)
        src_manifest = src_store.read_manifest()
        if src_manifest is not None and src_manifest.get("salt") == dst_store.code_salt:
            expected.update(str(key) for key in src_manifest["expected"])
    # Every row now present is, by construction, an expected point of the
    # merged whole — covers shard stores that never recorded a manifest.
    expected.update(dst_store._ensure_index())
    dst_store._write_manifest(expected, shard=None)
    dst_store.flush_index()
    status = dst_store.manifest_status()
    return MergeReport(
        sources=tuple(source_roots),
        appended=appended,
        replaced=replaced,
        unchanged=unchanged,
        total_rows=len(dst_store),
        missing=() if status is None else status.missing,
    )
