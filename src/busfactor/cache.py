"""On-disk persistence for ingested history and blame data.

A cache is a directory of three files. `records.bin` and `blame.bin`
each hold one compact UTF-8 JSON document. `manifest` holds key=value
lines, among them the SHA-256 of each data file, and is written last,
through a temporary file and os.replace. A truncated or corrupt data
file, or one that an interrupted re-ingest left beside another save's
manifest, fails its digest and raises CorruptCache.

Schema 3 documents:
- `records.bin`: {"commits": [[hash, name, email, epoch, merge, sequence],
  ...], "records": [[commit index, path, lines added, lines deleted,
  cos distance], ...]}. Each commit is stored once however many files
  it changed, and loading builds one CommitMeta per commit, shared by
  its records as extract_history shares them.
- `blame.bin`: {"revision": ..., "authors": [[name, email], ...],
  "files": {path: [[author index, lines], ...]}}, one author table for
  the whole snapshot and per file one pair per owner, sorted by author,
  so equal snapshots give equal bytes. A pair may repeat an author of
  its file, and repeated pairs add: a cache written when the pairs were
  runs of lines in line order loads to the same counts.

Each document is read and parsed whole. That costs little: the CLI
holds every record as objects anyway, and a record takes about 100
bytes of document.

Schema 1 stored token bags and schema 2 one length-prefixed JSON frame
per record. A cache of any schema but 3 raises SchemaMismatch;
`busfactor ingest` rebuilds it.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .errors import CorruptCache, IoFailure, SchemaMismatch
from .records import BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor

SCHEMA_VERSION = 3

_MANIFEST = "manifest"
_RECORDS = "records.bin"
_BLAME = "blame.bin"


@dataclass(frozen=True)
class CacheManifest:
    repo_fingerprint: str
    created_at: datetime
    record_count: int
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.created_at.tzinfo is None:
            object.__setattr__(self, "created_at",
                               self.created_at.replace(tzinfo=timezone.utc))


def save_cache(records: Sequence[ChangeRecord],
               blame: BlameSnapshot | None,
               manifest: CacheManifest,
               cache_path: str | Path) -> None:
    """Write records, optional blame snapshot and manifest under cache_path."""
    root = Path(cache_path)
    lines = [
        f"schema_version={manifest.schema_version}",
        f"repo_fingerprint={manifest.repo_fingerprint}",
        f"created_at={manifest.created_at.astimezone(timezone.utc).isoformat()}",
        f"record_count={manifest.record_count}",
    ]
    try:
        root.mkdir(parents=True, exist_ok=True)
        digest = _write(root / _RECORDS, _encode_records(records))
        lines.append(f"records_sha256={digest}")
        if blame is not None:
            digest = _write(root / _BLAME, _encode_blame(blame))
            lines.append(f"blame_sha256={digest}")
        staged = root / (_MANIFEST + ".tmp")
        staged.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(staged, root / _MANIFEST)
        if blame is None:
            # Only now: until the new manifest is in place, the old one
            # may still list the blame file.
            (root / _BLAME).unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write cache at {root}: {exc}") from exc


def load_cache(cache_path: str | Path, *, records: bool = True,
               ) -> tuple[list[ChangeRecord], BlameSnapshot | None, CacheManifest]:
    """Read a cache directory back; the inverse of save_cache.

    With `records=False` the records document is still checked (digest
    and count) but no record is built, and an empty list comes back.
    """
    root = Path(cache_path)
    fields = _read_manifest(root / _MANIFEST)
    try:
        version = int(fields["schema_version"])
    except (KeyError, ValueError) as exc:
        raise CorruptCache(f"manifest lacks a schema_version: {root}") from exc
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"cache schema {version} != supported {SCHEMA_VERSION}; "
            f"re-run `busfactor ingest`")
    try:
        manifest = CacheManifest(
            repo_fingerprint=fields["repo_fingerprint"],
            created_at=datetime.fromisoformat(fields["created_at"]),
            record_count=int(fields["record_count"]),
            schema_version=version,
        )
        records_digest = fields["records_sha256"]
    except (KeyError, ValueError) as exc:
        raise CorruptCache(f"manifest field missing or malformed: {exc}") from exc

    document = _read(root / _RECORDS, records_digest)
    blame_document = None
    if "blame_sha256" in fields:
        blame_document = _read(root / _BLAME, fields["blame_sha256"])
    try:
        found = len(document["records"])
        decoded = _decode_records(document) if records else []
        blame = None if blame_document is None else _decode_blame(blame_document)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptCache(f"malformed cache document: {exc!r}") from exc
    if found != manifest.record_count:
        raise CorruptCache(
            f"manifest promises {manifest.record_count} records, "
            f"found {found}")
    return decoded, blame, manifest


def _read_manifest(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise IoFailure(f"no cache manifest at {path}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    fields = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CorruptCache(f"manifest line without '=': {line!r}")
        fields[key] = value
    return fields


def _write(path: Path, document) -> str:
    """Write a document as compact JSON; returns its SHA-256 in hex."""
    data = json.dumps(document, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _read(path: Path, digest: str):
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if hashlib.sha256(data).hexdigest() != digest:
        raise CorruptCache(f"checksum mismatch in {path.name}")
    try:
        return json.loads(data)
    except ValueError as exc:
        raise CorruptCache(f"undecodable {path.name}: {exc}") from exc


def _encode_records(records: Sequence[ChangeRecord]) -> dict:
    commits: dict[CommitMeta, int] = {}
    rows = [[commits.setdefault(r.commit, len(commits)), r.path,
             r.lines_added, r.lines_deleted, r.cos_distance]
            for r in records]
    return {
        "commits": [[c.hash, c.author.name, c.author.email,
                     int(c.author_timestamp.timestamp()), int(c.is_merge),
                     c.sequence] for c in commits],
        "records": rows,
    }


def _decode_records(document: dict) -> list[ChangeRecord]:
    commits = [
        CommitMeta(hash=hash_, author=RawAuthor(name, email),
                   author_timestamp=datetime.fromtimestamp(epoch,
                                                           tz=timezone.utc),
                   is_merge=bool(merge), sequence=sequence)
        for hash_, name, email, epoch, merge, sequence in document["commits"]]
    return [ChangeRecord(commits[index], path, added, deleted, cos)
            for index, path, added, deleted, cos in document["records"]]


def _encode_blame(blame: BlameSnapshot) -> dict:
    authors: dict[RawAuthor, int] = {}
    files = {
        path: [[authors.setdefault(author, len(authors)), lines]
               for author, lines in sorted(blame.files[path].items())]
        for path in sorted(blame.files)}
    return {
        "revision": blame.revision,
        "authors": [[a.name, a.email] for a in authors],
        "files": files,
    }


def _decode_blame(document: dict) -> BlameSnapshot:
    authors = [RawAuthor(name, email) for name, email in document["authors"]]
    files: dict[str, dict[RawAuthor, int]] = {}
    for path, pairs in document["files"].items():
        owners = files[path] = {}
        for index, lines in pairs:
            owners[authors[index]] = owners.get(authors[index], 0) + lines
    return BlameSnapshot(revision=document["revision"], files=files)
