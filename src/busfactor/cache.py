"""On-disk persistence for ingested history and blame data.

A cache is a directory: a `manifest` of key=value lines plus binary
frame files (`records.bin`, `blame.bin`). Each frame file is a series
of 4-byte big-endian length prefixes followed by UTF-8 JSON payloads,
closed by a 0xFFFFFFFF sentinel and a SHA-256 digest of everything
before it. Frames are written and read in a single pass so very large
histories never need to fit in memory twice.

Schema 2 record frames carry each change's cosine distance (`cd`)
where schema 1 carried its two token bags. A cache of any other
schema raises SchemaMismatch; `busfactor ingest` rebuilds it.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import CorruptCache, IoFailure, SchemaMismatch
from .records import BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor

SCHEMA_VERSION = 2

_MANIFEST = "manifest"
_RECORDS = "records.bin"
_BLAME = "blame.bin"
_SENTINEL = 0xFFFFFFFF
_MAX_FRAME = 1 << 28  # a single record frame beyond 256 MiB is garbage


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
    try:
        root.mkdir(parents=True, exist_ok=True)
        _write_frames(root / _RECORDS, (_encode_record(r) for r in records))
        if blame is not None:
            _write_frames(root / _BLAME, _encode_blame(blame))
        else:
            (root / _BLAME).unlink(missing_ok=True)
        lines = [
            f"schema_version={manifest.schema_version}",
            f"repo_fingerprint={manifest.repo_fingerprint}",
            f"created_at={manifest.created_at.astimezone(timezone.utc).isoformat()}",
            f"record_count={manifest.record_count}",
            f"has_blame={1 if blame is not None else 0}",
        ]
        (root / _MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write cache at {root}: {exc}") from exc


def load_cache(cache_path: str | Path, *, records: bool = True,
               ) -> tuple[list[ChangeRecord], BlameSnapshot | None, CacheManifest]:
    """Read a cache directory back; the inverse of save_cache.

    With `records=False` the record frames are still read and checked
    (checksum and count) but not decoded, and an empty list comes back.
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
    except (KeyError, ValueError) as exc:
        raise CorruptCache(f"manifest field missing or malformed: {exc}") from exc

    decoded: list[ChangeRecord] = []
    found = 0
    for payload in _read_frames(root / _RECORDS):
        found += 1
        if records:
            decoded.append(_decode_record(payload))
    if found != manifest.record_count:
        raise CorruptCache(
            f"manifest promises {manifest.record_count} records, "
            f"found {found}")
    blame = None
    if fields.get("has_blame") == "1":
        blame = _decode_blame(_read_frames(root / _BLAME))
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


def _write_frames(path: Path, payloads: Iterable[bytes]) -> None:
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for payload in payloads:
            head = struct.pack(">I", len(payload))
            fh.write(head)
            fh.write(payload)
            digest.update(head)
            digest.update(payload)
        tail = struct.pack(">I", _SENTINEL)
        fh.write(tail)
        digest.update(tail)
        fh.write(digest.digest())


def _read_frames(path: Path) -> Iterator[bytes]:
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256()
    with fh:
        while True:
            head = fh.read(4)
            if len(head) != 4:
                raise CorruptCache(f"truncated frame header in {path.name}")
            digest.update(head)
            (length,) = struct.unpack(">I", head)
            if length == _SENTINEL:
                break
            if length > _MAX_FRAME:
                raise CorruptCache(
                    f"frame of {length} bytes in {path.name} exceeds limit")
            payload = fh.read(length)
            if len(payload) != length:
                raise CorruptCache(f"truncated frame payload in {path.name}")
            digest.update(payload)
            yield payload
        stored = fh.read(32)
        if len(stored) != 32 or fh.read(1):
            raise CorruptCache(f"malformed checksum trailer in {path.name}")
        if stored != digest.digest():
            raise CorruptCache(f"checksum mismatch in {path.name}")


def _dump(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True,
                      ensure_ascii=False).encode("utf-8")


def _load(payload: bytes):
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCache(f"undecodable cache frame: {exc}") from exc


def _encode_record(record: ChangeRecord) -> bytes:
    c = record.commit
    return _dump({
        "h": c.hash,
        "an": c.author.name,
        "ae": c.author.email,
        "ts": int(c.author_timestamp.timestamp()),
        "mg": c.is_merge,
        "sq": c.sequence,
        "p": record.path,
        "la": record.lines_added,
        "ld": record.lines_deleted,
        "cd": record.cos_distance,
    })


def _decode_record(payload: bytes) -> ChangeRecord:
    obj = _load(payload)
    try:
        meta = CommitMeta(
            hash=obj["h"],
            author=RawAuthor(obj["an"], obj["ae"]),
            author_timestamp=datetime.fromtimestamp(obj["ts"], tz=timezone.utc),
            is_merge=bool(obj["mg"]),
            sequence=int(obj["sq"]),
        )
        return ChangeRecord(
            commit=meta,
            path=obj["p"],
            lines_added=int(obj["la"]),
            lines_deleted=int(obj["ld"]),
            cos_distance=float(obj["cd"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptCache(f"record frame missing field: {exc}") from exc


def _encode_blame(blame: BlameSnapshot) -> Iterator[bytes]:
    yield _dump({"revision": blame.revision})
    # Per-file frames carry an author table plus per-line indexes into
    # it; blame lists repeat a handful of authors thousands of times.
    for path in sorted(blame.files):
        lines = blame.files[path]
        table: list[RawAuthor] = []
        position: dict[RawAuthor, int] = {}
        indexes = []
        for author in lines:
            if author not in position:
                position[author] = len(table)
                table.append(author)
            indexes.append(position[author])
        yield _dump({
            "p": path,
            "authors": [[a.name, a.email] for a in table],
            "lines": indexes,
        })


def _decode_blame(payloads: Iterator[bytes]) -> BlameSnapshot:
    try:
        header = _load(next(payloads))
        revision = header["revision"]
    except StopIteration:
        raise CorruptCache("blame file has no revision header") from None
    except KeyError as exc:
        raise CorruptCache("blame header lacks a revision") from exc
    files: dict[str, tuple[RawAuthor, ...]] = {}
    for payload in payloads:
        obj = _load(payload)
        try:
            table = [RawAuthor(name, email) for name, email in obj["authors"]]
            files[obj["p"]] = tuple(table[i] for i in obj["lines"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise CorruptCache(f"blame frame malformed: {exc}") from exc
    return BlameSnapshot(revision=revision, files=files)
