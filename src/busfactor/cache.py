"""On-disk persistence for ingested history and blame data.

A cache is a directory holding one file, `cache.json`. Its first line
is `busfactor-cache 4 <SHA-256 of the rest>`; the rest is one compact
UTF-8 JSON document. save_cache writes `cache.json.tmp` and moves it
into place with os.replace, so a reader finds the previous save or the
new one, whole. A truncated or corrupt file fails the digest and raises
CorruptCache.

Schema 4 document: {"fingerprint": ..., "record_count": ...,
"commits": [[hash, name, email, epoch, merge, sequence], ...],
"records": [[commit index, path, lines added, lines deleted,
cos distance], ...], "blame": null or {"revision": ...,
"authors": [[name, email], ...], "files": {path: [[author index,
lines], ...]}}}.
- Each commit is stored once however many files it changed, and
  loading builds one CommitMeta per commit, shared by its records as
  extract_history shares them, and one RawAuthor per distinct author.
- Blame has one author table for the whole snapshot and per file one
  pair per owner, sorted by author, so equal snapshots give equal bytes.

The document is read and parsed whole. That costs little: the CLI holds
every record as objects anyway, and a record takes about 100 bytes.

Schema 1 stored token bags, schema 2 one length-prefixed JSON frame per
record, and schema 3 a `manifest` file beside two data files. A cache
of any schema but 4 raises SchemaMismatch; `busfactor ingest` rebuilds
it.
"""
from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .errors import CorruptCache, IoFailure, SchemaMismatch
from .records import BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor

SCHEMA_VERSION = 4

_FILE = "cache.json"
_MAGIC = b"busfactor-cache"
_REINGEST = "re-run `busfactor ingest`"


def save_cache(records: Sequence[ChangeRecord],
               blame: BlameSnapshot | None,
               fingerprint: str,
               cache_path: str | Path) -> None:
    """Write records, an optional blame snapshot, the repository
    fingerprint and the record count as `cache.json` under cache_path,
    replacing any earlier save whole."""
    root = Path(cache_path)
    document = {
        "fingerprint": fingerprint,
        "record_count": len(records),
        **_encode_records(records),
        "blame": None if blame is None else _encode_blame(blame),
    }
    body = json.dumps(document, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    header = b"%s %d %s\n" % (_MAGIC, SCHEMA_VERSION,
                              hashlib.sha256(body).hexdigest().encode())
    staged = root / (_FILE + ".tmp")
    try:
        root.mkdir(parents=True, exist_ok=True)
        with open(staged, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(staged, root / _FILE)
    except OSError as exc:
        raise IoFailure(f"cannot write cache at {root}: {exc}") from exc


def load_cache(cache_path: str | Path, *, records: bool = True,
               ) -> tuple[list[ChangeRecord], BlameSnapshot | None, str]:
    """Read a cache directory back as (records, blame, fingerprint);
    the inverse of save_cache.

    With `records=False` the records are still checked (digest and
    count) but none is built, and an empty list comes back.
    """
    root = Path(cache_path)
    try:
        with open(root / _FILE, "rb") as fh:
            header = fh.readline()
            body = fh.read()
    except FileNotFoundError as exc:
        if (root / "manifest").exists():
            raise SchemaMismatch(f"cache at {root} predates schema "
                                 f"{SCHEMA_VERSION}; {_REINGEST}") from None
        raise IoFailure(f"no cache at {root}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read cache at {root}: {exc}") from exc

    fields = header.split()
    if len(fields) != 3 or fields[0] != _MAGIC or not fields[1].isdigit():
        raise CorruptCache(f"malformed cache header: {header[:80]!r}")
    if int(fields[1]) != SCHEMA_VERSION:
        raise SchemaMismatch(f"cache schema {int(fields[1])} != supported "
                             f"{SCHEMA_VERSION}; {_REINGEST}")
    if hashlib.sha256(body).hexdigest().encode() != fields[2]:
        raise CorruptCache(f"checksum mismatch in {root / _FILE}")
    try:
        document = json.loads(body)
        fingerprint = document["fingerprint"]
        promised = document["record_count"]
        found = len(document["records"])
        decoded = _decode_records(document) if records else []
        blame = (None if document["blame"] is None
                 else _decode_blame(document["blame"]))
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise CorruptCache(f"malformed cache document: {exc!r}") from exc
    if found != promised:
        raise CorruptCache(f"cache promises {promised} records, "
                           f"found {found}")
    return decoded, blame, fingerprint


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
    # One RawAuthor per distinct author, shared by all their commits.
    authors = {(name, email): RawAuthor(name, email) for name, email in
               {(row[1], row[2]) for row in document["commits"]}}
    commits = [
        CommitMeta(hash_, authors[name, email],
                   datetime.fromtimestamp(epoch, tz=timezone.utc),
                   bool(merge), sequence)
        for hash_, name, email, epoch, merge, sequence in document["commits"]]
    # ChangeRecord has no checks to run, and each row holds its five
    # fields in order, so records skip the checked constructor.
    make = ChangeRecord._make
    return [make((commits[index], path, added, deleted, cos))
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
    return BlameSnapshot(revision=document["revision"], files={
        path: {authors[index]: lines for index, lines in pairs}
        for path, pairs in document["files"].items()})
