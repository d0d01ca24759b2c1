"""On-disk persistence for ingested history and blame data.

A cache is a directory holding one file, `cache.json`. save_cache
writes `cache.json.tmp` and moves it into place with os.replace, so a
reader finds the previous save or the new one, whole.

Schema 5 file: a header line, then two parts of compact UTF-8 JSON.

    busfactor-cache 5 <record count> <head bytes> <head SHA-256>
        <records bytes> <records SHA-256>           (one line)
    head:    {"fingerprint": ..., "blame": null or {"revision": ...,
              "authors": [[name, email], ...],
              "files": {path: [[author index, lines], ...]}}}
    records: {"authors": [[name, email], ...], "paths": [...],
              "hash": [...], "author": [...], "epoch": [...],
              "merge": [...], "sequence": [...],
              "commit": [...], "path": [...], "added": [...],
              "deleted": [...], "cos": [...]}

- Records are stored as columns: after the author and path tables, five
  columns hold one entry per commit and five one entry per record.
  `author`, `commit` and `path` are indexes into the author table, the
  commit columns and the path table. Each commit is stored once however
  many files it changed, and loading builds one CommitMeta per commit,
  shared by its records as extract_history shares them, and one
  RawAuthor per distinct author.
- Blame has one author table for the whole snapshot and per file one
  pair per owner, sorted by author, so equal snapshots give equal bytes.

Every load checks the file's length and both parts' digests, so a
truncated or corrupt file raises CorruptCache. A load with
`records=False`, which is all `rig --cache` needs, parses only the head
part; a full load also parses the records part and checks its row count
against the header's.

Schema 1 stored token bags, schema 2 one length-prefixed JSON frame per
record, schema 3 a `manifest` file beside two data files and schema 4
one document under one digest. A cache of any schema but 5 raises
SchemaMismatch; `busfactor ingest` rebuilds it.
"""
from __future__ import annotations

import hashlib
import json
import os
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Sequence

from .errors import CorruptCache, IoFailure, SchemaMismatch
from .records import BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor

SCHEMA_VERSION = 5

_FILE = "cache.json"
_MAGIC = b"busfactor-cache"
_REINGEST = "re-run `busfactor ingest`"
_COMMIT_COLUMNS = ("hash", "author", "epoch", "merge", "sequence")
_RECORD_COLUMNS = ("commit", "path", "added", "deleted", "cos")


def save_cache(records: Sequence[ChangeRecord],
               blame: BlameSnapshot | None,
               fingerprint: str,
               cache_path: str | Path) -> None:
    """Write records, an optional blame snapshot and the repository
    fingerprint as `cache.json` under cache_path, replacing any earlier
    save whole."""
    root = Path(cache_path)
    head = _json({"fingerprint": fingerprint,
                  "blame": None if blame is None else _encode_blame(blame)})
    rows = _json(_encode_records(records))
    header = b"%s %d %d %d %s %d %s\n" % (
        _MAGIC, SCHEMA_VERSION, len(records),
        len(head), _sha256(head), len(rows), _sha256(rows))
    staged = root / (_FILE + ".tmp")
    try:
        root.mkdir(parents=True, exist_ok=True)
        with open(staged, "wb") as fh:
            fh.write(header)
            fh.write(head)
            fh.write(rows)
        os.replace(staged, root / _FILE)
    except OSError as exc:
        raise IoFailure(f"cannot write cache at {root}: {exc}") from exc


def load_cache(cache_path: str | Path, *, records: bool = True,
               ) -> tuple[list[ChangeRecord], BlameSnapshot | None, str]:
    """Read a cache directory back as (records, blame, fingerprint);
    the inverse of save_cache.

    With `records=False` the records part is still checked (length and
    digest) but not parsed, and an empty list comes back.
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
    if len(fields) < 2 or fields[0] != _MAGIC or not fields[1].isdigit():
        raise CorruptCache(f"malformed cache header: {header[:80]!r}")
    if int(fields[1]) != SCHEMA_VERSION:
        raise SchemaMismatch(f"cache schema {int(fields[1])} != supported "
                             f"{SCHEMA_VERSION}; {_REINGEST}")
    if len(fields) != 7 or not (fields[2].isdigit() and fields[3].isdigit()
                                and fields[5].isdigit()):
        raise CorruptCache(f"malformed cache header: {header[:80]!r}")
    promised, head_size, rows_size = (int(fields[i]) for i in (2, 3, 5))
    if len(body) != head_size + rows_size:
        raise CorruptCache(f"{root / _FILE} holds {len(body)} bytes after "
                           f"its header, not {head_size + rows_size}")
    head, rows = body[:head_size], body[head_size:]
    for name, part, digest in (("head", head, fields[4]),
                               ("records", rows, fields[6])):
        if _sha256(part) != digest:
            raise CorruptCache(f"checksum mismatch in the {name} part "
                               f"of {root / _FILE}")
    try:
        document = json.loads(head)
        fingerprint = document["fingerprint"]
        blame = (None if document["blame"] is None
                 else _decode_blame(document["blame"]))
        decoded = (_decode_records(json.loads(rows), promised) if records
                   else [])
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise CorruptCache(f"malformed cache document: {exc!r}") from exc
    return decoded, blame, fingerprint


def _json(document) -> bytes:
    return json.dumps(document, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _sha256(part: bytes) -> bytes:
    return hashlib.sha256(part).hexdigest().encode()


def _encode_records(records: Sequence[ChangeRecord]) -> dict:
    commits: dict[CommitMeta, int] = {}
    paths: dict[str, int] = {}
    authors: dict[RawAuthor, int] = {}
    commit_column = [commits.setdefault(r.commit, len(commits))
                     for r in records]
    path_column = [paths.setdefault(r.path, len(paths)) for r in records]
    author_column = [authors.setdefault(c.author, len(authors))
                     for c in commits]
    return {
        "authors": [[a.name, a.email] for a in authors],
        "paths": list(paths),
        "hash": [c.hash for c in commits],
        "author": author_column,
        "epoch": [int(c.author_timestamp.timestamp()) for c in commits],
        "merge": [int(c.is_merge) for c in commits],
        "sequence": [c.sequence for c in commits],
        "commit": commit_column,
        "path": path_column,
        "added": [r.lines_added for r in records],
        "deleted": [r.lines_deleted for r in records],
        "cos": [r.cos_distance for r in records],
    }


def _decode_records(columns: dict, promised: int) -> list[ChangeRecord]:
    hashes, author_of, epochs, merges, sequences = (
        _column(columns, _COMMIT_COLUMNS))
    commit_of, path_of, added, deleted, cos = _column(columns,
                                                      _RECORD_COLUMNS)
    if len(commit_of) != promised:
        raise CorruptCache(f"cache promises {promised} records, "
                           f"found {len(commit_of)}")
    # Tables are looked up by key, so that a negative index is malformed
    # rather than counted from the end. One RawAuthor per distinct
    # author, shared by all their commits.
    authors = dict(enumerate(RawAuthor(name, email)
                             for name, email in columns["authors"]))
    paths = dict(enumerate(columns["paths"]))
    # CommitMeta and ChangeRecord would only check what the package
    # wrote itself (UTC author dates, five fields in order), so both
    # skip their checked constructors.
    commits = dict(enumerate(map(CommitMeta._make, zip(
        hashes, map(authors.__getitem__, author_of),
        map(datetime.fromtimestamp, epochs, repeat(timezone.utc)),
        map(bool, merges), sequences))))
    return list(map(ChangeRecord._make, zip(
        map(commits.__getitem__, commit_of), map(paths.__getitem__, path_of),
        added, deleted, cos)))


def _column(columns: dict, names: tuple[str, ...]) -> list[list]:
    """The named columns, which must be lists of one length: zip would
    silently drop the tail of a longer one."""
    found = [columns[name] for name in names]
    if any(type(c) is not list for c in found) or \
            len({len(c) for c in found}) != 1:
        raise ValueError(f"columns {', '.join(names)} are not lists of "
                         "one length")
    return found


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
    authors = dict(enumerate(RawAuthor(name, email)
                             for name, email in document["authors"]))
    return BlameSnapshot(revision=document["revision"], files={
        path: {authors[index]: lines for index, lines in pairs}
        for path, pairs in document["files"].items()})
