"""On-disk persistence for ingested history and blame data.

A cache is a directory holding one file, `cache.json`. save_cache
writes `cache.json.tmp` and moves it into place with os.replace, so a
reader finds the previous save or the new one, whole.

Schema 6 file: a header line, a head part of compact UTF-8 JSON, and a
records part of one JSON table line followed by binary columns.

    busfactor-cache 6 <record count> <head bytes> <head SHA-256>
        <records bytes> <records SHA-256>           (one line)
    head:    {"fingerprint": ..., "blame": null or {"revision": ...,
              "authors": [[name, email], ...],
              "files": {path: [[author index, lines], ...]}}}
    records: {"authors": [[name, email], ...], "paths": [...],
              "commits": C, "records": R, "width": W,
              "formats": {"author": letter, ..., "deleted": letter}}
             and a newline, then the C commit hashes, W bytes each,
             the commit columns author, epoch, merge and sequence
             (C values each), the record columns commit, path, added
             and deleted (R values each), and R cos values.

- Records are stored as columns: after the author and path tables, one
  hash and four columns hold one entry per commit and five one entry per
  record. `author`, `commit` and `path` are indexes into the author
  table, the commit columns and the path table. Each commit is stored
  once however many files it changed. save_cache encodes a
  RecordColumns, as extract_history builds it, and load_cache decodes
  one, which the cst and trend queries take as it is.
- `epoch` holds each commit's author date as whole seconds since 1970
  UTC, floored, so that each date keeps the second it lies in, before
  1970 too. Git's whole-second dates round-trip exactly, and loaded
  columns hold them as microseconds, in RecordColumns.instants.
- Columns are packed with `struct` under a `<` prefix, which fixes
  every size and the byte order on any platform, so there is nothing to
  swap and a cache loads wherever it was written. An integer column
  takes the narrowest of the format letters B, H, I and Q that holds its
  values, or of b, h, i and q when one is negative (an author date before
  1970), and the table names the letter. `cos` is binary64 (`d`), which
  holds each float exactly. A hash is stored as its raw bytes (W is 20
  for SHA-1, 32 for SHA-256), so save_cache refuses hashes that are not
  lowercase hex digests of one length.
- Blame has one author table for the whole snapshot and per file one
  pair per owner, sorted by author, so equal snapshots give equal bytes.

Every load checks the file's length and both parts' digests, so a
truncated or corrupt file raises CorruptCache. A load with
`records=False`, which is all `rig --cache` needs, parses only the head
part. A full load also parses the records table, checks its counts and
format letters and its record count against the header's, requires
the part to end exactly where its columns do, and every index to lie
in its table.

Schema 1 stored token bags, schema 2 one length-prefixed JSON frame per
record, schema 3 a `manifest` file beside two data files, schema 4 one
document under one digest and schema 5 the records part as JSON
columns. A cache of any schema but 6 raises SchemaMismatch; `busfactor
ingest` rebuilds it.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Sequence

from .digest import sha256_hex
from .errors import CorruptCache, IoFailure, SchemaMismatch
from .records import BlameSnapshot, RawAuthor, RecordColumns

SCHEMA_VERSION = 6

_FILE = "cache.json"
_MAGIC = b"busfactor-cache"
_REINGEST = "re-run `busfactor ingest`"
_COMMIT_COLUMNS = ("author", "epoch", "merge", "sequence")
_RECORD_COLUMNS = ("commit", "path", "added", "deleted")
# the struct format letters of an integer column, narrowest first
_UNSIGNED, _SIGNED = "BHIQ", "bhiq"
_LETTERS = frozenset(_UNSIGNED + _SIGNED)


def save_cache(records: RecordColumns | Sequence,
               blame: BlameSnapshot | None,
               fingerprint: str,
               cache_path: str | Path) -> None:
    """Write records, an optional blame snapshot and the repository
    fingerprint as `cache.json` under cache_path, replacing any earlier
    save whole. The records come as columns, as extract_history gives
    them, or as a sequence of ChangeRecords."""
    root = Path(cache_path)
    head = _json({"fingerprint": fingerprint,
                  "blame": None if blame is None else _encode_blame(blame)})
    rows = _encode_records(records)
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
               ) -> tuple[RecordColumns | None, BlameSnapshot | None, str]:
    """Read a cache directory back as (records, blame, fingerprint);
    the inverse of save_cache. The records come back as columns, which
    iterate as ChangeRecords.

    With `records=False` the records part is still checked (length and
    digest) but not parsed, and None comes back in its place.
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
        decoded = _decode_records(rows, promised) if records else None
    except (AttributeError, LookupError, TypeError, ValueError,
            struct.error) as exc:
        raise CorruptCache(f"malformed cache document: {exc!r}") from exc
    return decoded, blame, fingerprint


def _json(document) -> bytes:
    return json.dumps(document, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def _sha256(part: bytes) -> bytes:
    return sha256_hex(part).encode()


def _encode_records(records: RecordColumns | Sequence) -> bytes:
    table = RecordColumns.from_records(records)
    hashes = table.hashes
    # bytes.fromhex skips spaces and reads upper case, so only a hash
    # that its bytes give back whole is stored
    width = len(hashes[0]) // 2 if hashes else 0
    joined = "".join(hashes)
    packed = bytes.fromhex(joined)
    if packed.hex() != joined or set(map(len, hashes)) - {2 * width} or (
            hashes and not width):
        raise ValueError("commit hashes must be lowercase hex digests of "
                         "one length")
    columns = {
        "author": table.commit_author,
        "epoch": [instant // 1_000_000 for instant in table.instants],
        "merge": list(map(int, table.merges)),
        "sequence": table.sequences,
        "commit": table.commit,
        "path": table.path,
        "added": table.added,
        "deleted": table.deleted,
    }
    formats = {name: _narrowest(column) for name, column in columns.items()}
    head = _json({
        "authors": [[a.name, a.email] for a in table.authors],
        "paths": table.paths,
        "commits": len(hashes),
        "records": len(table.commit),
        "width": width,
        "formats": formats,
    })
    return b"".join([
        head, b"\n", packed,
        *(struct.pack("<%d%s" % (len(columns[name]), formats[name]),
                      *columns[name])
          for name in _COMMIT_COLUMNS + _RECORD_COLUMNS),
        struct.pack("<%dd" % len(table.cos), *table.cos)])


def _narrowest(column: list[int]) -> str:
    """The format letter of the narrowest struct integer that holds every
    value of column."""
    low, high = min(column, default=0), max(column, default=0)
    for letter in _UNSIGNED if low >= 0 else _SIGNED:
        try:
            struct.pack("<2" + letter, low, high)
        except struct.error:
            continue
        return letter
    raise ValueError(f"column values {low}..{high} exceed 64 bits")


def _decode_records(rows: bytes, promised: int) -> RecordColumns:
    start = rows.index(b"\n") + 1
    table = json.loads(rows[:start])
    commit_count, record_count, width = (
        table[key] for key in ("commits", "records", "width"))
    formats = table["formats"]
    letters = [formats[name] for name in _COMMIT_COLUMNS + _RECORD_COLUMNS]
    if any(type(n) is not int or n < 0
           for n in (commit_count, record_count, width)) or \
            not _LETTERS.issuperset(letters) or (commit_count and not width):
        raise ValueError(f"malformed records table: {rows[:80]!r}")
    if record_count != promised:
        raise CorruptCache(f"cache promises {promised} records, "
                           f"found {record_count}")
    offset = start + width * commit_count
    counts = ([commit_count] * len(_COMMIT_COLUMNS)
              + [record_count] * (len(_RECORD_COLUMNS) + 1))
    columns = []
    for count, letter in zip(counts, letters + ["d"]):  # cos is binary64
        layout = "<%d%s" % (count, letter)
        columns.append(struct.unpack_from(layout, rows, offset))
        offset += struct.calcsize(layout)
    if offset != len(rows):
        raise ValueError(f"records part holds {len(rows) - offset} bytes "
                         "past its columns")
    author_of, epochs, merges, sequences, commit_of, path_of, added, \
        deleted, cos = columns
    authors = [RawAuthor(name, email) for name, email in table["authors"]]
    paths = list(table["paths"])
    # an index outside its table is malformed, negative ones included
    for index, size in ((author_of, len(authors)), (commit_of, commit_count),
                        (path_of, len(paths))):
        if index and not (min(index) >= 0 and max(index) < size):
            raise ValueError(f"index out of range 0..{size - 1}")
    return RecordColumns(authors, paths, author_of,
                         [epoch * 1_000_000 for epoch in epochs], merges,
                         sequences, commit_of, path_of, added, deleted, cos,
                         packed=rows[start:start + width * commit_count])


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
