"""Cache round trips and corruption handling."""
from __future__ import annotations

import hashlib
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from busfactor import (BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor,
                       load_cache, save_cache)
from busfactor import cache as cache_module
from busfactor.cache import SCHEMA_VERSION
from busfactor.errors import CorruptCache, IoFailure, SchemaMismatch


def make_records(count, seed=7):
    rng = random.Random(seed)
    authors = [RawAuthor(f"Dev {i}", f"dev{i}@x.test") for i in range(5)]
    base = datetime(2020, 1, 1, tzinfo=timezone.utc)
    records = []
    for i in range(count):
        meta = CommitMeta(
            hash=f"{rng.getrandbits(160):040x}",
            author=rng.choice(authors),
            author_timestamp=base + timedelta(hours=i),
            sequence=i,
            is_merge=rng.random() < 0.1,
        )
        records.append(ChangeRecord(
            commit=meta,
            path=f"dir{i % 3}/file{i % 11}.py",
            lines_added=rng.randrange(1, 30),
            lines_deleted=rng.randrange(20),
            cos_distance=rng.choice((0.0, 1.0, rng.random())),
        ))
    return records


def make_blame():
    a = RawAuthor("Dev 0", "dev0@x.test")
    b = RawAuthor("Dev 1", "dev1@x.test")
    return BlameSnapshot(revision="f" * 40, files={
        "dir0/file0.py": {a: 2, b: 1},
        "dir1/file1.py": {b: 1},
    })


FINGERPRINT = "/tmp/x@" + "a" * 40


def saved(tmp_path, records, blame=None) -> Path:
    """The cache.json of one save."""
    target = tmp_path / "cache"
    save_cache(records, blame, FINGERPRINT, target)
    return target / "cache.json"


def parts(cache_file: Path) -> tuple[list[bytes], bytes, bytes]:
    """The header's fields, the head part and the records part, split
    where the header's lengths say."""
    header, body = cache_file.read_bytes().split(b"\n", 1)
    fields = header.split()
    head_size = int(fields[3])
    return fields, body[:head_size], body[head_size:]


def with_parts(cache_file: Path, head: bytes, rows: bytes,
               count: int | None = None) -> None:
    """Replace the parts (and the record count), under a header whose
    lengths and digests match them."""
    fields, _, _ = parts(cache_file)
    count = int(fields[2]) if count is None else count
    cache_file.write_bytes(b"busfactor-cache 5 %d %d %s %d %s\n" % (
        count, len(head), hashlib.sha256(head).hexdigest().encode(),
        len(rows), hashlib.sha256(rows).hexdigest().encode()) + head + rows)


def with_record_count(cache_file: Path, count: int) -> None:
    _, head, rows = parts(cache_file)
    with_parts(cache_file, head, rows, count)


def part_offsets(cache_file: Path) -> tuple[int, int, int]:
    """Where the head part starts, where the records part starts, and
    where the file ends."""
    fields, head, rows = parts(cache_file)
    start = cache_file.read_bytes().index(b"\n") + 1
    return start, start + len(head), start + len(head) + len(rows)


def roundtrip(tmp_path, records, blame):
    return load_cache(saved(tmp_path, records, blame).parent)


def test_roundtrip_small(tmp_path):
    records = make_records(12)
    blame = make_blame()
    got_records, got_blame, got_fingerprint = roundtrip(tmp_path, records,
                                                        blame)
    assert got_records == records
    assert got_blame == blame
    assert got_fingerprint == FINGERPRINT
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["cache.json"]


def test_roundtrip_large_corpus(tmp_path):
    records = make_records(1000)
    got_records, got_blame, _ = roundtrip(tmp_path, records, None)
    assert got_records == records
    assert got_blame is None


def test_roundtrip_preserves_timestamps_exactly(tmp_path):
    records = make_records(3)
    got, _, _ = roundtrip(tmp_path, records, None)
    for before, after in zip(records, got):
        assert before.commit.author_timestamp == after.commit.author_timestamp
        assert after.commit.author_timestamp.tzinfo is not None


def with_header(cache_file: Path, header: bytes) -> None:
    _, body = cache_file.read_bytes().split(b"\n", 1)
    cache_file.write_bytes(header + b"\n" + body)


def test_header_names_schema_and_digest(tmp_path):
    cache_file = saved(tmp_path, make_records(2))
    header = cache_file.read_bytes().split(b"\n", 1)[0]
    _, head, rows = parts(cache_file)
    assert SCHEMA_VERSION == 5
    assert header == b"busfactor-cache 5 2 %d %s %d %s" % (
        len(head), hashlib.sha256(head).hexdigest().encode(),
        len(rows), hashlib.sha256(rows).hexdigest().encode())
    assert json.loads(head)["fingerprint"] == FINGERPRINT
    assert len(json.loads(rows)["commit"]) == 2


def test_schema_mismatch_detected(tmp_path):
    cache_file = saved(tmp_path, make_records(2))
    fields = cache_file.read_bytes().split(b"\n", 1)[0].split()
    with_header(cache_file, b" ".join([fields[0], b"6", *fields[2:]]))
    with pytest.raises(SchemaMismatch, match="re-run `busfactor ingest`"):
        load_cache(cache_file.parent)


@pytest.mark.parametrize("header", [
    b"busfactor-cash 4 " + b"0" * 64,  # wrong magic
    b"busfactor-cache 5 " + b"0" * 64,  # schema 4's fields
    b"busfactor-cache four " + b"0" * 64,
    b"busfactor-cache 5",
    b"busfactor-cache 5 two 1 %s 1 %s" % (b"0" * 64, b"0" * 64),
    b"busfactor-cache 5 -2 1 %s 1 %s" % (b"0" * 64, b"0" * 64),
    b"busfactor-cache 5 2 1 %s x %s" % (b"0" * 64, b"0" * 64),
    b"busfactor-cache 5 2 1 1 %s 1 %s" % (b"0" * 64, b"0" * 64),
    b"",
])
def test_malformed_header_is_corrupt(tmp_path, header):
    cache_file = saved(tmp_path, make_records(2))
    with_header(cache_file, header)
    with pytest.raises(CorruptCache):
        load_cache(cache_file.parent)


def test_schema_1_cache_asks_for_reingest(tmp_path):
    # schema 1 stored token bags, schema 2 one frame per record, schema 3
    # one document per data file; each kept a key=value manifest
    root = tmp_path / "cache"
    root.mkdir()
    (root / "records.bin").write_bytes(b"{}")
    for version in (1, 2, 3):
        (root / "manifest").write_text(
            f"schema_version={version}\nrecord_count=0\n", encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="re-run `busfactor ingest`"):
            load_cache(root)
    # schema 4: one document under one digest
    document = json.dumps({"fingerprint": FINGERPRINT, "record_count": 0,
                           "commits": [], "records": [],
                           "blame": None}).encode()
    (root / "cache.json").write_bytes(
        b"busfactor-cache 4 " + hashlib.sha256(document).hexdigest().encode()
        + b"\n" + document)
    for records in (True, False):
        with pytest.raises(SchemaMismatch, match="re-run `busfactor ingest`"):
            load_cache(root, records=records)


def test_blame_only_load_skips_records(tmp_path):
    records = make_records(5)
    target = tmp_path / "cache"
    save_cache(records, make_blame(), FINGERPRINT, target)
    loaded, blame, fingerprint = load_cache(target, records=False)
    assert loaded == []
    assert blame == make_blame()
    assert fingerprint == FINGERPRINT


def test_blame_only_load_still_checks_records(tmp_path):
    # a blame-only load checks the records part's digest; only a full
    # load parses the rows, so only it can count them
    records = make_records(20)
    cache_file = saved(tmp_path, records, make_blame())
    with_record_count(cache_file, 21)
    with pytest.raises(CorruptCache, match="promises 21 records"):
        load_cache(cache_file.parent)
    assert load_cache(cache_file.parent, records=False)[1] == make_blame()

    cache_file = saved(tmp_path, records, make_blame())
    _, rows_start, end = part_offsets(cache_file)
    blob = bytearray(cache_file.read_bytes())
    blob[(rows_start + end) // 2] ^= 0xFF  # inside the records part
    cache_file.write_bytes(bytes(blob))
    with pytest.raises(CorruptCache, match="checksum mismatch in the records"):
        load_cache(cache_file.parent, records=False)


def test_unparsable_records_fail_only_a_full_load(tmp_path):
    cache_file = saved(tmp_path, make_records(5), make_blame())
    _, head, _ = parts(cache_file)
    with_parts(cache_file, head, b"\xff not json")
    assert load_cache(cache_file.parent, records=False) == (
        [], make_blame(), FINGERPRINT)
    with pytest.raises(CorruptCache, match="malformed"):
        load_cache(cache_file.parent)


@pytest.mark.parametrize("part", ["head", "records"])
def test_truncated_part_fails_every_load(tmp_path, part):
    cache_file = saved(tmp_path, make_records(20), make_blame())
    head_start, rows_start, end = part_offsets(cache_file)
    cut = {"head": (head_start + rows_start) // 2,
           "records": (rows_start + end) // 2}[part]
    cache_file.write_bytes(cache_file.read_bytes()[:cut])
    for records in (True, False):
        with pytest.raises(CorruptCache):
            load_cache(cache_file.parent, records=records)


def test_truncated_records_detected(tmp_path):
    cache_file = saved(tmp_path, make_records(20))
    blob = cache_file.read_bytes()
    cache_file.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCache):
        load_cache(cache_file.parent)


def test_flipped_byte_fails_checksum(tmp_path):
    cache_file = saved(tmp_path, make_records(20))
    blob = bytearray(cache_file.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    cache_file.write_bytes(bytes(blob))
    with pytest.raises(CorruptCache, match="checksum"):
        load_cache(cache_file.parent)


def test_corrupt_blame_detected(tmp_path):
    cache_file = saved(tmp_path, make_records(4), make_blame())
    _, rows_start, _ = part_offsets(cache_file)
    blob = bytearray(cache_file.read_bytes())
    blob[rows_start - 3] ^= 0x01  # inside the blame table, the head's end
    cache_file.write_bytes(bytes(blob))
    for records in (True, False):
        with pytest.raises(CorruptCache, match="checksum mismatch in the head"):
            load_cache(cache_file.parent, records=records)


def test_malformed_document_is_corrupt(tmp_path):
    cache_file = saved(tmp_path, make_records(2))
    _, head, rows = parts(cache_file)
    document = json.loads(head)
    document["blame"] = {"revision": "f" * 40, "authors": [], "files": []}
    negative = dict(document, blame={"revision": "f" * 40,
                                     "authors": [["A", "a@x.test"]],
                                     "files": {"a.py": [[-1, 2]]}})
    for bad_head in (b"[1, 2]", b"{\"blame\": null}", b"not json",
                     json.dumps(document).encode(),
                     json.dumps(negative).encode()):
        with_parts(cache_file, bad_head, rows)
        for records in (True, False):
            with pytest.raises(CorruptCache, match="malformed cache document"):
                load_cache(cache_file.parent, records=records)

    columns = json.loads(rows)
    unequal = dict(columns, added=columns["added"][:1])
    short = dict(columns, hash=columns["hash"][:1])
    missing = {k: v for k, v in columns.items() if k != "cos"}
    stray = dict(columns, path=[0, 7])
    from_end = dict(columns, commit=[0, -1])
    for bad_rows in (b"[1, 2]", b"not json",
                     *(json.dumps(c).encode() for c in
                       (unequal, short, missing, stray, from_end))):
        with_parts(cache_file, head, bad_rows)
        with pytest.raises(CorruptCache, match="malformed cache document"):
            load_cache(cache_file.parent)
        assert load_cache(cache_file.parent, records=False)[2] == FINGERPRINT


def test_record_count_mismatch_detected(tmp_path):
    cache_file = saved(tmp_path, make_records(5))
    with_record_count(cache_file, 6)
    with pytest.raises(CorruptCache, match="promises 6 records, found 5"):
        load_cache(cache_file.parent)


def test_missing_cache_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        load_cache(tmp_path / "never-written")


def test_missing_data_file_raises(tmp_path):
    cache_file = saved(tmp_path, make_records(2))
    cache_file.unlink()
    with pytest.raises(IoFailure):
        load_cache(cache_file.parent)


def test_save_overwrites_previous_cache(tmp_path):
    target = tmp_path / "cache"
    first = make_records(8, seed=1)
    save_cache(first, make_blame(), FINGERPRINT, target)
    second = make_records(3, seed=2)
    save_cache(second, None, "/tmp/x@" + "b" * 40, target)
    got_records, got_blame, got_fingerprint = load_cache(target)
    assert got_records == second
    assert got_blame is None
    assert got_fingerprint == "/tmp/x@" + "b" * 40


def test_unicode_survives_roundtrip(tmp_path):
    meta = CommitMeta(hash="b" * 40,
                      author=RawAuthor("José Ωmega", "josé@ünïcode.test"),
                      author_timestamp=datetime(2021, 1, 1,
                                                tzinfo=timezone.utc),
                      sequence=0)
    records = [ChangeRecord(commit=meta, path="päth/ファイル.txt",
                            lines_added=1, lines_deleted=0,
                            cos_distance=1.0)]
    got, _, _ = roundtrip(tmp_path, records, None)
    assert got == records


def test_interrupted_save_without_blame_keeps_old_save(tmp_path, monkeypatch):
    # a re-save that fails before its file replaces the old one leaves
    # the old save whole, blame included
    records = make_records(6)
    target = tmp_path / "cache"
    save_cache(records, make_blame(), FINGERPRINT, target)

    def interrupted(src, dst):
        raise OSError("interrupted")
    monkeypatch.setattr(cache_module.os, "replace", interrupted)
    other = make_records(3, seed=2)
    with pytest.raises(IoFailure):
        save_cache(other, None, FINGERPRINT, target)
    monkeypatch.undo()
    got, blame, _ = load_cache(target)
    assert got == records
    assert blame == make_blame()

    save_cache(records, None, FINGERPRINT, target)
    assert load_cache(target)[1] is None
    assert [p.name for p in target.iterdir()] == ["cache.json"]


def test_records_of_one_commit_share_its_meta(tmp_path):
    records = make_records(6)
    spread = [r.replace(commit=records[i // 3].commit)
              for i, r in enumerate(records)]
    got, _, _ = roundtrip(tmp_path, spread, None)
    assert got == spread
    assert got[0].commit is got[1].commit is got[2].commit
    assert got[3].commit is got[4].commit is got[5].commit
    assert got[2].commit is not got[3].commit


def test_records_of_one_author_share_their_author(tmp_path):
    records = make_records(60)
    got, _, _ = roundtrip(tmp_path, records, None)
    assert got == records
    shared = {}
    for r in got:
        assert shared.setdefault(r.commit.author, r.commit.author) is (
            r.commit.author)
    assert len(shared) == 5


def test_same_inputs_save_identical_bytes(tmp_path):
    records = make_records(50)
    blame = make_blame()
    reordered = BlameSnapshot(revision=blame.revision, files={
        path: dict(reversed(list(owners.items())))
        for path, owners in reversed(list(blame.files.items()))})
    save_cache(records, blame, FINGERPRINT, tmp_path / "one")
    save_cache(records, reordered, FINGERPRINT, tmp_path / "two")
    assert ((tmp_path / "one" / "cache.json").read_bytes()
            == (tmp_path / "two" / "cache.json").read_bytes())


def test_blame_runs_roundtrip_exactly(tmp_path):
    a, b, c = (RawAuthor(f"Dev {i}", f"dev{i}@x.test") for i in range(3))
    blame = BlameSnapshot(revision="c" * 40, files={
        "shared.py": {a: 50, b: 50, c: 1},
        "one-line.py": {c: 1},
        "also-one.py": {a: 1},
        "long.py": {b: 12000, a: 3},
        "mixed.py": {a: 3, b: 3, c: 3},
    })
    records = make_records(1)
    _, got, _ = roundtrip(tmp_path, records, blame)
    assert got == blame


def test_schema_5_bytes_are_pinned(tmp_path):
    # a change to these bytes is a change of format: raise SCHEMA_VERSION
    ana = RawAuthor("Ana Núñez", "ana@x.test")
    bo = RawAuthor("Bo Li", "bo@x.test")
    first = CommitMeta("a" * 40, ana, datetime(2021, 3, 4, 5, 6, 7,
                                               tzinfo=timezone.utc))
    second = CommitMeta("b" * 40, bo, datetime(2022, 1, 1,
                                               tzinfo=timezone.utc),
                        is_merge=True, sequence=2)
    records = [ChangeRecord(first, "src/a.py", 3, 0, 1.0),
               ChangeRecord(first, "docs/ü.md", 1, 1, 0.25),
               ChangeRecord(second, "src/a.py", 2, 1, 0.5)]
    blame = BlameSnapshot("b" * 40, {"src/a.py": {bo: 1, ana: 4},
                                     "docs/ü.md": {ana: 1}})
    target = tmp_path / "cache"
    save_cache(records, blame, "https://example.invalid/r.git@" + "b" * 40,
               target)
    authors = '[["Ana Núñez","ana@x.test"],["Bo Li","bo@x.test"]]'
    assert (target / "cache.json").read_bytes() == (
        "busfactor-cache 5 3 271 b0df1c8231df76a78bd1398a2ac2d45d954aa744"
        "9877859511f6049921697b7e 358 5e744841ebf6312b49370fd12a62a71013"
        "07ef546b2818120234d085ed1b9005\n"
        '{"fingerprint":"https://example.invalid/r.git@' + "b" * 40 + '",'
        '"blame":{"revision":"' + "b" * 40 + '","authors":' + authors + ','
        '"files":{"docs/ü.md":[[0,1]],"src/a.py":[[0,4],[1,1]]}}}'
        '{"authors":' + authors + ',"paths":["src/a.py","docs/ü.md"],'
        '"hash":["' + "a" * 40 + '","' + "b" * 40 + '"],"author":[0,1],'
        '"epoch":[1614834367,1640995200],"merge":[0,1],"sequence":[0,2],'
        '"commit":[0,0,1],"path":[0,1,0],"added":[3,1,2],"deleted":[0,1,1],'
        '"cos":[1.0,0.25,0.5]}').encode("utf-8")
    assert load_cache(target) == (records, blame, "https://example.invalid/"
                                  "r.git@" + "b" * 40)
