"""Cache round trips and corruption handling."""
from __future__ import annotations

import hashlib
import json
import random
import struct
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


_COMMIT_COLUMNS = ("author", "epoch", "merge", "sequence")
_COLUMNS = _COMMIT_COLUMNS + ("commit", "path", "added", "deleted", "cos")


def unpacked(rows: bytes) -> tuple[dict, dict]:
    """The records part's table and columns, read as schema 6 lays them
    out: the hashes' bytes, then each column under the table's format
    letter (binary64 for cos)."""
    line, binary = rows.split(b"\n", 1)
    table = json.loads(line)
    columns = {"hash": binary[:table["width"] * table["commits"]]}
    offset = len(columns["hash"])
    for name in _COLUMNS:
        count = table["commits" if name in _COMMIT_COLUMNS else "records"]
        layout = "<%d%s" % (count, table["formats"].get(name, "d"))
        columns[name] = list(struct.unpack_from(layout, binary, offset))
        offset += struct.calcsize(layout)
    assert offset == len(binary)
    return table, columns


def repacked(table: dict, columns: dict) -> bytes:
    """The records part holding table and columns; the inverse of
    unpacked."""
    return b"".join([
        json.dumps(table, separators=(",", ":"),
                   ensure_ascii=False).encode("utf-8"),
        b"\n", columns["hash"],
        *(struct.pack("<%d%s" % (len(columns[name]),
                                 table["formats"].get(name, "d")),
                      *columns[name]) for name in _COLUMNS)])


def with_parts(cache_file: Path, head: bytes, rows: bytes,
               count: int | None = None) -> None:
    """Replace the parts (and the record count), under a header whose
    lengths and digests match them."""
    fields, _, _ = parts(cache_file)
    count = int(fields[2]) if count is None else count
    cache_file.write_bytes(b"busfactor-cache %d %d %d %s %d %s\n" % (
        SCHEMA_VERSION, count, len(head), hashlib.sha256(head).hexdigest().encode(),
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
    """One save and load, the records loaded as ChangeRecords."""
    got, blame, fingerprint = load_cache(saved(tmp_path, records,
                                               blame).parent)
    return got.records(), blame, fingerprint


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
    assert SCHEMA_VERSION == 6
    assert header == b"busfactor-cache 6 2 %d %s %d %s" % (
        len(head), hashlib.sha256(head).hexdigest().encode(),
        len(rows), hashlib.sha256(rows).hexdigest().encode())
    assert json.loads(head)["fingerprint"] == FINGERPRINT
    table, columns = unpacked(rows)
    assert (table["commits"], table["records"], table["width"]) == (2, 2, 20)
    assert len(columns["commit"]) == 2
    assert repacked(table, columns) == rows


def test_schema_mismatch_detected(tmp_path):
    cache_file = saved(tmp_path, make_records(2))
    fields = cache_file.read_bytes().split(b"\n", 1)[0].split()
    for version in (b"5", b"7"):
        with_header(cache_file, b" ".join([fields[0], version, *fields[2:]]))
        with pytest.raises(SchemaMismatch,
                           match="re-run `busfactor ingest`"):
            load_cache(cache_file.parent)


@pytest.mark.parametrize("header", [
    b"busfactor-cash 4 " + b"0" * 64,  # wrong magic
    b"busfactor-cache 6 " + b"0" * 64,  # schema 4's fields
    b"busfactor-cache four " + b"0" * 64,
    b"busfactor-cache 6",
    b"busfactor-cache 6 two 1 %s 1 %s" % (b"0" * 64, b"0" * 64),
    b"busfactor-cache 6 -2 1 %s 1 %s" % (b"0" * 64, b"0" * 64),
    b"busfactor-cache 6 2 1 %s x %s" % (b"0" * 64, b"0" * 64),
    b"busfactor-cache 6 2 1 1 %s 1 %s" % (b"0" * 64, b"0" * 64),
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
    assert loaded is None
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
        None, make_blame(), FINGERPRINT)
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

    line = rows.split(b"\n", 1)[0]
    table = json.loads(line)
    missing = {k: v for k, v in table.items() if k != "formats"}
    for bad_rows in (b"[1, 2]\n", b"not json\n", line,
                     json.dumps(missing).encode() + rows[len(line):]):
        with_parts(cache_file, head, bad_rows)
        with pytest.raises(CorruptCache, match="malformed cache document"):
            load_cache(cache_file.parent)
        assert load_cache(cache_file.parent, records=False)[2] == FINGERPRINT


def malformed_records_part(case: str, rows: bytes) -> bytes:
    table, columns = unpacked(rows)
    if case == "a byte short":
        return rows[:-1]
    if case == "a trailing byte":
        return rows + b"\0"
    if case == "an unknown format letter":
        table["formats"]["added"] = "l"  # a struct letter, but not one of ours
    elif case == "a count that is not an int":
        table["records"] = float(table["records"])  # equal to the header's
    elif case == "an index past its table":
        columns["path"][0] = len(table["paths"])
    elif case == "a negative index in a signed column":
        table["formats"]["commit"] = "b"
        columns["commit"][-1] = -1
    return repacked(table, columns)


@pytest.mark.parametrize("case", [
    "a byte short", "a trailing byte", "an unknown format letter",
    "a count that is not an int", "an index past its table",
    "a negative index in a signed column"])
def test_malformed_records_part_fails_only_a_full_load(tmp_path, case):
    cache_file = saved(tmp_path, make_records(20), make_blame())
    _, head, rows = parts(cache_file)
    with_parts(cache_file, head, malformed_records_part(case, rows))
    with pytest.raises(CorruptCache, match="malformed"):
        load_cache(cache_file.parent)
    assert load_cache(cache_file.parent, records=False) == (
        None, make_blame(), FINGERPRINT)


def test_record_count_mismatch_detected(tmp_path):
    cache_file = saved(tmp_path, make_records(5))
    with_record_count(cache_file, 6)
    with pytest.raises(CorruptCache, match="promises 6 records, found 5"):
        load_cache(cache_file.parent)


def test_empty_history_roundtrips(tmp_path):
    # a repository of only binary or empty files gives no records, so no
    # hash sets the width
    cache_file = saved(tmp_path, [], make_blame())
    table, columns = unpacked(parts(cache_file)[2])
    assert (table["commits"], table["records"], table["width"]) == (0, 0, 0)
    got, blame, fingerprint = load_cache(cache_file.parent)
    assert (got.records(), blame, fingerprint) == ([], make_blame(),
                                                   FINGERPRINT)


@st.composite
def histories(draw) -> list[ChangeRecord]:
    """Records of a few commits with SHA-1 or SHA-256 hashes, author dates
    before and after 1970, merges, line counts past 32 bits and cos
    values at the edges of binary64."""
    width = draw(st.sampled_from((20, 32)))
    authors = draw(st.lists(st.builds(RawAuthor, st.text(min_size=1,
                                                         max_size=6),
                                      st.text(max_size=6)),
                            min_size=1, max_size=3))
    commits = [CommitMeta(
        hash=draw(st.binary(min_size=width, max_size=width)).hex(),
        author=draw(st.sampled_from(authors)),
        author_timestamp=datetime.fromtimestamp(
            draw(st.integers(-2**33, 2**33)), timezone.utc),
        is_merge=draw(st.booleans()), sequence=sequence)
        for sequence in range(draw(st.integers(0, 4)))]
    if not commits:
        return []
    lines = st.one_of(st.integers(0, 300), st.just(2**32),
                      st.integers(0, 2**63 - 1))
    cos = st.one_of(st.sampled_from((0.0, 1.0, 5e-324)), st.floats(0.0, 1.0))
    return draw(st.lists(st.builds(
        ChangeRecord, st.sampled_from(commits),
        st.sampled_from(("a.py", "dir/ü.md", "b c")), lines, lines, cos),
        max_size=12))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(records=histories())
def test_roundtrip_keeps_every_field(tmp_path_factory, records):
    target = tmp_path_factory.mktemp("cache")
    save_cache(records, None, FINGERPRINT, target)
    got, blame, fingerprint = load_cache(target)
    assert (got.records(), blame, fingerprint) == (records, None, FINGERPRINT)
    commits: dict[CommitMeta, CommitMeta] = {}
    authors: dict[RawAuthor, RawAuthor] = {}
    for before, after in zip(records, got):
        assert [type(v) for v in after] == [CommitMeta, str, int, int, float]
        assert after.cos_distance.hex() == before.cos_distance.hex()
        commit = after.commit
        assert [type(v) for v in commit] == [str, RawAuthor, datetime, bool,
                                             int]
        assert commit.author_timestamp.tzinfo is timezone.utc
        # one CommitMeta per commit and one RawAuthor per author
        assert commits.setdefault(commit, commit) is commit
        assert authors.setdefault(commit.author, commit.author) is (
            commit.author)


@pytest.mark.parametrize("hashes", [
    ["AB" * 20], ["ab cd"], ["abc"], ["ab" * 20, "cd" * 32], [""]],
    ids=["uppercase", "space", "odd-length", "mixed-widths", "empty"])
def test_save_refuses_hashes_it_cannot_pack(tmp_path, hashes):
    author = RawAuthor("Ana", "ana@x.test")
    records = [ChangeRecord(CommitMeta(hash, author,
                                       datetime(2021, 1, 1,
                                                tzinfo=timezone.utc),
                                       sequence=i), "a.py", 1, 0, 1.0)
               for i, hash in enumerate(hashes)]
    with pytest.raises(ValueError):
        save_cache(records, None, FINGERPRINT, tmp_path / "cache")
    assert not (tmp_path / "cache").exists()


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
    assert got_records.records() == second
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
    assert got.records() == records
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


def test_schema_6_bytes_are_pinned(tmp_path):
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
        "busfactor-cache 6 3 271 b0df1c8231df76a78bd1398a2ac2d45d954aa744"
        "9877859511f6049921697b7e 338 770ce06ef3251459e5ec34e64637161"
        "22b14a2abaadc066aa800cd5b2acc67aa\n"
        '{"fingerprint":"https://example.invalid/r.git@' + "b" * 40 + '",'
        '"blame":{"revision":"' + "b" * 40 + '","authors":' + authors + ','
        '"files":{"docs/ü.md":[[0,1]],"src/a.py":[[0,4],[1,1]]}}}'
        '{"authors":' + authors + ',"paths":["src/a.py","docs/ü.md"],'
        '"commits":2,"records":3,"width":20,"formats":{"author":"B",'
        '"epoch":"I","merge":"B","sequence":"B","commit":"B","path":"B",'
        '"added":"B","deleted":"B"}}\n').encode("utf-8") + bytes.fromhex(
        "aa" * 20 + "bb" * 20  # hash
        + "0001"  # author
        + "bf6a4060" "8099cf61"  # epoch, 1614834367 and 1640995200
        + "0001"  # merge
        + "0002"  # sequence
        + "000001"  # commit
        + "000100"  # path
        + "030102"  # added
        + "000101"  # deleted
        + "000000000000f03f" "000000000000d03f" "000000000000e03f")  # cos
    got, got_blame, fingerprint = load_cache(target)
    assert (got.records(), got_blame, fingerprint) == (
        records, blame, "https://example.invalid/r.git@" + "b" * 40)
