"""Cache round trips and corruption handling."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from busfactor import (BlameSnapshot, CacheManifest, ChangeRecord, CommitMeta,
                       RawAuthor, load_cache, save_cache)
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


def manifest_for(records):
    return CacheManifest(repo_fingerprint="/tmp/x@" + "a" * 40,
                         created_at=datetime(2021, 6, 1, tzinfo=timezone.utc),
                         record_count=len(records))


def roundtrip(tmp_path, records, blame):
    target = tmp_path / "cache"
    save_cache(records, blame, manifest_for(records), target)
    return load_cache(target)


def test_roundtrip_small(tmp_path):
    records = make_records(12)
    blame = make_blame()
    got_records, got_blame, got_manifest = roundtrip(tmp_path, records, blame)
    assert got_records == records
    assert got_blame == blame
    assert got_manifest.record_count == 12
    assert got_manifest.schema_version == SCHEMA_VERSION
    assert got_manifest.repo_fingerprint == "/tmp/x@" + "a" * 40


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


def test_schema_mismatch_detected(tmp_path):
    target = tmp_path / "cache"
    save_cache(make_records(2), None, manifest_for(make_records(2)), target)
    manifest_file = target / "manifest"
    text = manifest_file.read_text(encoding="utf-8")
    manifest_file.write_text(
        text.replace(f"schema_version={SCHEMA_VERSION}",
                     f"schema_version={SCHEMA_VERSION + 1}"),
        encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        load_cache(target)


def test_schema_1_cache_asks_for_reingest(tmp_path):
    # schema 1 stored token bags, schema 2 one frame per record; schema 3
    # stores one document per data file
    assert SCHEMA_VERSION == 3
    target = tmp_path / "cache"
    save_cache(make_records(2), None, manifest_for(make_records(2)), target)
    manifest_file = target / "manifest"
    text = manifest_file.read_text(encoding="utf-8")
    for old_version in (1, 2):
        manifest_file.write_text(
            text.replace("schema_version=3", f"schema_version={old_version}"),
            encoding="utf-8")
        with pytest.raises(SchemaMismatch, match="re-run `busfactor ingest`"):
            load_cache(target)


def test_blame_only_load_skips_records(tmp_path):
    records = make_records(5)
    target = tmp_path / "cache"
    manifest = manifest_for(records)
    save_cache(records, make_blame(), manifest, target)
    loaded, blame, loaded_manifest = load_cache(target, records=False)
    assert loaded == []
    assert blame == make_blame()
    assert loaded_manifest == manifest


def test_blame_only_load_still_checks_records(tmp_path):
    records = make_records(20)
    target = tmp_path / "cache"
    save_cache(records, make_blame(), manifest_for(records), target)
    manifest_file = target / "manifest"
    manifest_file.write_text(
        manifest_file.read_text(encoding="utf-8").replace(
            "record_count=20", "record_count=21"), encoding="utf-8")
    with pytest.raises(CorruptCache, match="promises 21 records"):
        load_cache(target, records=False)

    save_cache(records, make_blame(), manifest_for(records), target)
    data_file = target / "records.bin"
    blob = bytearray(data_file.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    data_file.write_bytes(bytes(blob))
    with pytest.raises(CorruptCache, match="checksum"):
        load_cache(target, records=False)


def test_truncated_records_detected(tmp_path):
    records = make_records(20)
    target = tmp_path / "cache"
    save_cache(records, None, manifest_for(records), target)
    data_file = target / "records.bin"
    blob = data_file.read_bytes()
    data_file.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptCache):
        load_cache(target)


def test_flipped_byte_fails_checksum(tmp_path):
    records = make_records(20)
    target = tmp_path / "cache"
    save_cache(records, None, manifest_for(records), target)
    data_file = target / "records.bin"
    blob = bytearray(data_file.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    data_file.write_bytes(bytes(blob))
    with pytest.raises(CorruptCache):
        load_cache(target)


def test_corrupt_blame_detected(tmp_path):
    records = make_records(4)
    target = tmp_path / "cache"
    save_cache(records, make_blame(), manifest_for(records), target)
    blame_file = target / "blame.bin"
    blob = bytearray(blame_file.read_bytes())
    blob[-1] ^= 0x01
    blame_file.write_bytes(bytes(blob))
    with pytest.raises(CorruptCache):
        load_cache(target)


def test_record_count_mismatch_detected(tmp_path):
    records = make_records(5)
    target = tmp_path / "cache"
    save_cache(records, None, manifest_for(records), target)
    manifest_file = target / "manifest"
    text = manifest_file.read_text(encoding="utf-8")
    manifest_file.write_text(text.replace("record_count=5",
                                          "record_count=6"),
                             encoding="utf-8")
    with pytest.raises(CorruptCache):
        load_cache(target)


def test_missing_cache_raises_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        load_cache(tmp_path / "never-written")


def test_missing_data_file_raises(tmp_path):
    records = make_records(2)
    target = tmp_path / "cache"
    save_cache(records, None, manifest_for(records), target)
    (target / "records.bin").unlink()
    with pytest.raises((IoFailure, CorruptCache)):
        load_cache(target)


def test_save_overwrites_previous_cache(tmp_path):
    target = tmp_path / "cache"
    first = make_records(8, seed=1)
    save_cache(first, make_blame(), manifest_for(first), target)
    second = make_records(3, seed=2)
    save_cache(second, None, manifest_for(second), target)
    got_records, got_blame, got_manifest = load_cache(target)
    assert got_records == second
    assert got_blame is None
    assert got_manifest.record_count == 3


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


def test_data_file_from_another_save_is_refused(tmp_path):
    # an interrupted re-ingest can leave a new records.bin beside the old
    # manifest; equal record counts must not let the mix load
    first, second = tmp_path / "first", tmp_path / "second"
    save_cache(make_records(6, seed=1), make_blame(),
               manifest_for(make_records(6, seed=1)), first)
    save_cache(make_records(6, seed=2), make_blame(),
               manifest_for(make_records(6, seed=2)), second)
    (first / "records.bin").write_bytes((second / "records.bin").read_bytes())
    with pytest.raises(CorruptCache, match="checksum"):
        load_cache(first)
    with pytest.raises(CorruptCache, match="checksum"):
        load_cache(first, records=False)


def test_interrupted_save_without_blame_keeps_old_save(tmp_path, monkeypatch):
    # a re-save with no blame must not delete blame.bin while the old
    # manifest still lists it
    records = make_records(6)
    target = tmp_path / "cache"
    save_cache(records, make_blame(), manifest_for(records), target)

    def interrupted(src, dst):
        raise OSError("interrupted")
    monkeypatch.setattr(cache_module.os, "replace", interrupted)
    with pytest.raises(IoFailure):
        save_cache(records, None, manifest_for(records), target)
    monkeypatch.undo()
    got, blame, _ = load_cache(target)
    assert got == records
    assert blame == make_blame()

    save_cache(records, None, manifest_for(records), target)
    assert not (target / "blame.bin").exists()
    assert load_cache(target)[1] is None


def test_records_of_one_commit_share_its_meta(tmp_path):
    records = make_records(6)
    spread = [dataclasses.replace(r, commit=records[i // 3].commit)
              for i, r in enumerate(records)]
    got, _, _ = roundtrip(tmp_path, spread, None)
    assert got == spread
    assert got[0].commit is got[1].commit is got[2].commit
    assert got[3].commit is got[4].commit is got[5].commit
    assert got[2].commit is not got[3].commit


def test_same_inputs_save_identical_bytes(tmp_path):
    records = make_records(50)
    blame = make_blame()
    reordered = BlameSnapshot(revision=blame.revision, files={
        path: dict(reversed(list(owners.items())))
        for path, owners in reversed(list(blame.files.items()))})
    save_cache(records, blame, manifest_for(records), tmp_path / "one")
    save_cache(records, reordered, manifest_for(records), tmp_path / "two")
    for name in ("records.bin", "blame.bin"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())


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


def test_blame_pairs_of_one_author_add(tmp_path):
    # a schema-3 blame.bin may hold runs in line order, so an author can
    # come back within a file; loading sums that author's pairs
    root = tmp_path / "cache"
    root.mkdir()
    documents = {
        "records": {"commits": [], "records": []},
        "blame": {"revision": "d" * 40,
                  "authors": [["Dev 0", "dev0@x.test"],
                              ["Dev 1", "dev1@x.test"]],
                  "files": {"a.py": [[0, 2], [1, 1], [0, 4], [1, 2]],
                            "b.py": [[1, 3]]}},
    }
    lines = ["schema_version=3", "repo_fingerprint=/tmp/x@" + "a" * 40,
             "created_at=2021-06-01T00:00:00+00:00", "record_count=0"]
    for name, document in documents.items():
        data = json.dumps(document, separators=(",", ":")).encode("utf-8")
        (root / f"{name}.bin").write_bytes(data)
        lines.append(f"{name}_sha256={hashlib.sha256(data).hexdigest()}")
    (root / "manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
    a, b = (RawAuthor(f"Dev {i}", f"dev{i}@x.test") for i in range(2))
    _, blame, _ = load_cache(root)
    assert blame == BlameSnapshot(revision="d" * 40, files={
        "a.py": {a: 6, b: 3}, "b.py": {b: 3}})
