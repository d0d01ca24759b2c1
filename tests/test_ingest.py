"""History extraction, blame, globbing and the path filters."""
from __future__ import annotations

import math
import subprocess
import sys
import threading
from collections import Counter

import pytest

from busfactor import (BlameSnapshot, RawAuthor, compile_globs,
                       extract_blame, extract_history, filter_records,
                       filter_snapshot, load_cache, path_matches,
                       repo_fingerprint, resolve_revision, token_distance,
                       tokenize)
from busfactor import cli, gitrepo
from busfactor.cli import main
from busfactor.errors import (EmptyRepository, GitInvocationFailure,
                              InvalidGlob, NoTextFiles, NotARepository,
                              UnknownRevision)

from tests.conftest import ADA, BERT, CLEO, RepoBuilder
from tests.oracles import changed_lines, numstat_totals, raw_blame


def test_two_commits_two_records(repo_factory):
    repo = repo_factory()
    repo.write("a.txt", "one\n")
    repo.commit(ADA)
    repo.write("a.txt", "one\ntwo\n")
    repo.commit(BERT)
    records = list(extract_history(repo.path))
    assert len(records) == 2
    assert [r.author.name for r in records] == ["Ada Core", "Bert Low"]


def test_new_file_counts_all_lines_added(repo_factory):
    repo = repo_factory()
    repo.write("ten.txt", "".join(f"line {i}\n" for i in range(10)))
    repo.commit(ADA)
    (record,) = extract_history(repo.path)
    assert record.lines_added == 10
    assert record.lines_deleted == 0
    assert record.path == "ten.txt"


def test_deletion_only_commit(repo_factory):
    repo = repo_factory()
    repo.write("gone.txt", "a\nb\nc\n")
    repo.commit(ADA)
    repo.remove("gone.txt")
    repo.commit(BERT)
    records = list(extract_history(repo.path))
    assert records[1].path == "gone.txt"
    assert records[1].lines_added == 0
    assert records[1].lines_deleted == 3


def test_binary_files_skipped(repo_factory):
    repo = repo_factory()
    repo.write_bytes("blob.bin", bytes(range(256)) * 4)
    repo.commit(ADA)
    assert list(extract_history(repo.path)) == []


def _commit_index(repo, author):
    """Commit the index as it stands: `RepoBuilder.commit` runs `git add
    -A`, which drops a gitlink that has no directory in the worktree."""
    name, email = author
    stamp = repo.next_date()
    repo.git("commit", "-q", "--no-verify", "-m", "index", env={
        "GIT_AUTHOR_NAME": name, "GIT_AUTHOR_EMAIL": email,
        "GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_NAME": name,
        "GIT_COMMITTER_EMAIL": email, "GIT_COMMITTER_DATE": stamp})


def test_submodule_pointer_bumps_skipped(repo_factory):
    repo = repo_factory()
    repo.write("f.txt", "a\n")
    pointers = [repo.commit(ADA)]
    repo.write("f.txt", "a\nb\n")
    pointers.append(repo.commit(ADA))
    for pointer in pointers:  # add the gitlink, then bump it
        repo.git("update-index", "--add", "--cacheinfo",
                 f"160000,{pointer},sub")
        _commit_index(repo, BERT)
    assert "+Subproject commit" in repo.git("log", "-p", "-1", "--", "sub")
    records = list(extract_history(repo.path))
    assert [(r.path, r.author) for r in records] == [
        ("f.txt", RawAuthor(*ADA))] * 2


def test_patch_lines_that_look_like_headers(repo_factory):
    repo = repo_factory()
    # With -U0 these show as "--- a/x", "+++ b/y" and "+@@ q" in a hunk.
    repo.write("h.txt", "-- a/x\nkeep\nold\n")
    repo.write("nonl.txt", "a")
    repo.write("x", "gone\n")
    repo.write("sp 160000", "a regular file\n")
    pointer = repo.commit(ADA)
    repo.write("h.txt", "++ b/y\nkeep\n@@ q\n")
    repo.write("nonl.txt", "a\nb")
    repo.remove("x")
    repo.git("add", "-A")
    # x becomes a submodule in the same commit
    repo.git("update-index", "--add", "--cacheinfo", f"160000,{pointer},x")
    _commit_index(repo, BERT)
    assert "+Subproject commit" in repo.git("log", "-p", "-1", "--", "x")
    records = list(extract_history(repo.path))
    assert [(r.path, r.lines_added, r.lines_deleted) for r in records] == [
        ("h.txt", 3, 0), ("nonl.txt", 1, 0), ("sp 160000", 1, 0),
        ("x", 1, 0), ("h.txt", 2, 2), ("nonl.txt", 2, 1), ("x", 0, 1)]
    assert records[4].cos_distance == token_distance(
        tokenize(["++ b/y", "@@ q"]), tokenize(["-- a/x", "old"]))


@pytest.mark.parametrize("key, value", [("diff.noprefix", "true"),
                                        ("color.ui", "always"),
                                        ("diff.algorithm", "histogram")])
def test_history_ignores_diff_config(repo_factory, key, value):
    repo = repo_factory()
    repo.write("b/x.txt", "one\n")
    repo.write("y.txt", "two\n")
    repo.write("z.txt", "c\nb\nb\na\n")
    repo.commit(ADA)
    repo.write("b/x.txt", "one\nthree\n")
    repo.write("z.txt", "b\nb\nb\nc\n")  # myers: 2 lines each way
    repo.commit(BERT)
    expected = list(extract_history(repo.path))
    assert [(r.path, r.lines_added, r.lines_deleted) for r in expected] == [
        ("b/x.txt", 1, 0), ("y.txt", 1, 0), ("z.txt", 4, 0),
        ("b/x.txt", 1, 0), ("z.txt", 2, 2)]
    patches = repo.git("log", "-p")
    repo.git("config", key, value)
    assert repo.git("log", "-p") != patches  # the setting reaches git
    assert list(extract_history(repo.path)) == expected


def test_modified_line_counts_once_each_way(repo_factory):
    repo = repo_factory()
    repo.write("f.txt", "alpha\nbeta\n")
    repo.commit(ADA)
    repo.write("f.txt", "alpha\ngamma\n")
    repo.commit(ADA)
    records = list(extract_history(repo.path))
    assert (records[1].lines_added, records[1].lines_deleted) == (1, 1)


def test_token_bags_come_from_changed_lines_only(repo_factory):
    repo = repo_factory()
    repo.write("f.py", "untouched = 1\ncount = old_value\n")
    repo.commit(ADA)
    repo.write("f.py", "untouched = 1\ncount = new_value + 2\n")
    repo.commit(BERT)
    records = list(extract_history(repo.path))
    added, deleted = changed_lines(repo.path, records[1].commit.hash)["f.py"]
    assert tokenize(added) == {"count": 1, "new": 1, "value": 1, "2": 1}
    assert tokenize(deleted) == {"count": 1, "old": 1, "value": 1}
    assert records[1].cos_distance == token_distance(tokenize(added),
                                                     tokenize(deleted))
    assert records[1].cos_distance == pytest.approx(1 - 2 / math.sqrt(12))


def test_records_ordered_oldest_first(two_dev_repo):
    records = list(extract_history(two_dev_repo.path))
    stamps = [r.commit.author_timestamp for r in records]
    assert stamps == sorted(stamps)
    assert [r.commit.sequence for r in records] == sorted(
        r.commit.sequence for r in records)


def test_ingestion_is_deterministic(two_dev_repo):
    first = list(extract_history(two_dev_repo.path))
    second = list(extract_history(two_dev_repo.path))
    assert first == second


def test_merge_commits_skipped_by_default(repo_factory):
    repo = repo_factory()
    repo.write("main.txt", "base\n")
    repo.commit(ADA)
    repo.git("checkout", "-q", "-b", "topic")
    repo.write("topic.txt", "branch work\n")
    repo.commit(BERT)
    repo.git("checkout", "-q", "main")
    repo.write("main.txt", "base\nmore\n")
    repo.commit(ADA)
    merge_hash = repo.merge_branch("topic", CLEO)

    default = list(extract_history(repo.path))
    assert merge_hash not in {r.commit.hash for r in default}
    assert len(default) == 3

    included = list(extract_history(repo.path, include_merges=True))
    merge_records = [r for r in included if r.commit.hash == merge_hash]
    # First-parent diff: the merge brings in exactly the topic file.
    assert [r.path for r in merge_records] == ["topic.txt"]
    assert all(r.commit.is_merge for r in merge_records)


def test_multi_file_commit_yields_one_record_per_file(repo_factory):
    repo = repo_factory()
    repo.write("one.txt", "1\n")
    repo.write("two.txt", "2\n")
    repo.write("sub/three.txt", "3\n")
    repo.commit(ADA)
    records = list(extract_history(repo.path))
    assert sorted(r.path for r in records) == ["one.txt", "sub/three.txt",
                                               "two.txt"]
    assert len({r.commit.hash for r in records}) == 1


def test_conservation_against_numstat(repo_factory):
    repo = repo_factory()
    repo.write("a.py", "x = 1\ny = 2\n")
    repo.write_bytes("cr.txt", b"x\r-y\rz\n")  # one line: "\r" breaks none
    repo.commit(ADA)
    repo.write("a.py", "x = 1\ny = 3\nz = 4\n")
    repo.write("b.md", "# title\ntext\n")
    repo.commit(BERT)
    repo.remove("b.md")
    repo.write("a.py", "x = 9\n")
    repo.commit(CLEO)

    expected = numstat_totals(repo.path)
    got: dict[str, list[int]] = {}
    for record in extract_history(repo.path):
        added, deleted = got.setdefault(record.commit.hash, [0, 0])
        got[record.commit.hash] = [added + record.lines_added,
                                   deleted + record.lines_deleted]
    assert {h: tuple(v) for h, v in got.items()} == expected


def test_empty_repository_raises(repo_factory):
    repo = repo_factory()
    with pytest.raises(EmptyRepository):
        list(extract_history(repo.path))


def test_not_a_repository(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(NotARepository):
        resolve_revision(plain, "HEAD")
    with pytest.raises(NotARepository):
        list(extract_history(plain))


def test_fingerprint_combines_path_and_head(two_dev_repo):
    fp = repo_fingerprint(two_dev_repo.path, two_dev_repo.head())
    assert str(two_dev_repo.path) in fp
    assert fp.endswith("@" + two_dev_repo.head())


# --- blame ------------------------------------------------------------

def test_single_author_owns_every_line(repo_factory):
    repo = repo_factory()
    repo.write("solo.txt", "a\nb\nc\n")
    repo.commit(ADA)
    snap = extract_blame(repo.path)
    assert snap.files["solo.txt"] == {RawAuthor(*ADA): 3}


def test_blame_matches_porcelain_oracle(repo_factory):
    repo = repo_factory()
    repo.write("five.txt", "l1\nl2\nl3\nl4\nl5\n")
    repo.commit(ADA)
    repo.write("five.txt", "l1\nl2\nrewritten\nl4\nl5\n")
    repo.commit(BERT)
    snap = extract_blame(repo.path)
    ours = {(a.name, a.email): n for a, n in snap.files["five.txt"].items()}
    assert ours == Counter(raw_blame(repo.path, repo.head(), "five.txt"))
    assert ours == {ADA: 4, BERT: 1}


def test_blame_ignores_ignore_revs_config(repo_factory, tmp_path):
    repo = repo_factory()
    repo.write("y.txt", "one\ntwo\n")
    repo.commit(ADA)
    repo.write("y.txt", "one\nTWO\n")
    last = repo.commit(BERT)
    expected = extract_blame(repo.path)
    assert expected.files["y.txt"] == {RawAuthor(*ADA): 1, RawAuthor(*BERT): 1}
    ignored = tmp_path / "ignore-revs"
    ignored.write_text(last + "\n")
    repo.git("config", "blame.ignoreRevsFile", str(ignored))
    assert Counter(raw_blame(repo.path, last, "y.txt")) == {ADA: 2}
    assert extract_blame(repo.path) == expected


def test_blame_at_past_revision(repo_factory):
    repo = repo_factory()
    repo.write("f.txt", "original\n")
    first = repo.commit(ADA)
    repo.write("f.txt", "replaced\n")
    repo.commit(BERT)
    snap = extract_blame(repo.path, revision=first)
    assert snap.revision == first
    assert snap.files["f.txt"] == {RawAuthor(*ADA): 1}


def test_blame_path_filter_and_no_text_files(repo_factory):
    repo = repo_factory()
    repo.write("docs/readme.md", "hello\n")
    repo.commit(ADA)
    with pytest.raises(NoTextFiles):
        extract_blame(repo.path, path_filter="src/")
    snap = extract_blame(repo.path, path_filter="docs")
    assert list(snap.files) == ["docs/readme.md"]


def test_blame_skips_binaries_and_symlinks(repo_factory):
    repo = repo_factory()
    repo.write("real.txt", "content\n")
    repo.write_bytes("img.bin", b"\x00\x01\x02\xff" * 32)
    (repo.path / "link.txt").symlink_to("real.txt")
    repo.commit(ADA)
    snap = extract_blame(repo.path)
    assert set(snap.files) == {"real.txt"}


QUOTED_NAMES = ('say "hi".txt', "back\\slash.txt", "tab\there.txt")


def test_quoted_paths_through_history_blame_and_ingest(repo_factory,
                                                        tmp_path):
    # git C-quotes names holding '"', '\\' or a tab in diff headers, even
    # with core.quotepath=false
    repo = repo_factory()
    for name in QUOTED_NAMES + ('gone "soon".txt',):
        repo.write(name, "one line\n")
    repo.commit(ADA)
    for name in QUOTED_NAMES:
        repo.write(name, "one line\nsecond line\n")
    repo.remove('gone "soon".txt')
    repo.commit(BERT)

    paths = [r.path for r in extract_history(repo.path)]
    assert sorted(paths) == sorted(2 * QUOTED_NAMES + 2 * ('gone "soon".txt',))
    blame = extract_blame(repo.path)
    assert set(blame.files) == set(QUOTED_NAMES)
    for name in QUOTED_NAMES:
        assert ({(a.name, a.email): n for a, n in blame.files[name].items()}
                == Counter(raw_blame(repo.path, "HEAD", name)))

    cache = tmp_path / "cache"
    assert main(["ingest", "--repo", str(repo.path),
                 "--cache", str(cache)]) == 0
    records, cached_blame, _ = load_cache(cache)
    assert sorted(r.path for r in records) == sorted(paths)
    assert cached_blame == blame


def test_unknown_revision(two_dev_repo):
    with pytest.raises(UnknownRevision):
        resolve_revision(two_dev_repo.path, "no-such-ref")
    with pytest.raises(UnknownRevision):
        extract_blame(two_dev_repo.path, revision="0" * 40)


@pytest.mark.parametrize("extract", [extract_blame,
                                     lambda *a: list(extract_history(*a))])
def test_rejected_full_hash_is_unknown_revision(two_dev_repo, tmp_path,
                                                extract):
    # A full hash is taken without a rev-parse probe; when git rejects
    # it, the error is the one the probe would have raised.
    tree = two_dev_repo.git("rev-parse", "HEAD^{tree}").strip()
    for name in ("0" * 40, "1" * 64, tree):
        with pytest.raises(UnknownRevision):
            extract(two_dev_repo.path, name)
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(NotARepository):
        extract(plain, two_dev_repo.head())


def test_carriage_return_in_a_name(repo_factory, tmp_path):
    # the "-z" file listing keeps the "\r"; diff headers C-quote it
    repo = repo_factory()
    repo.write("odd\rname.txt", "one\ntwo\n")
    repo.commit(ADA)
    cache = tmp_path / "cache"
    assert main(["ingest", "--repo", str(repo.path),
                 "--cache", str(cache)]) == 0
    records, blame, _ = load_cache(cache)
    assert [r.path for r in records] == ["odd\rname.txt"]
    assert ({(a.name, a.email): n for a, n in blame.files["odd\rname.txt"].items()}
            == Counter(raw_blame(repo.path, "HEAD", "odd\rname.txt")))


def test_blame_splits_lines_at_newline_only(repo_factory):
    # a form feed or U+2028 followed by a tab must not pass for the tab
    # that starts a blamed line in the porcelain output
    texts = {"ff.txt": "a\f\tb\nc\n", "ls.txt": "p\u2028\tq\n"}
    repo = repo_factory()
    for name, text in texts.items():
        repo.write(name, text)
    repo.commit(ADA)
    snap = extract_blame(repo.path)
    assert {name: sum(owners.values()) for name, owners in snap.files.items()} \
        == {name: text.count("\n") for name, text in texts.items()}
    for name in texts:
        assert ({(a.name, a.email): n for a, n in snap.files[name].items()}
                == Counter(raw_blame(repo.path, "HEAD", name)))


def test_blame_in_sha256_repository(tmp_path):
    path = tmp_path / "sha256"
    if subprocess.run(["git", "init", "-q", "--object-format=sha256",
                       str(path)], capture_output=True).returncode != 0:
        pytest.skip("this git cannot create a SHA-256 repository")
    repo = RepoBuilder(path)
    repo.write("a.txt", "one\ntwo\n")
    repo.commit(ADA)
    repo.write("a.txt", "one\nzwei\n")
    repo.commit(BERT)
    assert len(repo.head()) == 64
    snap = extract_blame(repo.path)
    assert snap.revision == repo.head()
    assert snap.files == {"a.txt": {RawAuthor(*ADA): 1, RawAuthor(*BERT): 1}}


def test_line_counts_match_worktree(two_dev_repo):
    snap = extract_blame(two_dev_repo.path)
    for path, owners in snap.files.items():
        text = (two_dev_repo.path / path).read_text(encoding="utf-8")
        assert sum(owners.values()) == text.count("\n")


# --- globs and filtering ------------------------------------------------

def test_glob_star_does_not_cross_directories():
    compiled = compile_globs(["src/*.py"])
    assert path_matches("src/a.py", compiled)
    assert not path_matches("src/sub/a.py", compiled)


def test_glob_double_star_spans_directories():
    compiled = compile_globs(["vendor/**"])
    assert path_matches("vendor/lib.c", compiled)
    assert path_matches("vendor/deep/nest/lib.c", compiled)
    assert not path_matches("src/vendor.c", compiled)


def test_glob_double_star_matches_zero_directories():
    compiled = compile_globs(["a/**/b.txt"])
    assert path_matches("a/b.txt", compiled)
    assert path_matches("a/x/b.txt", compiled)
    assert path_matches("a/x/y/b.txt", compiled)


def test_glob_question_mark_and_classes():
    compiled = compile_globs(["f?.t[xy]t"])
    assert path_matches("f1.txt", compiled)
    assert path_matches("f2.tyt", compiled)
    assert not path_matches("f12.txt", compiled)
    assert not path_matches("f1.tzt", compiled)


def test_invalid_glob_rejected():
    with pytest.raises(InvalidGlob):
        compile_globs([""])
    with pytest.raises(InvalidGlob):
        compile_globs(["bad[range"])


def _rec(path):
    # tiny stand-in; only .path matters to the filter
    from busfactor import ChangeRecord, CommitMeta
    from datetime import datetime, timezone
    meta = CommitMeta(hash="f" * 40, author=RawAuthor("A", "a@x"),
                      author_timestamp=datetime(2021, 1, 1,
                                                tzinfo=timezone.utc))
    return ChangeRecord(commit=meta, path=path, lines_added=1,
                        lines_deleted=0, cos_distance=1.0)


def test_filter_records_excludes_keep_order():
    records = [_rec("src/a.py"), _rec("vendor/x.c"), _rec("src/b.py"),
               _rec("third_party/y.c")]
    kept = filter_records(records,
                          exclude_globs=["vendor/**", "third_party/**"])
    assert [r.path for r in kept] == ["src/a.py", "src/b.py"]


def test_filter_records_excludes_are_idempotent():
    records = [_rec("src/a.py"), _rec("vendor/x.c")]
    once = filter_records(records, exclude_globs=["vendor/**"])
    twice = filter_records(once, exclude_globs=["vendor/**"])
    assert once == twice


def test_filter_records_empty_globs_keep_everything():
    records = [_rec("a"), _rec("b")]
    assert filter_records(records, exclude_globs=[]) == records


def test_filter_snapshot_scope_and_excludes():
    snap = BlameSnapshot(revision="e" * 40, files={
        "src/a.py": {RawAuthor("A", "a@x"): 1},
        "src/gen/out.py": {RawAuthor("A", "a@x"): 1},
        "docs/r.md": {RawAuthor("B", "b@x"): 1},
    })
    narrowed = filter_snapshot(snap, scope="src",
                               exclude_globs=["src/gen/**"])
    assert set(narrowed.files) == {"src/a.py"}
    assert narrowed.revision == snap.revision


def test_git_stream_survives_large_stderr(monkeypatch):
    # More warnings than a pipe holds, written before any stdout line.
    script = ("import sys\n"
              "sys.stderr.write('warning: x\\n' * 25000)\n"
              "sys.stderr.flush()\n"
              "print('one'); print('two'); print('three')\n")
    real_popen = subprocess.Popen
    procs = []

    def popen(cmd, **kwargs):
        procs.append(real_popen([sys.executable, "-c", script], **kwargs))
        return procs[-1]
    monkeypatch.setattr(subprocess, "Popen", popen)

    lines = []
    worker = threading.Thread(
        target=lambda: lines.extend(gitrepo._git(".", "log")),
        daemon=True)
    worker.start()
    worker.join(timeout=30)
    hung = worker.is_alive()
    if hung:
        for proc in procs:
            proc.kill()
        worker.join(timeout=5)
    assert not hung, "git stream blocked on a full stderr pipe"
    assert lines == ["one", "two", "three"]


def test_history_stopped_early_reaps_git_quietly(repo_factory, monkeypatch):
    # Each file is more than a pipe holds, so git is still writing when
    # the reader stops.
    repo = repo_factory()
    for name, author in (("a.txt", ADA), ("b.txt", BERT)):
        line = f"{name}: a line long enough that 5,000 of them fill a pipe\n"
        repo.write(name, line * 5000)
        head = repo.commit(author)
    real_popen = subprocess.Popen
    procs = []

    def popen(cmd, **kwargs):
        procs.append(real_popen(cmd, **kwargs))
        return procs[-1]
    monkeypatch.setattr(subprocess, "Popen", popen)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    records = extract_history(repo.path, head)
    assert next(records).path == "a.txt"
    records.close()
    assert unraisable == []
    assert [proc.returncode is not None for proc in procs] == [True]


def test_blame_of_missing_path_carries_git_diagnostics(repo_factory):
    repo = repo_factory()
    repo.write("a.txt", "a\n")
    head = repo.commit(ADA)
    with pytest.raises(GitInvocationFailure) as caught:
        gitrepo._blame_file(repo.path, head, "missing.txt")
    assert caught.value.returncode == 128
    assert "blame --line-porcelain" in str(caught.value)
    assert "fatal: no such path" in str(caught.value)


def test_git_spawns_per_command(repo_factory, tmp_path, monkeypatch):
    repo = repo_factory()
    repo.write("a.txt", "a\n")
    repo.write("d/b.txt", "b\nc\n")
    repo.write("empty.txt", "")
    repo.write_bytes("blob.bin", b"\x00\x01\x02")
    repo.commit(ADA)
    repo.write("a.txt", "a\nz\n")
    repo.commit(BERT)
    blamed = 2  # a.txt and d/b.txt: not the empty or the binary file
    spawns = []
    real_popen = subprocess.Popen

    def popen(cmd, **kwargs):
        spawns.append(cmd)
        return real_popen(cmd, **kwargs)
    monkeypatch.setattr(subprocess, "Popen", popen)

    def count(*argv):
        spawns.clear()
        assert main([*argv, "--repo", str(repo.path)]) == 0
        return len(spawns)
    # history and blame take the hash that cli.py resolved without a
    # second rev-parse, and the empty tree's id is known without asking
    assert count("ingest", "--cache", str(tmp_path / "cache")) == 4 + blamed
    assert count("cst", "--metric", "commits",
                 "--cst-metric", "mul-equal") == 3
    assert count("trend", "--from-year", "2021", "--to-year", "2021") == 3
    assert count("rig", "--exhaustive") == 3 + blamed


def test_ingest_reads_one_commit_while_head_moves(repo_factory, tmp_path,
                                                 monkeypatch):
    repo = repo_factory()
    repo.write("a.txt", "a\n")
    first = repo.commit(ADA)
    read_history = cli.extract_history

    def history_then_commit(*args, **kwargs):
        records = list(read_history(*args, **kwargs))
        repo.write("a.txt", "a\nb\n")
        repo.commit(BERT)  # lands after the history was read
        return iter(records)
    monkeypatch.setattr(cli, "extract_history", history_then_commit)
    cache = tmp_path / "cache"
    assert main(["ingest", "--repo", str(repo.path),
                 "--cache", str(cache)]) == 0
    records, blame, fingerprint = load_cache(cache)
    assert {r.commit.hash for r in records} == {first}
    assert blame.revision == first
    assert fingerprint.endswith("@" + first)


def test_ingest_twice_writes_identical_data_files(repo_factory, tmp_path):
    repo = repo_factory()
    repo.write("a.txt", "one\ntwo\n")
    repo.write("b.txt", "three\n")
    repo.commit(ADA)
    repo.write("a.txt", "one\nzwei\n")
    repo.write("b.txt", "three\nfour\n")
    repo.commit(BERT)
    repo.write("c.txt", "five\n")
    repo.commit(CLEO)
    caches = [tmp_path / "one", tmp_path / "two"]
    for cache in caches:
        assert main(["ingest", "--repo", str(repo.path),
                     "--cache", str(cache)]) == 0
    assert [p.name for p in caches[0].iterdir()] == ["cache.json"]
    assert ((caches[0] / "cache.json").read_bytes()
            == (caches[1] / "cache.json").read_bytes())
