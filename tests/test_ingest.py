"""History extraction, blame, globbing and the path filters."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from pathlib import Path

import pytest

from busfactor import (BlameSnapshot, LineReplay, RawAuthor, extract_blame,
                       extract_history, filter_records, filter_snapshot,
                       load_cache, paths_in, repo_fingerprint,
                       resolve_revision, save_cache, token_distance,
                       tokenize)
from busfactor import cli, gitrepo, records
from busfactor.cli import main
from busfactor.errors import (EmptyRepository, GitInvocationFailure,
                              InvalidGlob, NotARepository, UnknownRevision,
                              UnsupportedCommit)

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


def test_history_columns_are_those_of_its_records(repo_factory, tmp_path):
    # A commit that gives no record numbers no author and keeps its
    # place in commit order, so the columns, and the cache, are those
    # that the records give.
    repo = repo_factory()
    repo.write_bytes("blob.bin", bytes(range(256)))
    repo.commit(BERT)
    repo.write("a.txt", "one\n")
    repo.commit(ADA)
    repo.write("b.txt", "two\n")
    repo.commit(BERT)
    columns = extract_history(repo.path)
    assert columns.authors == [RawAuthor(*ADA), RawAuthor(*BERT)]
    assert list(columns.sequences) == [1, 2]
    for name, records in (("columns", columns), ("records", list(columns))):
        save_cache(records, None, "fixture@0", tmp_path / name)
    assert ((tmp_path / "columns" / "cache.json").read_bytes()
            == (tmp_path / "records" / "cache.json").read_bytes())


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


# Before and after an edit that the indent heuristic places elsewhere
# in the file, and a third version that changes the second line.
SLID = ("}\nif a:\n  y\n{\n}\n}\n  y\n",
        "}\nif a:\n  y\nend\nif a:\n  y\n{\n}\n}\n  y\n",
        "}\nif b:\n  y\nend\nif a:\n  y\n{\n}\n}\n  y\n")


@pytest.mark.parametrize("key, value", [("diff.noprefix", "true"),
                                        ("color.ui", "always"),
                                        ("diff.algorithm", "histogram"),
                                        ("diff.indentHeuristic", "false"),
                                        ("diff.interHunkContext", "1"),
                                        ("diff.orderFile", ".git/order")])
def test_history_ignores_diff_config(repo_factory, key, value):
    repo = repo_factory()
    repo.write("b/x.txt", "one\n")
    repo.write("y.txt", "two\n")
    repo.write("z.txt", "c\nb\nb\na\n")
    repo.write("w.txt", SLID[0])
    repo.write("v.txt", "1\n2\n3\n")
    repo.commit(ADA)
    repo.write("b/x.txt", "one\nthree\n")
    repo.write("z.txt", "b\nb\nb\nc\n")  # myers: 2 lines each way
    repo.write("w.txt", SLID[1])
    repo.write("v.txt", "one\n2\nthree\n")  # two hunks, one line apart
    repo.commit(BERT)

    def history():
        replay = LineReplay()
        records = list(extract_history(repo.path, replay=replay))
        return records, replay.files
    expected = history()
    assert [(r.path, r.lines_added, r.lines_deleted)
            for r in expected[0]] == [
        ("b/x.txt", 1, 0), ("v.txt", 3, 0), ("w.txt", 7, 0), ("y.txt", 1, 0),
        ("z.txt", 4, 0), ("b/x.txt", 1, 0), ("v.txt", 2, 2), ("w.txt", 3, 0),
        ("z.txt", 2, 2)]
    patches = repo.git("log", "-p", "-U0")
    (repo.path / ".git" / "order").write_text("z*\n")  # for diff.orderFile
    repo.git("config", key, value)
    assert repo.git("log", "-p", "-U0") != patches  # the setting reaches git
    assert history() == expected


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


def test_inherited_repository_variables_are_ignored(two_dev_repo,
                                                   repo_factory, monkeypatch):
    # As inside a git hook of another repository.
    local = subprocess.run(["git", "rev-parse", "--local-env-vars"],
                           capture_output=True, text=True, check=True)
    other = repo_factory()
    other.write("other.txt", "x\ny\n")
    other.commit(CLEO)
    other.git("remote", "add", "origin", "https://example.invalid/other.git")
    path = two_dev_repo.path

    def results():
        head = resolve_revision(path, "HEAD")
        return (head, list(extract_history(path)), extract_blame(path),
                repo_fingerprint(path, head))
    expected = results()
    git_dir = other.path / ".git"
    for name, value in (("GIT_DIR", git_dir), ("GIT_WORK_TREE", other.path),
                        ("GIT_INDEX_FILE", git_dir / "index"),
                        ("GIT_OBJECT_DIRECTORY", git_dir / "objects")):
        monkeypatch.setenv(name, str(value))
    assert results() == expected
    assert set(local.stdout.split()) <= gitrepo._REPOSITORY_VARS


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


def test_blame_ignores_diff_config(repo_factory):
    repo = repo_factory()
    for text, author in zip(SLID, (ADA, BERT, CLEO)):
        repo.write("w.txt", text)
        repo.commit(author)
    expected = extract_blame(repo.path)
    assert expected.files["w.txt"] == {
        RawAuthor(*ADA): 7, RawAuthor(*BERT): 2, RawAuthor(*CLEO): 1}
    repo.git("config", "diff.indentHeuristic", "false")
    assert Counter(raw_blame(repo.path, "HEAD", "w.txt")) == {
        ADA: 6, BERT: 3, CLEO: 1}
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
    # nothing blame-able in scope is an empty snapshot, not an error
    assert extract_blame(repo.path, path_filter="src/") == BlameSnapshot(
        revision=repo.head(), files={})
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


# Names git C-quotes in a diff header: each escape of its table, '"',
# "\\", octal control bytes, and a raw non-ASCII letter beside them.
C_QUOTED_NAMES = ("tab\there.txt", "new\nline.txt", 'say "hi".txt',
                  "back\\slash.txt", "ctrl\x01.txt", "del\x7f.txt",
                  "esc\x1b[31m.txt", "caf\u00e9\t.txt", "bell\a\b\v\f.txt")


def test_quoted_names_unquote_without_ast(repo_factory):
    repo = repo_factory()
    for name in C_QUOTED_NAMES:
        repo.write(name, "one line\n")
    repo.commit(ADA)
    code = ("import json, sys\n"
            "from busfactor.gitrepo import extract_history\n"
            "paths = [r.path for r in extract_history(sys.argv[1])]\n"
            "print(json.dumps([paths, 'ast' in sys.modules]))\n")
    src = str(Path(gitrepo.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, str(repo.path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    paths, ast_loaded = json.loads(proc.stdout)
    assert sorted(paths) == sorted(C_QUOTED_NAMES)
    assert not ast_loaded


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
    replay = LineReplay()
    list(extract_history(repo.path, replay=replay))
    assert set(replay.files) == {"a.txt"}
    assert extract_blame(repo.path, replay=replay) == snap


def test_ingest_of_a_sha256_repository_loads_back(tmp_path):
    # 64-digit hashes are stored as 32 bytes each in the cache
    path = tmp_path / "sha256"
    if subprocess.run(["git", "init", "-q", "--object-format=sha256",
                       str(path)], capture_output=True).returncode != 0:
        pytest.skip("this git cannot create a SHA-256 repository")
    repo = RepoBuilder(path)
    repo.write("a.txt", "one\ntwo\n")
    repo.commit(ADA)
    repo.write("a.txt", "one\nzwei\n")
    repo.write("b.txt", "three\n")
    repo.commit(BERT)
    cache = tmp_path / "cache"
    assert main(["ingest", "--repo", str(repo.path),
                 "--cache", str(cache)]) == 0
    columns, blame, fingerprint = load_cache(cache)
    records = columns.records()
    assert records == list(extract_history(repo.path))
    assert {len(r.commit.hash) for r in records} == {64}
    assert records[-1].commit.hash == repo.head()
    assert blame == extract_blame(repo.path)
    assert fingerprint.endswith("@" + repo.head())


def test_line_counts_match_worktree(two_dev_repo):
    snap = extract_blame(two_dev_repo.path)
    for path, owners in snap.files.items():
        text = (two_dev_repo.path / path).read_text(encoding="utf-8")
        assert sum(owners.values()) == text.count("\n")


# --- globs and filtering ------------------------------------------------

def test_glob_star_does_not_cross_directories():
    analysed = paths_in(exclude_globs=["src/*.py"])
    assert not analysed("src/a.py")
    assert analysed("src/sub/a.py")


def test_glob_double_star_spans_directories():
    analysed = paths_in(exclude_globs=["vendor/**"])
    assert not analysed("vendor/lib.c")
    assert not analysed("vendor/deep/nest/lib.c")
    assert analysed("src/vendor.c")


def test_glob_double_star_matches_zero_directories():
    analysed = paths_in(exclude_globs=["a/**/b.txt"])
    assert not analysed("a/b.txt")
    assert not analysed("a/x/b.txt")
    assert not analysed("a/x/y/b.txt")


def test_glob_question_mark_and_classes():
    analysed = paths_in(exclude_globs=["f?.t[xy]t"])
    assert not analysed("f1.txt")
    assert not analysed("f2.tyt")
    assert analysed("f12.txt")
    assert analysed("f1.tzt")


def test_invalid_glob_rejected():
    # empty or blank; a class left open, where a "]" right after "[",
    # "[!" or "[^" is a member; a class that is no valid range ("1--" runs
    # from "1" down to "-"), with no FutureWarning on the way
    for glob in ["", " ", "bad[range", "[", "[]", "[!]", "[!]*", "[z-a]",
                 "[^]", "[^]*", "s[1--]*", "src/s[1--]*"]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGlob):
                paths_in(exclude_globs=[glob])


# Each token kind of the translator and the regex it gives, pinned so
# that a rewrite of the translator keeps every one.
_GLOB_REGEXES = [
    ("src/*.py", r"^src/[^/]*\.py$"),
    ("**", r"^.*$"),
    ("**/", r"^(?:.*/)?$"),
    ("**/x.c", r"^(?:.*/)?x\.c$"),
    ("a/**/b", r"^a/(?:.*/)?b$"),
    ("a/**", r"^a/.*$"),
    ("***", r"^.*[^/]*$"),
    ("?.c", r"^[^/]\.c$"),
    ("[]a]", r"^[]a]$"),
    ("[]]", r"^[]]$"),
    ("[]!]", r"^[]!]$"),
    ("[!a]", r"^[^a]$"),
    ("[^a]", r"^[^a]$"),
    ("[a-z]*.md", r"^[a-z][^/]*\.md$"),
    ("[!0-9]x", r"^[^0-9]x$"),
    ("a\\b", r"^a\\b$"),
    ("[a\\]", r"^[a\\]$"),
    ("/vendor/**", r"^vendor/.*$"),
    ("./vendor/**", r"^vendor/.*$"),
    ("//a/*", r"^a/[^/]*$"),
    ("a b.txt", r"^a\ b\.txt$"),
    ("x-y.^$", r"^x\-y\.\^\$$"),
    ("[^]a]x", r"^[^]a]x$"),
    ("[^^a]", r"^[^\^a]$"),
    ("[[]x", r"^[\[]x$"),
    ("[a&&b]", r"^[a\&\&b]$"),
    ("[+--]", r"^[\+-\-]$"),
    ("[a-]", r"^[a\-]$"),
]


@pytest.mark.parametrize("glob, regex", _GLOB_REGEXES)
def test_glob_translation_is_pinned(glob, regex):
    assert records._glob_to_regex(glob).pattern == regex


# A "]" right after "[!" is a member of the class, as in fnmatch, so
# each of these globs holds one closed class.
@pytest.mark.parametrize("glob, regex, paths", [
    ("[!]a]x", r"^[^]a]x$", {"bx": True, "]x": False, "ax": False}),
    ("[!]]", r"^[^]]$", {"a": True, "]": False}),
    ("[!]-a]", r"^[^]-a]$", {"b": True, "-": True, "^": False, "]": False}),
])
def test_glob_bracket_after_negation_is_a_member(glob, regex, paths):
    import fnmatch
    compiled = records._glob_to_regex(glob)
    assert compiled.pattern == regex
    for path, matched in paths.items():
        assert bool(compiled.match(path)) is matched
        assert fnmatch.fnmatchcase(path, glob) is matched


# Members that `re` would read as its own set syntax ("[", "&&", "||",
# "~~", "--") are plain members of a glob class, with no FutureWarning.
@pytest.mark.parametrize("glob, paths", [
    ("[[]x", {"[x": True, "x": False, "[[x": False}),
    ("[a&&b]", {"a": True, "&": True, "b": True, "c": False}),
    ("[a||b]", {"|": True, "b": True, "c": False}),
    ("[a~~b]", {"~": True, "a": True, "c": False}),
    ("[!a&&b]", {"c": True, "&": False}),
    ("[+--]", {"+": True, ",": True, "-": True, "a": False}),
])
def test_glob_class_members_are_not_set_syntax(glob, paths):
    import fnmatch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analysed = paths_in(exclude_globs=[glob])
    for path, excluded in paths.items():
        assert analysed(path) is not excluded, path
        assert fnmatch.fnmatchcase(path, glob) is excluded, path


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
    # The parse stops at a commit that no record can hold. The files
    # after it are more than a pipe holds, so git is still writing.
    repo = repo_factory()
    repo.write("a.txt", "a\n")
    repo.commit(ADA)
    line = "a line long enough that 5,000 of them fill a pipe\n"
    hashes = repo.import_commits([
        ("<> 1600000000 +0000", {"a.txt": "a\nb\n"}),
        ("Bert Low <bert@fixture.test> 1600000100 +0000",
         {name: f"{name}: {line}" * 5000 for name in ("b.txt", "c.txt")})])
    real_popen = subprocess.Popen
    procs = []

    def popen(cmd, **kwargs):
        procs.append(real_popen(cmd, **kwargs))
        return procs[-1]
    monkeypatch.setattr(subprocess, "Popen", popen)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)

    with pytest.raises(UnsupportedCommit) as caught:
        extract_history(repo.path, hashes[-1])
    # reaped before the error returns, not once its traceback is freed
    assert [proc.returncode is not None for proc in procs] == [True]
    assert str(caught.value).startswith(f"commit {hashes[1]}: ")
    del caught
    assert unraisable == []


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
    # second rev-parse, and the empty tree's id is known without asking;
    # ingest takes a linear history's owners from the history pass
    assert count("ingest", "--cache", str(tmp_path / "cache")) == 4
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
