"""Line owners replayed from the history pass, checked against `git blame`.

`ingest` takes each file's owners from the patches of its `git log -p`
pass and blames only the files whose replay it cannot prove. Each case
builds one small history, ingests it once and compares every file's
owners with the blame oracle; it also names the files that must still
be blamed one by one.
"""
from __future__ import annotations

import json
from collections import Counter

import pytest

from busfactor import (LineReplay, RawAuthor, extract_blame, extract_history,
                       load_cache)
from busfactor import gitrepo
from busfactor.cli import main
from busfactor.errors import UnsupportedCommit

from tests.conftest import ADA, BERT, CLEO, DMITRI
from tests.oracles import raw_blame


def linear(repo):
    """One line of commits: edits, a file with no final newline, CRLF
    lines, a deletion, and a change undone."""
    repo.write("a.txt", "one\ntwo\nthree\n")
    repo.write("nonl.txt", "x")
    repo.write_bytes("crlf.txt", b"p\r\nq\r\n")
    repo.write("gone.txt", "bye\n")
    repo.commit(ADA)
    repo.write("a.txt", "one\nTWO\nthree\nfour\n")
    repo.write("nonl.txt", "x\ny")
    repo.write_bytes("crlf.txt", b"p\r\nQ\r\nr\r\n")
    repo.commit(BERT)
    repo.write("a.txt", "one\ntwo\nthree\n")  # the first blob again
    repo.write("nonl.txt", "x\ny\n")
    repo.remove("gone.txt")
    repo.commit(CLEO)


def rename(repo):
    """`git mv`: blame follows the file to its old name."""
    repo.write("a.txt", "one\ntwo\nthree\n")
    repo.write("keep.txt", "k\n")
    repo.commit(ADA)
    repo.git("mv", "a.txt", "b.txt")
    repo.commit(BERT)
    repo.write("b.txt", "one\n2\nthree\n")
    repo.commit(CLEO)


def _fork(repo):
    repo.write("f.txt", "1\n2\n3\n4\n5\n")
    repo.write("g.txt", "g\n")
    repo.write("h.txt", "h\n")
    repo.commit(ADA)
    repo.git("checkout", "-q", "-b", "side")


def side_branch(repo):
    """Both branches change f.txt; only the side branch changes g.txt."""
    _fork(repo)
    repo.write("f.txt", "one\n2\n3\n4\n5\n")
    repo.write("g.txt", "g\nG\n")
    repo.commit(BERT)
    repo.git("checkout", "-q", "main")
    repo.write("f.txt", "1\n2\n3\n4\nfive\n")
    repo.commit(CLEO)
    repo.merge_branch("side", DMITRI)


def evil_merge(repo):
    """Main deletes a line of f.txt; the merge commit restores it from
    the side branch, which did not change f.txt, and changes another."""
    _fork(repo)
    repo.write("g.txt", "g\nG\n")
    repo.commit(BERT)
    repo.git("checkout", "-q", "main")
    repo.write("f.txt", "1\n3\n4\n5\n")
    repo.commit(CLEO)
    repo.git("merge", "-q", "--no-ff", "--no-commit", "side")
    repo.write("f.txt", "1\n2\nthree\n4\n5\n")
    repo.commit(DMITRI)


def evil_merge_of_a_branch_ahead(repo):
    """Main does not move after the fork; the merge commit, which the
    log leaves out, changes f.txt. The logged commits are one line, but
    it ends before the revision."""
    _fork(repo)
    repo.write("g.txt", "g\nG\n")
    repo.commit(BERT)
    repo.git("checkout", "-q", "main")
    repo.git("merge", "-q", "--no-ff", "--no-commit", "side")
    repo.write("f.txt", "1\n2\nthree\n4\n5\n")
    repo.commit(DMITRI)


def undone_on_a_branch(repo):
    """A side branch changes f.txt and changes it back, main changes it
    after the fork: each pre-image matches the post-image before it in
    the log, but blame never meets the side branch's diffs."""
    _fork(repo)
    repo.write("f.txt", "1\nB\n3\n4\n5\n")
    repo.commit(BERT)
    repo.write("f.txt", "1\n2\n3\n4\n5\n")
    repo.commit(CLEO)
    repo.git("checkout", "-q", "main")
    repo.write("f.txt", "1\n2\n3\n4\nE\n")
    repo.commit(DMITRI)
    repo.merge_branch("side", ADA)


def resolved_again_on_a_branch(repo):
    """A merge resolves f.txt to a new blob and a later side-branch
    commit makes the same blob. The log leaves the merge out, so the
    side branch's diffs chain from the first blob to the last one
    unbroken, while blame credits the merge's lines to the merge."""
    repo.write("f.txt", "1\n2\n3\n")
    repo.write("g.txt", "g\n")
    repo.commit(ADA)
    repo.git("checkout", "-q", "-b", "side")
    repo.write("f.txt", "1\nB\n3\n")
    repo.commit(BERT)
    repo.git("checkout", "-q", "main")
    repo.write("g.txt", "g\nG\n")
    repo.commit(CLEO)
    repo.git("merge", "-q", "--no-ff", "--no-commit", "side")
    repo.write("f.txt", "1\nX\n3\nY\n")
    repo.commit(DMITRI)
    repo.git("checkout", "-q", "side")
    repo.write("f.txt", "1\nX\n3\nY\n")
    repo.commit(ADA)
    repo.git("checkout", "-q", "main")
    repo.merge_branch("side", BERT)


def deleted_then_added(repo):
    repo.write("f.txt", "a\nb\n")
    repo.commit(ADA)
    repo.remove("f.txt")
    repo.commit(BERT)
    repo.write("f.txt", "a\nb\n")
    repo.commit(CLEO)
    repo.write("f.txt", "a\nB\n")
    repo.commit(DMITRI)


def binary_then_text(repo):
    repo.write_bytes("f.dat", b"\x00\x01\x02")
    repo.write("t.txt", "t\n")
    repo.commit(ADA)
    repo.write("f.dat", "t1\nt2\n")
    repo.commit(BERT)
    repo.write("f.dat", "t1\nT2\n")
    repo.commit(CLEO)


# case -> history, ingest flags, the files `git blame` must still run on
FORKED = ["f.txt", "g.txt", "h.txt"]
CASES = {
    "linear": (linear, (), []),
    "rename": (rename, (), ["b.txt"]),
    # a history that is not one line of commits replays nothing
    "side-branch": (side_branch, (), FORKED),
    "evil-merge": (evil_merge, (), FORKED),
    "evil-merge-of-a-branch-ahead": (evil_merge_of_a_branch_ahead, (),
                                     FORKED),
    "undone-on-a-branch": (undone_on_a_branch, (), FORKED),
    "resolved-again-on-a-branch": (resolved_again_on_a_branch, (),
                                   ["f.txt", "g.txt"]),
    "deleted-then-added": (deleted_then_added, (), []),
    "binary-then-text": (binary_then_text, (), ["f.dat"]),
    "include-merges": (side_branch, ("--include-merges",), FORKED),
    "include-merges-evil": (evil_merge, ("--include-merges",), FORKED),
}


def _owners(owners) -> Counter:
    return Counter({(a.name, a.email): n for a, n in owners.items()})


def ingest_counting_blame(repo, cache, monkeypatch, *flags):
    """Ingest a repository; returns the cached blame and the paths that
    `git blame` ran on."""
    blamed = []
    blame_file = gitrepo._blame_file

    def counted(repo_path, revision, path):
        blamed.append(path)
        return blame_file(repo_path, revision, path)
    monkeypatch.setattr(gitrepo, "_blame_file", counted)
    assert main(["ingest", "--repo", str(repo.path), "--cache", str(cache),
                 *flags]) == 0
    _, blame, _ = load_cache(cache)
    return blame, sorted(blamed)


@pytest.mark.parametrize("case", CASES)
def test_ingest_owners_equal_git_blame(case, repo_factory, tmp_path,
                                       monkeypatch):
    build, flags, unproven = CASES[case]
    repo = repo_factory()
    build(repo)
    blame, blamed = ingest_counting_blame(repo, tmp_path / "cache",
                                          monkeypatch, *flags)
    assert blamed == unproven
    head = repo.head()
    assert set(blame.files) == set(extract_blame(repo.path).files)
    for path, owners in blame.files.items():
        assert _owners(owners) == Counter(raw_blame(repo.path, head, path)), path


def test_mailmap_gives_history_and_blame_one_author(repo_factory, tmp_path,
                                                    monkeypatch, capsys):
    repo = repo_factory()
    repo.write(".mailmap", "Real Person <real@x.test> Old Name <old@x.test>\n")
    repo.write("a.txt", "one\ntwo\n")
    repo.commit(("Old Name", "old@x.test"))
    repo.write("a.txt", "one\nzwei\n")
    repo.commit(BERT)
    # Both passes read the working tree's .mailmap: the committed one,
    # then an uncommitted edit, moves their authors together.
    for name in ("Real Person", "New Name"):
        repo.write(".mailmap", f"{name} <real@x.test> Old Name <old@x.test>\n")
        real = RawAuthor(name, "real@x.test")
        records = list(extract_history(repo.path))
        assert {r.author for r in records} == {real, RawAuthor(*BERT)}
        blame, blamed = ingest_counting_blame(repo, tmp_path / name,
                                              monkeypatch)
        assert blamed == []
        assert blame.authors() == {real, RawAuthor(*BERT)}
        for path, owners in blame.files.items():
            assert _owners(owners) == Counter(raw_blame(repo.path, "HEAD",
                                                        path))
        capsys.readouterr()
        assert main(["cst", "--repo", str(repo.path), "--metric", "commits",
                     "--cst-metric", "mul-equal", "--format", "json"]) == 0
        cst = json.loads(capsys.readouterr().out)["knowledge_table"]
        assert main(["rig", "--repo", str(repo.path), "--exhaustive",
                     "--format", "json"]) == 0
        rig = json.loads(capsys.readouterr().out)["runs"][0]["bf_set"]
        assert {d["name"] for d in cst} == {name, BERT[0]}
        assert [d["name"] for d in rig] == [name]  # .mailmap is theirs


def test_history_and_blame_apply_no_textconv(repo_factory, tmp_path,
                                              monkeypatch):
    # The driver doubles every line that `git log -p` and `git blame` show.
    repo = repo_factory()
    repo.write(".gitattributes", "*.txt diff=twice\n")
    repo.git("config", "diff.twice.textconv", "sed p")
    repo.write("a.txt", "one\ntwo\n")
    repo.commit(ADA)
    repo.write("a.txt", "one\nzwei\nthree\n")
    repo.commit(BERT)
    assert "+zwei\n+zwei\n" in repo.git("log", "-p", "-1")
    assert [(r.path, r.lines_added, r.lines_deleted)
            for r in extract_history(repo.path)] == [
        (".gitattributes", 1, 0), ("a.txt", 2, 0), ("a.txt", 2, 1)]
    blame, blamed = ingest_counting_blame(repo, tmp_path / "cache",
                                          monkeypatch)
    assert blamed == []
    assert blame.files["a.txt"] == {RawAuthor(*ADA): 1, RawAuthor(*BERT): 2}
    assert extract_blame(repo.path).files["a.txt"] == blame.files["a.txt"]


def test_history_stopped_early_proves_nothing(repo_factory):
    repo = repo_factory()
    repo.write("a.txt", "a\n")
    repo.commit(ADA)
    repo.write("b.txt", "b\n")
    head = repo.commit(BERT)
    replay = LineReplay()
    list(extract_history(repo.path, replay=replay))
    assert set(replay.files) == {"a.txt", "b.txt"}
    everything = extract_blame(repo.path, head, replay=replay)
    # The next pass, with the same replay, stops at a commit that no
    # record can hold, while git is still writing the long file after it.
    line = "a line long enough that 5,000 of them fill a pipe\n"
    repo.import_commits([("<> 1600000000 +0000", {"a.txt": "a\nz\n"}),
                         ("Cleo Vian <cleo@fixture.test> 1600000100 +0000",
                          {"c.txt": line * 5000})])
    with pytest.raises(UnsupportedCommit):
        extract_history(repo.path, replay=replay)
    assert replay.revision is None and replay.files == {}
    assert (extract_blame(repo.path, head, replay=replay) == everything
            == extract_blame(repo.path, head))


def test_history_without_a_replay_tracks_no_owners(repo_factory,
                                                    monkeypatch):
    repo = repo_factory()
    repo.write("a.txt", "a\n")
    repo.commit(ADA)
    repo.write("a.txt", "b\n")
    repo.commit(BERT)

    def tracked(*args):
        raise AssertionError("owners tracked without a replay")
    for name in ("_commit", "_section", "_finish"):
        monkeypatch.setattr(LineReplay, name, tracked)
    assert len(list(extract_history(repo.path))) == 2


def test_replay_of_another_revision_is_not_used(repo_factory, monkeypatch):
    repo = repo_factory()
    repo.write("a.txt", "a\nb\n")
    first = repo.commit(ADA)
    repo.write("a.txt", "a\nB\n")
    repo.commit(BERT)
    repo.write("a.txt", "a\nb\n")  # the blob at `first` again
    repo.commit(CLEO)
    replay = LineReplay()
    list(extract_history(repo.path, replay=replay))
    blamed = []
    blame_file = gitrepo._blame_file
    monkeypatch.setattr(gitrepo, "_blame_file",
                        lambda *a: blamed.append(a[2]) or blame_file(*a))
    snap = extract_blame(repo.path, first, replay=replay)
    assert blamed == ["a.txt"]
    assert snap.files == {"a.txt": {RawAuthor(*ADA): 2}}
