"""Shared test fixtures: scripted git repositories with pinned dates.

Every commit carries explicit author/committer dates so histories are
bit-reproducible; builders hand back commit hashes for later checks.
Every git process the tests start reads no system or global git
configuration and no inherited repository location.
"""
from __future__ import annotations

import os
import subprocess
from pathlib import Path

import pytest

from busfactor import RawAuthor

ADA = ("Ada Core", "ada@fixture.test")
BERT = ("Bert Low", "bert@fixture.test")
CLEO = ("Cleo Vian", "cleo@fixture.test")
DMITRI = ("Dmitri Usov", "dmitri@fixture.test")
EDNA = ("Edna Holt", "edna@fixture.test")

_BASE_DATE = "2021-01-01T00:00:00 +0000"


@pytest.fixture(scope="session", autouse=True)
def hermetic_git():
    """Keep the developer's git configuration out of the results, and a
    GIT_DIR or GIT_INDEX_FILE inherited from a git hook from sending the
    fixtures' commits into another repository."""
    local = subprocess.run(["git", "rev-parse", "--local-env-vars"],
                           capture_output=True, text=True, check=True)
    with pytest.MonkeyPatch.context() as patch:
        for name in local.stdout.split():
            patch.delenv(name, raising=False)
        patch.setenv("GIT_CONFIG_NOSYSTEM", "1")
        patch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
        yield


class RepoBuilder:
    """Drives a throwaway git repository from test code."""

    def __init__(self, path: Path):
        self.path = path
        path.mkdir(parents=True, exist_ok=True)
        self.git("init", "-q", "-b", "main", ".")
        self.git("config", "user.name", "fixture")
        self.git("config", "user.email", "fixture@invalid")
        self.git("config", "commit.gpgsign", "false")
        self._tick = 0

    def git(self, *args: str, env: dict | None = None) -> str:
        merged = dict(os.environ)
        if env:
            merged.update(env)
        proc = subprocess.run(["git", "-C", str(self.path), *args],
                              capture_output=True, text=True, env=merged)
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr}")
        return proc.stdout

    def write(self, rel: str, content: str) -> None:
        target = self.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")

    def write_bytes(self, rel: str, content: bytes) -> None:
        target = self.path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)

    def remove(self, rel: str) -> None:
        (self.path / rel).unlink()

    def next_date(self) -> str:
        """Strictly increasing hourly timestamps from a fixed origin."""
        self._tick += 1
        day, hour = divmod(self._tick, 24)
        return f"2021-01-{day + 1:02d}T{hour:02d}:00:00 +0000"

    def commit(self, author: tuple[str, str], message: str = "change",
               date: str | None = None) -> str:
        name, email = author
        stamp = date or self.next_date()
        self.git("add", "-A")
        self.git("commit", "-q", "--no-verify", "-m", message, env={
            "GIT_AUTHOR_NAME": name,
            "GIT_AUTHOR_EMAIL": email,
            "GIT_AUTHOR_DATE": stamp,
            "GIT_COMMITTER_NAME": name,
            "GIT_COMMITTER_EMAIL": email,
            "GIT_COMMITTER_DATE": stamp,
        })
        return self.git("rev-parse", "HEAD").strip()

    def merge_branch(self, branch: str, author: tuple[str, str],
                     date: str | None = None) -> str:
        name, email = author
        stamp = date or self.next_date()
        self.git("merge", "-q", "--no-ff", "--no-edit", branch, env={
            "GIT_AUTHOR_NAME": name,
            "GIT_AUTHOR_EMAIL": email,
            "GIT_AUTHOR_DATE": stamp,
            "GIT_COMMITTER_NAME": name,
            "GIT_COMMITTER_EMAIL": email,
            "GIT_COMMITTER_DATE": stamp,
        })
        return self.git("rev-parse", "HEAD").strip()

    def head(self) -> str:
        return self.git("rev-parse", "HEAD").strip()


@pytest.fixture
def repo_factory(tmp_path):
    """Callable producing fresh RepoBuilder instances under tmp_path."""
    counter = {"n": 0}

    def build(name: str | None = None) -> RepoBuilder:
        counter["n"] += 1
        return RepoBuilder(tmp_path / (name or f"repo{counter['n']}"))

    return build


@pytest.fixture(scope="session")
def two_dev_repo(tmp_path_factory) -> RepoBuilder:
    """Ada commits 3 times, Bert once, all on one file.

    Under commit counting or line counting the shares come out
    0.75/0.25, giving bus factor 2 at N=2.
    """
    repo = RepoBuilder(tmp_path_factory.mktemp("fixtures") / "two-dev")
    repo.write("story.txt", "alpha one\nbeta two\n")
    repo.commit(ADA)
    repo.write("story.txt", "alpha one\ngamma three\n")
    repo.commit(ADA)
    repo.write("story.txt", "alpha one\ngamma four\n")
    repo.commit(ADA)
    repo.write("story.txt", "alpha one\ndelta five\n")
    repo.commit(BERT)
    return repo


def author_of(pair: tuple[str, str]) -> RawAuthor:
    return RawAuthor(*pair)
