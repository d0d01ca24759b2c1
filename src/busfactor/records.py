"""Core value types produced by repository ingestion.

Everything here is immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Mapping


@dataclass(frozen=True, order=True)
class RawAuthor:
    """An author string pair exactly as git recorded it.

    Normalization and alias merging happen later, in the identity
    module; name and email are never both empty.
    """
    name: str
    email: str

    def __post_init__(self):
        if not self.name and not self.email:
            raise ValueError("author name and email are both empty")

    def __str__(self) -> str:
        return f"{self.name} <{self.email}>"


@dataclass(frozen=True)
class CommitMeta:
    """Commit-level metadata carried by every change record.

    `sequence` is the commit's position in the ingestion order
    (topological, author-date ordered, oldest first); it breaks
    timestamp ties deterministically.
    """
    hash: str
    author: RawAuthor
    author_timestamp: datetime
    is_merge: bool = False
    sequence: int = 0

    def __post_init__(self):
        if self.author_timestamp.tzinfo is None:
            object.__setattr__(
                self, "author_timestamp",
                self.author_timestamp.replace(tzinfo=timezone.utc))
        else:
            object.__setattr__(
                self, "author_timestamp",
                self.author_timestamp.astimezone(timezone.utc))


@dataclass(frozen=True)
class ChangeRecord:
    """One (commit, file) modification.

    `cos_distance` is the cosine distance between the multisets of
    alphanumeric tokens on this record's added and on its deleted
    lines (metrics.token_distance), computed once at ingestion.
    lines_added + lines_deleted is always >= 1; zero-change records
    are never emitted by ingestion.
    """
    commit: CommitMeta
    path: str
    lines_added: int
    lines_deleted: int
    cos_distance: float

    @property
    def author(self) -> RawAuthor:
        return self.commit.author

    def sort_key(self):
        """Chronological ordering key (author date, ingestion order, hash)."""
        return (self.commit.author_timestamp, self.commit.sequence, self.commit.hash)


@dataclass(frozen=True)
class BlameSnapshot:
    """Line ownership of every text file at one revision.

    `files` maps a repo-relative path to the number of its lines each
    author owns; the counts of a file sum to its line count at
    `revision`, and each is at least 1. Files with zero lines are not
    listed.
    """
    revision: str
    files: Mapping[str, Mapping[RawAuthor, int]]

    def __post_init__(self):
        for path, owners in self.files.items():
            for author, lines in owners.items():
                if lines < 1:
                    raise ValueError(f"{path!r}: {author} owns {lines} "
                                     "lines; a count must be at least 1")

    def authors(self) -> set[RawAuthor]:
        """Every author attributed at least one line."""
        seen: set[RawAuthor] = set()
        for owners in self.files.values():
            seen.update(owners)
        return seen
