"""Core value types produced by repository ingestion, and `Value`, the
immutable base that every record, configuration and result in the
package derives from; and RecordColumns, the same records as columns.

Everything here is immutable after construction and safe to share
across threads. RecordColumns decodes some columns on first use; two
threads that race to do so compute equal lists.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter, _tuplegetter  # namedtuple's accessor
from datetime import datetime, timezone
from itertools import repeat
from typing import Iterable, Mapping, Sequence


def _comparison(symbol: str, compare):
    """An ordering method of Value. Against a plain tuple it raises
    rather than return NotImplemented, because tuple's reflected
    method would then order the value as a tuple."""
    def method(self, other):
        if type(other) is type(self) and self._ordered:
            return compare(self, other)
        if isinstance(other, tuple):
            raise TypeError(f"'{symbol}' not supported between instances "
                            f"of {type(self).__name__!r} and "
                            f"{type(other).__name__!r}")
        return NotImplemented
    return method


class Value(tuple):
    """An immutable value with named fields.

    A subclass declares its fields as annotated class attributes, in
    order; a field given a value in the class body is optional, with
    that value as its default. Instances are built by position or by
    keyword and keep the value contract:
    - fields cannot be set or deleted, and no attribute can be added;
    - a value equals only a value of the same class with equal fields,
      never a plain tuple, and hashes like its fields (so a value
      holding a dict is unhashable);
    - values are unordered, unless the class is declared with
      `order=True`, which orders them by their fields in order;
    - `repr` is `ClassName(field=value, ...)`;
    - `replace(**changes)` builds a new value through the same checks.

    A subclass checks or normalizes a new instance by overriding
    `_checked`. `_make(fields)` builds a value from all its field
    values, in order, with neither defaults nor checks; it is for input
    the package wrote itself, such as the cache's change records.
    Values are tuples underneath, so building one costs one tuple, and
    fields are read through the accessor namedtuple uses.
    """
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _ordered = False

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {}
        cls._ordered = order
        for index, name in enumerate(cls._fields):
            if name in cls.__dict__:
                cls._defaults[name] = cls.__dict__[name]
            elif cls._defaults:
                raise TypeError(f"{cls.__name__}: field {name!r} without a "
                                "default follows a field with one")
            setattr(cls, name, _tuplegetter(index, None))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        return tuple.__new__(cls, args)._checked()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order from constructor arguments and defaults."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            problem = ("got multiple values for" if name in cls._fields
                       else "got an unexpected keyword")
            raise TypeError(f"{cls.__name__}() {problem} argument {name!r}")
        return values

    _make = classmethod(tuple.__new__)

    def _checked(self):
        """Check a new instance; return it, or a normalized replacement."""
        return self

    def replace(self, **changes):
        """A copy with `changes` applied, checked as a new value is."""
        return type(self)(**dict(zip(self._fields, self), **changes))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        # False, not NotImplemented, for other tuples: tuple's reflected
        # __eq__ would compare the fields and find them equal.
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__
    __lt__ = _comparison("<", tuple.__lt__)
    __le__ = _comparison("<=", tuple.__le__)
    __gt__ = _comparison(">", tuple.__gt__)
    __ge__ = _comparison(">=", tuple.__ge__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(self)


class RawAuthor(Value, order=True):
    """An author string pair exactly as git recorded it.

    Normalization and alias merging happen later, in the identity
    module; name and email are never both empty.
    """
    name: str
    email: str

    def _checked(self):
        if not self.name and not self.email:
            raise ValueError("author name and email are both empty")
        return self

    def __str__(self) -> str:
        return f"{self.name} <{self.email}>"


class CommitMeta(Value):
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

    def _checked(self):
        stamp = self.author_timestamp
        if stamp.tzinfo is None:
            return self.replace(author_timestamp=stamp.replace(
                tzinfo=timezone.utc))
        if stamp.tzinfo is not timezone.utc:
            return self.replace(author_timestamp=stamp.astimezone(
                timezone.utc))
        return self


class ChangeRecord(Value):
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


class RecordColumns:
    """Change records as columns over three tables, the form in which
    the cache stores them and the cst engine reads them.

    `authors` and `paths` hold each distinct author and path once. The
    commit columns (`commit_author`, `merges`, `sequences`, `hashes` and
    `stamps`) hold one entry per distinct commit, and `commit_author`
    indexes `authors`. The record columns (`commit`, `path`, `added`,
    `deleted` and `cos`) hold one entry per record, in record order, and
    `commit` and `path` index the commit columns and `paths`. Every
    index is in range. `len` is the number of records.

    A cache stores hashes as raw bytes and author dates as whole seconds
    since 1970. Columns read from it decode `hashes` and `stamps` only
    when they are first asked for.
    """
    __slots__ = ("authors", "paths", "commit_author", "merges", "sequences",
                 "commit", "path", "added", "deleted", "cos",
                 "_hashes", "_packed", "_stamps", "_epochs")

    def __init__(self, authors: Sequence[RawAuthor], paths: Sequence[str],
                 commit_author: Sequence[int], merges: Sequence[bool],
                 sequences: Sequence[int], commit: Sequence[int],
                 path: Sequence[int], added: Sequence[int],
                 deleted: Sequence[int], cos: Sequence[float], *,
                 hashes: Sequence[str] | None = None, packed: bytes = b"",
                 stamps: Sequence[datetime] | None = None,
                 epochs: Sequence[int] | None = None) -> None:
        """Each commit's hash comes as hex (`hashes`) or as raw bytes,
        the same number per commit (`packed`), and its author date as a
        UTC datetime (`stamps`) or as whole seconds (`epochs`)."""
        self.authors, self.paths = authors, paths
        self.commit_author, self.merges = commit_author, merges
        self.sequences, self.commit, self.path = sequences, commit, path
        self.added, self.deleted, self.cos = added, deleted, cos
        self._hashes, self._packed = hashes, packed
        self._stamps, self._epochs = stamps, epochs

    def __len__(self) -> int:
        return len(self.commit)

    @property
    def hashes(self) -> Sequence[str]:
        if self._hashes is None:
            text, count = self._packed.hex(), len(self.commit_author)
            step = len(text) // count if count else 1
            self._hashes = [text[i:i + step]
                            for i in range(0, len(text), step)]
        return self._hashes

    @property
    def stamps(self) -> Sequence[datetime]:
        if self._stamps is None:
            self._stamps = list(map(datetime.fromtimestamp, self._epochs,
                                    repeat(timezone.utc)))
        return self._stamps

    @property
    def epochs(self) -> Sequence[int]:
        """Author dates as whole seconds since 1970, as a cache stores
        them."""
        if self._epochs is None:
            self._epochs = [int(stamp.timestamp()) for stamp in self._stamps]
        return self._epochs

    @property
    def years(self) -> list[int]:
        """Each commit's author year, in UTC. Whole seconds are placed
        between the first seconds of the years they span, so that no
        date is decoded."""
        if self._stamps is not None or not self._epochs:
            return [stamp.year for stamp in self.stamps]
        first, last = (datetime.fromtimestamp(epoch, timezone.utc).year
                       for epoch in (min(self._epochs), max(self._epochs)))
        starts = [int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
                  for year in range(first + 1, last + 1)]
        return list(map(first.__add__,
                        map(bisect_right, repeat(starts), self._epochs)))

    @property
    def date_keys(self) -> Sequence:
        """Per commit, values that order commits as their author dates
        do: the dates, or the whole seconds that columns read from a
        cache hold, which decode to them."""
        return self._epochs if self._stamps is None else self._stamps

    @classmethod
    def from_records(cls, records: Iterable[ChangeRecord]) -> "RecordColumns":
        """Columns of records: tables in order of first appearance, and
        one commit per distinct CommitMeta value."""
        metas, paths, added, deleted, cos = (
            tuple(zip(*records)) or ((),) * len(ChangeRecord._fields))
        commits = _first_seen(metas)
        path_index = _first_seen(paths)
        hashes, authors, stamps, merges, sequences = (
            tuple(zip(*commits)) or ((),) * len(CommitMeta._fields))
        author_index = _first_seen(authors)
        return cls(list(author_index), list(path_index),
                   list(map(author_index.__getitem__, authors)),
                   merges, sequences,
                   list(map(commits.__getitem__, metas)),
                   list(map(path_index.__getitem__, paths)),
                   added, deleted, cos, hashes=hashes, stamps=stamps)

    def records(self) -> list[ChangeRecord]:
        """The records, each commit's CommitMeta shared by its records
        and each author's RawAuthor by their commits."""
        # CommitMeta and ChangeRecord would only check what the package
        # wrote itself (UTC author dates, five fields in order), so both
        # skip their checked constructors.
        commits = list(map(CommitMeta._make, zip(
            self.hashes, map(self.authors.__getitem__, self.commit_author),
            self.stamps, map(bool, self.merges), self.sequences)))
        return list(map(ChangeRecord._make, zip(
            map(commits.__getitem__, self.commit),
            map(self.paths.__getitem__, self.path),
            self.added, self.deleted, self.cos)))

    def author_counts(self) -> Counter[RawAuthor]:
        """Records per author, as `Counter(r.author for r in records)`
        counts them."""
        counts: Counter[RawAuthor] = Counter()
        for author, n in Counter(map(self.commit_author.__getitem__,
                                     self.commit)).items():
            counts[self.authors[author]] += n
        return counts


def _first_seen(items: Iterable) -> dict:
    """Each distinct item mapped to the order of its first appearance."""
    return {item: index for index, item in enumerate(dict.fromkeys(items))}


class BlameSnapshot(Value):
    """Line ownership of every text file at one revision.

    `files` maps a repo-relative path to the number of its lines each
    author owns; the counts of a file sum to its line count at
    `revision`, and each is at least 1. Files with zero lines are not
    listed.
    """
    revision: str
    files: Mapping[str, Mapping[RawAuthor, int]]

    def _checked(self):
        for path, owners in self.files.items():
            for author, lines in owners.items():
                if lines < 1:
                    raise ValueError(f"{path!r}: {author} owns {lines} "
                                     "lines; a count must be at least 1")
        return self

    def authors(self) -> set[RawAuthor]:
        """Every author attributed at least one line."""
        seen: set[RawAuthor] = set()
        for owners in self.files.values():
            seen.update(owners)
        return seen
