"""Core value types produced by repository ingestion, and `Value`, the
immutable base that every record, configuration and result in the
package derives from; RecordColumns, the same records as columns; and
the path rule (`paths_in`) that decides which files an analysis reads,
with `filter_snapshot`, which applies it to a BlameSnapshot.

Everything here is immutable after construction and safe to share
across threads. RecordColumns decodes its hashes on first use; two
threads that race to do so compute equal lists.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter, _tuplegetter  # namedtuple's accessor
from datetime import datetime, timedelta, timezone
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InvalidGlob


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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def to_instant(stamp: datetime) -> int:
    """A datetime as whole microseconds since 1970 UTC, the form of
    RecordColumns.instants: exact in years 1-9999, and ordered as the
    datetimes are. A naive datetime is read as UTC, as CommitMeta reads
    an author date."""
    return (stamp.replace(tzinfo=stamp.tzinfo or timezone.utc)
            - _EPOCH) // _MICROSECOND


# The instants of years 1-9999, from the first datetime's to the last's
INSTANTS = range(to_instant(datetime.min), to_instant(datetime.max) + 1)


class RecordColumns:
    """Change records as columns over three tables, the form in which
    the history pass builds them, the cache stores them and the cst
    engine reads them. Iterating them gives the records (`records()`).

    `authors` and `paths` hold each distinct author and path once. The
    commit columns (`commit_author`, `instants`, `merges`, `sequences`
    and `hashes`) hold one entry per distinct commit, and
    `commit_author` indexes `authors`. `instants` holds each commit's
    author date as `to_instant` gives it, which windows, years and
    commit order read as it is. The record columns (`commit`, `path`,
    `added`, `deleted` and `cos`) hold one entry per record, in record
    order, and `commit` and `path` index the commit columns and
    `paths`. Every index is in range. `len` is the number of records.

    A cache stores hashes as raw bytes, which columns read from it
    decode to hex only when `hashes` is first asked for.
    """
    __slots__ = ("authors", "paths", "commit_author", "instants", "merges",
                 "sequences", "commit", "path", "added", "deleted", "cos",
                 "_hashes", "_packed")

    def __init__(self, authors: Sequence[RawAuthor], paths: Sequence[str],
                 commit_author: Sequence[int], instants: Sequence[int],
                 merges: Sequence[bool], sequences: Sequence[int],
                 commit: Sequence[int], path: Sequence[int],
                 added: Sequence[int], deleted: Sequence[int],
                 cos: Sequence[float], *,
                 hashes: Sequence[str] | None = None,
                 packed: bytes = b"") -> None:
        """Each commit's hash comes as hex (`hashes`) or as raw bytes,
        the same number per commit (`packed`)."""
        self.authors, self.paths = authors, paths
        self.commit_author, self.instants = commit_author, instants
        self.merges, self.sequences = merges, sequences
        self.commit, self.path = commit, path
        self.added, self.deleted, self.cos = added, deleted, cos
        self._hashes, self._packed = hashes, packed

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
    def years(self) -> list[int]:
        """Each commit's author year, in UTC: its instant placed between
        the first instants of the years the column spans, so that no
        date is decoded."""
        first, last = ((_EPOCH + instant * _MICROSECOND).year for instant in
                       (min(self.instants, default=0),
                        max(self.instants, default=0)))
        starts = [to_instant(datetime(year, 1, 1, tzinfo=timezone.utc))
                  for year in range(first + 1, last + 1)]
        return list(map(first.__add__,
                        map(bisect_right, repeat(starts), self.instants)))

    @classmethod
    def from_records(cls, records: Iterable[ChangeRecord]) -> "RecordColumns":
        """Columns of records: tables in order of first appearance, and
        one commit per distinct CommitMeta value. Columns come back as
        they are."""
        if isinstance(records, RecordColumns):
            return records
        metas, paths, added, deleted, cos = (
            tuple(zip(*records)) or ((),) * len(ChangeRecord._fields))
        commits = _first_seen(metas)
        path_index = _first_seen(paths)
        hashes, authors, stamps, merges, sequences = (
            tuple(zip(*commits)) or ((),) * len(CommitMeta._fields))
        author_index = _first_seen(authors)
        return cls(list(author_index), list(path_index),
                   list(map(author_index.__getitem__, authors)),
                   list(map(to_instant, stamps)), merges, sequences,
                   list(map(commits.__getitem__, metas)),
                   list(map(path_index.__getitem__, paths)),
                   added, deleted, cos, hashes=hashes)

    def records(self) -> list[ChangeRecord]:
        """The records, each commit's CommitMeta shared by its records
        and each author's RawAuthor by their commits."""
        # CommitMeta and ChangeRecord would only check what the package
        # wrote itself (UTC author dates, five fields in order), so both
        # skip their checked constructors.
        stamps = map(_EPOCH.__add__, map(_MICROSECOND.__mul__, self.instants))
        commits = list(map(CommitMeta._make, zip(
            self.hashes, map(self.authors.__getitem__, self.commit_author),
            stamps, map(bool, self.merges), self.sequences)))
        return list(map(ChangeRecord._make, zip(
            map(commits.__getitem__, self.commit),
            map(self.paths.__getitem__, self.path),
            self.added, self.deleted, self.cos)))

    def __iter__(self) -> Iterator[ChangeRecord]:
        return iter(self.records())

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


# --- path filtering ---

# One token of a path glob: "**/", "**", "*", "?", a character class,
# or any other character. A "]" right after "[" or a negating "!" or "^"
# is a member; a class without its closing "]" is unterminated.
_GLOB_TOKEN = r"(?s)\*\*/|\*\*|\*|\?|\[([!^]?)(\]?[^\]]*)(\]?)|."
# `*` and `?` do not cross `/`; `**` spans directories, and `**/` also
# matches zero directories.
_WILDCARDS = {"**/": r"(?:.*/)?", "**": r".*", "*": r"[^/]*", "?": r"[^/]"}
# A member of a class, or a range of two, as `re` reads a class
_CLASS_ITEM = r"(?s)(.)(?:-(.))?"


def _drop_leading_dots(path: str) -> str:
    """A path without its leading `/` and `./` segments."""
    path = path.lstrip("/")
    while path.startswith("./"):
        path = path[2:].lstrip("/")
    return path


def _glob_to_regex(pattern: str) -> re.Pattern:
    """Translate a path glob to a regex; a leading `/` or `./` is dropped."""
    if not pattern or pattern.isspace():
        raise InvalidGlob("empty pattern")
    pattern = _drop_leading_dots(pattern)
    out = []
    for token in re.finditer(_GLOB_TOKEN, pattern):
        text, negate, members, close = token.group(0, 1, 2, 3)
        if text in _WILDCARDS:
            out.append(_WILDCARDS[text])
        elif members is not None:
            if not close:
                raise InvalidGlob(
                    f"unterminated character class in {pattern!r}")
            # "!" or "^" negates. Each member is escaped, so that a
            # backslash, "[", "&&" or "--" means only itself to `re`.
            body = "".join(re.escape(lo) + ("-" + re.escape(hi) if hi else "")
                           for lo, hi in re.findall(_CLASS_ITEM, members))
            if members.startswith("]"):  # a member to `re` as written
                body = body[1:]
            out.append("[" + "^" * len(negate) + body + "]")
        else:
            out.append(re.escape(text))
    try:
        return re.compile("^" + "".join(out) + "$")
    except re.error as exc:
        raise InvalidGlob(f"cannot compile pattern {pattern!r}: {exc}")


def normalize_scope(scope: str | None) -> str:
    """A directory scope as a bare repo-relative path; "" is the whole tree.

    "./src/", "/src" and "src" all name "src"; ".", "./" and "/" name
    the whole tree.
    """
    cleaned = _drop_leading_dots((scope or "").rstrip("/"))
    return "" if cleaned == "." else cleaned


def paths_in(scope: str | None = None,
             exclude_globs: Iterable[str] = ()) -> Callable[[str], bool]:
    """The one rule of which paths are analysed: whether a path lies in
    a directory scope (any spelling `normalize_scope` takes) and matches
    none of the exclusion globs. Raises InvalidGlob for a bad glob."""
    scope = normalize_scope(scope)
    prefix = scope + "/"
    excluded = [_glob_to_regex(pattern) for pattern in exclude_globs]

    def analysed(path: str) -> bool:
        return ((not scope or path == scope or path.startswith(prefix))
                and not (excluded and any(rx.match(path) for rx in excluded)))
    return analysed


def filter_snapshot(blame: BlameSnapshot, scope: str | None = None,
                    exclude_globs: Sequence[str] = ()) -> BlameSnapshot:
    """Restrict a blame snapshot to a directory prefix minus exclusions."""
    analysed = paths_in(scope, exclude_globs)
    return blame.replace(files={path: lines for path, lines
                                in blame.files.items() if analysed(path)})
