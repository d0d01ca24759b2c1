"""Core value types produced by repository ingestion, and `Value`, the
immutable base that every record, configuration and result in the
package derives from.

Everything here is immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field accessor
from datetime import datetime, timezone
from typing import Mapping


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
