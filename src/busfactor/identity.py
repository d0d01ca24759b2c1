"""Alias resolution: collapse the many name/email pairs one person
leaves in a history into a single canonical developer identity.

Two raw authors merge when their normalized emails match, their
normalized names are similar enough (token-set ratio), or they share a
non-trivial email local part. Merging is closed transitively with a
union-find, so the result does not depend on comparison order.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Iterable, Mapping

from .errors import EmptyAuthorSet, UnknownAuthor
from .records import RawAuthor

_MIN_LOCAL_PART = 3  # local-part rule needs at least this many chars
_NAME_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
DEFAULT_SIMILARITY = 90


@dataclass(frozen=True)
class DeveloperId:
    """One person: a canonical pair plus every raw spelling observed."""
    canonical_name: str
    canonical_email: str
    members: frozenset[RawAuthor]

    @property
    def label(self) -> str:
        return f"{self.canonical_name} <{self.canonical_email}>"

    def sort_key(self):
        return (self.canonical_email, self.canonical_name)


class IdentityMap:
    """Total mapping from every observed RawAuthor to its DeveloperId."""

    def __init__(self, entries: Mapping[RawAuthor, DeveloperId]):
        self._entries = dict(entries)

    def canonical(self, author: RawAuthor) -> DeveloperId:
        """The identity containing `author`; stable across calls."""
        try:
            return self._entries[author]
        except KeyError:
            raise UnknownAuthor(f"author not seen during resolution: {author}")

    def developers(self) -> list[DeveloperId]:
        """All identities, deterministically ordered."""
        return sorted(set(self._entries.values()), key=DeveloperId.sort_key)

    def authors(self) -> set[RawAuthor]:
        return set(self._entries)

    def __len__(self) -> int:
        return len(self.developers())

    def __contains__(self, author: RawAuthor) -> bool:
        return author in self._entries


def normalize_name(name: str) -> str:
    """Lowercase, strip diacritics, collapse internal whitespace."""
    decomposed = unicodedata.normalize("NFKD", name)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    return " ".join(stripped.lower().split())


def normalize_email(email: str) -> str:
    return email.strip().lower()


def _local_part(email: str) -> str:
    if "@" not in email:
        return ""
    return email.split("@", 1)[0]


def _ratio(a: str, b: str) -> float:
    return SequenceMatcher(None, a, b).ratio()


def _name_tokens(name: str) -> set[str]:
    return set(_NAME_TOKEN_RE.findall(normalize_name(name)))


def token_set_ratio(a: str, b: str) -> int:
    """Order-insensitive token similarity on a 0-100 scale.

    Both strings are preprocessed (lowercased, diacritics stripped,
    punctuation treated as token breaks), then the sorted token
    intersection is compared against each side's full sorted token
    string, and the full strings against each other; the best of the
    three ratios wins. "smith, john" and "John Smith" score 100.
    """
    tokens_a = _name_tokens(a)
    tokens_b = _name_tokens(b)
    if not tokens_a or not tokens_b:
        return 0
    common = " ".join(sorted(tokens_a & tokens_b))
    full_a = (common + " " + " ".join(sorted(tokens_a - tokens_b))).strip()
    full_b = (common + " " + " ".join(sorted(tokens_b - tokens_a))).strip()
    best = max(_ratio(common, full_a), _ratio(common, full_b),
               _ratio(full_a, full_b))
    return int(round(100 * best))


class _NameShape:
    """What bounds a name's token_set_ratio against any other name.

    When two names have non-empty, disjoint token sets, the shared token
    string is empty, so their score is ratio() of their two sorted token
    strings. That ratio is at most 2 * (characters the strings have in
    common, as multisets) / (sum of their lengths), which is what
    SequenceMatcher.quick_ratio() computes. Rounding is monotone, so a
    bound that rounds below the threshold proves the pair cannot merge.
    """

    def __init__(self, name: str):
        self.name = name
        self.tokens = _name_tokens(name)
        joined = " ".join(sorted(self.tokens))
        self.length = len(joined)
        # The k-th occurrence of each character, so that a set
        # intersection counts the characters two names share.
        self.chars = frozenset((char, k) for char, count in
                               Counter(joined).items() for k in range(count))

    def cannot_merge(self, other: _NameShape, threshold: int) -> bool:
        if (not self.tokens or not other.tokens
                or not self.tokens.isdisjoint(other.tokens)):
            return False
        shared = len(self.chars & other.chars)
        # difflib's own expression, so the float bound is never below
        # the float ratio it bounds.
        bound = 2.0 * shared / (self.length + other.length)
        return int(round(100 * bound)) < threshold


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {item: item for item in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def groups(self) -> dict:
        out: dict = {}
        for item in self.parent:
            out.setdefault(self.find(item), []).append(item)
        return out


def parse_alias_file(path: str) -> dict[str, str]:
    """Read `raw_email -> canonical_email` lines; '#' starts a comment."""
    aliases: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "->" not in line:
                raise ValueError(f"malformed alias line: {raw_line.rstrip()}")
            raw, canonical = (part.strip() for part in line.split("->", 1))
            aliases[normalize_email(raw)] = normalize_email(canonical)
    return aliases


def resolve_identities(authors: Iterable[RawAuthor],
                       similarity_threshold: int = DEFAULT_SIMILARITY,
                       weights: Mapping[RawAuthor, int] | None = None,
                       aliases: Mapping[str, str] | None = None) -> IdentityMap:
    """Partition raw authors into developer identities.

    `weights` (change-record counts) picks each group's canonical
    representative: the heaviest member, ties broken lexicographically
    by email then name. `aliases` maps raw emails to canonical emails
    and forces those merges ahead of the fuzzy rules.
    """
    author_list = sorted(set(authors))
    if not author_list:
        raise EmptyAuthorSet("no authors to resolve")
    if not 0 <= similarity_threshold <= 100:
        raise ValueError("similarity threshold must be in 0..100")
    weights = weights or {}

    uf = _UnionFind(author_list)

    # Forced alias merges: everything mapping to one canonical email
    # lands in one group, whether or not that email itself appears.
    if aliases:
        target_groups: dict[str, list[RawAuthor]] = {}
        for author in author_list:
            email = normalize_email(author.email)
            target = aliases.get(email, email)
            if target:
                target_groups.setdefault(target, []).append(author)
        for group in target_groups.values():
            for other in group[1:]:
                uf.union(group[0], other)

    by_email: dict[str, list[RawAuthor]] = {}
    by_local: dict[str, list[RawAuthor]] = {}
    by_name: dict[str, list[RawAuthor]] = {}
    for author in author_list:
        email = normalize_email(author.email)
        if email:
            by_email.setdefault(email, []).append(author)
            local = _local_part(email)
            if len(local) >= _MIN_LOCAL_PART:
                by_local.setdefault(local, []).append(author)
        name = normalize_name(author.name)
        if name:
            by_name.setdefault(name, []).append(author)

    for group in by_email.values():
        for other in group[1:]:
            uf.union(group[0], other)
    for group in by_local.values():
        for other in group[1:]:
            uf.union(group[0], other)

    # Fuzzy name matching over distinct normalized names. Pairs whose
    # _NameShape bound rules out a merge are never scored.
    shapes = [_NameShape(name) for name in sorted(by_name)]
    for i, a in enumerate(shapes):
        for b in shapes[i + 1:]:
            if a.cannot_merge(b, similarity_threshold):
                continue
            if token_set_ratio(a.name, b.name) >= similarity_threshold:
                uf.union(by_name[a.name][0], by_name[b.name][0])
    for group in by_name.values():
        for other in group[1:]:
            uf.union(group[0], other)

    entries: dict[RawAuthor, DeveloperId] = {}
    for members in uf.groups().values():
        representative = min(
            members, key=lambda a: (-weights.get(a, 0), a.email, a.name))
        dev = DeveloperId(
            canonical_name=representative.name,
            canonical_email=representative.email,
            members=frozenset(members),
        )
        for member in members:
            entries[member] = dev
    return IdentityMap(entries)
