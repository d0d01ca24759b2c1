"""Alias resolution: collapse the many name/email pairs one person
leaves in a history into a single canonical developer identity.

Two raw authors merge when their normalized emails match, their
normalized names are similar enough (token-set ratio), or they share a
non-trivial email local part. Merging is closed transitively with a
union-find over indexes into the sorted authors, so the result does not
depend on the order in which merges are found.

Names are not scored pair by pair. Names with equal token sets, such
as "Smith, John" and "John Smith", merge unscored, since they score
100. Names that share a token are scored. Token-disjoint names are
scored only when the characters they share, counted on packed ints,
bound their score at or above the threshold. Every pair left unscored
would score below it, so the groups are those of scoring every pair.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from itertools import combinations, compress, count, repeat
from typing import Iterable, Iterator, Mapping

from .errors import EmptyAuthorSet, UnknownAuthor
from .records import RawAuthor, Value

_MIN_LOCAL_PART = 3  # local-part rule needs at least this many chars
_NAME_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
DEFAULT_SIMILARITY = 90


class DeveloperId(Value):
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
        return len(set(self._entries.values()))

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
    import difflib
    tokens_a = _name_tokens(a)
    tokens_b = _name_tokens(b)
    if not tokens_a or not tokens_b:
        return 0
    common = " ".join(sorted(tokens_a & tokens_b))
    full_a = (common + " " + " ".join(sorted(tokens_a - tokens_b))).strip()
    full_b = (common + " " + " ".join(sorted(tokens_b - tokens_a))).strip()
    best = max(difflib.SequenceMatcher(None, common, full_a).ratio(),
               difflib.SequenceMatcher(None, common, full_b).ratio(),
               difflib.SequenceMatcher(None, full_a, full_b).ratio())
    return int(round(100 * best))


def _find(parent: list[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:  # path compression
        parent[x], x = root, parent[x]
    return root


def _union(parent: list[int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def _name_merges(names: list[str],
                 threshold: int) -> Iterator[tuple[int, int]]:
    """Pairs of indexes into the sorted `names` whose transitive closure
    is that of every pair i < j with token_set_ratio(names[i], names[j])
    at or above `threshold`.

    The score depends only on the two token sets and their order:
    difflib's ratio() is not symmetric, so two names are scored in the
    order in which they sort. Names with equal, non-empty token sets
    score 100, so they are paired unscored, and each token set is
    scored once per order that its names and the other set's names
    take. A name without tokens scores 0. Token sets that share a token
    are scored. When two token sets are disjoint, the shared token
    string is empty and the score is ratio() of the two sorted token
    strings. That ratio is at most 2 * (characters the strings have in
    common, as multisets) / (sum of their lengths), which is what
    SequenceMatcher.quick_ratio() computes; rounding is monotone, so a
    pair whose bound rounds below the threshold is skipped unscored.
    """
    if threshold == 0:  # every score is at least 0
        yield from ((0, index) for index in range(1, len(names)))
        return
    by_tokens: dict[frozenset[str], list[int]] = {}
    for index, name in enumerate(names):
        by_tokens.setdefault(frozenset(_name_tokens(name)), []).append(index)
    by_tokens.pop(frozenset(), None)
    texts = []
    for tokens, members in by_tokens.items():
        yield from ((members[0], other) for other in members[1:])
        joined = " ".join(sorted(tokens))
        texts.append((len(joined), joined, members[0], members[-1]))

    # Token sets in order of the length of their sorted token strings.
    # Each gets an int with one bit per (character, k-th occurrence) of
    # that string, so that `&` and bit_count() count the characters two
    # of them share.
    texts.sort()
    holders: dict[str, list[int]] = {}
    by_length: dict[int, tuple[list[int], list[int]]] = {}
    bits: dict[tuple[str, int], int] = {}
    for rank, (length, joined, _, _) in enumerate(texts):
        for token in joined.split():
            holders.setdefault(token, []).append(rank)
        chars = sum(1 << bits.setdefault((char, k), len(bits))
                    for char, n in Counter(joined).items() for k in range(n))
        ranks, packed = by_length.setdefault(length, ([], []))
        ranks.append(rank)
        packed.append(chars)

    # Pairs that share a token are all scored.
    pairs = {pair for group in holders.values()
             for pair in combinations(group, 2)}
    # A token-disjoint pair is scored when its bound reaches the
    # threshold. `least` is the fewest shared characters for which it
    # does, computed with difflib's own expression so that the float
    # bound is never below the float ratio it bounds.
    for length, (ranks_a, packed_a) in by_length.items():
        for other, (ranks_b, packed_b) in by_length.items():
            if other < length:
                continue
            least = next(shared for shared in count() if int(round(
                100 * (2.0 * shared / (length + other)))) >= threshold)
            if least > length:  # more than the shorter string holds
                continue
            for position, (rank, chars) in enumerate(zip(ranks_a, packed_a)):
                start = position + 1 if other == length else 0
                hits = map(least.__le__, map(int.bit_count,
                                             map(chars.__and__,
                                                 packed_b[start:])))
                pairs.update(zip(repeat(rank),
                                 compress(ranks_b[start:], hits)))

    for a, b in sorted(pairs):
        _, _, first_a, last_a = texts[a]
        _, _, first_b, last_b = texts[b]
        if (first_a < last_b and token_set_ratio(
                names[first_a], names[last_b]) >= threshold
                or first_b < last_a and token_set_ratio(
                    names[first_b], names[last_a]) >= threshold):
            yield first_a, first_b


def parse_alias_file(path: str) -> dict[str, str]:
    """Read `raw_email -> canonical_email` lines; '#' starts a comment.

    Both sides must be non-empty: an empty raw email would merge every
    author without an email into one developer.
    """
    aliases: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw_line in fh:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            raw, arrow, canonical = line.partition("->")
            raw, canonical = normalize_email(raw), normalize_email(canonical)
            if not (arrow and raw and canonical):
                raise ValueError(f"malformed alias line: {raw_line.rstrip()}")
            aliases[raw] = canonical
    return aliases


def resolve_identities(authors: Iterable[RawAuthor],
                       similarity_threshold: int = DEFAULT_SIMILARITY,
                       weights: Mapping[RawAuthor, int] | None = None,
                       aliases: Mapping[str, str] | None = None) -> IdentityMap:
    """Partition raw authors into developer identities.

    `weights` (change-record counts for cst and trend, blamed line
    counts for rig) picks each group's canonical representative: the
    heaviest member, ties broken lexicographically by email then name.
    `aliases` maps raw emails to canonical emails and forces those
    merges ahead of the fuzzy rules.
    """
    author_list = sorted(set(authors))
    if not author_list:
        raise EmptyAuthorSet("no authors to resolve")
    if not 0 <= similarity_threshold <= 100:
        raise ValueError("similarity threshold must be in 0..100")
    weights = weights or {}

    # A union-find over indexes into author_list, whose order is that
    # of RawAuthor.
    parent = list(range(len(author_list)))

    # Union each author with the first author seen under each key it
    # has: its email after aliasing (an alias target joins everything
    # mapped to it, whether or not that email itself appears), its
    # email's local part, and its normalized name.
    aliases = aliases or {}
    if not all(raw and canonical for raw, canonical in aliases.items()):
        raise ValueError("alias emails must be non-empty")
    first: dict[tuple[str, str], int] = {}
    for index, author in enumerate(author_list):
        email = normalize_email(author.email)
        local = _local_part(email)
        keys = [("email", aliases.get(email, email)),
                ("local", local if len(local) >= _MIN_LOCAL_PART else ""),
                ("name", normalize_name(author.name))]
        for kind, value in keys:
            if value:
                _union(parent, first.setdefault((kind, value), index), index)

    names = sorted(value for kind, value in first if kind == "name")
    for a, b in _name_merges(names, similarity_threshold):
        _union(parent, first["name", names[a]], first["name", names[b]])

    groups: dict[int, list[RawAuthor]] = {}
    for index, author in enumerate(author_list):
        groups.setdefault(_find(parent, index), []).append(author)
    entries: dict[RawAuthor, DeveloperId] = {}
    for members in groups.values():
        representative = min(
            members, key=lambda a: (-weights.get(a, 0), a.email, a.name))
        dev = DeveloperId(representative.name, representative.email,
                          frozenset(members))
        for member in members:
            entries[member] = dev
    return IdentityMap(entries)
