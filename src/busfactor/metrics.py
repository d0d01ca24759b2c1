"""Per-change contribution metrics: commit counting, changed line
counts, and the cosine distance between added and deleted token bags.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from enum import Enum
from itertools import repeat
from operator import mul
from typing import Iterable, Mapping

from .records import ChangeRecord, Value

# Alphanumeric runs; underscores and all punctuation are separators.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character but a letter or a digit, to a space
_ASCII_SEPARATORS = str.maketrans(
    {chr(c): " " for c in range(128) if not chr(c).isalnum()})


class MetricKind(Enum):
    COMMITS = "commits"
    LOCC = "locc"
    CHANGE_SIZE_COS = "cos"


class DataMetric(Value):
    """A contribution metric choice.

    cos_scale_by_locc applies only to CHANGE_SIZE_COS and multiplies
    the cosine distance by the changed-line count.
    """
    kind: MetricKind
    cos_scale_by_locc: bool = False


def tokenize(lines: Iterable[str]) -> dict[str, int]:
    """Multiset of case-sensitive alphanumeric tokens in the lines, in
    order of first occurrence.

    The result may be a `Counter`, a dict subclass that compares equal
    to the plain dict of the same counts. The lines are joined once, at
    a newline that no token spans. Other than "_", an ASCII character
    is a word character exactly when it is a letter or a digit, so on
    ASCII text the tokens are the runs of [A-Za-z0-9]: every other
    character becomes a space, and `str.split()` then splits at spaces
    only, since no other whitespace is left. Text with any non-ASCII
    character goes through the token regex.
    """
    text = "\n".join(lines)
    if text.isascii():
        return Counter(text.translate(_ASCII_SEPARATORS).split())
    return Counter(_TOKEN_RE.findall(text))


def holds_token(lines: Iterable[str]) -> bool:
    """Whether any of the lines holds a token, as `tokenize` finds them."""
    return any(map(_TOKEN_RE.search, lines))


def locc(record: ChangeRecord) -> int:
    """Lines of code changed: added plus deleted line counts."""
    return record.lines_added + record.lines_deleted


def token_distance(added: Mapping[str, int], deleted: Mapping[str, int]) -> float:
    """Cosine distance between the added and deleted token bags.

    1 means a maximal change (pure addition, pure deletion, or fully
    disjoint vocabularies); 0 means the bags are identical. Two empty
    bags (only non-token lines changed) score 0.

    The dot product and the squared norms are integer sums, taken in C
    over `map`; integer sums are exact, so no order of their terms can
    change the distance.
    """
    if not added and not deleted:
        return 0.0
    if not added or not deleted:
        return 1.0
    dot = sum(map(mul, added.values(), map(deleted.get, added, repeat(0))))
    norm = math.sqrt(sum(map(mul, added.values(), added.values())))
    norm *= math.sqrt(sum(map(mul, deleted.values(), deleted.values())))
    similarity = dot / norm
    return min(1.0, max(0.0, 1.0 - similarity))


def contribution(record: ChangeRecord, metric: DataMetric) -> float:
    """The scalar contribution of one change record under a metric."""
    if metric.kind is MetricKind.COMMITS:
        return 1.0
    if metric.kind is MetricKind.LOCC:
        return float(locc(record))
    if metric.cos_scale_by_locc:
        return record.cos_distance * locc(record)
    return record.cos_distance
