"""Per-change contribution metrics: commit counting, changed line
counts, and the cosine distance between added and deleted token bags.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Mapping

from .records import ChangeRecord, Value

# Alphanumeric runs; underscores and all punctuation are separators.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


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
    """Multiset of case-sensitive alphanumeric tokens in the lines."""
    counts: dict[str, int] = {}
    for line in lines:
        for token in _TOKEN_RE.findall(line):
            counts[token] = counts.get(token, 0) + 1
    return counts


def locc(record: ChangeRecord) -> int:
    """Lines of code changed: added plus deleted line counts."""
    return record.lines_added + record.lines_deleted


def token_distance(added: Mapping[str, int], deleted: Mapping[str, int]) -> float:
    """Cosine distance between the added and deleted token bags.

    1 means a maximal change (pure addition, pure deletion, or fully
    disjoint vocabularies); 0 means the bags are identical. Two empty
    bags (only non-token lines changed) score 0.
    """
    if not added and not deleted:
        return 0.0
    if not added or not deleted:
        return 1.0
    dot = sum(count * deleted.get(token, 0) for token, count in added.items())
    norm = math.sqrt(sum(c * c for c in added.values()))
    norm *= math.sqrt(sum(c * c for c in deleted.values()))
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
