"""Commit-based bus factor: per-file developer knowledge under one of
four ownership metrics, aggregated to directory or project scope and
classified against the 1/N primary and 1/2N secondary thresholds.
"""
from __future__ import annotations

import re
from datetime import datetime, timezone
from enum import Enum
from typing import Iterable, Sequence

from .errors import EmptyScope, ZeroDevelopers
from .gitrepo import compile_globs, in_scope, normalize_scope, path_matches
from .identity import DeveloperId, IdentityMap
from .metrics import DataMetric, MetricKind, contribution
from .records import ChangeRecord, Value


class CstMetricKind(Enum):
    LAST_CHANGE = "last-change"
    MUL_CHANGES_EQUAL = "mul-equal"
    NON_CONSECUTIVE = "non-consecutive"
    WEIGHTED_NON_CONSECUTIVE = "weighted-non-consecutive"


class WeightScheme(Enum):
    """Position weights for the weighted non-consecutive metric."""
    LINEAR = "linear"          # event i weighs i
    EXPONENTIAL = "exponential"  # event i weighs 2**(i-1)


_RUN_METRICS = (CstMetricKind.NON_CONSECUTIVE,
                CstMetricKind.WEIGHTED_NON_CONSECUTIVE)


class TimeWindow(Value):
    """An inclusive year or year-month range, on UTC author dates.

    Either bound may be None (unbounded). Years are 1-9999 and months
    1-12; a bound with month=None spans the whole year, and a month
    needs its year.
    """
    start_year: int | None = None
    start_month: int | None = None
    end_year: int | None = None
    end_month: int | None = None

    def _checked(self):
        for year in (self.start_year, self.end_year):
            if year is not None and not 1 <= year <= 9999:
                raise ValueError(f"year out of range: {year}")
        for side, year, month in (("start", self.start_year, self.start_month),
                                  ("end", self.end_year, self.end_month)):
            if month is None:
                continue
            if year is None:
                raise ValueError(f"{side} month {month} has no {side} year")
            if not 1 <= month <= 12:
                raise ValueError(f"month out of range: {month}")
        lo = hi = None
        if self.start_year is not None:
            lo = datetime(self.start_year, self.start_month or 1, 1,
                          tzinfo=timezone.utc)
        if self.end_year is not None:
            year, month = self.end_year, (self.end_month or 12)
            if month < 12:
                hi = datetime(year, month + 1, 1, tzinfo=timezone.utc)
            elif year != 9999:  # no datetime lies beyond 9999-12
                hi = datetime(year + 1, 1, 1, tzinfo=timezone.utc)
        if lo and hi and lo >= hi:
            raise ValueError("time range start is after its end")
        # Not a field: the bounds follow from the fields, so equality,
        # hashing and repr leave them out.
        object.__setattr__(self, "_bounds", (lo, hi))
        return self

    @classmethod
    def parse(cls, start: str | None, end: str | None) -> "TimeWindow":
        """Build from 'YYYY' or 'YYYY-MM' strings."""
        sy, sm = _parse_period(start)
        ey, em = _parse_period(end)
        return cls(sy, sm, ey, em)

    @classmethod
    def year(cls, year: int) -> "TimeWindow":
        return cls(start_year=year, end_year=year)

    def contains(self, instant: datetime) -> bool:
        lo, hi = self._bounds
        if lo and instant < lo:
            return False
        if hi and instant >= hi:
            return False
        return True

    def describe(self) -> str:
        def fmt(year, month):
            if year is None:
                return "*"
            return f"{year:04d}-{month:02d}" if month else f"{year:04d}"
        return f"{fmt(self.start_year, self.start_month)}..{fmt(self.end_year, self.end_month)}"


_PERIOD_RE = re.compile(r"([0-9]+)(?:-([0-9]+))?")


def _parse_period(text: str | None) -> tuple[int | None, int | None]:
    if text is None or text == "":
        return None, None
    match = _PERIOD_RE.fullmatch(str(text))
    if match is None:
        raise ValueError(f"expected YYYY or YYYY-MM, got {text!r}")
    year, month = match.groups()
    return int(year), None if month is None else int(month)


class CstConfig(Value):
    """Everything that parameterizes one CST bus factor computation."""
    cst_metric: CstMetricKind = CstMetricKind.MUL_CHANGES_EQUAL
    data_metric: DataMetric = DataMetric(MetricKind.COMMITS)
    scope: str | None = None
    time_range: TimeWindow | None = None
    exclude_globs: tuple[str, ...] = ()
    weight_scheme: WeightScheme = WeightScheme.LINEAR


class ThresholdPair(Value):
    """Primary/secondary knowledge cutoffs: 1/N and half of it."""
    primary_ratio: float
    secondary_ratio: float


class KnowledgeTable(Value):
    """Aggregated developer knowledge for one artifact.

    Shares of all developers with positive contribution sum to 1
    whenever any contribution exists.
    """
    shares: dict[DeveloperId, float]
    file_count: int

    def ranked(self) -> list[tuple[DeveloperId, float]]:
        """(developer, share) by descending share, ties by canonical email."""
        return sorted(self.shares.items(),
                      key=lambda item: (-item[1], item[0].sort_key()))


class BusFactorResult(Value):
    """Primary and secondary developers under `config`; the counts and
    thresholds are derived from them and from `knowledge`."""
    primary_devs: tuple[DeveloperId, ...]
    secondary_devs: tuple[DeveloperId, ...]
    config: CstConfig
    knowledge: KnowledgeTable

    @property
    def bus_factor(self) -> int:
        return len(self.primary_devs) + len(self.secondary_devs)

    @property
    def developer_count(self) -> int:
        """N: developers with a positive contribution in scope."""
        return len(self.knowledge.shares)

    @property
    def thresholds(self) -> ThresholdPair:
        return compute_thresholds(self.developer_count)


def filter_records(records: Iterable[ChangeRecord],
                   window: TimeWindow | None = None,
                   scope: str | None = None,
                   exclude_globs: Sequence[str] = ()) -> list[ChangeRecord]:
    """Apply time, directory and external-code filters, in that order."""
    compiled = compile_globs(exclude_globs)
    scope = normalize_scope(scope)
    kept = []
    for record in records:
        if window and not window.contains(record.commit.author_timestamp):
            continue
        if not in_scope(record.path, scope):
            continue
        if compiled and path_matches(record.path, compiled):
            continue
        kept.append(record)
    return kept


def shares_from_timeline(timeline: Sequence[tuple[DeveloperId, float]],
                         cst_metric: CstMetricKind,
                         weight_scheme: WeightScheme = WeightScheme.LINEAR,
                         unit_events: bool = False) -> dict[DeveloperId, float]:
    """Knowledge shares for one file from its chronological
    (developer, contribution) sequence.

    Zero-valued entries carry no knowledge and are ignored. For the
    non-consecutive metrics, consecutive entries by one developer
    collapse into a single event whose value is the run's sum - or
    one unit when `unit_events` is set (commit counting treats a
    merged run as a single commit). Returns an empty dict when no
    positive contribution remains.
    """
    entries = [(dev, float(value)) for dev, value in timeline if value > 0]
    if not entries:
        return {}

    if cst_metric is CstMetricKind.LAST_CHANGE:
        shares = {dev: 0.0 for dev, _ in entries}
        shares[entries[-1][0]] = 1.0
        return shares

    if cst_metric in _RUN_METRICS:
        events: list[tuple[DeveloperId, float]] = []
        for dev, value in entries:
            if events and events[-1][0] == dev:
                if not unit_events:
                    events[-1] = (dev, events[-1][1] + value)
            else:
                events.append((dev, 1.0 if unit_events else value))
    else:
        events = entries

    if cst_metric is CstMetricKind.WEIGHTED_NON_CONSECUTIVE:
        if weight_scheme is WeightScheme.EXPONENTIAL:
            weighted = [(dev, value * 2.0 ** i)
                        for i, (dev, value) in enumerate(events)]
        else:
            weighted = [(dev, value * (i + 1))
                        for i, (dev, value) in enumerate(events)]
        events = weighted

    total = sum(value for _, value in events)
    shares = {dev: 0.0 for dev, _ in events}
    for dev, value in events:
        shares[dev] += value / total
    return shares


def knowledge_per_file(records: Iterable[ChangeRecord],
                       identity: IdentityMap,
                       cst_metric: CstMetricKind,
                       data_metric: DataMetric,
                       weight_scheme: WeightScheme = WeightScheme.LINEAR,
                       ) -> dict[str, dict[DeveloperId, float]]:
    """Per-file knowledge shares over already-filtered records.

    Files whose records carry no positive contribution are omitted.
    """
    by_path: dict[str, list[ChangeRecord]] = {}
    for record in records:
        by_path.setdefault(record.path, []).append(record)
    if not by_path:
        raise EmptyScope("no change records in scope")

    unit_events = data_metric.kind is MetricKind.COMMITS
    per_file: dict[str, dict[DeveloperId, float]] = {}
    for path in sorted(by_path):
        chrono = sorted(by_path[path], key=ChangeRecord.sort_key)
        timeline = [(identity.canonical(r.author), contribution(r, data_metric))
                    for r in chrono]
        shares = shares_from_timeline(timeline, cst_metric, weight_scheme,
                                      unit_events=unit_events)
        if shares:
            per_file[path] = shares
    return per_file


def aggregate_knowledge(per_file: dict[str, dict[DeveloperId, float]],
                        ) -> KnowledgeTable:
    """Mean of per-file shares over all files carrying contribution."""
    if not per_file:
        raise EmptyScope("no files with contribution to aggregate")
    file_count = len(per_file)
    totals: dict[DeveloperId, float] = {}
    for shares in per_file.values():
        for dev, share in shares.items():
            totals[dev] = totals.get(dev, 0.0) + share
    aggregated = {dev: total / file_count for dev, total in totals.items()}
    return KnowledgeTable(shares=aggregated, file_count=file_count)


def compute_thresholds(developer_count: int) -> ThresholdPair:
    """Primary cutoff 1/N and secondary cutoff 1/2N."""
    if developer_count < 1:
        raise ZeroDevelopers("threshold computation needs at least one developer")
    primary = 1.0 / developer_count
    return ThresholdPair(primary_ratio=primary, secondary_ratio=primary / 2.0)


def classify_developers(table: KnowledgeTable, thresholds: ThresholdPair,
                        ) -> tuple[tuple[DeveloperId, ...], tuple[DeveloperId, ...]]:
    """Split developers into primary and secondary sets, both ordered
    by descending knowledge (ties by canonical email)."""
    ranked = table.ranked()
    primary = tuple(dev for dev, share in ranked
                    if share >= thresholds.primary_ratio)
    secondary = tuple(dev for dev, share in ranked
                      if thresholds.secondary_ratio <= share < thresholds.primary_ratio)
    return primary, secondary


def cst_bus_factor(records: Iterable[ChangeRecord], identity: IdentityMap,
                   config: CstConfig) -> BusFactorResult:
    """Full pipeline: filter, per-file knowledge, aggregate, classify."""
    filtered = filter_records(records, window=config.time_range,
                              scope=config.scope,
                              exclude_globs=config.exclude_globs)
    if not filtered:
        raise EmptyScope("no change records match the configured scope")
    per_file = knowledge_per_file(filtered, identity, config.cst_metric,
                                  config.data_metric, config.weight_scheme)
    if not per_file:
        raise ZeroDevelopers("no positive contributions in scope")
    table = aggregate_knowledge(per_file)
    primary, secondary = classify_developers(
        table, compute_thresholds(len(table.shares)))
    return BusFactorResult(primary_devs=primary, secondary_devs=secondary,
                           config=config, knowledge=table)


def compare_error(bus_factor: int, reference: int) -> int:
    """Absolute difference between a computed and a reference bus factor."""
    if bus_factor < 0 or reference < 0:
        raise ValueError("bus factor values are non-negative")
    return abs(bus_factor - reference)
