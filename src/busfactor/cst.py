"""Commit-based bus factor: per-file developer knowledge under one of
four ownership metrics, aggregated to directory or project scope and
classified against the 1/N primary and 1/2N secondary thresholds.
"""
from __future__ import annotations

import re
from datetime import datetime, timezone
from enum import Enum
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, groupby, repeat
from operator import add, and_, gt, mul, ne
from typing import Iterable, Sequence

from .errors import EmptyScope, UnknownAuthor, ZeroDevelopers
from .gitrepo import paths_in
from .identity import DeveloperId, IdentityMap
from .metrics import DataMetric, MetricKind
from .records import INSTANTS, ChangeRecord, RecordColumns, Value, to_instant


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
    needs its year. It keeps its bounds as instants (records.to_instant):
    the first that it holds and the first past its end, the ends of
    records.INSTANTS where it is unbounded.
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
        lo, hi = INSTANTS.start, INSTANTS.stop
        if self.start_year is not None:
            lo = to_instant(datetime(self.start_year, self.start_month or 1,
                                     1, tzinfo=timezone.utc))
        if self.end_year is not None:  # hi opens the month after the end
            year, month = divmod(12 * self.end_year + (self.end_month or 12),
                                 12)
            if year <= 9999:  # no datetime lies beyond 9999-12
                hi = to_instant(datetime(year, month + 1, 1,
                                         tzinfo=timezone.utc))
        if lo >= hi:
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
        """Whether the window holds the datetime `instant`, a naive one
        read as UTC (records.to_instant)."""
        lo, hi = self._bounds
        return lo <= to_instant(instant) < hi

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
    """Keep the records inside the time window whose paths `paths_in`
    admits."""
    records = list(records)
    admitted = _admitted(RecordColumns.from_records(records), window, scope,
                         exclude_globs)
    return records if admitted is None else list(compress(records, admitted))


def _admitted(columns: RecordColumns, window: TimeWindow | None,
              scope: str | None, exclude_globs: Sequence[str],
              ) -> list[bool] | None:
    """Per record, whether the window admits its commit's date and
    `paths_in` its path; None when every record is admitted. Each path
    is tested once, and each commit's date."""
    analysed = list(map(paths_in(scope, exclude_globs), columns.paths))
    admitted = (None if all(analysed)
                else list(map(analysed.__getitem__, columns.path)))
    if window:
        lo, hi = window._bounds
        inside = [lo <= instant < hi for instant in columns.instants]
        dated = map(inside.__getitem__, columns.commit)
        admitted = list(dated if admitted is None
                        else map(and_, admitted, dated))
    return admitted


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
    devs, values = map(list, zip(*entries))
    return _file_shares(devs, values, cst_metric, weight_scheme, unit_events)


def _file_shares(devs: list, values: list[float], cst_metric: CstMetricKind,
                 weight_scheme: WeightScheme, unit_events: bool) -> dict:
    """shares_from_timeline over a non-empty timeline of positive values,
    given as its developers and their values. Developers enter the
    result in the order of their first event."""
    if cst_metric is CstMetricKind.LAST_CHANGE:
        shares = dict.fromkeys(devs, 0.0)
        shares[devs[-1]] = 1.0
        return shares

    if cst_metric in _RUN_METRICS:
        if unit_events:
            devs = [dev for dev, _ in groupby(devs)]
            values = [1.0] * len(devs)
        else:
            runs, sums = [devs[0]], [values[0]]
            for dev, value in zip(devs[1:], values[1:]):
                if dev == runs[-1]:
                    sums[-1] += value
                else:
                    runs.append(dev)
                    sums.append(value)
            devs, values = runs, sums

    if cst_metric is CstMetricKind.WEIGHTED_NON_CONSECUTIVE:
        if weight_scheme is WeightScheme.EXPONENTIAL:
            values = [value * 2.0 ** i for i, value in enumerate(values)]
        else:
            values = [value * (i + 1) for i, value in enumerate(values)]

    total = sum(values)
    shares = dict.fromkeys(devs, 0.0)
    for dev, value in zip(devs, values):
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
    history = _History(RecordColumns.from_records(records), identity)
    if not history.order:
        raise EmptyScope("no change records in scope")
    return {path: history.named(shares) for path, shares in history.per_file(
        range(len(history.order)), cst_metric, data_metric, weight_scheme)}


def aggregate_knowledge(per_file: dict[str, dict[DeveloperId, float]],
                        ) -> KnowledgeTable:
    """Mean of per-file shares over all files carrying contribution."""
    if not per_file:
        raise EmptyScope("no files with contribution to aggregate")
    return KnowledgeTable(shares=_mean(list(per_file.values())),
                          file_count=len(per_file))


def _mean(tables: list[dict]) -> dict:
    """Each developer's share summed over the tables, in table order,
    and divided by their number. Developers enter in the order of their
    first share."""
    totals: dict = {}
    for shares in tables:
        for dev, share in shares.items():
            totals[dev] = totals.get(dev, 0.0) + share
    return {dev: total / len(tables) for dev, total in totals.items()}


class _History:
    """The engine's view of one history under one identity map: its
    records in file order, each with its file and developer as indexes.

    File order takes files by sorted path and, within a file, records by
    (author date, sequence, hash), ties in record order, as a stable
    sort of each file's records by ChangeRecord.sort_key orders them.
    `order` lists the record indexes in file order, and `file`, `dev`
    and `commit` hold one entry per position in it. A query selects
    positions, in ascending order, so that each file's records stay
    together and in order.
    """

    def __init__(self, columns: RecordColumns, identity: IdentityMap):
        self.columns = columns
        self.identity = identity
        index: dict[DeveloperId, int] = {}
        of_author = []
        for author in columns.authors:
            try:
                dev = identity.canonical(author)
            except UnknownAuthor:  # raised again if a query selects them
                of_author.append(-1)
            else:
                of_author.append(index.setdefault(dev, len(index)))
        self.developers = list(index)
        self.unknown = -1 in of_author

        rank = _ranks(columns)
        self.names = sorted(set(columns.paths))
        place = dict(zip(self.names, count()))
        file = list(map([place[path] for path in columns.paths].__getitem__,
                        columns.path))
        # Records by their commit's rank, ties in record order, then
        # dealt out to their files, which keeps that order in each file.
        chrono = list(map(rank.__getitem__, columns.commit))
        by_file: list[list[int]] = [[] for _ in self.names]
        for record in sorted(range(len(chrono)), key=chrono.__getitem__):
            by_file[file[record]].append(record)
        self.order = list(chain.from_iterable(by_file))
        self.file = list(map(file.__getitem__, self.order))
        self.commit = list(map(columns.commit.__getitem__, self.order))
        self.dev = list(map(list(map(of_author.__getitem__,
                                     columns.commit_author)).__getitem__,
                            self.commit))
        self._values: dict[DataMetric, list[float]] = {}

    def select(self, config: CstConfig) -> list[int]:
        """The positions of the records that the config's window, scope
        and excludes admit."""
        admitted = _admitted(self.columns, config.time_range, config.scope,
                             config.exclude_globs)
        positions = range(len(self.order))
        if admitted is None:
            return list(positions)
        return list(compress(positions, map(admitted.__getitem__,
                                            self.order)))

    def values(self, metric: DataMetric) -> list[float] | None:
        """The contribution under metric at each position, as
        `contribution` gives it; None for commit counting, where each
        is 1.0."""
        if metric.kind is MetricKind.COMMITS:
            return None
        if metric not in self._values:
            columns = self.columns
            if metric.kind is MetricKind.LOCC:
                raw = map(add, columns.added, columns.deleted)
            elif metric.cos_scale_by_locc:
                raw = map(mul, columns.cos,
                          map(add, columns.added, columns.deleted))
            else:
                raw = columns.cos
            self._values[metric] = list(map(list(map(float, raw)).__getitem__,
                                            self.order))
        return self._values[metric]

    def per_file(self, selected: list[int], cst_metric: CstMetricKind,
                 data_metric: DataMetric, weight_scheme: WeightScheme,
                 ) -> list[tuple[str, dict[int, float]]]:
        """(path, shares by developer index) of each file with a positive
        contribution among the selected positions, in file order."""
        if self.unknown:
            for position in selected:
                if self.dev[position] < 0:
                    self.identity.canonical(self.columns.authors[
                        self.columns.commit_author[self.commit[position]]])
        files, devs = self.file, self.dev
        values = self.values(data_metric)
        if len(selected) < len(files):
            files = list(map(files.__getitem__, selected))
            devs = list(map(devs.__getitem__, selected))
            if values is not None:
                values = list(map(values.__getitem__, selected))
        if values is None:
            values = [1.0] * len(files)
        else:  # zero values carry no knowledge
            positive = list(map(gt, values, repeat(0.0)))
            if not all(positive):
                files, devs, values = (list(compress(column, positive))
                                       for column in (files, devs, values))
        unit_events = data_metric.kind is MetricKind.COMMITS
        found = []
        start = 0
        while start < len(files):
            end = bisect_right(files, files[start], start)
            found.append((self.names[files[start]], _file_shares(
                devs[start:end], values[start:end], cst_metric,
                weight_scheme, unit_events)))
            start = end
        return found

    def named(self, shares: dict[int, float]) -> dict[DeveloperId, float]:
        return {self.developers[dev]: share for dev, share in shares.items()}

    def result(self, selected: list[int], config: CstConfig,
               ) -> BusFactorResult:
        """Per-file knowledge, aggregated and classified, over the
        selected positions."""
        if not selected:
            raise EmptyScope("no change records match the configured scope")
        per_file = self.per_file(selected, config.cst_metric,
                                 config.data_metric, config.weight_scheme)
        if not per_file:
            raise ZeroDevelopers("no positive contributions in scope")
        table = KnowledgeTable(
            shares=self.named(_mean([shares for _, shares in per_file])),
            file_count=len(per_file))
        primary, secondary = classify_developers(
            table, compute_thresholds(len(table.shares)))
        return BusFactorResult(primary_devs=primary, secondary_devs=secondary,
                               config=config, knowledge=table)


def _ranks(columns: RecordColumns) -> dict[int, int]:
    """Each commit's rank by (author date, sequence, hash); commits equal
    in all three share a rank."""
    dates, sequences = columns.instants, columns.sequences
    if len(set(sequences)) == len(sequences):  # no two tie: no hash read
        chrono = sorted(sorted(range(len(sequences)),
                               key=sequences.__getitem__),
                        key=dates.__getitem__)
        return dict(zip(chrono, count()))
    keys = list(zip(dates, sequences, columns.hashes))
    chrono = sorted(range(len(keys)), key=keys.__getitem__)
    ranked = list(map(keys.__getitem__, chrono))
    return dict(zip(chrono, accumulate(map(ne, ranked[1:], ranked),
                                       initial=0)))


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


class _Pool:
    """Records of a _History as positions in its file order, selected
    under a config: what yearly_trend passes to cst_bus_factor for each
    year. `len` is the number of records."""
    __slots__ = ("history", "positions")

    def __init__(self, history: _History, positions: list[int]):
        self.history, self.positions = history, positions

    def __len__(self) -> int:
        return len(self.positions)


def cst_bus_factor(records: Iterable[ChangeRecord] | RecordColumns,
                   identity: IdentityMap,
                   config: CstConfig) -> BusFactorResult:
    """Full pipeline: filter, per-file knowledge, aggregate, classify.

    The records may come as columns, as `extract_history` and
    `load_cache` give them.
    """
    if isinstance(records, _Pool):  # filtered already, and in file order
        return records.history.result(records.positions, config)
    history = _History(RecordColumns.from_records(records), identity)
    return history.result(history.select(config), config)


def compare_error(bus_factor: int, reference: int) -> int:
    """Absolute difference between a computed and a reference bus factor."""
    if bus_factor < 0 or reference < 0:
        raise ValueError("bus factor values are non-negative")
    return abs(bus_factor - reference)
