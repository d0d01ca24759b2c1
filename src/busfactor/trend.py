"""Year-over-year bus factor series for a project or directory."""
from __future__ import annotations

from itertools import chain
from typing import Iterable

from .cst import CstConfig, TimeWindow, _History, _Pool, cst_bus_factor
from .errors import EmptyScope, EmptySpan, ZeroDevelopers
from .identity import IdentityMap
from .records import ChangeRecord, RecordColumns, Value


class TrendPoint(Value):
    """One year's bus factor and active developer count.

    Years without any in-scope activity are emitted as inactive
    (0, 0) points so a series never has gaps.
    """
    year: int
    bus_factor: int
    total_developers: int

    def _checked(self):
        if self.bus_factor > self.total_developers:
            raise ValueError("bus factor cannot exceed developer count")
        return self

    @property
    def bf_percentage(self) -> float:
        if not self.total_developers:
            return 0.0
        return 100.0 * self.bus_factor / self.total_developers

    @property
    def active(self) -> bool:
        return self.total_developers > 0


class TrendSeries(Value):
    config: CstConfig
    points: tuple[TrendPoint, ...]


def yearly_trend(records: Iterable[ChangeRecord] | RecordColumns,
                 identity: IdentityMap, base_config: CstConfig,
                 first_year: int, last_year: int,
                 cumulative: bool = False) -> TrendSeries:
    """One TrendPoint per calendar year in [first_year, last_year].

    Each point runs the full commit-based pipeline restricted to its
    year (or, with cumulative=True, to all history through its year);
    total_developers is that window's developer count N. Years where
    the scope has no positive contribution become inactive points. The
    records may come as columns, as `load_cache(..., columns=True)`
    gives them.
    """
    if first_year > last_year:
        raise EmptySpan(f"year span {first_year}..{last_year} is empty")
    if not isinstance(records, RecordColumns):
        records = RecordColumns.from_records(records)
    # Records are put in file order, and tested against the scope, once
    # for all years. Author dates are UTC, so a record's year is the
    # year whose window holds it. Dealt out by year in file order, each
    # year's positions stay in file order, and each year's pass takes
    # its own, or with cumulative=True all of them up to its year.
    history = _History(records, identity)
    year_of, commit = records.years, history.commit
    by_year: dict[int, list[int]] = {year: [] for year in set(year_of)}
    for position in history.select(base_config.replace(time_range=None)):
        by_year[year_of[commit[position]]].append(position)
    through = sorted(chain.from_iterable(
        pool for year, pool in by_year.items() if year < first_year))
    points = []
    for year in range(first_year, last_year + 1):
        if cumulative:
            through = sorted(through + by_year.get(year, []))
            window, pool = TimeWindow(None, None, year, None), through
        else:
            window, pool = TimeWindow.year(year), by_year.get(year, [])
        config = base_config.replace(time_range=window)
        try:
            result = cst_bus_factor(_Pool(history, pool), identity, config)
        except (EmptyScope, ZeroDevelopers):
            points.append(TrendPoint(year, 0, 0))
            continue
        points.append(TrendPoint(year, result.bus_factor,
                                 result.developer_count))
    return TrendSeries(config=base_config.replace(time_range=None),
                       points=tuple(points))
