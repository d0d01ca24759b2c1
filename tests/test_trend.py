"""Yearly bus factor series."""
from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from busfactor import (ChangeRecord, CommitMeta, CstConfig, CstMetricKind,
                       DataMetric, MetricKind, RawAuthor, TimeWindow,
                       TrendPoint, cst_bus_factor, resolve_identities,
                       yearly_trend)
from busfactor import load_cache, save_cache
from busfactor import trend as trend_module
from busfactor.errors import EmptySpan

from . import oracles

A = RawAuthor("Ada Core", "ada@fixture.test")
B = RawAuthor("Bert Low", "bert@fixture.test")


def record(author, year, month=1, seq=0, path="f.txt"):
    meta = CommitMeta(hash=f"{seq:040d}", author=author,
                      author_timestamp=datetime(year, month, 1,
                                                tzinfo=timezone.utc),
                      sequence=seq)
    return ChangeRecord(commit=meta, path=path, lines_added=2,
                        lines_deleted=0, cos_distance=1.0)


def config(**kwargs):
    defaults = dict(cst_metric=CstMetricKind.MUL_CHANGES_EQUAL,
                    data_metric=DataMetric(MetricKind.COMMITS))
    defaults.update(kwargs)
    return CstConfig(**defaults)


def identity_for(records):
    return resolve_identities({r.author for r in records})


def test_two_year_series():
    # 2021: only A commits; 2022: A and B split evenly
    records = [record(A, 2021, 3, 0), record(A, 2022, 2, 1),
               record(B, 2022, 7, 2)]
    series = yearly_trend(records, identity_for(records), config(),
                          2021, 2022)
    assert [(p.year, p.bus_factor, p.total_developers, p.bf_percentage)
            for p in series.points] == [(2021, 1, 1, 100.0),
                                        (2022, 2, 2, 100.0)]
    assert all(p.active for p in series.points)


def test_gap_year_is_inactive_zero_point():
    records = [record(A, 2020, 1, 0), record(A, 2022, 1, 1)]
    series = yearly_trend(records, identity_for(records), config(),
                          2020, 2022)
    years = {p.year: p for p in series.points}
    assert years[2021].active is False
    assert (years[2021].bus_factor, years[2021].total_developers,
            years[2021].bf_percentage) == (0, 0, 0.0)
    assert years[2020].active and years[2022].active


def test_single_year_matches_plain_pipeline():
    records = [record(A, 2021, 1, 0), record(A, 2021, 2, 1),
               record(B, 2021, 3, 2)]
    idmap = identity_for(records)
    series = yearly_trend(records, idmap, config(), 2021, 2021)
    direct = cst_bus_factor(records, idmap,
                            config(time_range=TimeWindow.year(2021)))
    point = series.points[0]
    assert point.bus_factor == direct.bus_factor
    assert point.total_developers == direct.developer_count


def test_cumulative_mode_includes_prior_years():
    # A commits 3x in 2020, B once in 2021. Per-year 2021 has only B;
    # cumulatively A still dominates.
    records = [record(A, 2020, m, m) for m in (1, 2, 3)]
    records.append(record(B, 2021, 5, 9))
    idmap = identity_for(records)
    yearly = yearly_trend(records, idmap, config(), 2021, 2021)
    running = yearly_trend(records, idmap, config(), 2021, 2021,
                           cumulative=True)
    assert yearly.points[0].total_developers == 1
    assert running.points[0].total_developers == 2
    assert running.points[0].bus_factor == 2  # A primary, B secondary


def test_rejects_inverted_span():
    records = [record(A, 2021)]
    with pytest.raises(EmptySpan):
        yearly_trend(records, identity_for(records), config(), 2022, 2021)


def test_percentage_bounds_and_monotone_years():
    records = []
    seq = 0
    for year in range(2018, 2023):
        for author,mon in ((A, 1), (B, 6)):
            records.append(record(author, year, mon, seq))
            seq += 1
    series = yearly_trend(records, identity_for(records), config(),
                          2018, 2022)
    assert [p.year for p in series.points] == list(range(2018, 2023))
    for point in series.points:
        assert 0.0 <= point.bf_percentage <= 100.0
        if point.active:
            assert 1 <= point.bus_factor <= point.total_developers


def test_scope_restriction_applies_per_year():
    records = [record(A, 2021, 1, 0, path="src/a.py"),
               record(B, 2021, 3, 1, path="docs/b.md")]
    series = yearly_trend(records, identity_for(records),
                          config(scope="src"), 2021, 2021)
    assert series.config.scope == "src"
    assert series.points[0].total_developers == 1


def test_series_config_has_no_residual_window():
    records = [record(A, 2021)]
    series = yearly_trend(records, identity_for(records),
                          config(time_range=TimeWindow.year(1999)),
                          2021, 2021)
    assert series.config.time_range is None
    # the base window is ignored: the 2021 point is computed from
    # the year's own window, not the 1999 one
    assert series.points[0].active


def test_point_validation():
    with pytest.raises(ValueError):
        TrendPoint(year=2021, bus_factor=3, total_developers=2)
    point = TrendPoint(year=2021, bus_factor=1, total_developers=3)
    assert point.active
    assert point.bf_percentage == 100.0 * 1 / 3


# Instants on both sides of each year boundary, and inside each year.
_INSTANTS = [datetime(year, month, day, hour, minute, second,
                      tzinfo=timezone.utc)
             for year in range(2019, 2023)
             for month, day, hour, minute, second in (
                 (1, 1, 0, 0, 0), (6, 15, 12, 0, 0), (12, 31, 23, 59, 59))]
_AUTHORS = [A, B, RawAuthor("Cy Third", "cy@fixture.test")]
_PATHS = ["src/a.py", "src/gen/b.py", "docs/c.md", "d.txt"]


@st.composite
def _histories(draw):
    commits = draw(st.lists(st.tuples(st.sampled_from(_INSTANTS),
                                      st.sampled_from(_AUTHORS)),
                            max_size=12))
    records = []
    for seq, (instant, author) in enumerate(commits):
        meta = CommitMeta(hash=f"{seq:040x}", author=author,
                          author_timestamp=instant, sequence=seq)
        for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1,
                                  max_size=3, unique=True)):
            records.append(ChangeRecord(
                commit=meta, path=path,
                lines_added=draw(st.integers(0, 4)),
                lines_deleted=draw(st.integers(0, 4)) or 1,
                cos_distance=draw(st.sampled_from((0.0, 0.5, 1.0)))))
    return draw(st.permutations(records))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(records=_histories(),
       span=st.tuples(st.integers(2017, 2023), st.integers(0, 4)),
       cumulative=st.booleans(),
       cst_metric=st.sampled_from(list(CstMetricKind)),
       data_kind=st.sampled_from(list(MetricKind)),
       scope=st.sampled_from([None, "src", "docs"]),
       exclude=st.sampled_from([(), ("*.md",), ("src/gen/*",)]))
def test_matches_one_pass_over_all_records_per_year(
        records, span, cumulative, cst_metric, data_kind, scope, exclude):
    first, last = span[0], span[0] + span[1]
    base = config(cst_metric=cst_metric, data_metric=DataMetric(data_kind),
                  scope=scope, exclude_globs=exclude)
    idmap = resolve_identities(_AUTHORS)
    series = yearly_trend(records, idmap, base, first, last,
                          cumulative=cumulative)
    assert [(p.year, p.bus_factor, p.total_developers)
            for p in series.points] == oracles.yearly_trend_points(
                records, idmap, base, first, last, cumulative)


@pytest.mark.parametrize("cumulative", [False, True])
def test_each_year_passes_only_its_records(monkeypatch, cumulative):
    # Each year passes its records as positions in the file order of
    # the history that yearly_trend builds, which lists indexes into the
    # records.
    records = [record(A, 2019, 12, 0), record(B, 2020, 3, 1),
               record(A, 2021, 6, 2), record(B, 2019, 1, 3)]
    calls = []
    real = trend_module.cst_bus_factor

    def spy(pool, identity, config):
        calls.append((config.time_range, [
            records[pool.history.order[k]] for k in pool.positions]))
        return real(pool, identity, config)
    monkeypatch.setattr(trend_module, "cst_bus_factor", spy)
    yearly_trend(records, identity_for(records), config(), 2018, 2022,
                 cumulative=cumulative)
    assert [window.end_year for window, _ in calls] == list(range(2018, 2023))
    for window, pool in calls:
        inside = [r for r in records
                  if window.contains(r.commit.author_timestamp)]
        assert sorted(pool, key=ChangeRecord.sort_key) == \
            sorted(inside, key=ChangeRecord.sort_key)


@pytest.mark.parametrize("cumulative", [False, True])
def test_cache_columns_place_dates_in_their_years(tmp_path, cumulative):
    # A cache's columns hold whole seconds, which are placed in years
    # without decoding them; the last and first second of a year, and
    # dates before 1970, land where their dates do.
    instants = [datetime(1969, 12, 31, 23, 59, 59), datetime(1970, 1, 1),
                datetime(2020, 12, 31, 23, 59, 59), datetime(2021, 1, 1),
                datetime(2024, 2, 29, 12), datetime(1969, 7, 20, 20, 17)]
    records = [ChangeRecord(
        commit=CommitMeta(hash=f"{i:040x}", author=(A, B)[i % 2],
                          author_timestamp=instant.replace(
                              tzinfo=timezone.utc), sequence=i),
        path="f.txt", lines_added=1, lines_deleted=0, cos_distance=0.5)
        for i, instant in enumerate(instants)]
    save_cache(records, None, "fixture@0", tmp_path / "cache")
    columns = load_cache(tmp_path / "cache", columns=True)[0]
    years = columns.years
    assert years == [1969, 1970, 2020, 2021, 2024, 1969]
    assert years == [stamp.year for stamp in columns.stamps]
    idmap = identity_for(records)
    assert yearly_trend(columns, idmap, config(), 1968, 2025,
                        cumulative=cumulative) == \
        yearly_trend(records, idmap, config(), 1968, 2025,
                     cumulative=cumulative)
