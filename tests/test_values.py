"""The value contract every result and record type keeps.

Values are immutable, equal only to values of the same class with equal
fields, hashable when their fields are, printed as
`ClassName(field=value, ...)`, and re-validated when a field is
replaced. One representative class per module stands for the rest.
"""
from __future__ import annotations

import copy
import pickle
from datetime import datetime, timedelta, timezone

import pytest

from busfactor.cst import KnowledgeTable, ThresholdPair, TimeWindow
from busfactor.identity import DeveloperId
from busfactor.metrics import DataMetric, MetricKind
from busfactor.records import BlameSnapshot, ChangeRecord, CommitMeta, RawAuthor
from busfactor.report import RunManifest
from busfactor.rig import RigConfig, RigResult
from busfactor.trend import TrendPoint

ADA = RawAuthor("Ada", "ada@x")
NOON = datetime(2020, 1, 1, 12, tzinfo=timezone.utc)
META = CommitMeta("h1", ADA, NOON)


def _replace(value, **changes):
    """A copy of `value` with `changes`, through the class's own
    `replace` method, or `dataclasses.replace` where it has none."""
    if hasattr(type(value), "replace"):
        return value.replace(**changes)
    import dataclasses
    return dataclasses.replace(value, **changes)


def _samples():
    """Two equal but distinct instances of one class per module."""
    def build():
        return [
            RawAuthor("Ada", "ada@x"),
            CommitMeta("h1", RawAuthor("Ada", "ada@x"), NOON, sequence=3),
            ChangeRecord(META, "src/a.py", 1, 2, 0.5),
            TimeWindow(2020, None, 2021, 3),
            ThresholdPair(0.5, 0.25),
            RigConfig(seed=4),
            RigResult(frozenset(), 7, 0.5),
            TrendPoint(2020, 1, 2),
            DataMetric(MetricKind.LOCC),
            DeveloperId("Ada", "ada@x", frozenset({ADA})),
            RunManifest("0.1.0", "busfactor cst", "fp", NOON, NOON, seed=1),
        ]
    return list(zip(build(), build()))


SAMPLES = _samples()
IDS = [type(one).__name__ for one, _ in SAMPLES]


@pytest.mark.parametrize("one,other", SAMPLES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(one, other):
    field = repr(one).split("(", 1)[1].split("=", 1)[0]
    before = getattr(one, field)
    with pytest.raises(AttributeError):
        setattr(one, field, before)
    with pytest.raises(AttributeError):
        delattr(one, field)
    with pytest.raises(AttributeError):
        one.extra = 1
    assert getattr(one, field) is before
    assert one == other


@pytest.mark.parametrize("one,other", SAMPLES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(one, other):
    assert one is not other
    assert one == other
    assert not one != other
    assert hash(one) == hash(other)
    assert len({one, other}) == 1


@pytest.mark.parametrize("one,other", SAMPLES, ids=IDS)
def test_copies_and_pickles_are_equal(one, other):
    assert copy.copy(one) == other
    assert copy.deepcopy(one) == other
    assert pickle.loads(pickle.dumps(one)) == other


def test_differing_fields_are_unequal():
    assert RawAuthor("Ada", "ada@x") != RawAuthor("Ada", "ada@y")
    assert not RawAuthor("Ada", "ada@x") == RawAuthor("Ada", "ada@y")
    assert TrendPoint(2020, 1, 2) != TrendPoint(2020, 1, 3)


@pytest.mark.parametrize("value,twin", [
    (RawAuthor("a", "b"), ("a", "b")),
    (RawAuthor("a", "b"), ThresholdPair("a", "b")),
    (TrendPoint(2020, 1, 2), (2020, 1, 2)),
    (TrendPoint(2020, 1, 2), RigResult(2020, 1, 2)),
    (ThresholdPair(0.5, 0.25), (0.5, 0.25)),
])
def test_other_classes_with_the_same_values_are_unequal(value, twin):
    assert value != twin
    assert twin != value
    assert not value == twin
    assert not twin == value
    assert value not in {twin}


def test_raw_authors_sort_by_name_then_email():
    authors = [RawAuthor("b", "a@x"), RawAuthor("a", "z@x"),
               RawAuthor("a", "b@x"), RawAuthor("", "c@x")]
    assert sorted(authors) == [RawAuthor("", "c@x"), RawAuthor("a", "b@x"),
                               RawAuthor("a", "z@x"), RawAuthor("b", "a@x")]
    assert RawAuthor("a", "b@x") < RawAuthor("a", "z@x")
    assert RawAuthor("a", "b@x") <= RawAuthor("a", "b@x")
    assert RawAuthor("b", "a@x") > RawAuthor("a", "z@x")
    assert RawAuthor("b", "a@x") >= RawAuthor("a", "z@x")


def test_only_raw_authors_are_ordered():
    later = CommitMeta("h2", ADA, NOON + timedelta(days=1))
    with pytest.raises(TypeError):
        META < later
    with pytest.raises(TypeError):
        sorted([later, META])
    with pytest.raises(TypeError):
        TrendPoint(2020, 1, 2) <= TrendPoint(2021, 1, 2)
    with pytest.raises(TypeError):
        RawAuthor("a", "b") < ("b", "c")
    with pytest.raises(TypeError):
        ("b", "c") > RawAuthor("a", "b")


def test_repr_names_every_field():
    assert repr(ADA) == "RawAuthor(name='Ada', email='ada@x')"
    assert repr(META) == (
        "CommitMeta(hash='h1', author=RawAuthor(name='Ada', email='ada@x'), "
        "author_timestamp=datetime.datetime(2020, 1, 1, 12, 0, "
        "tzinfo=datetime.timezone.utc), is_merge=False, sequence=0)")
    assert repr(TrendPoint(2020, 1, 2)) == \
        "TrendPoint(year=2020, bus_factor=1, total_developers=2)"
    window = TimeWindow(2020, None, 2021, 3)
    assert window.contains(NOON)
    assert repr(window) == ("TimeWindow(start_year=2020, start_month=None, "
                            "end_year=2021, end_month=3)")
    assert repr(RigConfig()) == (
        "RigConfig(max_group_size=200, samples_per_size=1000, seed=0, "
        "line_abandon_fraction=0.9, file_abandon_fraction=0.5, "
        "exhaustive=False)")
    assert repr(DataMetric(MetricKind.LOCC)) == \
        "DataMetric(kind=<MetricKind.LOCC: 'locc'>, cos_scale_by_locc=False)"
    assert str(ADA) == "Ada <ada@x>"


def test_construction_by_position_keyword_and_default():
    by_keyword = CommitMeta(hash="h1", author=ADA, author_timestamp=NOON)
    assert by_keyword == META
    assert (META.is_merge, META.sequence) == (False, 0)
    assert CommitMeta("h1", ADA, NOON, True, 5) == CommitMeta(
        "h1", ADA, NOON, sequence=5, is_merge=True)
    assert RigConfig() == RigConfig(200, 1000, 0, 0.90, 0.50, False)
    assert TimeWindow() == TimeWindow(None, None, None, None)
    with pytest.raises(TypeError):
        RawAuthor("Ada")
    with pytest.raises(TypeError):
        RawAuthor("Ada", "ada@x", "extra")
    with pytest.raises(TypeError):
        RawAuthor("Ada", email="ada@x", nickname="A")
    with pytest.raises(TypeError):
        RawAuthor("Ada", "ada@x", name="Ada")


def test_replace_changes_one_field():
    moved = _replace(META, sequence=9)
    assert (moved.hash, moved.author, moved.sequence) == ("h1", ADA, 9)
    assert META.sequence == 0
    assert _replace(RigConfig(), seed=3) == RigConfig(seed=3)
    assert _replace(TimeWindow.year(2020), end_year=2021) == \
        TimeWindow(2020, None, 2021, None)
    assert not _replace(TimeWindow.year(2020), end_year=2021).contains(
        datetime(2022, 1, 1, tzinfo=timezone.utc))
    with pytest.raises(TypeError):
        _replace(ADA, nickname="A")


@pytest.mark.parametrize("value,changes", [
    (TrendPoint(2020, 1, 2), {"bus_factor": 3}),
    (TrendPoint(2020, 1, 2), {"total_developers": 0}),
    (RigConfig(), {"samples_per_size": 0}),
    (RigConfig(), {"max_group_size": 0}),
    (RigConfig(), {"line_abandon_fraction": 1.5}),
    (RigConfig(), {"file_abandon_fraction": 0.0}),
    (RawAuthor("Ada", ""), {"name": ""}),
    (TimeWindow(2020, None, 2021, None), {"end_year": 2019}),
    (TimeWindow(2020, None, 2021, None), {"start_month": 13}),
    (TimeWindow(2020, 5, 2021, None), {"start_year": None}),
])
def test_replace_runs_the_checks_again(value, changes):
    with pytest.raises(ValueError):
        _replace(value, **changes)


def test_commit_times_become_utc():
    naive = CommitMeta("h", ADA, datetime(2020, 1, 1, 12))
    assert naive.author_timestamp == NOON
    assert naive.author_timestamp.tzinfo is timezone.utc
    plus_two = timezone(timedelta(hours=2))
    shifted = CommitMeta("h", ADA, datetime(2020, 1, 1, 14, tzinfo=plus_two))
    assert shifted.author_timestamp == NOON
    assert shifted.author_timestamp.tzinfo is timezone.utc
    assert shifted.author_timestamp.hour == 12
    assert shifted == naive
    replaced = _replace(META, author_timestamp=datetime(2020, 1, 1, 14,
                                                        tzinfo=plus_two))
    assert replaced.author_timestamp.tzinfo is timezone.utc
    assert replaced == META


@pytest.mark.parametrize("value", [
    BlameSnapshot("r", {"f": {ADA: 2}}),
    KnowledgeTable({}, 0),
])
def test_values_holding_dicts_are_unhashable(value):
    assert value == _replace(value)
    with pytest.raises(TypeError):
        hash(value)
