"""Commit-based knowledge shares, thresholds, classification, windows."""
from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from busfactor import (BlameSnapshot, BusFactorResult, ChangeRecord,
                       CommitMeta, CstConfig, CstMetricKind, DataMetric,
                       DeveloperId, MetricKind, RawAuthor, TimeWindow,
                       WeightScheme, aggregate_knowledge, compare_error,
                       compute_thresholds, classify_developers,
                       cst_bus_factor, filter_records, filter_snapshot,
                       knowledge_per_file, resolve_identities,
                       shares_from_timeline)
from busfactor import load_cache, save_cache
from busfactor.cst import KnowledgeTable
from busfactor.errors import EmptyScope, UnknownAuthor, ZeroDevelopers

from . import oracles

A = RawAuthor("Ada Core", "ada@fixture.test")
B = RawAuthor("Bert Low", "bert@fixture.test")
C = RawAuthor("Cleo Vian", "cleo@fixture.test")


def dev(author: RawAuthor) -> DeveloperId:
    return DeveloperId(author.name, author.email, frozenset({author}))


DEV_A, DEV_B, DEV_C = dev(A), dev(B), dev(C)


def record(author, path="f.txt", when=None, added=1, deleted=0,
           cos_distance=1.0, seq=0, hash_suffix="0"):
    meta = CommitMeta(
        hash=(hash_suffix * 40)[:40],
        author=author,
        author_timestamp=when or datetime(2021, 1, 1, tzinfo=timezone.utc),
        sequence=seq,
    )
    return ChangeRecord(commit=meta, path=path, lines_added=added,
                        lines_deleted=deleted, cos_distance=cos_distance)


def month(m, seq=0, author=A, **kwargs):
    return record(author, when=datetime(2021, m, 1, tzinfo=timezone.utc),
                  seq=seq, **kwargs)


def identity_for(records):
    return resolve_identities({r.author for r in records})


# --- shares_from_timeline: the per-file formulas -------------------------

def test_last_change_takes_it_all():
    shares = shares_from_timeline([(DEV_A, 1.0), (DEV_A, 1.0), (DEV_B, 1.0)],
                                  CstMetricKind.LAST_CHANGE)
    assert shares == {DEV_A: 0.0, DEV_B: 1.0}


def test_mul_equal_is_contribution_ratio():
    shares = shares_from_timeline(
        [(DEV_A, 3.0), (DEV_B, 1.0)], CstMetricKind.MUL_CHANGES_EQUAL)
    assert shares == {DEV_A: 0.75, DEV_B: 0.25}


def test_non_consecutive_collapses_runs_unit_events():
    # A,A,B,A with commit counting: events A,B,A -> 2/3 vs 1/3
    shares = shares_from_timeline(
        [(DEV_A, 1.0), (DEV_A, 1.0), (DEV_B, 1.0), (DEV_A, 1.0)],
        CstMetricKind.NON_CONSECUTIVE, unit_events=True)
    assert shares[DEV_A] == pytest.approx(2 / 3)
    assert shares[DEV_B] == pytest.approx(1 / 3)


def test_non_consecutive_sums_runs_for_line_counts():
    # same shape but LOCC-style values: run A(5,3) collapses to one
    # 8-line event; totals A=8+2=10 of 14
    shares = shares_from_timeline(
        [(DEV_A, 5.0), (DEV_A, 3.0), (DEV_B, 4.0), (DEV_A, 2.0)],
        CstMetricKind.NON_CONSECUTIVE)
    assert shares[DEV_A] == pytest.approx(10 / 14)
    assert shares[DEV_B] == pytest.approx(4 / 14)


def test_weighted_non_consecutive_linear_weights():
    # events A,B,A weighted 1,2,3 -> A: (1+3)/6, B: 2/6
    shares = shares_from_timeline(
        [(DEV_A, 1.0), (DEV_B, 1.0), (DEV_A, 1.0)],
        CstMetricKind.WEIGHTED_NON_CONSECUTIVE, unit_events=True)
    assert shares[DEV_A] == pytest.approx(4 / 6)
    assert shares[DEV_B] == pytest.approx(2 / 6)


def test_weighted_exponential_scheme():
    # weights 1,2,4: A gets (1+4)/7
    shares = shares_from_timeline(
        [(DEV_A, 1.0), (DEV_B, 1.0), (DEV_A, 1.0)],
        CstMetricKind.WEIGHTED_NON_CONSECUTIVE,
        weight_scheme=WeightScheme.EXPONENTIAL, unit_events=True)
    assert shares[DEV_A] == pytest.approx(5 / 7)
    assert shares[DEV_B] == pytest.approx(2 / 7)


def test_zero_contributions_carry_no_knowledge():
    shares = shares_from_timeline(
        [(DEV_A, 0.0), (DEV_B, 2.0)], CstMetricKind.LAST_CHANGE)
    assert shares == {DEV_B: 1.0}
    assert shares_from_timeline([(DEV_A, 0.0)],
                                CstMetricKind.MUL_CHANGES_EQUAL) == {}


timelines = st.lists(
    st.tuples(st.sampled_from([DEV_A, DEV_B, DEV_C]),
              st.floats(min_value=0.01, max_value=1e4)),
    min_size=1, max_size=12)


@settings(max_examples=200)
@given(timeline=timelines,
       metric=st.sampled_from(list(CstMetricKind)),
       scheme=st.sampled_from(list(WeightScheme)),
       unit=st.booleans())
def test_per_file_shares_always_sum_to_one(timeline, metric, scheme, unit):
    shares = shares_from_timeline(timeline, metric, scheme, unit_events=unit)
    assert abs(sum(shares.values()) - 1.0) <= 1e-9
    assert all(s >= 0 for s in shares.values())


# --- knowledge_per_file / aggregate over real record lists ----------------

def test_spec_walkthrough_a3_b1():
    records = [month(1, 0), month(2, 1), month(3, 2),
               month(4, 3, author=B)]
    idmap = identity_for(records)
    per_file = knowledge_per_file(records, idmap,
                                  CstMetricKind.MUL_CHANGES_EQUAL,
                                  DataMetric(MetricKind.COMMITS))
    shares = per_file["f.txt"]
    by_name = {d.canonical_name: s for d, s in shares.items()}
    assert by_name == {"Ada Core": 0.75, "Bert Low": 0.25}


def test_last_change_on_records_picks_latest_author_date():
    records = [month(4, 3, author=B), month(1, 0), month(3, 2), month(2, 1)]
    idmap = identity_for(records)
    per_file = knowledge_per_file(records, idmap, CstMetricKind.LAST_CHANGE,
                                  DataMetric(MetricKind.COMMITS))
    by_name = {d.canonical_name: s for d, s in per_file["f.txt"].items()}
    assert by_name == {"Ada Core": 0.0, "Bert Low": 1.0}


def test_last_change_tie_breaks_deterministically():
    when = datetime(2021, 5, 1, tzinfo=timezone.utc)
    records = [record(A, when=when, seq=7, hash_suffix="a"),
               record(B, when=when, seq=8, hash_suffix="b")]
    idmap = identity_for(records)
    per_file = knowledge_per_file(records, idmap, CstMetricKind.LAST_CHANGE,
                                  DataMetric(MetricKind.COMMITS))
    by_name = {d.canonical_name: s for d, s in per_file["f.txt"].items()}
    assert by_name["Bert Low"] == 1.0  # later ingestion order wins the tie


def test_aggregate_means_over_files():
    table = aggregate_knowledge({
        "f1": {DEV_A: 0.75, DEV_B: 0.25},
        "f2": {DEV_A: 0.5, DEV_B: 0.5},
    })
    assert table.shares[DEV_A] == pytest.approx(0.625)
    assert table.shares[DEV_B] == pytest.approx(0.375)
    assert table.file_count == 2
    assert len(table.shares) == 2


def test_aggregate_single_file_is_identity():
    table = aggregate_knowledge({"only": {DEV_A: 0.6, DEV_B: 0.4}})
    assert table.shares == {DEV_A: 0.6, DEV_B: 0.4}


def test_aggregate_disjoint_owners():
    table = aggregate_knowledge({
        "f1": {DEV_A: 1.0},
        "f2": {DEV_B: 1.0},
    })
    assert table.shares == {DEV_A: 0.5, DEV_B: 0.5}


# --- thresholds and classification ----------------------------------------

@pytest.mark.parametrize("n,x,y", [(4, 0.25, 0.125), (1, 1.0, 0.5),
                                   (2, 0.5, 0.25), (3, 1 / 3, 1 / 6)])
def test_threshold_pairs(n, x, y):
    pair = compute_thresholds(n)
    assert pair.primary_ratio == pytest.approx(x)
    assert pair.secondary_ratio == pytest.approx(y)


def test_thresholds_reject_zero_developers():
    with pytest.raises(ZeroDevelopers):
        compute_thresholds(0)


def test_classification_example_three_devs():
    table = KnowledgeTable(shares={DEV_A: 0.70, DEV_B: 0.25, DEV_C: 0.05},
                           file_count=1)
    primary, secondary = classify_developers(table, compute_thresholds(3))
    assert [d.canonical_name for d in primary] == ["Ada Core"]
    assert [d.canonical_name for d in secondary] == ["Bert Low"]


def test_boundary_equality_counts_as_primary():
    table = KnowledgeTable(shares={DEV_A: 0.5, DEV_B: 0.5}, file_count=1)
    primary, secondary = classify_developers(table, compute_thresholds(2))
    assert len(primary) == 2 and not secondary


# --- the full pipeline ------------------------------------------------------

def base_config(**kwargs):
    defaults = dict(cst_metric=CstMetricKind.MUL_CHANGES_EQUAL,
                    data_metric=DataMetric(MetricKind.COMMITS))
    defaults.update(kwargs)
    return CstConfig(**defaults)


def test_single_developer_bus_factor_is_one():
    records = [month(1)]
    result = cst_bus_factor(records, identity_for(records), base_config())
    assert result.bus_factor == 1
    assert result.developer_count == 1
    assert [d.canonical_name for d in result.primary_devs] == ["Ada Core"]


def test_pipeline_spec_classification():
    records = [month(1, 0), month(2, 1), month(3, 2),
               month(4, 3, author=B)]
    result = cst_bus_factor(records, identity_for(records), base_config())
    assert result.bus_factor == 2
    assert [d.canonical_name for d in result.primary_devs] == ["Ada Core"]
    assert [d.canonical_name for d in result.secondary_devs] == ["Bert Low"]
    assert result.thresholds.primary_ratio == 0.5


def test_equal_split_everyone_primary():
    records = [month(1, 0, author=A), month(2, 1, author=B),
               month(3, 2, author=C), month(4, 3, author=A),
               month(5, 4, author=B), month(6, 5, author=C)]
    result = cst_bus_factor(records, identity_for(records), base_config())
    assert result.developer_count == 3
    assert result.bus_factor == 3
    assert len(result.primary_devs) == 3


def test_bus_factor_bounds():
    records = [month(m, m, author=[A, B, C][m % 3], added=m + 1)
               for m in range(1, 12)]
    idmap = identity_for(records)
    for cst_metric in CstMetricKind:
        for data_kind in MetricKind:
            result = cst_bus_factor(records, idmap, base_config(
                cst_metric=cst_metric,
                data_metric=DataMetric(data_kind)))
            assert 1 <= result.bus_factor <= result.developer_count


def test_time_window_filters_records():
    records = [month(1, 0), month(6, 1, author=B), month(12, 2, author=C)]
    window = TimeWindow.parse("2021-05", "2021-07")
    kept = filter_records(records, window=window)
    assert [r.author.name for r in kept] == ["Bert Low"]


def test_time_window_year_granularity():
    early = record(A, when=datetime(2019, 7, 1, tzinfo=timezone.utc))
    late = record(B, when=datetime(2021, 2, 1, tzinfo=timezone.utc), seq=1)
    kept = filter_records([early, late], window=TimeWindow.parse("2020", None))
    assert [r.author.name for r in kept] == ["Bert Low"]
    kept = filter_records([early, late], window=TimeWindow.parse(None, "2019"))
    assert [r.author.name for r in kept] == ["Ada Core"]


def test_time_window_rejects_inverted_range():
    with pytest.raises(ValueError):
        TimeWindow.parse("2022", "2021")
    with pytest.raises(ValueError):
        TimeWindow(start_year=2021, start_month=13)


@pytest.mark.parametrize("kwargs, side", [
    (dict(start_month=5), "start"),
    (dict(end_month=2), "end"),
    (dict(start_month=5, end_month=2), "start"),
    (dict(start_year=2020, end_month=2), "end"),
    (dict(start_month=5, end_year=2021, end_month=2), "start"),
])
def test_time_window_month_needs_its_year(kwargs, side):
    with pytest.raises(ValueError, match=f"^{side} month .* no {side} year$"):
        TimeWindow(**kwargs)


def test_scope_and_exclude_filters():
    records = [record(A, path="src/a.py"),
               record(A, path="src/gen/x.py", seq=1),
               record(B, path="docs/r.md", seq=2)]
    kept = filter_records(records, scope="src", exclude_globs=["src/gen/**"])
    assert [r.path for r in kept] == ["src/a.py"]


@pytest.mark.parametrize("scope", [".", "./", "/", "./src", "src/", "./src/"])
def test_scope_spellings_normalize(scope):
    records = [record(A, path="src/a.py"), record(B, path="docs/r.md", seq=1)]
    kept = filter_records(records, scope=scope)
    snap = BlameSnapshot(revision="e" * 40,
                         files={"src/a.py": {A: 1}, "docs/r.md": {B: 1}})
    narrowed = filter_snapshot(snap, scope=scope)
    if "src" in scope:
        assert [r.path for r in kept] == ["src/a.py"]
        assert set(narrowed.files) == {"src/a.py"}
    else:
        assert len(kept) == 2
        assert narrowed == snap


def test_pipeline_raises_on_empty_scope():
    records = [month(1)]
    with pytest.raises(EmptyScope):
        cst_bus_factor(records, identity_for(records),
                       base_config(scope="nothing/here"))


def test_window_change_changes_n():
    records = [month(1, 0), month(2, 1, author=B),
               record(A, when=datetime(2022, 3, 1, tzinfo=timezone.utc),
                      seq=2)]
    idmap = identity_for(records)
    full = cst_bus_factor(records, idmap, base_config())
    only_2022 = cst_bus_factor(records, idmap, base_config(
        time_range=TimeWindow.year(2022)))
    assert full.developer_count == 2
    assert only_2022.developer_count == 1


def test_result_carries_knowledge_table():
    records = [month(1, 0), month(2, 1, author=B)]
    result = cst_bus_factor(records, identity_for(records), base_config())
    assert isinstance(result, BusFactorResult)
    assert result.knowledge.file_count == 1
    assert abs(sum(result.knowledge.shares.values()) - 1.0) <= 1e-9


# --- the column engine against the record-by-record pipeline ---------------

# Instants with microseconds, which a cache drops, equal ones, and both
# sides of a year boundary and of 1970, the instant 0.
_INSTANTS = [datetime(1969, 12, 31, 23, 59, 59, 500_000,
                      tzinfo=timezone.utc),
             datetime(1970, 1, 1, tzinfo=timezone.utc),
             datetime(1970, 1, 1, 0, 0, 0, 250_000, tzinfo=timezone.utc),
             datetime(2020, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
             datetime(2020, 12, 31, 23, 59, 59, 250_000,
                      tzinfo=timezone.utc),
             datetime(2021, 1, 1, tzinfo=timezone.utc),
             datetime(2021, 6, 15, 12, tzinfo=timezone.utc),
             datetime(2022, 3, 1, tzinfo=timezone.utc)]
# "Core, Ada" merges with Ada Core, so one developer has two spellings.
_AUTHORS = [A, B, C, RawAuthor("Core, Ada", "a.core@other.test")]
_PATHS = ["src/a.py", "src/gen/b.py", "docs/c.md", "d.txt", "src/e.py"]
_COS = (0.0, 0.1, 1 / 3, 0.7071067811865476, 1.0)


@st.composite
def _histories(draw):
    commits = draw(st.lists(st.tuples(
        st.sampled_from(_INSTANTS), st.sampled_from(_AUTHORS),
        st.integers(0, 2), st.sampled_from("0af")), max_size=14))
    records = []
    for instant, author, seq, digit in commits:
        meta = CommitMeta(hash=digit * 40, author=author,
                          author_timestamp=instant, sequence=seq)
        for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1,
                                  max_size=3, unique=True)):
            records.append(ChangeRecord(
                commit=meta, path=path,
                lines_added=draw(st.integers(0, 5)),
                lines_deleted=draw(st.integers(0, 3)),
                cos_distance=draw(st.sampled_from(_COS))))
    return draw(st.permutations(records))


_WINDOWS = [None, TimeWindow.year(2021), TimeWindow.year(2020),
            TimeWindow(2020, 12, 2021, 6), TimeWindow(end_year=2020),
            TimeWindow(start_year=2021, start_month=2),
            TimeWindow(start_year=1970), TimeWindow(end_year=1969)]


def _outcome(compute):
    """The shares, in order, and file count; or the exception's type and
    message."""
    try:
        result = compute()
    except (EmptyScope, ZeroDevelopers, UnknownAuthor) as exc:
        return type(exc), str(exc)
    if isinstance(result, BusFactorResult):
        result = result.knowledge.shares, result.knowledge.file_count
    shares, files = result
    return list(shares.items()), files


@settings(max_examples=400, derandomize=True, deadline=None)
@given(records=_histories(),
       cst_metric=st.sampled_from(list(CstMetricKind)),
       kind=st.sampled_from(list(MetricKind)),
       scale=st.booleans(),
       scheme=st.sampled_from(list(WeightScheme)),
       window=st.sampled_from(_WINDOWS),
       scope=st.sampled_from([None, "src", "docs"]),
       exclude=st.sampled_from([(), ("*.md",), ("src/gen/*",)]))
def test_engine_equals_the_record_pipeline(
        tmp_path_factory, records, cst_metric, kind, scale, scheme, window,
        scope, exclude):
    config = CstConfig(cst_metric=cst_metric,
                       data_metric=DataMetric(kind, cos_scale_by_locc=scale),
                       scope=scope, time_range=window,
                       exclude_globs=exclude, weight_scheme=scheme)
    identity = resolve_identities(_AUTHORS)
    expected = _outcome(lambda: oracles.reference_cst(records, identity,
                                                      config))
    assert _outcome(lambda: cst_bus_factor(records, identity, config)) == \
        expected
    # The cache keeps whole seconds; its columns against its records.
    cache = tmp_path_factory.getbasetemp() / "engine-cache"
    save_cache(records, None, "fixture@0", cache)
    loaded = load_cache(cache)[0]
    columns = load_cache(cache, columns=True)[0]
    assert _outcome(lambda: cst_bus_factor(columns, identity, config)) == \
        _outcome(lambda: oracles.reference_cst(loaded, identity, config))


def test_unknown_author_raises_only_when_selected():
    records = [record(A, path="src/a.py"), record(B, path="docs/b.md")]
    identity = resolve_identities([A])
    with pytest.raises(UnknownAuthor, match="Bert Low"):
        cst_bus_factor(records, identity, base_config())
    result = cst_bus_factor(records, identity, base_config(scope="src"))
    assert result.knowledge.shares == {identity.canonical(A): 1.0}


# --- error comparison -------------------------------------------------------

@pytest.mark.parametrize("bf,ref,err", [(12, 17, 5), (10, 17, 7),
                                        (5, 17, 12), (29, 17, 12),
                                        (17, 17, 0)])
def test_compare_error_values(bf, ref, err):
    assert compare_error(bf, ref) == err


def test_compare_error_is_symmetric_and_rejects_negatives():
    assert compare_error(3, 9) == compare_error(9, 3)
    with pytest.raises(ValueError):
        compare_error(-1, 5)
