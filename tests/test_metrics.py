"""Contribution metrics: commit counting, line counting, change-size-cos."""
from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from busfactor import (ChangeRecord, CommitMeta, DataMetric, MetricKind,
                       RawAuthor, contribution, locc, token_distance,
                       tokenize)


def make_record(added=0, deleted=0, cos_distance=1.0):
    meta = CommitMeta(hash="a" * 40, author=RawAuthor("A", "a@x"),
                      author_timestamp=datetime(2021, 6, 1,
                                                tzinfo=timezone.utc))
    return ChangeRecord(commit=meta, path="f", lines_added=added,
                        lines_deleted=deleted, cos_distance=cos_distance)


def test_tokenize_splits_on_non_alphanumerics():
    bag = tokenize(["x = f(y_val, 2)", "x += 1"])
    assert bag == {"x": 2, "f": 1, "y": 1, "val": 1, "2": 1, "1": 1}


def test_tokenize_counts_repeats():
    assert tokenize(["a a a b"]) == {"a": 3, "b": 1}


def test_tokenize_handles_unicode_words():
    assert tokenize(["naïve café"]) == {"naïve": 1, "café": 1}


def test_commits_metric_is_one_per_record():
    record = make_record(added=500, deleted=100)
    assert contribution(record, DataMetric(MetricKind.COMMITS)) == 1.0


def test_locc_sums_added_and_deleted():
    record = make_record(added=7, deleted=5)
    assert locc(record) == 12
    assert contribution(record, DataMetric(MetricKind.LOCC)) == 12.0


def test_cosine_orthogonal_changes_score_one():
    assert token_distance({"new": 1, "code": 1}, {"old": 1, "stuff": 1}) == 1.0


def test_cosine_identical_bags_score_zero():
    bag = {"same": 2, "thing": 1}
    assert token_distance(bag, dict(bag)) == pytest.approx(0.0, abs=1e-12)


def test_cosine_pure_addition_scores_one():
    assert token_distance({"fresh": 3}, {}) == 1.0


def test_cosine_pure_deletion_scores_one():
    assert token_distance({}, {"dead": 3}) == 1.0


def test_cosine_both_bags_empty_scores_zero():
    # e.g. whitespace-only change: lines moved, no tokens at all
    assert token_distance({}, {}) == 0.0


def test_cosine_half_overlap():
    assert token_distance({"keep": 1, "new": 1},
                          {"keep": 1, "old": 1}) == pytest.approx(0.5)


def test_cos_contribution_is_the_stored_distance():
    record = make_record(added=3, deleted=1, cos_distance=0.375)
    assert contribution(record, DataMetric(MetricKind.CHANGE_SIZE_COS)) == 0.375


def test_cos_scaled_by_locc():
    record = make_record(added=4, deleted=2, cos_distance=1.0)
    plain = contribution(record, DataMetric(MetricKind.CHANGE_SIZE_COS))
    scaled = contribution(record, DataMetric(MetricKind.CHANGE_SIZE_COS,
                                             cos_scale_by_locc=True))
    assert plain == 1.0
    assert scaled == 6.0


token_bags = st.dictionaries(
    st.text(alphabet="abcdefg", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=9),
    max_size=6,
)


@given(added=token_bags, deleted=token_bags)
def test_token_distance_bounded_and_symmetric(added, deleted):
    d = token_distance(added, deleted)
    assert 0.0 <= d <= 1.0
    assert d == token_distance(deleted, added)


@given(bag=token_bags.filter(lambda b: b))
def test_token_distance_self_is_zero(bag):
    assert token_distance(bag, dict(bag)) == pytest.approx(0.0, abs=1e-12)


@given(bag=token_bags.filter(lambda b: b), scale=st.integers(2, 50))
def test_token_distance_scale_invariant(bag, scale):
    scaled = {tok: n * scale for tok, n in bag.items()}
    assert token_distance(bag, scaled) == pytest.approx(0.0, abs=1e-12)
