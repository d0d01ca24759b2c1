"""Removal-based bus factor: abandonment, sampling, exhaustive search."""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from busfactor import rig as rig_module
from busfactor import (BlameSnapshot, DeveloperId, IdentityMap, RawAuthor,
                       RigConfig, RigResult, abandoned_file_fraction,
                       resolve_identities, rig_bus_factor, rig_repeat,
                       summarize_runs)
from busfactor.errors import EmptySnapshot
from tests import oracles

A = RawAuthor("Ada Core", "ada@fixture.test")
B = RawAuthor("Bert Low", "bert@fixture.test")
C = RawAuthor("Cleo Vian", "cleo@fixture.test")
D = RawAuthor("Dmitri Fen", "dmitri@fixture.test")


def snapshot(files):
    return BlameSnapshot(revision="e" * 40, files={
        path: Counter(lines) for path, lines in files.items()})


def identity_for(snap):
    authors = {a for lines in snap.files.values() for a in lines}
    return resolve_identities(authors)


def one_per_author(snap):
    """An identity per raw author, independent of fuzzy name
    matching."""
    return IdentityMap({a: DeveloperId(a.name, a.email, frozenset({a}))
                        for a in snap.authors()})


def config(**kwargs):
    defaults = dict(seed=11, samples_per_size=200)
    defaults.update(kwargs)
    return RigConfig(**defaults)


def canonical(idmap, author):
    return idmap.canonical(author)


# --- abandonment fraction ---------------------------------------------------

def test_fraction_spec_example():
    # four files: two wholly A's, one B's, one C's; A leaving abandons 2/4
    snap = snapshot({"a1": [A, A], "a2": [A], "b": [B, B], "c": [C]})
    idmap = identity_for(snap)
    gone = frozenset({canonical(idmap, A)})
    assert abandoned_file_fraction(snap, idmap, gone) == pytest.approx(0.5)


def test_fraction_empty_departure_is_zero():
    snap = snapshot({"a": [A], "b": [B]})
    idmap = identity_for(snap)
    assert abandoned_file_fraction(snap, idmap, frozenset()) == 0.0


def test_fraction_everyone_leaves_is_one():
    snap = snapshot({"a": [A], "b": [B], "c": [C, A]})
    idmap = identity_for(snap)
    gone = frozenset(idmap.developers())
    assert abandoned_file_fraction(snap, idmap, gone) == 1.0


def test_fraction_uses_line_threshold():
    # 10-line file, A owns 9: exactly at the 0.9 default -> abandoned
    snap = snapshot({"f": [A] * 9 + [B]})
    idmap = identity_for(snap)
    gone = frozenset({canonical(idmap, A)})
    assert abandoned_file_fraction(snap, idmap, gone) == 1.0
    # A owns 8 of 10 -> below threshold, file survives
    snap2 = snapshot({"f": [A] * 8 + [B] * 2})
    idmap2 = identity_for(snap2)
    gone2 = frozenset({canonical(idmap2, A)})
    assert abandoned_file_fraction(snap2, idmap2, gone2) == 0.0


def test_fraction_custom_thresholds():
    snap = snapshot({"f": [A, A, B, B]})
    idmap = identity_for(snap)
    gone = frozenset({canonical(idmap, A)})
    assert abandoned_file_fraction(snap, idmap, gone,
                                   line_abandon_fraction=0.5) == 1.0


def test_fraction_is_monotone_under_growing_departure():
    snap = snapshot({"f1": [A, A, B], "f2": [B], "f3": [C, C],
                     "f4": [A, C], "f5": [D] * 4})
    idmap = identity_for(snap)
    devs = sorted(idmap.developers(), key=DeveloperId.sort_key)
    for size in range(len(devs)):
        for combo in itertools.combinations(devs, size):
            base = abandoned_file_fraction(snap, idmap, frozenset(combo))
            for extra in devs:
                grown = frozenset(combo) | {extra}
                assert abandoned_file_fraction(snap, idmap, grown) >= base


@pytest.mark.parametrize("threshold", [0.1, 0.29, 1 / 3, 2 / 3, 0.9, 1.0])
@pytest.mark.parametrize("total", [1, 2, 3, 7, 10, 29, 100, 101, 997])
def test_fraction_boundary_is_the_float_test(threshold, total):
    # need: the fewest of `total` lines whose departure passes the
    # float test gone / total >= threshold, found by counting up
    need = next(n for n in range(total + 1) if n / total >= threshold)
    for gone, abandoned in ((need, 1.0), (need - 1, 0.0)):
        snap = snapshot({"f": [A] * gone + [B] * (total - gone)})
        idmap = one_per_author(snapshot({"a": [A], "b": [B]}))
        departed = {idmap.canonical(A)}
        assert abandoned_file_fraction(snap, idmap, departed,
                                       threshold) == abandoned


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
def test_fraction_rejects_threshold_outside_unit_interval(threshold):
    snap = snapshot({"f": [A, B]})
    idmap = identity_for(snap)
    with pytest.raises(ValueError):
        abandoned_file_fraction(snap, idmap, {idmap.canonical(A)},
                                threshold)


def test_zero_line_file_is_named_not_divided_by():
    snap = BlameSnapshot(revision="e" * 40,
                         files={"full.txt": {A: 1, B: 1}, "empty.txt": {}})
    idmap = resolve_identities({A, B})
    with pytest.raises(EmptySnapshot, match="empty.txt"):
        abandoned_file_fraction(snap, idmap, frozenset())
    with pytest.raises(EmptySnapshot, match="empty.txt"):
        rig_bus_factor(snap, idmap, config())


@pytest.mark.parametrize("count", [0, -1])
def test_non_positive_line_count_is_rejected(count):
    with pytest.raises(ValueError, match=r"'thin.txt'.*Bert Low"):
        BlameSnapshot(revision="e" * 40,
                      files={"full.txt": {A: 2},
                             "thin.txt": {A: 1, B: count}})


def test_fraction_rejects_empty_snapshot():
    snap = BlameSnapshot(revision="e" * 40, files={})
    idmap = resolve_identities({A})
    with pytest.raises(EmptySnapshot):
        abandoned_file_fraction(snap, idmap, frozenset())


# --- exhaustive search -------------------------------------------------------

def test_exhaustive_spec_example_three_devs():
    # one file per dev: any single departure abandons 1/3 < 0.5,
    # any pair abandons 2/3 >= 0.5 -> bus factor 2
    snap = snapshot({"a": [A], "b": [B], "c": [C]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True))
    assert result.bus_factor == 2
    assert len(result.bf_set) == 2


def test_exhaustive_single_dev():
    snap = snapshot({"a": [A], "b": [A, A]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True))
    assert result.bus_factor == 1
    assert result.bf_set == frozenset(idmap.developers())


def test_exhaustive_dominant_owner():
    # A owns 3 of 4 files outright -> removing just A is enough
    snap = snapshot({"f1": [A], "f2": [A, A], "f3": [A], "f4": [B]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True))
    assert result.bus_factor == 1
    assert result.bf_set == frozenset({canonical(idmap, A)})


def test_exhaustive_matches_oracle_on_mixed_fixture():
    snap = snapshot({"f1": [A, A, B], "f2": [B, B, B], "f3": [C],
                     "f4": [A, C, C, C], "f5": [D, D], "f6": [B, D]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True))
    expect_g, feasible = oracles.rig_min_g(snap, idmap.canonical)
    assert result.bus_factor == expect_g
    assert result.bf_set in feasible


def test_certificate_actually_abandons_majority():
    snap = snapshot({"f1": [A, A], "f2": [B], "f3": [C, C, C], "f4": [A, B]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True))
    frac = abandoned_file_fraction(snap, idmap, result.bf_set)
    assert frac >= 0.5
    assert result.abandoned_fraction_at_return == pytest.approx(frac)


def test_infeasible_within_max_g_returns_null_result():
    snap = snapshot({"a": [A], "b": [B], "c": [C], "d": [D]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True, max_group_size=1))
    assert result.bus_factor is None
    assert result.bf_set is None
    assert result.abandoned_fraction_at_return == 0.0
    assert result.samples_evaluated == 4


# --- sampling ----------------------------------------------------------------

def test_sampled_never_beats_exhaustive():
    snap = snapshot({"f1": [A, B], "f2": [B, B], "f3": [C, C],
                     "f4": [A], "f5": [D, C]})
    idmap = identity_for(snap)
    exact = rig_bus_factor(snap, idmap, config(exhaustive=True))
    for seed in range(20):
        sampled = rig_bus_factor(snap, idmap, config(seed=seed))
        assert sampled.bus_factor >= exact.bus_factor


def test_sampling_is_deterministic_per_seed():
    snap = snapshot({"f1": [A, B, C], "f2": [B], "f3": [C, C],
                     "f4": [D, D, A]})
    idmap = identity_for(snap)
    first = rig_bus_factor(snap, idmap, config(seed=99))
    second = rig_bus_factor(snap, idmap, config(seed=99))
    assert first == second


def test_different_seeds_may_disagree_but_stay_feasible():
    snap = snapshot({"f1": [A], "f2": [B], "f3": [C]})
    idmap = identity_for(snap)
    for seed in range(30):
        result = rig_bus_factor(snap, idmap, config(seed=seed,
                                                    samples_per_size=2))
        assert result.bus_factor in (2, 3)
        if result.bf_set is not None:
            assert abandoned_file_fraction(snap, idmap,
                                           result.bf_set) >= 0.5


def test_sampled_exhausts_small_population():
    # population 2 with ample samples behaves like exhaustive
    snap = snapshot({"a": [A], "b": [B]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(seed=3))
    assert result.bus_factor == 1
    assert result.bf_set in (frozenset({canonical(idmap, A)}),
                             frozenset({canonical(idmap, B)}))


def test_group_size_capped_by_population():
    snap = snapshot({"a": [A], "b": [B]})
    idmap = identity_for(snap)
    result = rig_bus_factor(snap, idmap, config(exhaustive=True, max_group_size=200))
    assert result.bus_factor is not None
    assert result.bus_factor <= 2


# --- repeated runs -----------------------------------------------------------

def test_repeat_derives_distinct_seeds():
    snap = snapshot({"f1": [A], "f2": [B], "f3": [C]})
    idmap = identity_for(snap)
    runs = rig_repeat(snap, idmap, config(seed=5, samples_per_size=1), 10)
    assert len(runs) == 10
    rerun = rig_repeat(snap, idmap, config(seed=5, samples_per_size=1), 10)
    assert runs == rerun
    singles = [rig_bus_factor(snap, idmap,
                              config(seed=5 + i, samples_per_size=1))
               for i in range(10)]
    assert runs == singles


def test_repeat_builds_one_index_for_all_runs(monkeypatch):
    snap = snapshot({"f1": [A, A, B], "f2": [B, C], "f3": [C, D, D],
                     "f4": [D, A]})
    idmap = identity_for(snap)
    expected = [rig_bus_factor(snap, idmap,
                               config(seed=3 + i, max_group_size=3))
                for i in range(5)]
    built = []
    index = rig_module._Departures

    class Counted(index):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)
    monkeypatch.setattr(rig_module, "_Departures", Counted)
    runs = rig_repeat(snap, idmap, config(seed=3, max_group_size=3), 5)
    assert len(built) == 1
    assert runs == expected


def test_repeat_walks_the_level_bound_once(monkeypatch):
    snap = triples()  # the bound rules out sizes 1 and 2
    idmap = one_per_author(snap)
    cfg = RigConfig(max_group_size=8, samples_per_size=6, seed=4)
    expected = [rig_bus_factor(snap, idmap, cfg.replace(seed=4 + i))
                for i in range(5)]
    walks = []
    index = rig_module._Departures

    class Counted(index):
        def level_bounds(self):
            walks.append(self)
            return super().level_bounds()
    monkeypatch.setattr(rig_module, "_Departures", Counted)
    runs = rig_repeat(snap, idmap, cfg, 5)
    assert len(walks) == 1
    assert runs == expected
    assert all(run.bus_factor >= 3 for run in runs)


def test_repeat_exhaustive_runs_identical():
    snap = snapshot({"f1": [A, B], "f2": [C], "f3": [C, C]})
    idmap = identity_for(snap)
    runs = rig_repeat(snap, idmap, config(exhaustive=True), 4)
    assert len(set(runs)) == 1


def test_repeat_exhaustive_searches_once(monkeypatch):
    snap = snapshot({"f1": [A, B], "f2": [C], "f3": [C, C]})
    idmap = identity_for(snap)
    calls = []
    search = rig_module.rig_bus_factor

    def counted(*args):
        calls.append(args)
        return search(*args)
    monkeypatch.setattr(rig_module, "rig_bus_factor", counted)
    runs = rig_repeat(snap, idmap, config(exhaustive=True), 4)
    assert len(calls) == 1
    assert len(runs) == 4
    assert runs == [search(snap, idmap, config(exhaustive=True))] * 4


def fake_result(idmap, bf):
    """A result whose departing group is the first bf developers."""
    bf_set = None if bf is None else frozenset(idmap.developers()[:bf])
    return RigResult(bf_set=bf_set, samples_evaluated=1,
                     abandoned_fraction_at_return=0.0 if bf is None else 0.6)


def test_summarize_runs():
    idmap = identity_for(snapshot({"a": [A, B, C, D]}))

    def fake(bf):
        return fake_result(idmap, bf)

    summary = summarize_runs([fake(2), fake(3), fake(2), fake(4)])
    assert summary == {"min": 2, "max": 4, "mode": 2}
    assert summarize_runs([fake(None)]) == {"min": None, "max": None,
                                            "mode": None}


def test_summary_mode_tie_takes_smallest():
    idmap = identity_for(snapshot({"a": [A, B, C]}))
    summary = summarize_runs([fake_result(idmap, bf) for bf in (3, 2, 3, 2)])
    assert summary["mode"] == 2


# --- config validation ---------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(samples_per_size=0),
    dict(max_group_size=0),
    dict(line_abandon_fraction=0.0),
    dict(line_abandon_fraction=1.5),
    dict(file_abandon_fraction=-0.1),
    dict(seed=-1),  # random.Random(-1) draws what random.Random(1) draws
])
def test_rig_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        config(**kwargs)


def test_rig_rejects_empty_snapshot():
    snap = BlameSnapshot(revision="e" * 40, files={})
    idmap = resolve_identities({A})
    with pytest.raises(EmptySnapshot):
        rig_bus_factor(snap, idmap, config())


# --- golden results -----------------------------------------------------------
# Recorded from the engine that walked every file's owners per subset;
# any engine must reproduce them exactly, floats included.

PEOPLE = [RawAuthor(name, name.split()[0].lower() + "@fixture.test")
          for name in ("Ada Core", "Bert Low", "Cleo Vian", "Dmitri Fen",
                       "Edna Holt", "Farid Osei", "Greta Lund", "Hiro Sato",
                       "Ines Prado", "Jonas Berg", "Kemal Aydin",
                       "Lucia Ferro")]


def generated(seed, files, people, owners_per_file):
    """Files of 1-30 lines, each owned mostly by the first of a few
    owners drawn from the first `people` of PEOPLE."""
    rng = random.Random(seed)
    out = {}
    for i in range(files):
        owners = rng.sample(PEOPLE[:people], owners_per_file)
        out[f"src/f{i:02d}.py"] = [
            owners[0] if rng.random() < 0.7 else rng.choice(owners)
            for _ in range(rng.randint(1, 30))]
    return snapshot(out)


GOLDEN_FIXTURES = {
    "mixed": (snapshot({"f1": [A, A, B], "f2": [B, B, B], "f3": [C],
                        "f4": [A, C, C, C], "f5": [D, D], "f6": [B, D]}),
              dict(max_group_size=4)),
    "owned": (generated(10, files=25, people=10, owners_per_file=3),
              dict(max_group_size=6)),
    "owned-low-threshold": (generated(10, files=25, people=10,
                                      owners_per_file=3),
                            dict(max_group_size=6, line_abandon_fraction=1 / 3,
                                 file_abandon_fraction=0.6)),
    "shared": (generated(8, files=20, people=12, owners_per_file=4),
               dict(max_group_size=4)),  # no group of 4 abandons half
}

# (fixture, mode) -> (bus factor, bf_set emails, subsets evaluated,
# abandoned fraction at return); sampled modes use 40 samples per size.
GOLDEN = {
    ("mixed", "exhaustive"): (
        2, ["bert@fixture.test", "dmitri@fixture.test"], 9, 0.5),
    ("mixed", "seed0"): (
        2, ["bert@fixture.test", "dmitri@fixture.test"], 42, 0.5),
    ("mixed", "seed1"): (
        2, ["bert@fixture.test", "dmitri@fixture.test"], 41, 0.5),
    ("mixed", "seed2"): (
        2, ["bert@fixture.test", "dmitri@fixture.test"], 50, 0.5),
    ("owned", "exhaustive"): (
        5, ["ada@fixture.test", "cleo@fixture.test", "dmitri@fixture.test",
            "farid@fixture.test", "greta@fixture.test"], 447, 0.52),
    ("owned", "seed0"): (
        6, ["ada@fixture.test", "cleo@fixture.test", "dmitri@fixture.test",
            "farid@fixture.test", "hiro@fixture.test", "jonas@fixture.test"],
        208, 0.52),
    ("owned", "seed1"): (
        6, ["ada@fixture.test", "cleo@fixture.test", "dmitri@fixture.test",
            "edna@fixture.test", "farid@fixture.test", "jonas@fixture.test"],
        216, 0.52),
    ("owned", "seed2"): (
        6, ["ada@fixture.test", "cleo@fixture.test", "dmitri@fixture.test",
            "farid@fixture.test", "hiro@fixture.test", "ines@fixture.test"],
        204, 0.52),
    ("owned-low-threshold", "exhaustive"): (
        4, ["ada@fixture.test", "cleo@fixture.test", "farid@fixture.test",
            "hiro@fixture.test"], 216, 0.64),
    ("owned-low-threshold", "seed0"): (
        4, ["cleo@fixture.test", "farid@fixture.test", "greta@fixture.test",
            "jonas@fixture.test"], 132, 0.6),
    ("owned-low-threshold", "seed1"): (
        4, ["ada@fixture.test", "cleo@fixture.test", "farid@fixture.test",
            "jonas@fixture.test"], 124, 0.6),
    ("owned-low-threshold", "seed2"): (
        4, ["dmitri@fixture.test", "farid@fixture.test", "hiro@fixture.test",
            "jonas@fixture.test"], 153, 0.6),
    ("shared", "exhaustive"): (
        None, None, 793, 0.0),
    ("shared", "seed0"): (
        None, None, 160, 0.0),
    ("shared", "seed1"): (
        None, None, 160, 0.0),
    ("shared", "seed2"): (
        None, None, 160, 0.0),
}


def golden_runs():
    for name, (snap, kwargs) in GOLDEN_FIXTURES.items():
        yield name, "exhaustive", snap, RigConfig(exhaustive=True, **kwargs)
        for seed in range(3):
            yield name, f"seed{seed}", snap, RigConfig(
                seed=seed, samples_per_size=40, **kwargs)


def pinned(result):
    emails = (sorted(d.canonical_email for d in result.bf_set)
              if result.bf_set is not None else None)
    return (result.bus_factor, emails, result.samples_evaluated,
            result.abandoned_fraction_at_return)


@pytest.mark.parametrize("name, mode, snap, cfg",
                         [pytest.param(*run, id=f"{run[0]}-{run[1]}")
                          for run in golden_runs()])
def test_golden_results(name, mode, snap, cfg):
    result = rig_bus_factor(snap, one_per_author(snap), cfg)
    assert pinned(result) == GOLDEN[name, mode]


# --- against the reference loop ----------------------------------------------

_FRACTIONS = st.sampled_from([0.1, 0.25, 0.29, 1 / 3, 0.5, 0.6, 2 / 3, 0.9,
                              1.0])
_SNAPSHOTS = st.dictionaries(
    st.sampled_from([f"f{i}" for i in range(8)]),
    st.lists(st.sampled_from(PEOPLE[:7]), min_size=1, max_size=12),
    min_size=1, max_size=8).map(snapshot)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(snap=_SNAPSHOTS, line=_FRACTIONS, file=_FRACTIONS,
       exhaustive=st.booleans(), seed=st.integers(0, 2**32),
       samples=st.integers(1, 12), max_g=st.integers(1, 7))
def test_matches_reference_loop(snap, line, file, exhaustive, seed, samples,
                                max_g):
    cfg = RigConfig(max_group_size=max_g, samples_per_size=samples, seed=seed,
                    line_abandon_fraction=line, file_abandon_fraction=file,
                    exhaustive=exhaustive)
    idmap = one_per_author(snap)
    result = rig_bus_factor(snap, idmap, cfg)
    assert (result.bus_factor, result.bf_set, result.samples_evaluated,
            result.abandoned_fraction_at_return) == oracles.rig_reference(
                snap, idmap.canonical, cfg)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(snap=_SNAPSHOTS, line=_FRACTIONS,
       gone=st.sets(st.sampled_from(PEOPLE[:8])))
def test_fraction_matches_reference(snap, line, gone):
    idmap = one_per_author(snap)
    departed = {DeveloperId(a.name, a.email, frozenset({a})) for a in gone}
    per_file = oracles.per_file_counts(snap, idmap.canonical)
    assert abandoned_file_fraction(snap, idmap, departed, line) == (
        oracles.abandoned_fraction(per_file, departed, line))


# --- the level bound ----------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(snap=_SNAPSHOTS, line=_FRACTIONS)
def test_level_bound_never_below_true_most(snap, line):
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, line)
    per_file = oracles.per_file_counts(snap, idmap.canonical)
    sizes = range(1, len(index.population) + 1)
    for g, bound in zip(sizes, index.level_bounds()):
        assert bound >= oracles.most_abandoned(per_file, g, line)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(snap=_SNAPSHOTS, line=_FRACTIONS)
def test_level_bound_never_above_owner_count_bound(snap, line):
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, line)
    per_file = oracles.per_file_counts(snap, idmap.canonical)
    sizes = range(1, len(index.population) + 1)
    for g, bound in zip(sizes, index.level_bounds()):
        assert bound <= oracles.owner_count_bound(per_file, g, line)


def no_critical_owner():
    """Files of 10-12 owners with 3 lines each: at line fraction 0.9 a
    file may keep 3 lines, which no owner exceeds, so no owner is in
    every group that abandons it."""
    rng = random.Random(4)
    return snapshot({f"f{i}": rng.sample(PEOPLE, rng.randint(10, 12)) * 3
                     for i in range(8)})


BOUND_FIXTURES = {
    "no-critical-owner": (no_critical_owner(), 0.9),
    **{name: (snap, kwargs.get("line_abandon_fraction", 0.9))
       for name, (snap, kwargs) in GOLDEN_FIXTURES.items()},
}


@pytest.mark.parametrize("name", BOUND_FIXTURES)
def test_level_bound_never_below_true_most_on_fixtures(name):
    snap, line = BOUND_FIXTURES[name]
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, line)
    per_file = oracles.per_file_counts(snap, idmap.canonical)
    sizes = range(1, len(index.population) + 1)
    for g, bound in zip(sizes, index.level_bounds()):
        assert bound >= oracles.most_abandoned(per_file, g, line)


def sixty_developers():
    """400 files, each with 4 random owners of 5-50 lines out of 60
    developers: no group of 5 or fewer can abandon half of them."""
    rng = random.Random(1)
    people = [RawAuthor(f"Dev {i:02d}", f"dev{i:02d}@fixture.test")
              for i in range(60)]
    return BlameSnapshot(revision="e" * 40, files={
        f"src/f{i:03d}.py": {a: rng.randint(5, 50)
                             for a in rng.sample(people, 4)}
        for i in range(400)})


def test_sizes_the_bound_rules_out_count_without_a_test():
    snap = sixty_developers()
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, 0.9)
    assert max(itertools.islice(index.level_bounds(), 5)) < 200
    result = rig_bus_factor(snap, idmap,
                            RigConfig(exhaustive=True, max_group_size=5))
    assert result == RigResult(
        bf_set=None,
        samples_evaluated=sum(math.comb(60, g) for g in range(1, 6)),
        abandoned_fraction_at_return=0.0)


def test_critical_owners_rule_out_sizes_to_twelve():
    snap = sixty_developers()
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, 0.9)
    assert max(itertools.islice(index.level_bounds(), 12)) < 200
    result = rig_bus_factor(snap, idmap,
                            RigConfig(exhaustive=True, max_group_size=8))
    assert result == RigResult(
        bf_set=None,
        samples_evaluated=sum(math.comb(60, g) for g in range(1, 9)),
        abandoned_fraction_at_return=0.0)


def triples():
    """Files owned in equal thirds, so a file is abandoned only when all
    three of its owners leave: groups of 1 or 2 abandon nothing."""
    p = PEOPLE[:8]
    return snapshot({"f1": [p[0], p[1], p[2]] * 10,
                     "f2": [p[0], p[1], p[2]] * 10,
                     "f3": [p[3], p[4], p[5]] * 10,
                     "f4": [p[5], p[6], p[7]] * 10})


@pytest.mark.parametrize("seed", range(8))
def test_sampling_after_skipped_sizes_draws_as_before(seed):
    snap = triples()
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, 0.9)
    assert list(itertools.islice(index.level_bounds(), 3)) == [0, 0, 2]
    cfg = RigConfig(max_group_size=8, samples_per_size=6, seed=seed)
    result = rig_bus_factor(snap, idmap, cfg)
    assert result.bus_factor >= 3
    assert (result.bus_factor, result.bf_set, result.samples_evaluated,
            result.abandoned_fraction_at_return) == oracles.rig_reference(
                snap, idmap.canonical, cfg)


@pytest.mark.parametrize("seed", range(4))
def test_sampling_stops_at_the_first_winner(monkeypatch, seed):
    # any one developer's departure abandons a third of the files, so
    # the first subset drawn wins, however many more the size allows
    snap = snapshot({"a1": [A], "a2": [A], "b1": [B], "b2": [B],
                     "c1": [C], "c2": [C]})
    idmap = one_per_author(snap)
    calls = []

    class Counted(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)
    monkeypatch.setattr(rig_module.random, "Random", Counted)
    cfg = RigConfig(samples_per_size=10**6, file_abandon_fraction=1 / 3,
                    seed=seed)
    result = rig_bus_factor(snap, idmap, cfg)
    drawn, calls[:] = calls[:], []
    assert result.samples_evaluated == 1
    assert (result.bus_factor, result.bf_set, result.samples_evaluated,
            result.abandoned_fraction_at_return) == oracles.rig_reference(
                snap, idmap.canonical, cfg)
    assert drawn == calls


# --- the proof that no group of a size wins -----------------------------------

@settings(max_examples=200, derandomize=True, deadline=None)
@given(snap=_SNAPSHOTS, line=_FRACTIONS, budget=st.integers(1, 40))
def test_proof_agrees_with_brute_force_whenever_it_decides(snap, line,
                                                          budget):
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, line)
    per_file = oracles.per_file_counts(snap, idmap.canonical)
    for g in range(1, len(index.population) + 1):
        most = oracles.most_abandoned(per_file, g, line)
        for wins_at in range(1, len(index.need) + 1):
            assert index.search(g, wins_at, budget) in (None,
                                                        most >= wins_at)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(snap=_SNAPSHOTS, line=_FRACTIONS)
def test_unlimited_proof_decides_every_size(snap, line):
    idmap = one_per_author(snap)
    index = rig_module._Departures(snap, idmap, line)
    per_file = oracles.per_file_counts(snap, idmap.canonical)
    unlimited = 2**63
    for g in range(1, len(index.population) + 1):
        most = oracles.most_abandoned(per_file, g, line)
        for wins_at in range(1, len(index.need) + 1):
            assert index.search(g, wins_at, unlimited) == (most >= wins_at)


def deep_history_shaped():
    """24 files of 20-60 lines among 20 developers, 2-12 owners each
    with geometrically falling shares, as the deep-history benchmark
    repository's blame looks: the level bound leaves g = 6 to test,
    and no 6 developers abandon half of the files."""
    rng = random.Random(8)
    people = [RawAuthor(f"Dev {i:02d}", f"dev{i:02d}@fixture.test")
              for i in range(20)]
    files = {}
    for i in range(24):
        owners = rng.sample(people, rng.randint(2, 12))
        lines = dict.fromkeys(owners, 0)
        for _ in range(rng.randint(20, 60)):
            rank = min(int(rng.expovariate(0.6)), len(owners) - 1)
            lines[owners[rank]] += 1
        files[f"d{i % 4}/f{i:02d}.txt"] = {a: n for a, n in lines.items()
                                          if n}
    return BlameSnapshot(revision="e" * 40, files=files)


def counted_draws(monkeypatch):
    """The widths of every getrandbits call made from now on, by the
    engine and by the reference loop alike."""
    calls = []

    class Counted(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)
    monkeypatch.setattr(rig_module.random, "Random", Counted)
    return calls


def test_deep_history_shape_leaves_six_to_the_proof():
    snap = deep_history_shaped()
    index = rig_module._Departures(snap, one_per_author(snap), 0.9)
    assert index.first_tested(12, 6) == 6
    assert index.search(6, 12, 2**63) is False


@pytest.mark.parametrize("seed", range(3))
def test_sampled_run_that_no_size_can_win_draws_nothing(monkeypatch, seed):
    snap = deep_history_shaped()
    calls = counted_draws(monkeypatch)
    cfg = RigConfig(samples_per_size=2000, max_group_size=6, seed=seed)
    assert rig_bus_factor(snap, one_per_author(snap), cfg) == RigResult(
        bf_set=None, samples_evaluated=12000,
        abandoned_fraction_at_return=0.0)
    assert calls == []


def test_exhaustive_run_tests_no_size_the_proof_rules_out(monkeypatch):
    snap = deep_history_shaped()
    idmap = one_per_author(snap)
    sizes = []

    class Recorded:
        def __getattr__(self, name):
            return getattr(itertools, name)

        def combinations(self, pool, g):
            sizes.append(g)
            return itertools.combinations(pool, g)
    monkeypatch.setattr(rig_module, "itertools", Recorded())
    cfg = RigConfig(exhaustive=True, max_group_size=6)
    result = rig_bus_factor(snap, idmap, cfg)
    assert sizes == []
    assert result.samples_evaluated == sum(math.comb(20, g)
                                           for g in range(1, 7))
    assert (result.bus_factor, result.bf_set, result.samples_evaluated,
            result.abandoned_fraction_at_return) == oracles.rig_reference(
                snap, idmap.canonical, cfg)


@pytest.mark.parametrize("snap, cfg", [
    *[pytest.param(deep_history_shaped(),
                   RigConfig(samples_per_size=30, max_group_size=6,
                             seed=seed), id=f"seed{seed}")
      for seed in range(3)],
    pytest.param(GOLDEN_FIXTURES["owned"][0],
                 RigConfig(exhaustive=True, max_group_size=6),
                 id="exhaustive")])
def test_proof_out_of_budget_runs_as_without_it(monkeypatch, snap, cfg):
    idmap = one_per_author(snap)
    verdicts = []
    search = rig_module._Departures.search

    def starved(self, g, wins_at, budget):
        verdicts.append(search(self, g, wins_at, 3))
        return verdicts[-1]
    monkeypatch.setattr(rig_module._Departures, "search", starved)
    # any work pays for a proof, which then has 3 nodes
    monkeypatch.setattr(rig_module, "_WORK_PER_STEP", 1e-6)
    calls = counted_draws(monkeypatch)
    result = rig_bus_factor(snap, idmap, cfg)
    drawn, calls[:] = calls[:], []
    assert verdicts and set(verdicts) == {None}
    assert (result.bus_factor, result.bf_set, result.samples_evaluated,
            result.abandoned_fraction_at_return) == oracles.rig_reference(
                snap, idmap.canonical, cfg)
    assert drawn == calls


def test_repeat_proves_once(monkeypatch):
    snap = deep_history_shaped()
    idmap = one_per_author(snap)
    cfg = RigConfig(samples_per_size=2000, max_group_size=6, seed=7)
    proofs = []
    search = rig_module._Departures.search

    def counted(self, *args):
        proofs.append(args)
        return search(self, *args)
    monkeypatch.setattr(rig_module._Departures, "search", counted)
    runs = rig_repeat(snap, idmap, cfg, 4)
    assert len(proofs) == 1
    assert runs == [RigResult(bf_set=None, samples_evaluated=12000,
                              abandoned_fraction_at_return=0.0)] * 4


def two_thousand_developers():
    """80 files among 2,000 developers: 40 leads own one file each, and
    the other 1,960 hold one line each of 40 shared files, so a file
    shared by 49 people needs 45 of them to leave."""
    people = [RawAuthor(f"Dev {i:04d}", f"dev{i:04d}@fixture.test")
              for i in range(2000)]
    leads = people[::50]
    rest = [p for p in people if p not in leads]
    files = {f"lead{i:02d}.py": {p: 3} for i, p in enumerate(leads)}
    files.update({f"shared{k:02d}.py": dict.fromkeys(rest[k::40], 1)
                  for k in range(40)})
    return BlameSnapshot(revision="e" * 40, files=files)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("leads, max_g", [(1, 2), (2, 3)])
def test_sampling_two_thousand_developers_matches_reference_loop(
        seed, leads, max_g):
    # a single lead wins at 1 of 80 files; at 2 of 80 the bound skips
    # g = 1, and drawing two leads of 2,000 developers is rare
    snap = two_thousand_developers()
    idmap = one_per_author(snap)
    cfg = RigConfig(max_group_size=max_g, samples_per_size=120, seed=seed,
                    file_abandon_fraction=leads / 80)
    result = rig_bus_factor(snap, idmap, cfg)
    assert (result.bus_factor, result.bf_set, result.samples_evaluated,
            result.abandoned_fraction_at_return) == oracles.rig_reference(
                snap, idmap.canonical, cfg)


@pytest.mark.parametrize("leads, max_g", [(1, 2), (2, 3)])
def test_two_thousand_developers_build_no_suffix_table(monkeypatch, leads,
                                                      max_g):
    # a table of 2,000 rows costs more than the draws it could save
    snap = two_thousand_developers()
    tables = []
    monkeypatch.setattr(rig_module._Departures, "suffix_best",
                        lambda self, slots: tables.append(slots))
    rig_bus_factor(snap, one_per_author(snap),
                   RigConfig(max_group_size=max_g, samples_per_size=120,
                             file_abandon_fraction=leads / 80))
    assert tables == []
