"""Acceptance gate: the checks this package must pass before release.

Each test covers one headline guarantee end to end, validating the
package against the independent reference implementations in
tests/oracles.py (exact rational arithmetic, raw git parsing) or
against invariants that hold by construction. One test per guarantee,
so `pytest -v` prints one verdict line for each.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest

from busfactor import (BlameSnapshot, ChangeRecord, CommitMeta, CstConfig,
                       CstMetricKind, DataMetric, DeveloperId, MetricKind,
                       RawAuthor, RigConfig, WeightScheme,
                       abandoned_file_fraction, aggregate_knowledge,
                       classify_developers, compare_error, compute_thresholds,
                       cst_bus_factor, extract_history, knowledge_per_file,
                       resolve_identities, rig_bus_factor,
                       shares_from_timeline)
from tests import oracles
from tests.conftest import ADA, BERT, CLEO, DMITRI, EDNA, RepoBuilder

# --------------------------------------------------------------------------
# scripted corpus: six repositories spanning 1-5 developers, 1-5 files
# --------------------------------------------------------------------------


def _build_solo(repo: RepoBuilder):
    repo.write("notes.txt", "alpha\nbeta\n")
    repo.commit(ADA, "start notes")
    repo.write("notes.txt", "alpha\nbeta\ngamma\ndelta\n")
    repo.commit(ADA, "extend notes")


def _build_pair(repo: RepoBuilder):
    repo.write("story.txt", "one\ntwo\nthree\nfour\n")
    repo.commit(ADA, "draft")
    repo.write("story.txt", "one\ntwo\nthree\nfour\nfive\n")
    repo.commit(ADA, "continue")
    repo.write("story.txt", "one\ntwo\nthree\nfour\nfive\nsix\n")
    repo.commit(ADA, "continue more")
    repo.write("story.txt", "one\ntwo\nthree\nfour\nfive\nsix\nseven\neight\n")
    repo.commit(BERT, "guest chapter")


def _build_editors(repo: RepoBuilder):
    repo.write("a.py", "import os\n\n\ndef main():\n    return os.sep\n")
    repo.commit(ADA, "seed a")
    repo.write("a.py", "import sys\n\n\ndef main():\n    return sys.path\n")
    repo.write("b.py", "x = 1\ny = 2\nz = 3\n")
    repo.commit(BERT, "rework imports, add b")
    repo.write("b.py", "x = 1\ny = 2\nz = 3\ntotal = x + y + z\nprint(total)\n")
    repo.write("c.txt", "scratch\n")
    repo.commit(ADA, "extend b, scratch file")
    repo.write("a.py", "import sys\n\n\ndef main():\n    return sys.argv\n")
    repo.commit(BERT, "argv instead of path")
    repo.remove("c.txt")
    repo.commit(ADA, "drop scratch")


def _build_trio(repo: RepoBuilder):
    repo.write("f1.md", "intro line\n")
    repo.commit(ADA, "f1 intro")
    repo.write("f1.md", "intro line\nsecond thought\n")
    repo.write("f2.cfg", "key=1\nmode=fast\n")
    repo.commit(BERT, "f1 note, f2 config")
    repo.write("f1.md", "intro line\nsecond thought\nthird pass\nfourth\n")
    repo.commit(ADA, "more f1")
    repo.write("f2.cfg", "key=1\nmode=fast\nretry=3\n")
    repo.commit(BERT, "f2 retry")
    repo.write("f3.rst", "title\n=====\nbody\n")
    repo.commit(CLEO, "f3 doc")
    repo.write("f2.cfg", "key=1\nmode=slow\nretry=3\n")
    repo.commit(CLEO, "f2 slow mode")
    # pure line swap: identical token bags added and deleted, so the
    # cosine metric sees no contribution while commits/locc both do
    repo.write("f4.ini", "alpha beta\ngamma delta\n")
    repo.commit(ADA, "f4 seed")
    repo.write("f4.ini", "gamma delta\nalpha beta\n")
    repo.commit(BERT, "f4 reorder only")
    repo.write("f4.ini", "gamma delta\nalpha beta\nepsilon\n")
    repo.commit(CLEO, "f4 extend")
    repo.write("f1.md", "intro line\nsecond thought\nthird pass\nfourth\nfifth\n")
    repo.commit(CLEO, "f1 closing")


def _build_quartet(repo: RepoBuilder):
    repo.write("core.py", "\n".join(f"line{i}" for i in range(8)) + "\n")
    repo.write("util.py", "a\nb\nc\nd\ne\nf\n")
    repo.commit(ADA, "seed core and util")
    repo.write("doc.md", "readme\nusage\n")
    repo.commit(BERT, "docs")
    repo.write("util.py", "a\nb\nc\n")
    repo.commit(BERT, "trim util")
    repo.write("core.py", "\n".join(f"line{i}" for i in range(8)) + "\nline8\nline9\n")
    repo.commit(CLEO, "grow core")
    repo.write("data.csv", "h1,h2\n1,2\n3,4\n")
    repo.commit(DMITRI, "data drop")
    repo.write("shared.txt", "start\n")
    repo.commit(ADA, "shared seed")
    repo.write("shared.txt", "start\nby bert\n")
    repo.commit(BERT, "shared touch")
    repo.write("shared.txt", "start\nby bert\nby cleo\n")
    repo.commit(CLEO, "shared touch 2")
    repo.write("shared.txt", "start\nby bert\nby cleo\nby dmitri\n")
    repo.commit(DMITRI, "shared touch 3")
    repo.write("core.py", "\n".join(f"line{i}" for i in range(10)) + "\nfinal\n")
    repo.commit(ADA, "core final word")


def _build_quintet(repo: RepoBuilder):
    authors = [ADA, BERT, CLEO, DMITRI, EDNA]
    repo.write("m1.txt", "seed\n")
    repo.commit(ADA, "m1 seed")
    # long interleaving with returns, uneven sizes
    script = [
        (BERT, "m1.txt", "seed\nb1\nb2\n"),
        (ADA, "m1.txt", "seed\nb1\nb2\na1\n"),
        (BERT, "m1.txt", "seed\nb1\nb2\na1\nb3\n"),
        (CLEO, "m2.txt", "c1\nc2\nc3\nc4\n"),
        (DMITRI, "m2.txt", "c1\nc2\nc3\nc4\nd1\n"),
        (CLEO, "m2.txt", "c1\nc2\nd1\nc5\n"),
        (EDNA, "m3.txt", "e1\n"),
        (EDNA, "m3.txt", "e1\ne2\ne3\ne4\ne5\ne6\n"),
        (ADA, "m3.txt", "e1\ne2\ne3\ne4\ne5\ne6\na2\n"),
        (DMITRI, "m4.txt", "d2\nd3\n"),
        (BERT, "m4.txt", "d2\nd3\nb4\nb5\nb6\n"),
        (DMITRI, "m4.txt", "d2\nd4\nb4\nb5\nb6\n"),
        (EDNA, "m5.txt", "tail\n"),
        (ADA, "m5.txt", "tail\nwrap\n"),
    ]
    for author, path, content in script:
        repo.write(path, content)
        repo.commit(author, f"edit {path}")
    assert {a for a, _, _ in script} | {ADA} == set(authors)


_BUILDERS = {
    "solo": _build_solo,
    "pair": _build_pair,
    "editors": _build_editors,
    "trio": _build_trio,
    "quartet": _build_quartet,
    "quintet": _build_quintet,
}


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    repos = {}
    for name, build in _BUILDERS.items():
        repo = RepoBuilder(tmp_path_factory.mktemp(f"accept_{name}"))
        build(repo)
        repos[name] = repo
    return repos


def _records_and_identity(repo: RepoBuilder):
    records = list(extract_history(repo.path))
    identity = resolve_identities({r.author for r in records})
    return records, identity


# --------------------------------------------------------------------------
# synthetic data helpers
# --------------------------------------------------------------------------

_EPOCH = datetime(2020, 1, 1, tzinfo=timezone.utc)


def _synthetic_records(rng: random.Random):
    """A random but self-consistent record set: every record changes at
    least one line and has a nonzero cosine distance."""
    dev_count = rng.randint(1, 6)
    authors = [RawAuthor(f"Syn {i}", f"syn{i}@x.test") for i in range(dev_count)]
    paths = [f"p{i}.txt" for i in range(rng.randint(1, 6))]
    records = []
    for seq in range(rng.randint(2, 30)):
        meta = CommitMeta(hash=f"{rng.getrandbits(160):040x}",
                          author=rng.choice(authors),
                          author_timestamp=_EPOCH + timedelta(hours=seq),
                          sequence=seq)
        records.append(ChangeRecord(
            commit=meta, path=rng.choice(paths),
            lines_added=rng.randint(1, 20), lines_deleted=rng.randint(0, 15),
            cos_distance=rng.uniform(0.01, 1.0)))
    return records


_RIG_DEVS = [RawAuthor(f"Rig Dev {i:02d}", f"rig{i:02d}@x.test")
             for i in range(10)]


def _rig_snapshot(rng: random.Random, dev_count: int, file_count: int):
    pool = _RIG_DEVS[:dev_count]
    files = {}
    for i in range(file_count):
        # skewed ownership so small departing groups are sometimes enough
        owner = rng.choice(pool)
        lines = [owner if rng.random() < 0.8 else rng.choice(pool)
                 for _ in range(rng.randint(1, 12))]
        files[f"f{i:02d}.txt"] = Counter(lines)
    return BlameSnapshot(revision="b" * 40, files=files)


def _rig_fixtures():
    d = _RIG_DEVS
    fixed = [
        BlameSnapshot(revision="b" * 40, files={"f": {d[0]: 3}}),
        BlameSnapshot(revision="b" * 40, files={
            "a": {d[0]: 3}, "b": {d[0]: 1, d[1]: 1}}),
        BlameSnapshot(revision="b" * 40, files={
            "a": {d[0]: 1}, "b": {d[1]: 1}, "c": {d[2]: 1}}),
        BlameSnapshot(revision="b" * 40, files={
            "a": {d[0]: 2, d[1]: 1}, "b": {d[1]: 1}, "c": {d[2]: 3},
            "d": {d[3]: 1, d[0]: 1}, "e": {d[3]: 2}}),
    ]
    rng = random.Random(1729)
    generated = [_rig_snapshot(rng, 5, 7), _rig_snapshot(rng, 6, 9),
                 _rig_snapshot(rng, 8, 12), _rig_snapshot(rng, 10, 14)]
    return fixed + generated


def _identity_of(snapshot: BlameSnapshot):
    return resolve_identities(
        {a for owners in snapshot.files.values() for a in owners})


def _exact_fraction(snapshot, identity, departed) -> Fraction:
    """Certificate check with rational arithmetic, no package math."""
    abandoned = 0
    for owners in snapshot.files.values():
        gone = sum(n for a, n in owners.items()
                   if identity.canonical(a) in departed)
        if Fraction(gone, sum(owners.values())) >= Fraction(9, 10):
            abandoned += 1
    return Fraction(abandoned, len(snapshot.files))


# --------------------------------------------------------------------------
# the ten gates
# --------------------------------------------------------------------------


def test_accept_01_compare_error_reference_values():
    # the published reference differences for bus factors 12/10/5/29
    # against a ground truth of 17
    assert compare_error(12, 17) == 5
    assert compare_error(10, 17) == 7
    assert compare_error(5, 17) == 12
    assert compare_error(29, 17) == 12
    proc = subprocess.run([sys.executable, "-m", "busfactor", "compare",
                           "--bf", "12", "--reference", "17"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "5"


def test_accept_02_cst_matches_exact_oracle_across_corpus(corpus):
    started = time.perf_counter()
    combos_checked = 0
    for name, repo in corpus.items():
        records, identity = _records_and_identity(repo)
        dev_of = lambda r: identity.canonical(r.author)
        for cst_metric in CstMetricKind:
            for kind in MetricKind:
                result = cst_bus_factor(records, identity, CstConfig(
                    cst_metric=cst_metric, data_metric=DataMetric(kind)))
                bf, primary, secondary, agg = oracles.bus_factor(
                    records, dev_of, cst_metric.value, kind.value,
                    repo=repo.path)
                context = f"{name}/{cst_metric.value}/{kind.value}"
                assert result.bus_factor == bf, context
                assert set(result.primary_devs) == primary, context
                assert set(result.secondary_devs) == secondary, context
                assert set(result.knowledge.shares) == set(agg), context
                for dev, share in result.knowledge.shares.items():
                    assert abs(share - float(agg[dev])) <= 1e-9, context
                combos_checked += 1
    assert combos_checked == len(corpus) * 12
    assert time.perf_counter() - started < 30.0


def test_accept_03_shares_normalize_over_randomized_histories():
    rng = random.Random(20210501)
    violations = 0
    for _ in range(1000):
        records = _synthetic_records(rng)
        identity = resolve_identities({r.author for r in records})
        kind = rng.choice(list(MetricKind))
        for cst_metric in CstMetricKind:
            per_file = knowledge_per_file(records, identity, cst_metric,
                                          DataMetric(kind))
            for shares in per_file.values():
                if abs(sum(shares.values()) - 1.0) > 1e-9:
                    violations += 1
            table = aggregate_knowledge(per_file)
            if abs(sum(table.shares.values()) - 1.0) > 1e-9:
                violations += 1
    assert violations == 0


def test_accept_04_shares_invariant_under_contribution_scaling():
    rng = random.Random(77)
    devs = [DeveloperId(f"Scale {i}", f"scale{i}@x.test",
                        frozenset({RawAuthor(f"Scale {i}", f"scale{i}@x.test")}))
            for i in range(5)]
    for _ in range(200):
        timeline = [(rng.choice(devs), rng.uniform(1e-3, 1e3))
                    for _ in range(rng.randint(1, 12))]
        factor = 10.0 ** rng.uniform(-6.0, 6.0)
        scaled = [(dev, value * factor) for dev, value in timeline]
        metric = rng.choice(list(CstMetricKind))
        scheme = rng.choice(list(WeightScheme))
        unit = rng.random() < 0.5
        base = shares_from_timeline(timeline, metric, scheme, unit_events=unit)
        moved = shares_from_timeline(scaled, metric, scheme, unit_events=unit)
        assert set(base) == set(moved)
        for dev in base:
            assert abs(base[dev] - moved[dev]) <= 1e-9
        pair = compute_thresholds(len(base))
        table_a = aggregate_knowledge({"f": base})
        table_b = aggregate_knowledge({"f": moved})
        assert (classify_developers(table_a, pair)
                == classify_developers(table_b, pair))


def test_accept_05_rig_exhaustive_equals_brute_force():
    started = time.perf_counter()
    for i, snapshot in enumerate(_rig_fixtures()):
        identity = _identity_of(snapshot)
        result = rig_bus_factor(snapshot, identity,
                                RigConfig(exhaustive=True))
        expected_g, feasible = oracles.rig_min_g(snapshot, identity.canonical)
        assert result.bus_factor == expected_g, f"fixture {i}"
        assert result.bf_set in feasible, f"fixture {i}"
    assert time.perf_counter() - started < 60.0


def test_accept_06_sampled_rig_bounded_below_and_certified():
    fixtures = [_rig_fixtures()[j] for j in (2, 3, 6)]
    for snapshot in fixtures:
        identity = _identity_of(snapshot)
        exact = rig_bus_factor(snapshot, identity,
                               RigConfig(exhaustive=True)).bus_factor
        for seed in range(100):
            run = rig_bus_factor(snapshot, identity,
                                 RigConfig(seed=seed, samples_per_size=32))
            assert run.bus_factor is not None
            assert run.bus_factor >= exact
            assert _exact_fraction(snapshot, identity,
                                   run.bf_set) >= Fraction(1, 2)


def test_accept_07_rig_identical_across_processes(corpus):
    cmd = [sys.executable, "-m", "busfactor", "rig",
           "--repo", str(corpus["quintet"].path),
           "--seed", "11", "--samples", "40", "--runs", "2",
           "--format", "json"]
    docs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        doc.pop("manifest")  # timestamps legitimately differ
        docs.append(doc)
    assert docs[0] == docs[1]


def test_accept_08_abandonment_monotone_under_departure_growth():
    rng = random.Random(4242)
    violations = 0
    for _ in range(1000):
        snapshot = _rig_snapshot(rng, rng.randint(2, 8), rng.randint(1, 10))
        identity = _identity_of(snapshot)
        devs = sorted(identity.developers(), key=DeveloperId.sort_key)
        subset = frozenset(d for d in devs if rng.random() < 0.4)
        extra = rng.choice(devs)
        smaller = abandoned_file_fraction(snapshot, identity, subset)
        larger = abandoned_file_fraction(snapshot, identity,
                                         subset | {extra})
        if larger < smaller:
            violations += 1
    assert violations == 0


def test_accept_09_pinned_repository_smoke():
    target = os.environ.get("BUSFACTOR_SMOKE_REPO")
    if not target:
        pytest.skip("set BUSFACTOR_SMOKE_REPO to a local clone to enable")
    records = list(extract_history(target))
    identity = resolve_identities({r.author for r in records})
    results = {}
    for kind in MetricKind:
        result = cst_bus_factor(records, identity, CstConfig(
            cst_metric=CstMetricKind.MUL_CHANGES_EQUAL,
            data_metric=DataMetric(kind)))
        assert 1 <= result.bus_factor <= result.developer_count
        results[kind.value] = result.bus_factor
    # informational: distance-based counting tends not to fall below
    # plain line counting on real histories
    print(f"smoke bus factors: {results}")


def test_accept_10_ingested_line_totals_match_git_numstat(corpus):
    for name in ("editors", "trio", "quintet"):
        repo = corpus[name]
        records = list(extract_history(repo.path))
        per_commit = defaultdict(lambda: (0, 0))
        for record in records:
            a, d = per_commit[record.commit.hash]
            per_commit[record.commit.hash] = (a + record.lines_added,
                                              d + record.lines_deleted)
        expected = oracles.numstat_totals(repo.path)
        for commit_hash, totals in expected.items():
            assert per_commit.get(commit_hash, (0, 0)) == totals, name
        assert set(per_commit) <= set(expected), name
