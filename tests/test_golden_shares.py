"""Exact knowledge shares of the benchmark's queries, and the bytes of
the cache they read, pinned as golden values.

Seed 0 of each benchmark workload is built and ingested as in
`tests/test_bench_digests.py`. Its `cache.json` must hash to the SHA-256
recorded in `golden_shares.json`. The four cst queries of a session must
give the shares recorded there bit for bit (as `float.hex`, each before
its developer's label), in the same order, and the trend query the same
(year, bus factor, developers) points. Reports round shares to six
decimals, so the recorded digests alone would let a change in the last
bits of a share pass; and a cache that still round-trips to the same
reports could change its bytes unseen.

Regenerate the file only for a deliberate change of results:
`PYTHONPATH=src python -m tests.test_golden_shares` prints it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from busfactor import (CstConfig, CstMetricKind, DataMetric, MetricKind,
                       cst_bus_factor, load_cache, resolve_identities,
                       yearly_trend)
from busfactor.cli import main

from .test_bench_digests import bench  # noqa: F401  (a fixture)

_GOLDEN = Path(__file__).with_name("golden_shares.json")
_WORKLOADS = ("deep-history", "wide-tree", "many-identities")


def observed(workloads, session, workload: str, work: Path) -> dict:
    """The exact results of seed 0's cst and trend queries, and the
    SHA-256 of the cache they read."""
    env = session.cli_env(str(Path(__file__).resolve().parents[1]),
                          str(work))
    repo, cache = str(work / "repo"), str(work / "cache")
    planted = workloads.build_repo(workload, 0, repo, env)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--repo", repo, "--cache", cache]) == 0
    found = {"cache.json sha256": hashlib.sha256(
        (work / "cache" / "cache.json").read_bytes()).hexdigest()}
    records, _, _ = load_cache(cache)
    weights = Counter(r.author for r in records)
    identity = resolve_identities(weights.keys(), weights=weights)
    for cst_metric, metric in session.CST_QUERIES:
        kind, *flags = metric.split()
        config = CstConfig(
            cst_metric=CstMetricKind(cst_metric),
            data_metric=DataMetric(MetricKind(kind),
                                   cos_scale_by_locc="--cos-scale-locc"
                                   in flags))
        result = cst_bus_factor(records, identity, config)
        found[f"{cst_metric} {metric}"] = {
            "file_count": result.knowledge.file_count,
            "shares": [f"{share.hex()} {dev.label}" for dev, share
                       in result.knowledge.shares.items()]}
    series = yearly_trend(records, identity, CstConfig(), planted.first_year,
                          planted.last_year)
    found["trend"] = [f"{p.year} {p.bus_factor} {p.total_developers}"
                      for p in series.points]
    return found


@pytest.mark.parametrize("workload", _WORKLOADS)
def test_seed_0_shares_match_golden_values(bench, workload, tmp_path):
    workloads, session, _ = bench
    golden = json.loads(_GOLDEN.read_text("utf-8"))
    assert observed(workloads, session, workload, tmp_path) == \
        golden[workload]


if __name__ == "__main__":
    import tempfile

    from . import test_bench_digests
    workloads, session, _ = test_bench_digests.bench.__wrapped__()
    pins = {}
    for name in _WORKLOADS:
        with tempfile.TemporaryDirectory() as work:
            pins[name] = observed(workloads, session, name, Path(work))
    json.dump(pins, sys.stdout, indent=1)
    sys.stdout.write("\n")
