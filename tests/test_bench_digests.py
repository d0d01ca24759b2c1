"""The benchmark's recorded outputs, replayed as a test.

Seed 0 of each benchmark workload runs one session through the CLI, as
`bench/run.py` does, and each query's JSON report must hash to the
digest recorded in `bench/digests.json`. A change to a cos value, a
bus factor or a report's layout then fails here, not only in the
benchmark run.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    # While it runs, each module must be importable by its plain name:
    # session.py imports its sibling as `workloads`, and `dataclasses`
    # looks its module up while building the classes.
    with pytest.MonkeyPatch.context() as patch:
        loaded = []
        for name in ("workloads", "session"):
            spec = importlib.util.spec_from_file_location(
                name, _BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, module)
            spec.loader.exec_module(module)
            loaded.append(module)
    digests = json.loads((_BENCH / "digests.json").read_text("utf-8"))
    return (*loaded, digests)


@pytest.mark.parametrize("workload",
                         ["deep-history", "wide-tree", "many-identities"])
def test_seed_0_session_matches_recorded_digests(bench, workload, tmp_path):
    workloads, session, digests = bench
    env = session.cli_env(str(_BENCH.parent), str(tmp_path))
    repo, cache = str(tmp_path / "repo"), str(tmp_path / "cache")
    planted = workloads.build_repo(workload, 0, repo, env)
    cmds = session.commands(workload, 0, repo, cache, planted)
    recorded = digests[workload]["0"]
    assert set(recorded) == {cmd.key for cmd in cmds} - {"ingest"}
    outcomes = session.run_session(cmds, planted, env, str(tmp_path),
                                   recorded)
    assert [problem for outcome in outcomes
            for problem in outcome.problems] == []
