"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""
from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import session
import speed
import tracing
from session import check_output, cli_env, commands, run_session
from workloads import build_repo, name_pool

sys.path.insert(0, os.path.join(run.ROOT, "src"))
from busfactor.identity import DEFAULT_SIMILARITY, token_set_ratio  # noqa: E402


def _env(tmp_path) -> dict:
    return cli_env(run.ROOT, str(tmp_path))


def test_metric_names_match_benchmark_spec():
    spec = run._load_benchmark_spec()
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.E2E]
    assert (set(tracing.layer_metrics([], 0.0, {}))
            == {m["name"] for m in spec["per_layer"]})


def test_same_seed_same_head_and_facts(tmp_path):
    env = _env(tmp_path)
    first = build_repo("many-identities", 7, str(tmp_path / "a"), env)
    second = build_repo("many-identities", 7, str(tmp_path / "b"), env)
    other = build_repo("many-identities", 8, str(tmp_path / "c"), env)
    assert first.head == second.head
    assert dataclasses.asdict(first) == dataclasses.asdict(second)
    assert other.head != first.head


def test_planted_aliases(tmp_path):
    planted = build_repo("many-identities", 3, str(tmp_path / "r"), _env(tmp_path))
    two = [s for s in planted.spellings.values() if len(s) == 2]
    assert two, "some people commit under a second spelling"
    for spellings in two:
        (name_a, email_a), (name_b, email_b) = sorted(spellings)
        assert email_a.lower() == email_b.lower() and email_a != email_b
        assert "," in name_a + name_b
    assert planted.authors_used == sum(len(s) for s in planted.spellings.values())


def test_name_pool_never_fuzzy_merges():
    pool = name_pool()
    assert len({f for f, _ in pool}) == len({l for _, l in pool}) == len(pool)
    names = [f"{f} {l}" for f, l in pool]
    assert not any(ch.isdigit() for name in names for ch in name)
    worst = max(token_set_ratio(a, b) for a, b in itertools.combinations(names, 2))
    assert worst < DEFAULT_SIMILARITY - 5


@pytest.fixture(scope="module")
def wide_session(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("wide")
    env = cli_env(run.ROOT, str(tmp))
    planted = build_repo("wide-tree", 0, str(tmp / "repo"), env)
    cmds = commands("wide-tree", 0, str(tmp / "repo"), str(tmp / "cache"), planted)
    return planted, cmds, run_session(cmds, planted, env, str(tmp), {})


def test_session_outputs_hold(wide_session):
    _, cmds, outcomes = wide_session
    assert [o.key for o in outcomes] == [c.key for c in cmds]
    assert all(o.exit_code == 0 and not o.problems for o in outcomes)
    assert all(o.rss_mb > 0 for o in outcomes)


@pytest.mark.parametrize("field, delta", [("people_present", 1),
                                          ("people_at_head", -1),
                                          ("commits", 1)])
def test_wrong_planted_fact_is_a_failure(wide_session, field, delta):
    planted, cmds, outcomes = wide_session
    wrong = dataclasses.replace(planted, **{field: getattr(planted, field) + delta})
    failures = [check_output(c, o.stdout, wrong, None)[0]
                for c, o in zip(cmds, outcomes)]
    assert any(failures)


def test_altered_output_or_digest_is_a_failure(wide_session):
    planted, cmds, outcomes = wide_session
    cst, outcome = next((c, o) for c, o in zip(cmds, outcomes)
                        if c.key == "cst1")
    assert check_output(cst, outcome.stdout, planted, outcome.digest)[0] == []
    assert check_output(cst, outcome.stdout, planted, "0" * 64)[0]
    payload = json.loads(outcome.stdout)
    payload["developer_count"] += 1
    assert check_output(cst, json.dumps(payload), planted, None)[0]
    payload = json.loads(outcome.stdout)
    payload["bus_factor"] += 1
    assert check_output(cst, json.dumps(payload), planted, None)[0]


def test_digest_ignores_only_time_and_command():
    payload = {"kind": "cst", "bus_factor": 2,
               "manifest": {"started_at": "a", "finished_at": "b",
                            "command_line": "c", "repo_fingerprint": "r"}}
    same = json.loads(json.dumps(payload))
    same["manifest"].update(started_at="x", finished_at="y", command_line="z")
    assert session.digest(payload) == session.digest(same)
    same["manifest"]["repo_fingerprint"] = "other"
    assert session.digest(payload) != session.digest(same)


def test_failed_command_counts_in_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "_digests",
                        lambda workload, seed: {"trend": "0" * 64})
    args = run.argparse.Namespace(workload="wide-tree", seed=0, seconds=0,
                                  trace=0)
    assert run.run(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == run.MIN_SESSIONS
    assert result["attempted"] == 8 * run.MIN_SESSIONS


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "wide-tree", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stress_check_says_whether_it_held():
    def span(name, seconds, command="ingest"):
        return {"name": name, "command": command, "parent": "cli.main",
                "start": 0.0, "end": seconds, "counts": {}}
    sessions = [[span("gitrepo.extract_history", 0.2),
                 span("gitrepo.extract_blame", 0.7),
                 span("identity.resolve_identities", 0.1, "cst1")]]
    e2e = {"ingest_s": 1.0, "cst_s": 1.0}
    lines, held = tracing.stress_check("wide-tree", sessions, e2e)
    assert held and lines[-1].endswith(": held")
    lines, held = tracing.stress_check("deep-history", sessions, e2e)
    assert not held and lines[-1].endswith("NOT HELD")
    assert not tracing.stress_check("many-identities", sessions, e2e)[1]


def test_speed_probe_restores_cpu_set():
    before = os.sched_getaffinity(0)
    probes = [speed.probe() for _ in range(3)]
    assert os.sched_getaffinity(0) == before
    assert all(p > 0 for p in probes)
    assert speed.scale(probes) == speed.REFERENCE_S / sorted(probes)[1]
