"""One user session through the busfactor CLI, and the checks on its output.

A session is a closed loop: one client runs one command at a time and
starts the next only after the previous one has exited. `ingest` writes
the cache; seven queries read it back and print JSON.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from workloads import WORKLOADS, Planted

# Runs busfactor.cli.main, the console-script entry point, and reports
# the process's own peak RSS on stderr. os.wait4 would also fold in the
# peak of git children the process reaped, which the benchmark excludes.
_LAUNCH = ("import resource, sys\n"
           "from busfactor.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "sys.stdout.flush()\n"
           "sys.stderr.write('\\nbench-maxrss-kb %d\\n' % "
           "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
           "raise SystemExit(code)\n")
_RSS_TAG = "bench-maxrss-kb "

CST_QUERIES = (("last-change", "commits"), ("mul-equal", "locc"),
               ("non-consecutive", "cos"),
               ("weighted-non-consecutive", "cos --cos-scale-locc"))

# Seeds whose query digests are recorded in digests.json.
DIGEST_SEEDS = range(32)

# Manifest fields that differ between two runs of the same query.
_VOLATILE = ("started_at", "finished_at", "command_line")


@dataclass(frozen=True)
class Command:
    key: str         # "ingest", "cst1".."cst4", "rig", "rig_exact", "trend"
    metric: str      # end-to-end metric the command's time adds to
    argv: tuple[str, ...]


def commands(workload: str, seed: int, repo: str, cache: str,
             planted: Planted) -> list[Command]:
    """The eight commands of one session, in order."""
    w = WORKLOADS[workload]
    query = ("--cache", cache, "--format", "json")
    out = [Command("ingest", "ingest_s",
                   ("ingest", "--repo", repo, "--cache", cache))]
    for i, (cst_metric, metric) in enumerate(CST_QUERIES, 1):
        out.append(Command(f"cst{i}", "cst_s",
                           ("cst", *query, "--cst-metric", cst_metric,
                            "--metric", *metric.split())))
    out.append(Command("rig", "rig_s",
                       ("rig", *query, "--seed", str(1000 + seed),
                        "--samples", str(w.rig_samples),
                        "--max-g", str(w.rig_max_g))))
    out.append(Command("rig_exact", "rig_exact_s",
                       ("rig", *query, "--exhaustive",
                        "--max-g", str(w.exact_max_g))))
    out.append(Command("trend", "trend_s",
                       ("trend", *query,
                        "--from-year", str(planted.first_year),
                        "--to-year", str(planted.last_year))))
    return out


def digest(payload: dict) -> str:
    """SHA-256 of a JSON report without its time and command fields."""
    manifest = {k: v for k, v in payload.get("manifest", {}).items()
                if k not in _VOLATILE}
    stable = dict(payload, manifest=manifest)
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _ingest_stats(text: str) -> dict[str, str]:
    stats = {}
    for line in text.splitlines():
        key, sep, value = line.strip().partition(": ")
        if sep and line.startswith("  "):
            stats[key] = value
    return stats


def check_output(cmd: Command, stdout: str, planted: Planted,
                 expected_digest: str | None) -> tuple[list[str], str | None]:
    """Problems found in one command's output, and the output's digest."""
    if cmd.key == "ingest":
        stats = _ingest_stats(stdout)
        want = {"commits": planted.commits, "records": planted.records,
                "files_in_history": planted.files_in_history,
                "blame_files": len(planted.head_lines),
                "authors": planted.authors_used}
        return [f"ingest {k}: got {stats.get(k)}, planted {v}"
                for k, v in want.items() if stats.get(k) != str(v)], None
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"{cmd.key}: output is not JSON ({exc})"], None
    if not isinstance(payload, dict):
        return [f"{cmd.key}: output is not a JSON object"], None
    try:
        problems = _CHECKS[cmd.argv[0]](cmd.key, payload, planted)
    except (KeyError, TypeError) as exc:
        problems = [f"{cmd.key}: malformed report ({exc!r})"]
    found = digest(payload)
    if expected_digest is not None and found != expected_digest:
        problems.append(f"{cmd.key}: JSON digest {found[:12]} != recorded "
                        f"{expected_digest[:12]}")
    return problems, found


def _check_cst(key: str, payload: dict, planted: Planted) -> list[str]:
    problems = _check_kind(key, payload, "cst")
    if payload["developer_count"] != planted.people_present:
        problems.append(f"{key} developer_count {payload['developer_count']}"
                        f" != planted {planted.people_present}")
    classified = (len(payload["primary_developers"])
                  + len(payload["secondary_developers"]))
    if payload["bus_factor"] != classified:
        problems.append(f"{key} bus_factor {payload['bus_factor']} != "
                        f"#primary + #secondary {classified}")
    # Reports round shares to 6 decimals; allow that rounding per entry.
    table = payload["knowledge_table"]
    total = sum(e["knowledge"] for e in table)
    if abs(total - 1.0) > 5e-7 * len(table) + 1e-9:
        problems.append(f"{key} shares sum to {total!r}, not 1")
    return problems


def _check_rig(key: str, payload: dict, planted: Planted) -> list[str]:
    problems = _check_kind(key, payload, "rig")
    if payload["developer_count"] != planted.people_at_head:
        problems.append(f"{key} developer_count {payload['developer_count']}"
                        f" != planted {planted.people_at_head}")
    if payload["file_count"] != len(planted.head_lines):
        problems.append(f"{key} file_count {payload['file_count']}"
                        f" != planted {len(planted.head_lines)}")
    if payload["revision"] != planted.head:
        problems.append(f"{key} revision is not the planted HEAD")
    return problems


def _check_trend(key: str, payload: dict, planted: Planted) -> list[str]:
    problems = _check_kind(key, payload, "trend")
    got = {p["year"]: p["total_developers"] for p in payload["points"]}
    want = {y: planted.people_per_year.get(y, 0)
            for y in range(planted.first_year, planted.last_year + 1)}
    if got != want:
        problems.append(f"{key} developers per year {got} != planted {want}")
    return problems


def _check_kind(key: str, payload: dict, kind: str) -> list[str]:
    if payload["kind"] != kind:
        return [f"{key}: report kind {payload['kind']!r}, expected {kind!r}"]
    return []


_CHECKS = {"cst": _check_cst, "rig": _check_rig, "trend": _check_trend}


@dataclass
class Outcome:
    """One command's result as seen from outside the process."""
    key: str
    seconds: float
    exit_code: int
    rss_mb: float
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)
    digest: str | None = None


def cli_env(root: str, work: str) -> dict[str, str]:
    """Environment for every process the benchmark starts.

    Neither the machine's git configuration nor a cache path or config
    left in the user's environment may change results or timing.
    """
    home = os.path.join(work, "home")
    os.makedirs(os.path.join(home, ".config"), exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("GIT_", "BUSFACTOR_", "PYTHON"))}
    env.update(HOME=home, XDG_CONFIG_HOME=os.path.join(home, ".config"),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull,
               PYTHONPATH=os.path.join(root, "src"),
               PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_work", "pycache"))
    return env


def run_command(cmd: Command, env: dict, cwd: str) -> Outcome:
    """Run one CLI command to completion and time it from outside."""
    out_path = os.path.join(cwd, "stdout")
    err_path = os.path.join(cwd, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _LAUNCH, *cmd.argv],
                                stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, _ = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    rss_kb = 0
    body, sep, tail = stderr.rpartition(_RSS_TAG)
    if sep:
        rss_kb = int(tail.strip() or 0)
        stderr = body
    return Outcome(cmd.key, seconds, proc.returncode, rss_kb / 1024.0,
                   stdout, stderr.strip())


def judge(cmd: Command, outcome: Outcome, planted: Planted,
          digests: dict[str, str]) -> None:
    """Add the problems found in one command's outcome to it."""
    if outcome.exit_code != 0:
        outcome.problems.append(
            f"{cmd.key} exited {outcome.exit_code}: {outcome.stderr[-300:]}")
        return
    problems, outcome.digest = check_output(cmd, outcome.stdout, planted,
                                            digests.get(cmd.key))
    outcome.problems += problems


def run_session(cmds: list[Command], planted: Planted, env: dict, cwd: str,
                digests: dict[str, str],
                before: Callable[[], object] | None = None) -> list[Outcome]:
    """Run the commands in order; each outcome carries its problems.

    `before`, if given, is called before each command, outside its timing.
    """
    outcomes = []
    for cmd in cmds:
        if before is not None:
            before()
        outcome = run_command(cmd, env, cwd)
        judge(cmd, outcome, planted, digests)
        outcomes.append(outcome)
    return outcomes
