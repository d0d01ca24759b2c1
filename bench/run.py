"""Session benchmark for the busfactor CLI.

    python3 bench/run.py --workload deep-history --seed 1 --seconds 44 --trace 0

Run from the root of a checkout. One run plays user sessions until the
time is up. Each session first builds the workload's synthetic
repository from the seed (timed as set-up), then runs a closed loop
through the CLI against it: `ingest`, four `cst` queries, a sampled
`rig`, an exhaustive `rig` and a `trend`, each command starting after
the previous one exits; the only concurrency is the program's own blame
worker pool. Every output is checked against what the generator planted.

With `--trace 0` each figure is a median over the run's sessions, timed
from outside the process. Each session's times are scaled to the
reference machine's quiet speed by a probe of the CPUs' current speed
(`speed.py`), taken before set-up and before every command, outside the
timings. With `--trace 1` untraced and traced sessions
alternate; traced ones run the same commands in-process with a span
around every call into a layer, and the per-layer figures are medians
over those. The spans go to one file under `.bench_work/traces/`.

The report is printed to stdout; its last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
the run completed, whether or not the outputs were correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
from session import (DIGEST_SEEDS, Outcome, cli_env, commands,  # noqa: E402
                     judge, run_session)
from workloads import WORKLOADS, build_repo  # noqa: E402

MIN_SESSIONS = 3
E2E = (("setup_s", "s"), ("ingest_s", "s"), ("cst_s", "s"), ("rig_s", "s"),
       ("rig_exact_s", "s"), ("trend_s", "s"), ("session_s", "s"),
       ("peak_rss_mb", "MB"), ("cache_mb", "MB"))
_TIMED = ("ingest_s", "cst_s", "rig_s", "rig_exact_s", "trend_s")
_SCALED = ("setup_s", *_TIMED, "session_s")


def _load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _digests(workload: str, seed: int) -> dict[str, str]:
    """Recorded query digests; none for a seed outside DIGEST_SEEDS."""
    if seed not in DIGEST_SEEDS:
        return {}
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]


def _environment(env: dict) -> dict[str, str]:
    git = subprocess.run(["git", "--version"], capture_output=True, text=True,
                         env=env).stdout.strip()
    return {"nproc": str(os.cpu_count()), "git": git,
            "python": platform.python_version(), "platform": platform.platform()}


def _cache_bytes(cache: str) -> dict[str, int]:
    sizes = {name: os.path.getsize(os.path.join(cache, name))
             for name in os.listdir(cache)}
    return {"total": sum(sizes.values()), "records": sizes.get("records.bin", 0),
            "blame": sizes.get("blame.bin", 0)}


def _percentile_line(values: list[float]) -> str:
    """Median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n >= 11:
        rank = n - 10
        text += f"  p{100 * rank / n:.0f} {ordered[rank - 1]:.4f}"
    else:
        text += "  (no percentile has 10 samples beyond it)"
    return text + f"  n={n}"


def _session_figures(outcomes, cache_bytes: dict[str, int],
                     setup_s: float) -> dict[str, float]:
    """One session's end-to-end figures, in wall seconds."""
    by_metric: dict[str, float] = dict.fromkeys(_TIMED, 0.0)
    by_metric["setup_s"] = setup_s
    for outcome, metric in outcomes:
        by_metric[metric] += outcome.seconds
    by_metric["session_s"] = sum(by_metric[m] for m in _TIMED)
    by_metric["peak_rss_mb"] = max(o.rss_mb for o, _ in outcomes)
    by_metric["cache_mb"] = cache_bytes["total"] / 1e6
    return by_metric


def run(args) -> int:
    spec = _load_benchmark_spec()
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, spec: dict, work: str) -> int:
    env = cli_env(ROOT, work)
    started = time.perf_counter()
    # Compile the package once so no session pays for it.
    subprocess.run([sys.executable, "-c", "import busfactor.cli"], env=env,
                   cwd=work, check=True)

    digests = _digests(args.workload, args.seed)
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        os.environ.clear()
        os.environ.update(env)
        tracer = tracing.Tracer()

    figures: list[dict[str, float]] = []  # scaled to reference seconds
    raw_figures: list[dict[str, float]] = []
    factors: list[float] = []
    traced_figures: list[dict[str, float]] = []
    traced_spans: list[list[dict]] = []
    layers: list[dict[str, float]] = []
    startups: list[float] = []
    planted = None
    problems: list[str] = []
    attempted = failed = 0
    session_times: list[float] = []
    loop_start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        expected = statistics.median(session_times) if session_times else 0.0
        if index >= MIN_SESSIONS and elapsed + expected > args.seconds:
            break
        t0 = time.perf_counter()
        traced = tracer is not None and index % 2 == 1
        probes = [] if traced else [speed.probe()]
        # Set-up is timed inside the loop, once per session, so that it
        # samples the same stretch of the run as the sessions do.
        repo = os.path.join(work, f"repo{index}")
        t_setup = time.perf_counter()
        built = build_repo(args.workload, args.seed, repo, env)
        setup_s = time.perf_counter() - t_setup
        if planted is None:
            planted = built
        elif built != planted:
            raise RuntimeError("generator is not deterministic: two builds "
                               "from one seed differ")
        cache = os.path.join(work, f"cache{index}")
        cmds = commands(args.workload, args.seed, repo, cache, planted)
        if traced:
            outcomes, spans, startup = _traced_session(
                tracer, index, cmds, planted, env, work, digests)
            startups.append(startup)
        else:
            outcomes = run_session(cmds, planted, env, work, digests,
                                   before=lambda: probes.append(speed.probe()))
        attempted += len(outcomes)
        bad = [o for o in outcomes if o.problems]
        failed += len(bad)
        for o in bad:
            problems.extend(o.problems)
        sizes = _cache_bytes(cache)
        session = _session_figures(
            list(zip(outcomes, (c.metric for c in cmds))), sizes, setup_s)
        if traced:
            traced_figures.append(session)
            traced_spans.append(spans)
            layers.append(tracing.layer_metrics(spans, startup, sizes))
        else:
            factor = speed.scale(probes)
            factors.append(factor)
            raw_figures.append(session)
            figures.append({k: v * factor if k in _SCALED else v
                            for k, v in session.items()})
        shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(repo, ignore_errors=True)
        session_times.append(time.perf_counter() - t0)
        index += 1

    e2e = {name: statistics.median(f[name] for f in figures)
           for name in (*_SCALED, "cache_mb")}
    e2e["peak_rss_mb"] = max(f["peak_rss_mb"] for f in figures)
    raw = {name: statistics.median(f[name] for f in raw_figures)
           for name in _SCALED}

    info = _environment(env)
    print(f"busfactor session benchmark: workload {args.workload}, "
          f"seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    w = WORKLOADS[args.workload]
    print(f"inputs: {planted.commits} commits, {len(planted.head_lines)} files "
          f"at HEAD ({sum(planted.head_lines.values())} lines), "
          f"{planted.people_present} people under {planted.authors_used} "
          f"spellings, years {planted.first_year}-{planted.last_year}; "
          f"rig --samples {w.rig_samples} --max-g {w.rig_max_g}, "
          f"exhaustive --max-g {w.exact_max_g}; HEAD {planted.head}")
    print(f"closed loop, 1 client; {len(figures)} untraced sessions in "
          f"{time.perf_counter() - loop_start:.1f} s"
          + (f", {len(traced_figures)} traced" if tracer else "")
          + "; json digests " + ("checked" if args.seed in DIGEST_SEEDS else
                                 f"not checked (recorded for seeds "
                                 f"{DIGEST_SEEDS.start}-{DIGEST_SEEDS.stop - 1})"))
    print(f"machine speed: timings are scaled to reference seconds by "
          f"{speed.REFERENCE_S * 1e3:.1f} ms / the CPU probe's median in "
          f"each session; scale factors {min(factors):.3f}-"
          f"{max(factors):.3f}, median {statistics.median(factors):.3f}")
    print("end-to-end (untraced):")
    for name, unit in E2E:
        values = [f[name] for f in figures]
        if name == "peak_rss_mb":
            print(f"  {name:12s} {unit:3s} max {e2e[name]:.2f} over "
                  f"n={len(values)} sessions (busfactor process only; "
                  f"git child processes excluded)")
            continue
        line = _percentile_line(values)
        if name in raw:
            line += f"  (wall median {raw[name]:.4f})"
        print(f"  {name:12s} {unit:3s} {line}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':12s} {'-':3s} {error_rate:.4f} "
          f"({failed} failed of {attempted} operations)")
    for line in problems[:20]:
        print(f"  FAILED: {line}")

    if tracer is not None:
        metrics = _report_trace(args, tracer, traced_figures, traced_spans,
                                layers, startups, raw, info, spec)
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(f"total run time {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _traced_session(tracer, index, cmds, planted, env, work, digests):
    tracer.session = index
    first_span = len(tracer.spans)
    startup = tracing.startup_seconds(env, work)
    outcomes = []
    tracer.install()
    try:
        for cmd in cmds:
            code, stdout, seconds = tracer.run_command(cmd.key, cmd.argv)
            outcome = Outcome(cmd.key, startup + seconds, code, 0.0, stdout,
                              "", problems=list(tracer.problems))
            tracer.problems.clear()
            judge(cmd, outcome, planted, digests)
            outcomes.append(outcome)
    finally:
        tracer.uninstall()
    return outcomes, tracer.spans[first_span:], startup


def _report_trace(args, tracer, traced_figures, traced_spans, layers,
                  startups, e2e, info, spec) -> dict:
    """Per-layer report; `e2e` holds the untraced wall-time medians."""
    print("tracing overhead (traced minus untraced wall-time medians; a "
          "traced command counts cli.startup_s plus its in-process time):")
    for name in (*_TIMED, "session_s"):
        traced = statistics.median(f[name] for f in traced_figures)
        print(f"  {name:12s} s   {traced - e2e[name]:+.4f} "
              f"({(traced - e2e[name]) / e2e[name]:+.1%})")
    medians = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    print(f"per layer (medians over {len(layers)} traced sessions; times are "
          f"summed over one session's commands):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:28s} {m['unit']:6s} {medians[m['name']]:.6g}")
    print("per-unit costs: gitrepo.blame_ms_per_file per blamed file; "
          "identity.us_per_pair per token_set_ratio call; "
          "rig.*_us_per_subset per evaluated subset")
    lines, held = tracing.stress_check(args.workload, traced_spans, e2e)
    for line in lines:
        print(f"  {line}")
    out_dir = os.path.join(ROOT, ".bench_work", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": info, "cli_startup_s": startups,
                   "stress_check_held": held,
                   "spans": tracer.spans}, fh)
    print(f"spans: {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)")
    return {m["name"]: {"value": medians[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "busfactor", "cli.py")):
        print(f"error: no busfactor sources under {ROOT}/src", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
