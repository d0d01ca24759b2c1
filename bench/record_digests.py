"""Record the JSON digests that `run.py` checks query outputs against.

    python3 bench/record_digests.py

For every workload and every seed in DIGEST_SEEDS, builds the repository, plays one session
through the CLI and stores the digest of every query's JSON report
(time and command fields removed) in `bench/digests.json`, replacing
the whole file. Run it only
on a commit whose outputs are the reference: later runs count any
change in a report as a failed operation. A session whose other checks
fail is not recorded, and then nothing is written.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from run import HERE, ROOT
from session import DIGEST_SEEDS, cli_env, commands, run_session
from workloads import WORKLOADS, build_repo


def main() -> int:
    recorded: dict[str, dict[str, dict[str, str]]] = {}
    work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    try:
        for workload in sorted(WORKLOADS):
            for seed in DIGEST_SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                os.makedirs(work)
                env = cli_env(ROOT, work)
                repo = os.path.join(work, "repo")
                planted = build_repo(workload, seed, repo, env)
                cmds = commands(workload, seed, repo,
                                os.path.join(work, "cache"), planted)
                outcomes = run_session(cmds, planted, env, work, {})
                problems = [p for o in outcomes for p in o.problems]
                if problems:
                    print(f"{workload} seed {seed}: not recorded: {problems[0]}",
                          file=sys.stderr)
                    return 1
                recorded.setdefault(workload, {})[str(seed)] = {
                    o.key: o.digest for o in outcomes if o.digest}
                print(f"{workload} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
