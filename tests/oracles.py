"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch against the
definitions, not by calling into the package: exact rational
arithmetic where possible, straight subprocess parsing of raw git
output elsewhere. Slow and simple on purpose.
"""
from __future__ import annotations

import functools
import itertools
import math
import re
import subprocess
from collections import Counter, defaultdict
from fractions import Fraction


# --- raw git parsing -------------------------------------------------------

def git_lines(repo, *args) -> list[str]:
    proc = subprocess.run(["git", "-C", str(repo), *args],
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def numstat_totals(repo, include_merges=False) -> dict[str, tuple[int, int]]:
    """Per-commit (added, deleted) line totals from `git log --numstat`.

    Binary entries ('-') are skipped, matching the text-only rule.
    """
    args = ["log", "--numstat", "--no-renames", "--pretty=format:@%H"]
    args.append("--diff-merges=first-parent" if include_merges
                else "--no-merges")
    totals: dict[str, tuple[int, int]] = {}
    current = None
    for line in git_lines(repo, *args):
        if line.startswith("@"):
            current = line[1:]
            totals[current] = (0, 0)
        elif line.strip() and current:
            added, deleted, _path = line.split("\t", 2)
            if added == "-" or deleted == "-":
                continue
            a, d = totals[current]
            totals[current] = (a + int(added), d + int(deleted))
    return totals


def raw_blame(repo, revision, path) -> list[tuple[str, str]]:
    """(author name, author email) per line, from blame porcelain."""
    lines = git_lines(repo, "blame", "--line-porcelain", revision, "--", path)
    out = []
    name = email = None
    for line in lines:
        if line.startswith("author "):
            name = line[len("author "):]
        elif line.startswith("author-mail "):
            email = line[len("author-mail "):].strip("<>")
        elif line.startswith("\t"):
            out.append((name, email))
    return out


@functools.lru_cache(maxsize=None)
def changed_lines(repo, commit) -> dict[str, tuple[list[str], list[str]]]:
    """(added, removed) lines per path of one non-merge commit, from
    `git show -U0`; a deleted file is keyed by its old path."""
    changes = {}
    old_path = lines = None
    for line in git_lines(repo, "show", "--format=", "-U0", "--no-renames",
                          commit):
        if line.startswith("diff --git "):
            lines = None
        elif lines is None and line.startswith("--- "):
            old_path = line[len("--- a/"):]
        elif lines is None and line.startswith("+++ "):
            new_path = line[len("+++ b/"):]
            path = old_path if line == "+++ /dev/null" else new_path
            lines = changes.setdefault(path, ([], []))
        elif lines is not None and line[:1] in ("+", "-"):
            lines[line[0] == "-"].append(line[1:])
    return changes


_TOKEN = re.compile(r"[^\W_]+")


def cos_distance(added_lines, removed_lines) -> float:
    """Cosine distance between the token bags of two line lists."""
    added = Counter(t for line in added_lines for t in _TOKEN.findall(line))
    deleted = Counter(t for line in removed_lines
                      for t in _TOKEN.findall(line))
    if not added and not deleted:
        return 0.0
    if not added or not deleted:
        return 1.0
    dot = sum(n * deleted[tok] for tok, n in added.items())
    norm_a = math.sqrt(sum(n * n for n in added.values()))
    norm_d = math.sqrt(sum(n * n for n in deleted.values()))
    return min(1.0, max(0.0, 1.0 - dot / (norm_a * norm_d)))


# --- commit-based bus factor, exact arithmetic ------------------------------

CST_METRICS = ("last-change", "mul-equal", "non-consecutive",
               "weighted-non-consecutive")
DATA_METRICS = ("commits", "locc", "cos")


def contribution_value(record, data_metric: str, cos_scale=False,
                       repo=None):
    """A record's contribution; "cos" re-reads its lines from `repo`."""
    if data_metric == "commits":
        return Fraction(1)
    if data_metric == "locc":
        return Fraction(record.lines_added + record.lines_deleted)
    value = cos_distance(*changed_lines(repo, record.commit.hash)[record.path])
    if cos_scale:
        value *= record.lines_added + record.lines_deleted
    return value


def file_shares(chronological, dev_of, cst_metric: str, data_metric: str,
                cos_scale=False, repo=None) -> dict:
    """Shares for one file from its time-ordered records."""
    seq = [(dev_of(r), contribution_value(r, data_metric, cos_scale, repo))
           for r in chronological]
    seq = [(dev, value) for dev, value in seq if value > 0]
    if not seq:
        return {}
    if cst_metric == "last-change":
        last = seq[-1][0]
        return {dev: Fraction(0) for dev, _ in seq} | {last: Fraction(1)}
    if cst_metric in ("non-consecutive", "weighted-non-consecutive"):
        events = []
        for dev, value in seq:
            if events and events[-1][0] == dev:
                if data_metric != "commits":
                    events[-1][1] += value
            else:
                events.append([dev, Fraction(1) if data_metric == "commits"
                               else value])
        events = [(dev, value) for dev, value in events]
    else:
        events = seq
    if cst_metric == "weighted-non-consecutive":
        events = [(dev, value * (i + 1)) for i, (dev, value) in enumerate(events)]
    total = sum(value for _, value in events)
    shares: dict = defaultdict(lambda: Fraction(0))
    for dev, value in events:
        shares[dev] += (Fraction(value) if isinstance(value, int) else value) / total
    return dict(shares)


def bus_factor(records, dev_of, cst_metric: str, data_metric: str,
               cos_scale=False, repo=None):
    """Independent end-to-end computation over pre-filtered records of
    `repo` (needed only for the "cos" metric).

    Returns (bf, primary set, secondary set, aggregated shares).
    """
    per_path = defaultdict(list)
    for record in records:
        per_path[record.path].append(record)
    tables = []
    for path, recs in per_path.items():
        recs = sorted(recs, key=lambda r: (r.commit.author_timestamp,
                                           r.commit.sequence, r.commit.hash))
        shares = file_shares(recs, dev_of, cst_metric, data_metric,
                             cos_scale, repo)
        if shares:
            tables.append(shares)
    assert tables, "oracle: nothing contributed"
    agg: dict = defaultdict(lambda: Fraction(0))
    for shares in tables:
        for dev, share in shares.items():
            agg[dev] += Fraction(share) if not isinstance(share, float) else share
    count = len(tables)
    agg = {dev: total / count for dev, total in agg.items()}
    n = len(agg)
    x = Fraction(1, n)
    primary = {dev for dev, share in agg.items() if share >= x}
    secondary = {dev for dev, share in agg.items() if x / 2 <= share < x}
    return len(primary) + len(secondary), primary, secondary, agg


# --- departure-based bus factor, exact arithmetic ---------------------------

def rig_min_g(blame, dev_of, line_fraction=Fraction(9, 10),
              file_fraction=Fraction(1, 2), max_g=None):
    """Exact minimum departing-group size by full enumeration.

    Returns (g, feasible sets at g) or (None, []) when nothing within
    max_g abandons enough files.
    """
    per_file = []
    devs = set()
    for lines in blame.files.values():
        counts = Counter(dev_of(a) for a in lines)
        per_file.append((len(lines), counts))
        devs.update(counts)
    ordered = sorted(devs, key=lambda d: (d.canonical_email, d.canonical_name))
    total_files = len(per_file)
    limit = min(max_g or len(ordered), len(ordered))
    for g in range(1, limit + 1):
        feasible = []
        for combo in itertools.combinations(ordered, g):
            gone = set(combo)
            abandoned = sum(
                1 for total, counts in per_file
                if Fraction(sum(counts[d] for d in gone), total) >= line_fraction)
            if Fraction(abandoned, total_files) >= file_fraction:
                feasible.append(frozenset(combo))
        if feasible:
            return g, feasible
    return None, []
