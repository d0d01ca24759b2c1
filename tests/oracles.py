"""Independent reference implementations used to check the package.

Everything here is deliberately written from scratch against the
definitions, not by calling into the package: exact rational
arithmetic where possible, straight subprocess parsing of raw git
output elsewhere. Slow and simple on purpose.
"""
from __future__ import annotations

import difflib
import functools
import itertools
import math
import random
import re
import subprocess
import unicodedata
from collections import Counter, defaultdict
from fractions import Fraction


# --- raw git parsing -------------------------------------------------------

def git_lines(repo, *args) -> list[str]:
    """Git's stdout split at "\n" only: a lone "\r", a form feed or
    U+2028 inside a line stays in that line."""
    proc = subprocess.run(["git", "-C", str(repo), *args],
                          capture_output=True, check=True)
    lines = proc.stdout.decode("utf-8", errors="replace").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


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

def per_file_counts(blame, dev_of):
    """(line total, Counter of lines per developer) for each file, in
    path order."""
    per_file = []
    for _, owners in sorted(blame.files.items()):
        counts = Counter()
        for author, n in owners.items():
            counts[dev_of(author)] += n
        per_file.append((sum(owners.values()), counts))
    return per_file


def rig_min_g(blame, dev_of, line_fraction=Fraction(9, 10),
              file_fraction=Fraction(1, 2), max_g=None):
    """Exact minimum departing-group size by full enumeration.

    Returns (g, feasible sets at g) or (None, []) when nothing within
    max_g abandons enough files.
    """
    per_file = per_file_counts(blame, dev_of)
    devs = set()
    for _, counts in per_file:
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


def abandoned_files(per_file, gone, line_fraction) -> int:
    """Files whose departed lines reach line_fraction, in the engine's
    float arithmetic; per_file holds (line total, Counter)."""
    abandoned = 0
    for total, counts in per_file:
        lost = sum(n for dev, n in counts.items() if dev in gone)
        if lost / total >= line_fraction:
            abandoned += 1
    return abandoned


def abandoned_fraction(per_file, gone, line_fraction) -> float:
    """Share of files whose departed lines reach line_fraction."""
    return abandoned_files(per_file, gone, line_fraction) / len(per_file)


def most_abandoned(per_file, g, line_fraction) -> int:
    """Most files that any g of the owning developers abandon, by
    enumerating every g-subset."""
    devs = set()
    for _, counts in per_file:
        devs.update(counts)
    return max(abandoned_files(per_file, set(combo), line_fraction)
               for combo in itertools.combinations(devs, g))


def owner_count_bound(per_file, g, line_fraction) -> int:
    """The looser bound on most_abandoned that counts owners: the lesser
    of the number of files whose g largest owners reach line_fraction
    and the sum of the g largest per-developer counts of such files
    owned."""
    owned = Counter()
    killable = 0
    for total, counts in per_file:
        if sum(sorted(counts.values())[-g:]) / total >= line_fraction:
            killable += 1
            owned.update(counts)
    return min(killable, sum(n for _, n in owned.most_common(g)))


def rig_reference(blame, dev_of, config):
    """The departure loop written out literally, for any RigConfig.

    Developers are ordered by (email, name). Sampled mode draws each
    g-subset with a partial Fisher-Yates shuffle whose swaps come from a
    getrandbits rejection draw on random.Random(seed); exhaustive mode
    walks every g-subset in lexicographic order. Returns (bus factor,
    departed set, subsets evaluated, abandoned fraction at return).
    """
    per_file = per_file_counts(blame, dev_of)
    devs = set()
    for _, counts in per_file:
        devs.update(counts)
    ordered = sorted(devs, key=lambda d: (d.canonical_email, d.canonical_name))
    n = len(ordered)
    rng = random.Random(config.seed)

    def below(bound):
        width = bound.bit_length()
        while True:
            value = rng.getrandbits(width)
            if value < bound:
                return value

    def draws(g):
        if config.exhaustive:
            yield from itertools.combinations(ordered, g)
            return
        for _ in range(config.samples_per_size):
            deck = list(ordered)
            for i in range(g):
                j = i + below(n - i)
                deck[i], deck[j] = deck[j], deck[i]
            yield deck[:g]

    evaluated = 0
    for g in range(1, min(config.max_group_size, n) + 1):
        for group in draws(g):
            gone = frozenset(group)
            evaluated += 1
            fraction = abandoned_fraction(per_file, gone,
                                          config.line_abandon_fraction)
            if fraction >= config.file_abandon_fraction:
                return g, gone, evaluated, fraction
    return None, None, evaluated, 0.0


# --- identity resolution, brute force ---------------------------------------


def _plain_name(name: str) -> str:
    """Lowercased, diacritic-free name with single spaces."""
    decomposed = unicodedata.normalize("NFKD", name)
    kept = "".join(c for c in decomposed if not unicodedata.combining(c))
    return " ".join(kept.lower().split())


def name_tokens(name: str) -> frozenset[str]:
    """The words of a plain name: runs of letters and digits."""
    return frozenset(_TOKEN.findall(_plain_name(name)))


def name_score(a: str, b: str) -> int:
    """Token-set similarity 0-100 of two names, straight from difflib.

    difflib's ratio() is not symmetric, so neither is this score.
    """
    tokens_a, tokens_b = name_tokens(a), name_tokens(b)
    if not tokens_a or not tokens_b:
        return 0
    shared = sorted(tokens_a & tokens_b)
    side_a = shared + sorted(tokens_a - tokens_b)
    side_b = shared + sorted(tokens_b - tokens_a)
    texts = [" ".join(shared), " ".join(side_a), " ".join(side_b)]
    best = max(difflib.SequenceMatcher(None, x, y).ratio()
               for x, y in ((texts[0], texts[1]), (texts[0], texts[2]),
                            (texts[1], texts[2])))
    return int(round(100 * best))


def identity_partition(authors, threshold: int) -> set[frozenset]:
    """Developer groups of `authors` (objects with .name and .email).

    Two authors are linked when their trimmed, lowercased emails are
    equal and non-empty, when those emails share a local part of at
    least 3 characters, or when their plain names are non-empty and
    either equal or score at least `threshold`. Groups are the
    connected components of that relation, found by checking every pair.
    """
    authors = sorted(set(authors))

    def email(author):
        return author.email.strip().lower()

    def local(author):
        address = email(author)
        return address.split("@", 1)[0] if "@" in address else ""

    def linked(a, b) -> bool:
        if email(a) and email(a) == email(b):
            return True
        if len(local(a)) >= 3 and local(a) == local(b):
            return True
        name_a, name_b = _plain_name(a.name), _plain_name(b.name)
        if not name_a or not name_b:
            return False
        return name_a == name_b or name_score(name_a, name_b) >= threshold

    component = {author: {author} for author in authors}
    for a, b in itertools.combinations(authors, 2):
        if component[a] is not component[b] and linked(a, b):
            joined = component[a] | component[b]
            for member in joined:
                component[member] = joined
    return {frozenset(group) for group in component.values()}


# --- yearly trend, one pass over all records per year -----------------------

def yearly_trend_points(records, identity, base_config, first_year: int,
                        last_year: int, cumulative=False):
    """(year, bus factor, developers) per year, from the loop that
    `trend.yearly_trend` ran before it bucketed records by year: every
    year's pipeline gets all records and its window does the filtering.

    Unlike the rest of this module it calls into the package, since the
    pipeline itself is not what it checks; it checks which records each
    year's pipeline sees.
    """
    from busfactor import TimeWindow, cst_bus_factor
    from busfactor.errors import EmptyScope, ZeroDevelopers
    pool = list(records)
    points = []
    for year in range(first_year, last_year + 1):
        window = (TimeWindow(None, None, year, None) if cumulative
                  else TimeWindow.year(year))
        try:
            result = cst_bus_factor(
                pool, identity, base_config.replace(time_range=window))
        except (EmptyScope, ZeroDevelopers):
            points.append((year, 0, 0))
            continue
        points.append((year, result.bus_factor, result.developer_count))
    return points


# --- commit-based bus factor, record by record --------------------------------

def reference_cst(records, identity, config):
    """(shares, file count) of `cst_bus_factor` as the package computed
    it record by record before its column engine: the same float
    operations in the same order, so that shares compare with `==`,
    and the same exceptions (EmptyScope, ZeroDevelopers, UnknownAuthor).

    It calls into the package for what the engine does not own: the
    path rule (`paths_in`), a window's bounds and a record's
    `contribution`.
    """
    from busfactor import CstMetricKind, MetricKind, WeightScheme, paths_in
    from busfactor.errors import EmptyScope, ZeroDevelopers
    from busfactor.metrics import contribution

    window, analysed = config.time_range, paths_in(config.scope,
                                                   config.exclude_globs)
    filtered = [record for record in records
                if (not window
                    or window.contains(record.commit.author_timestamp))
                and analysed(record.path)]
    if not filtered:
        raise EmptyScope("no change records match the configured scope")
    by_path = {}
    for record in filtered:
        by_path.setdefault(record.path, []).append(record)
    unit_events = config.data_metric.kind is MetricKind.COMMITS
    per_file = {}
    for path in sorted(by_path):
        chrono = sorted(by_path[path], key=lambda r: (
            r.commit.author_timestamp, r.commit.sequence, r.commit.hash))
        timeline = [(identity.canonical(r.author),
                     contribution(r, config.data_metric)) for r in chrono]
        entries = [(dev, float(value)) for dev, value in timeline
                   if value > 0]
        if not entries:
            continue
        if config.cst_metric is CstMetricKind.LAST_CHANGE:
            shares = {dev: 0.0 for dev, _ in entries}
            shares[entries[-1][0]] = 1.0
            per_file[path] = shares
            continue
        events = entries
        if config.cst_metric in (CstMetricKind.NON_CONSECUTIVE,
                                 CstMetricKind.WEIGHTED_NON_CONSECUTIVE):
            events = []
            for dev, value in entries:
                if events and events[-1][0] == dev:
                    if not unit_events:
                        events[-1] = (dev, events[-1][1] + value)
                else:
                    events.append((dev, 1.0 if unit_events else value))
        if config.cst_metric is CstMetricKind.WEIGHTED_NON_CONSECUTIVE:
            if config.weight_scheme is WeightScheme.EXPONENTIAL:
                events = [(dev, value * 2.0 ** i)
                          for i, (dev, value) in enumerate(events)]
            else:
                events = [(dev, value * (i + 1))
                          for i, (dev, value) in enumerate(events)]
        total = sum(value for _, value in events)
        shares = {dev: 0.0 for dev, _ in events}
        for dev, value in events:
            shares[dev] += value / total
        per_file[path] = shares
    if not per_file:
        raise ZeroDevelopers("no positive contributions in scope")
    totals = {}
    for shares in per_file.values():
        for dev, share in shares.items():
            totals[dev] = totals.get(dev, 0.0) + share
    return ({dev: total / len(per_file) for dev, total in totals.items()},
            len(per_file))
