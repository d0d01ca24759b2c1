"""The traced run: one session executed in-process with per-layer spans.

`busfactor.cli.main(argv)` runs each command inside the benchmark's own
process. Before it runs, the public functions of each layer are wrapped
at the names where their callers look them up, so every call into a
layer records a span (name, start, end, command, enclosing span, counts).
High-rate calls (`tokenize`, `token_set_ratio`, `subprocess.Popen`) only
bump counters; a span's counts are the counter deltas over its interval.
Spans stay in memory and are written once, at the end of the run.
"""
from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import threading
import time

_COUNTERS = ("tokenize_calls", "tokenize_s", "git_spawns", "name_pairs",
             "fuzzy_merges")


class Tracer:
    """Spans and counters of the traced sessions of one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.problems: list[str] = []
        self.session = 0
        self.command = ""
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._stack: list[str] = []
        self._lock = threading.Lock()  # blame's worker threads bump git_spawns
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def bump(self, **deltas) -> None:
        with self._lock:
            for key, value in deltas.items():
                self.counters[key] += value

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        stack = self._stack
        parent = stack[-1] if stack else self.command
        before = dict(self.counters)
        stack.append(name)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            for key in _COUNTERS:
                delta = self.counters[key] - before[key]
                if delta:
                    counts[key] = delta
            self.spans.append({"session": self.session,
                               "command": self.command, "name": name,
                               "parent": parent, "start": start, "end": end,
                               "counts": counts})

    # --- wrappers --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = original(*args, **kwargs)
                if count:
                    counts.update(count(args, result))
                return result
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; `uninstall` restores them."""
        from busfactor import cli, gitrepo, identity, rig, trend

        original_history = cli.extract_history

        def history(*args, **kwargs):
            with self.span("gitrepo.extract_history") as counts:
                records = list(original_history(*args, **kwargs))
                counts.update(records=len(records),
                              commits=len({r.commit.hash for r in records}))
            yield from records
        self._patch(cli, "extract_history", history)

        self._wrap(cli, "extract_blame", "gitrepo.extract_blame",
                   lambda a, r: {
                       "files": len(r.files),
                       "lines": sum(len(v) for v in r.files.values())})
        self._wrap(cli, "save_cache", "cache.save_cache")
        self._wrap(cli, "load_cache", "cache.load_cache")
        self._wrap(cli, "resolve_identities", "identity.resolve_identities",
                   _identity_counts)
        for owner in (cli, trend):
            self._wrap(owner, "cst_bus_factor", "cst.cst_bus_factor",
                       self._cst_counts)
        self._wrap(cli, "yearly_trend", "trend.yearly_trend",
                   lambda a, r: {"years": len(r.points)})
        self._wrap(rig, "rig_bus_factor", "rig.rig_bus_factor",
                   lambda a, r: {
                       "subsets": r.samples_evaluated,
                       "exhaustive": int(a[2].exhaustive)})
        self._wrap(cli, "render", "report.render")

        tokenize = gitrepo.tokenize

        def counted_tokenize(lines):
            start = time.perf_counter()
            result = tokenize(lines)
            self.bump(tokenize_calls=1,
                      tokenize_s=time.perf_counter() - start)
            return result
        self._patch(gitrepo, "tokenize", counted_tokenize)

        ratio = identity.token_set_ratio
        threshold = identity.DEFAULT_SIMILARITY

        def counted_ratio(a, b):
            score = ratio(a, b)
            self.bump(name_pairs=1, fuzzy_merges=int(score >= threshold))
            return score
        self._patch(identity, "token_set_ratio", counted_ratio)

        popen = subprocess.Popen

        def counted_popen(*args, **kwargs):
            self.bump(git_spawns=1)
            return popen(*args, **kwargs)
        self._patch(subprocess, "Popen", counted_popen)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _cst_counts(self, args, result) -> dict:
        """Counts of one cst call; checks the unrounded shares as well."""
        records = args[0]
        shares = sum(result.knowledge.shares.values())
        if abs(shares - 1.0) > 1e-9:
            self.problems.append(f"{self.command}: cst shares sum to "
                                 f"{shares!r}, not 1 within 1e-9")
        classified = len(result.primary_devs) + len(result.secondary_devs)
        if result.bus_factor != classified:
            self.problems.append(f"{self.command}: bus factor "
                                 f"{result.bus_factor} != {classified}")
        return {"records": len(records), "files": result.knowledge.file_count}

    # --- running ---------------------------------------------------------

    def run_command(self, key: str, argv: tuple[str, ...]) -> tuple[int, str, float]:
        """Run one command in-process; returns exit code, stdout, seconds."""
        from busfactor.cli import main
        self.command = key
        out = io.StringIO()
        with contextlib.redirect_stdout(out), self.span("cli.main"):
            code = main(list(argv))
        span = self.spans[-1]
        return code, out.getvalue(), span["end"] - span["start"]


def _identity_counts(args, result) -> dict:
    from busfactor.identity import normalize_name
    authors = list(args[0])
    return {"raw_authors": len(authors),
            "distinct_names": len({normalize_name(a.name) for a in authors}
                                  - {""}),
            "developers": len(result.developers())}


def startup_seconds(env: dict, cwd: str) -> float:
    """Interpreter start plus `import busfactor`, timed from outside."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import busfactor"], env=env,
                   cwd=cwd, check=True)
    return time.perf_counter() - start


def _total(spans, name, key=None, where=lambda s: True) -> float:
    return sum((s["end"] - s["start"]) if key is None else s["counts"].get(key, 0)
               for s in spans if s["name"] == name and where(s))


def _first(spans, name, key, where=lambda s: True):
    return next((s["counts"].get(key, 0) for s in spans
                 if s["name"] == name and where(s)), 0)


def _per(numerator: float, base: float, scale: float) -> float:
    return numerator * scale / base if base else 0.0


def layer_metrics(spans: list[dict], startup_s: float,
                  cache_bytes: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced session.

    Times are seconds busy in the layer, summed over the session; counts
    are work done in the session; `*_per_*` figures state their base.
    """
    top = [s for s in spans if s["name"] == "cli.main"]
    in_cst = lambda s: s["command"].startswith("cst")
    from_cli = lambda s: s["parent"] == "cli.main"
    sampled = lambda s: not s["counts"].get("exhaustive")
    exact = lambda s: bool(s["counts"].get("exhaustive"))
    blame_s = _total(spans, "gitrepo.extract_blame")
    blame_files = _total(spans, "gitrepo.extract_blame", "files")
    resolve_s = _total(spans, "identity.resolve_identities")
    pairs = _total(spans, "identity.resolve_identities", "name_pairs")
    rig_s = _total(spans, "rig.rig_bus_factor", where=sampled)
    rig_n = _total(spans, "rig.rig_bus_factor", "subsets", sampled)
    exact_s = _total(spans, "rig.rig_bus_factor", where=exact)
    exact_n = _total(spans, "rig.rig_bus_factor", "subsets", exact)
    return {
        "cli.startup_s": startup_s,
        "gitrepo.history_s": _total(spans, "gitrepo.extract_history"),
        "gitrepo.history_records": _total(spans, "gitrepo.extract_history",
                                          "records"),
        "gitrepo.history_commits": _total(spans, "gitrepo.extract_history",
                                          "commits"),
        "metrics.tokenize_s": sum(s["counts"].get("tokenize_s", 0) for s in top),
        "metrics.tokenize_calls": sum(s["counts"].get("tokenize_calls", 0)
                                      for s in top),
        "gitrepo.blame_s": blame_s,
        "gitrepo.blame_files": blame_files,
        "gitrepo.blame_lines": _total(spans, "gitrepo.extract_blame", "lines"),
        "gitrepo.blame_ms_per_file": _per(blame_s, blame_files, 1e3),
        "gitrepo.git_spawns": sum(s["counts"].get("git_spawns", 0) for s in top),
        "cache.save_s": _total(spans, "cache.save_cache"),
        "cache.load_s": _total(spans, "cache.load_cache"),
        "cache.records_bytes": cache_bytes.get("records", 0),
        "cache.blame_bytes": cache_bytes.get("blame", 0),
        "identity.resolve_s": resolve_s,
        "identity.raw_authors": _first(spans, "identity.resolve_identities",
                                       "raw_authors", in_cst),
        "identity.distinct_names": _first(
            spans, "identity.resolve_identities", "distinct_names", in_cst),
        "identity.name_pairs": pairs,
        "identity.fuzzy_merges": _total(spans, "identity.resolve_identities",
                                        "fuzzy_merges"),
        "identity.us_per_pair": _per(resolve_s, pairs, 1e6),
        "cst.query_s": _total(spans, "cst.cst_bus_factor",
                              where=lambda s: in_cst(s) and from_cli(s)),
        "cst.records": _first(spans, "cst.cst_bus_factor", "records", in_cst),
        "cst.files": _first(spans, "cst.cst_bus_factor", "files", in_cst),
        "trend.s": _total(spans, "trend.yearly_trend"),
        "trend.years": _total(spans, "trend.yearly_trend", "years"),
        "trend.cst_calls": sum(1 for s in spans if s["name"] == "cst.cst_bus_factor"
                               and s["parent"] == "trend.yearly_trend"),
        "rig.sampled_s": rig_s,
        "rig.sampled_subsets": rig_n,
        "rig.sampled_us_per_subset": _per(rig_s, rig_n, 1e6),
        "rig.exact_s": exact_s,
        "rig.exact_subsets": exact_n,
        "rig.exact_us_per_subset": _per(exact_s, exact_n, 1e6),
        "report.render_s": _total(spans, "report.render"),
    }


def stress_check(workload: str, spans_by_session: list[list[dict]],
                 e2e: dict[str, float]) -> tuple[list[str], bool]:
    """Whether the workload's stressed layer carries its load.

    Only the current workload's check is evaluated:
    - deep-history: history is the largest layer share of ingest_s;
    - wide-tree: blame is more than half of ingest_s;
    - many-identities: identity resolution summed over the cst queries
      is more than half of cst_s.
    Layer times come from the traced sessions (medians); the end-to-end
    times they are compared with come from the untraced sessions.
    Returns the report lines and whether the check held.
    """
    def share(name, where=lambda s: True, of="ingest_s"):
        return statistics.median(_total(s, name, where=where)
                                 for s in spans_by_session) / e2e[of]

    ingest = {layer: share(name) for layer, name in (
        ("history", "gitrepo.extract_history"),
        ("blame", "gitrepo.extract_blame"),
        ("cache save", "cache.save_cache"))}
    largest = max(ingest, key=ingest.get)
    resolve = share("identity.resolve_identities",
                    lambda s: s["command"].startswith("cst"), of="cst_s")
    held, claim = {
        "deep-history": (largest == "history",
                         f"history is the largest layer share of ingest_s "
                         f"(largest: {largest})"),
        "wide-tree": (ingest["blame"] > 0.5,
                      f"blame is more than half of ingest_s "
                      f"({ingest['blame']:.1%})"),
        "many-identities": (resolve > 0.5,
                            f"identity.resolve_s over the cst queries is more "
                            f"than half of cst_s ({resolve:.1%})"),
    }[workload]
    return ["ingest_s shares: " + ", ".join(f"{k} {v:.1%}"
                                            for k, v in ingest.items()),
            f"stress check, {workload}: {claim}: "
            f"{'held' if held else 'NOT HELD'}"], held
