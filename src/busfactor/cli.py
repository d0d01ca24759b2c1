"""Command-line interface: ingest, cst, rig, trend, compare."""
from __future__ import annotations

import argparse
import functools
import gc
import os
import re
import shlex
import shutil
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .cache import load_cache, save_cache
from .cst import (CstConfig, CstMetricKind, TimeWindow, WeightScheme,
                  compare_error, cst_bus_factor)
from .errors import BusFactorError, EmptySnapshot, IoFailure, UnknownRevision
from .gitrepo import (LineReplay, extract_blame, extract_history,
                      filter_snapshot, repo_fingerprint, resolve_revision)
from .identity import (DEFAULT_SIMILARITY, parse_alias_file,
                       resolve_identities)
from .metrics import DataMetric, MetricKind
from .records import RecordColumns
from .report import (FORMATS, RunManifest, payload_cst, payload_ingest,
                     payload_rig, payload_trend, render)
from .trend import yearly_trend

_ENV_CACHE = "BUSFACTOR_CACHE_DIR"
# What `rig --cache --rev` accepts besides HEAD: an abbreviated or full
# hash in either case, as git takes it, which must then prefix the cached
# commit's hash.
_HASH_PREFIX = re.compile(r"[0-9a-fA-F]{4,64}")


# --- argument casting ----------------------------------------------------

def _number(cast, rule: str, ok):
    """argparse type: `cast` the text, then require `ok(value)` or fail
    with `rule`."""
    noun = "an integer" if cast is int else "a number"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_COUNT = _number(int, "must be >= 1", lambda value: value >= 1)
_NATURAL = _number(int, "must be >= 0", lambda value: value >= 0)
_FRACTION = _number(float, "must lie in (0, 1]",
                    lambda value: 0.0 < value <= 1.0)
_PERCENT = _number(int, "must lie in 0..100",
                   lambda value: 0 <= value <= 100)
_YEAR = _number(int, "must lie in 1..9999",
                lambda value: 1 <= value <= 9999)


# --- config file ---------------------------------------------------------

def _config_bool(raw: str) -> bool:
    import configparser
    states = configparser.ConfigParser.BOOLEAN_STATES
    key = raw.strip().lower()
    if key not in states:
        raise ValueError(f"not a boolean: {raw!r}")
    return states[key]


def _config_list(raw: str) -> list[str]:
    parts = [piece.strip() for chunk in raw.splitlines()
             for piece in chunk.split(",")]
    return [piece for piece in parts if piece]


def _apply_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> None:
    """Install the [command] section of args.config as defaults of
    `parser`, that subcommand's parser (subparsers build their own
    namespace), for `main` to parse the command line again, where every
    flag wins.

    A value that a flag would be combined with instead is left out:
    --exclude would append to the config's list, and, where --repo and
    --cache are alternative sources (all but ingest), either one next
    to the config's other source would name two sources.
    """
    import configparser
    path, section = args.config, args.command
    reader = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            reader.read_file(fh)
    except OSError as exc:
        parser.error(f"--config: cannot read {path}: {exc}")
    except configparser.Error as exc:
        parser.error(f"--config: {exc}")
    if section not in reader:
        return
    # A section's keys are its subcommand's long flags, minus the dashes.
    actions = {option[2:]: action for action in parser._actions
               for option in action.option_strings
               if action.dest not in ("help", "config")}
    defaults = {}
    for key, raw in reader[section].items():
        if key not in actions:
            parser.error(f"--config: unknown key {key!r} in [{section}]")
        try:
            value = _config_value(actions[key], raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"--config: bad value for {key!r}: {exc}")
        defaults[actions[key].dest] = value
    given = {dest for dest in ("exclude", "repo", "cache")
             if getattr(args, dest, None) is not None}
    if args.command != "ingest" and given & {"repo", "cache"}:
        given |= {"repo", "cache"}
    parser.set_defaults(**{dest: value for dest, value in defaults.items()
                           if dest not in given})


def _config_value(action: argparse.Action, raw: str):
    """Cast a config string as the flag's own action would cast it."""
    if isinstance(action, argparse._AppendAction):
        return _config_list(raw)
    if action.nargs == 0:  # store_true
        return _config_bool(raw)
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{value!r} is not one of {list(action.choices)}")
    return value


# --- parser --------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, name: str) -> None:
    sub.add_argument("--config", metavar="FILE",
                     help=f"config file with [{name}] key=value defaults")
    sub.add_argument("--repo", metavar="PATH",
                     help="path to a local git clone")
    sub.add_argument("--cache", metavar="PATH",
                     help=f"cache directory from `busfactor ingest` "
                          f"(default: ${_ENV_CACHE})")


def _add_identity_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alias-file", metavar="PATH",
                     help="file of `raw_email -> canonical_email` merges")
    sub.add_argument("--similarity", type=_PERCENT,
                     default=DEFAULT_SIMILARITY, metavar="0-100",
                     help="name-similarity threshold for identity merging "
                          "(default %(default)s)")


def _add_scope_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dir", metavar="PREFIX",
                     help="restrict analysis to one directory subtree")
    sub.add_argument("--exclude", action="append", metavar="GLOB",
                     help="drop paths matching this glob (repeatable)")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="text",
                     help="output format (default %(default)s)")
    sub.add_argument("--out", metavar="PATH",
                     help="write the report here instead of stdout")
    sub.add_argument("--redact", action="store_true",
                     help="replace developer identities with stable hashes")


def _add_cst_metric_flags(sub: argparse.ArgumentParser,
                          required: bool) -> None:
    sub.add_argument("--metric",
                     choices=[k.value for k in MetricKind],
                     required=False,
                     default=None if required else MetricKind.COMMITS.value,
                     help="contribution metric")
    sub.add_argument("--cos-scale-locc", action="store_true",
                     help="scale cosine distance by lines changed")
    sub.add_argument("--cst-metric",
                     choices=[k.value for k in CstMetricKind],
                     required=False,
                     default=(None if required
                              else CstMetricKind.MUL_CHANGES_EQUAL.value),
                     help="knowledge metric")
    sub.add_argument("--weight-scheme",
                     choices=[s.value for s in WeightScheme],
                     default=WeightScheme.LINEAR.value,
                     help="position weights of weighted-non-consecutive "
                          "(default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    # A HelpFormatter without a width asks the terminal for one, and
    # argparse builds a formatter for every add_argument; ask once.
    formatter = functools.partial(
        argparse.HelpFormatter,
        width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="busfactor",
        description="Estimate a git repository's bus factor from its "
                    "commit history or line ownership.",
        formatter_class=formatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return commands.add_parser(name, help=summary, allow_abbrev=False,
                                   formatter_class=formatter)

    ingest = command("ingest",
                     "extract history and blame into a cache directory")
    _add_common(ingest, "ingest")
    ingest.add_argument("--include-merges", action="store_true",
                        help="keep merge commits (first-parent diffs)")
    ingest.set_defaults(func=_cmd_ingest)

    cst = command("cst", "commit-based bus factor")
    _add_common(cst, "cst")
    _add_cst_metric_flags(cst, required=True)
    cst.add_argument("--from", dest="time_from", metavar="YYYY[-MM]",
                     help="start of the analyzed period (inclusive)")
    cst.add_argument("--to", dest="time_to", metavar="YYYY[-MM]",
                     help="end of the analyzed period (inclusive)")
    _add_scope_flags(cst)
    _add_identity_flags(cst)
    _add_output_flags(cst)
    cst.set_defaults(func=_cmd_cst)

    rig = command("rig", "bus factor by simulated developer departure")
    _add_common(rig, "rig")
    rig.add_argument("--rev", metavar="REV", default="HEAD",
                     help="revision to blame (default %(default)s)")
    rig.add_argument("--samples", type=_COUNT, default=1000,
                     help="random subsets per group size (default %(default)s)")
    rig.add_argument("--max-g", type=_COUNT, default=200,
                     help="largest departing group to try (default %(default)s)")
    rig.add_argument("--seed", type=_NATURAL, default=0,
                     help="random seed (default %(default)s)")
    rig.add_argument("--runs", type=_COUNT, default=1,
                     help="independent runs with derived seeds (default %(default)s)")
    rig.add_argument("--exhaustive", action="store_true",
                     help="enumerate every subset instead of sampling (exact)")
    rig.add_argument("--line-abandon", type=_FRACTION, default=0.90,
                     metavar="RATIO",
                     help="line-ownership fraction that abandons a file "
                          "(default %(default)s)")
    rig.add_argument("--file-abandon", type=_FRACTION, default=0.50,
                     metavar="RATIO",
                     help="abandoned-file fraction that abandons the project "
                          "(default %(default)s)")
    _add_scope_flags(rig)
    _add_identity_flags(rig)
    _add_output_flags(rig)
    rig.set_defaults(func=_cmd_rig)

    trend = command("trend", "per-year bus factor series")
    _add_common(trend, "trend")
    trend.add_argument("--from-year", type=_YEAR, default=None,
                       metavar="YYYY", help="first year of the series")
    trend.add_argument("--to-year", type=_YEAR, default=None,
                       metavar="YYYY", help="last year of the series")
    trend.add_argument("--cumulative", action="store_true",
                       help="each point covers all history through its year")
    _add_cst_metric_flags(trend, required=False)
    _add_scope_flags(trend)
    _add_identity_flags(trend)
    _add_output_flags(trend)
    trend.set_defaults(func=_cmd_trend)

    compare = command("compare",
                      "absolute error against a reference bus factor")
    compare.add_argument("--config", help=argparse.SUPPRESS)
    compare.add_argument("--bf", type=_NATURAL, default=None,
                         help="computed bus factor")
    compare.add_argument("--reference", type=_NATURAL, default=None,
                         help="reference bus factor to compare against")
    compare.set_defaults(func=_cmd_compare)

    parser.commands = commands
    return parser


# --- shared command plumbing ----------------------------------------------

def _require(parser, args, dest: str, flag: str):
    value = getattr(args, dest, None)
    if value is None:
        parser.error(f"{flag} is required")
    return value


def _resolve_source(parser, args) -> tuple[str | None, str | None]:
    repo, cache = args.repo, args.cache
    if repo and cache:
        parser.error("--repo and --cache are mutually exclusive")
    if not repo and not cache:
        cache = os.environ.get(_ENV_CACHE)
        if not cache:
            parser.error("one of --repo or --cache is required "
                         f"(or set ${_ENV_CACHE})")
    return repo, cache


def _identity_for(parser, args, weights: Counter):
    aliases = None
    if args.alias_file:
        try:
            aliases = parse_alias_file(args.alias_file)
        except OSError as exc:
            raise IoFailure(f"cannot read alias file: {exc}") from exc
        except ValueError as exc:
            parser.error(f"--alias-file: {exc}")
    return resolve_identities(weights.keys(),
                              similarity_threshold=args.similarity,
                              weights=weights, aliases=aliases)


def _window(parser, args) -> TimeWindow | None:
    if not args.time_from and not args.time_to:
        return None
    try:
        return TimeWindow.parse(args.time_from, args.time_to)
    except ValueError as exc:
        parser.error(f"--from/--to: {exc}")


def _cst_inputs(parser, args, time_range: TimeWindow | None = None):
    """Config, record columns, identities and fingerprint for cst and
    trend."""
    metric = _require(parser, args, "metric", "--metric")
    cst_metric = _require(parser, args, "cst_metric", "--cst-metric")
    repo, cache = _resolve_source(parser, args)
    config = CstConfig(
        cst_metric=CstMetricKind(cst_metric),
        data_metric=DataMetric(MetricKind(metric),
                               cos_scale_by_locc=args.cos_scale_locc),
        scope=args.dir,
        time_range=time_range,
        exclude_globs=tuple(args.exclude or ()),
        weight_scheme=WeightScheme(args.weight_scheme),
    )
    if repo:
        commit = resolve_revision(repo, "HEAD")
        columns = RecordColumns.from_records(extract_history(repo, commit))
        fingerprint = repo_fingerprint(repo, commit)
    else:
        columns, _, fingerprint = load_cache(cache)
    identity = _identity_for(parser, args, columns.author_counts())
    return config, columns, identity, fingerprint


def _manifest(argv, fingerprint, started, seed=None) -> RunManifest:
    return RunManifest(
        tool_version=__version__,
        command_line="busfactor " + " ".join(shlex.quote(a) for a in argv),
        repo_fingerprint=fingerprint,
        started_at=started,
        finished_at=datetime.now(timezone.utc),
        seed=seed,
    )


def _emit(payload: dict, args) -> None:
    data = render(payload, args.format)
    if args.out:
        try:
            Path(args.out).write_bytes(data)
        except OSError as exc:
            raise IoFailure(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(data.decode("utf-8"))


# --- subcommands -----------------------------------------------------------

def _cmd_ingest(parser, args, argv, started) -> int:
    repo = _require(parser, args, "repo", "--repo")
    cache = args.cache or os.environ.get(_ENV_CACHE)
    if not cache:
        parser.error(f"--cache is required (or set ${_ENV_CACHE})")
    commit = resolve_revision(repo, "HEAD")
    # the history pass replays line owners; blame runs only for the
    # files the replay cannot prove
    replay = LineReplay()
    columns = RecordColumns.from_records(extract_history(
        repo, commit, include_merges=args.include_merges, replay=replay))
    blame = extract_blame(repo, commit, replay=replay)
    fingerprint = repo_fingerprint(repo, commit)
    save_cache(columns, blame if blame.files else None, fingerprint, cache)
    stats = {
        "cache_path": str(cache),
        "records": len(columns),
        "commits": len(columns.commit_author),
        "files_in_history": len(columns.paths),
        "blame_files": len(blame.files),
        "authors": len(blame.authors().union(columns.authors)),
    }
    sys.stdout.write(
        render(payload_ingest(stats, _manifest(argv, fingerprint, started)),
               "text").decode("utf-8"))
    return 0


def _cmd_cst(parser, args, argv, started) -> int:
    config, columns, identity, fingerprint = _cst_inputs(
        parser, args, _window(parser, args))
    result = cst_bus_factor(columns, identity, config)
    payload = payload_cst(result, _manifest(argv, fingerprint, started),
                          redact=args.redact)
    _emit(payload, args)
    return 0


def _cmd_rig(parser, args, argv, started) -> int:
    from .rig import RigConfig, rig_repeat
    repo, cache = _resolve_source(parser, args)
    exclude = tuple(args.exclude or ())
    if repo:
        blame = extract_blame(repo, args.rev, path_filter=args.dir,
                              exclude_globs=exclude)
        fingerprint = repo_fingerprint(repo, blame.revision)
    else:
        _, blame, fingerprint = load_cache(cache, records=False)
        # ingest snapshots HEAD, so HEAD names the cached commit, which
        # the fingerprint holds ("<source>@<commit>") even when no text
        # file was there to blame.
        commit = fingerprint.rpartition("@")[2]
        if args.rev != "HEAD" and not (
                _HASH_PREFIX.fullmatch(args.rev)
                and commit.startswith(args.rev.lower())):
            raise UnknownRevision(f"cache was ingested at {commit}, not "
                                  f"{args.rev}; other revisions need --repo")
        if blame is not None:  # None: ingest found no text file to blame
            blame = filter_snapshot(blame, scope=args.dir,
                                    exclude_globs=exclude)
    if blame is None or not blame.files:
        raise EmptySnapshot(f"no blamed file under {args.dir or '.'!r} "
                            f"outside excludes {args.exclude or []}")

    weights = Counter()
    for lines in blame.files.values():
        weights.update(lines)
    identity = _identity_for(parser, args, weights)

    config = RigConfig(
        max_group_size=args.max_g,
        samples_per_size=args.samples,
        seed=args.seed,
        line_abandon_fraction=args.line_abandon,
        file_abandon_fraction=args.file_abandon,
        exhaustive=args.exhaustive,
    )
    results = rig_repeat(blame, identity, config, runs=args.runs)
    payload = payload_rig(results, config,
                          _manifest(argv, fingerprint, started, seed=args.seed),
                          revision=blame.revision,
                          file_count=len(blame.files),
                          developer_count=len(identity),
                          redact=args.redact)
    _emit(payload, args)
    return 0


def _cmd_trend(parser, args, argv, started) -> int:
    first = _require(parser, args, "from_year", "--from-year")
    last = _require(parser, args, "to_year", "--to-year")
    if first > last:
        parser.error(f"--from-year/--to-year: {first} is after {last}")
    base, columns, identity, fingerprint = _cst_inputs(parser, args)
    series = yearly_trend(columns, identity, base, first, last,
                          cumulative=args.cumulative)
    payload = payload_trend(series, _manifest(argv, fingerprint, started))
    _emit(payload, args)
    return 0


def _cmd_compare(parser, args, argv, started) -> int:
    bf = _require(parser, args, "bf", "--bf")
    reference = _require(parser, args, "reference", "--reference")
    sys.stdout.write(f"{compare_error(bf, reference)}\n")
    return 0


# --- entry point -----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # usage errors past argparse's own name the subcommand, as its
        # errors do
        command = parser.commands.choices[args.command]
        if args.config:
            _apply_config(command, args)
            args = parser.parse_args(argv)
        started = datetime.now(timezone.utc)
        return args.func(command, args, argv, started)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    except BusFactorError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# The modules imported above live as long as the process, yet the full
# collection at interpreter exit would still break and free their objects
# one by one: 13-16 ms of every command on a 2-vCPU host. Frozen objects
# move to the permanent generation, which no collection traverses, and
# the OS reclaims them at exit. This runs once per process, on import;
# freezing in `main` would make each in-process call's uncollected
# cycles permanent, and the library modules leave a caller's collector
# alone.
gc.freeze()

if __name__ == "__main__":
    raise SystemExit(main())
