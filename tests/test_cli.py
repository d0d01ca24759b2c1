"""End-to-end command line behaviour, via subprocess or `main` in process."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from tests.conftest import ADA, BERT

CLI = [sys.executable, "-m", "busfactor"]


def run_cli(*args, env_extra=None, cwd=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)


def run_main(capsys, *args):
    """Run the CLI in this process: its exit code, stdout and stderr."""
    from busfactor.cli import main
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert "0.1.0" in proc.stdout


def test_no_subcommand_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_flag_is_usage_error(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path), "--bogus")
    assert proc.returncode == 2
    assert "--bogus" in proc.stderr


def test_cst_requires_metric(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path))
    assert proc.returncode == 2
    assert "--metric" in proc.stderr


def test_cst_json_two_dev_repo(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["bus_factor"] == 2
    shares = {d["email"]: d["knowledge"] for d in doc["knowledge_table"]}
    assert shares["ada@fixture.test"] == 0.75
    assert shares["bert@fixture.test"] == 0.25
    assert doc["manifest"]["command_line"].startswith("busfactor cst")


def test_cst_text_default_format(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal")
    assert proc.returncode == 0
    assert "Bus factor: 2" in proc.stdout


def test_cst_out_writes_file(two_dev_repo, tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "locc", "--cst-metric", "last-change",
                   "--format", "json", "--out", str(target))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["kind"] == "cst"


def test_cst_nonexistent_repo_fails_cleanly(tmp_path):
    proc = run_cli("cst", "--repo", str(tmp_path / "nope"),
                   "--metric", "commits", "--cst-metric", "mul-equal")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR ")
    name = proc.stderr.split(":", 1)[0]
    assert name == f"ERROR {name.split()[1]}"  # shape: ERROR <Name>: detail


def test_error_line_shape_not_a_repo(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    proc = run_cli("cst", "--repo", str(plain),
                   "--metric", "commits", "--cst-metric", "mul-equal")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR NotARepository:")
    assert proc.stdout == ""


def test_ingest_then_cst_from_cache(two_dev_repo, tmp_path):
    cache = tmp_path / "bf-cache"
    proc = run_cli("ingest", "--repo", str(two_dev_repo.path),
                   "--cache", str(cache))
    assert proc.returncode == 0, proc.stderr
    assert cache.is_dir()
    proc2 = run_cli("cst", "--cache", str(cache), "--metric", "commits",
                    "--cst-metric", "mul-equal", "--format", "json")
    assert proc2.returncode == 0, proc2.stderr
    assert json.loads(proc2.stdout)["bus_factor"] == 2


def test_cache_dir_env_var(two_dev_repo, tmp_path):
    cache = tmp_path / "env-cache"
    env = {"BUSFACTOR_CACHE_DIR": str(cache)}
    proc = run_cli("ingest", "--repo", str(two_dev_repo.path),
                   env_extra=env)
    assert proc.returncode == 0, proc.stderr
    proc2 = run_cli("cst", "--metric", "commits",
                    "--cst-metric", "mul-equal", "--format", "json",
                    env_extra=env)
    assert proc2.returncode == 0, proc2.stderr
    assert json.loads(proc2.stdout)["bus_factor"] == 2


def test_repo_and_cache_flags_conflict(two_dev_repo, tmp_path):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--cache", str(tmp_path / "c"),
                   "--metric", "commits", "--cst-metric", "mul-equal")
    assert proc.returncode == 2


def test_rig_exhaustive_json(two_dev_repo):
    proc = run_cli("rig", "--repo", str(two_dev_repo.path), "--exhaustive",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "rig"
    # Ada holds 75% of the only file's lines: under the 90% rule no
    # single departure abandons it, so both developers must go
    assert doc["bus_factor"] == 2
    run = doc["runs"][0]
    assert run["abandoned_fraction"] >= 0.5
    assert doc["manifest"]["seed"] == 0


def test_rig_seeded_runs_reproducible(two_dev_repo):
    args = ("rig", "--repo", str(two_dev_repo.path), "--seed", "42",
            "--samples", "50", "--runs", "3", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    doc1, doc2 = json.loads(first.stdout), json.loads(second.stdout)
    doc1["manifest"] = doc2["manifest"] = None  # timestamps differ
    assert doc1 == doc2


def test_rig_from_cache_requires_blame(two_dev_repo, tmp_path):
    cache = tmp_path / "cache"
    assert run_cli("ingest", "--repo", str(two_dev_repo.path),
                   "--cache", str(cache)).returncode == 0
    proc = run_cli("rig", "--cache", str(cache), "--exhaustive",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bus_factor"] >= 1


def test_rig_from_cache_checks_records(two_dev_repo, tmp_path):
    cache = tmp_path / "cache"
    assert run_cli("ingest", "--repo", str(two_dev_repo.path),
                   "--cache", str(cache)).returncode == 0
    cache_file = cache / "cache.json"
    blob = bytearray(cache_file.read_bytes())
    header = blob[:blob.index(b"\n") + 1]
    head_size = int(header.split()[3])
    blob[len(header) + head_size + 12] ^= 0x01  # inside the records part
    cache_file.write_bytes(bytes(blob))
    proc = run_cli("rig", "--cache", str(cache), "--exhaustive")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR CorruptCache:")


def test_rig_cache_rev_mismatch(two_dev_repo, tmp_path, capsys):
    # Besides HEAD, only 4 to 64 hex digits that prefix the cached hash
    # name the cached commit; --repo rejects the same names.
    head = two_dev_repo.head()
    cache = tmp_path / "cache"
    run_main(capsys, "ingest", "--repo", str(two_dev_repo.path),
             "--cache", str(cache))
    for rev in ("f" * 40, "", head[:1], head[:3], head[:4] + "x"):
        for source in ("--cache", str(cache)), ("--repo", str(two_dev_repo.path)):
            code, _, err = run_main(capsys, "rig", *source, "--rev", rev)
            assert code == 1, (rev, source)
            assert err.startswith("ERROR UnknownRevision:")


def _without_run_fields(doc: dict) -> dict:
    for key in ("started_at", "finished_at", "command_line"):
        del doc["manifest"][key]
    return doc


def test_rig_cache_rev_head_names_cached_commit(two_dev_repo, tmp_path):
    cache = tmp_path / "cache"
    run_cli("ingest", "--repo", str(two_dev_repo.path),
            "--cache", str(cache))
    args = ("rig", "--cache", str(cache), "--exhaustive", "--format", "json")
    plain = run_cli(*args)
    for rev in ("HEAD", two_dev_repo.head()[:4], two_dev_repo.head()):
        head = run_cli(*args, "--rev", rev)
        assert plain.returncode == head.returncode == 0, head.stderr
        assert _without_run_fields(json.loads(head.stdout)) == \
            _without_run_fields(json.loads(plain.stdout))
    proc = run_cli(*args, "--rev", "main")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR UnknownRevision:")
    assert two_dev_repo.head() in proc.stderr
    assert "other revisions need --repo" in proc.stderr


def test_repo_and_cache_give_equal_reports(repo_factory, tmp_path, capsys):
    # The columns built from a clone's history and those read from its
    # cache give the same cst and trend reports, with a window, a scope
    # and a cumulative trend; dates straddle year ends, one under a
    # non-UTC offset that puts it in the next UTC year.
    repo = repo_factory()
    ada, bert = ("Ada Core", "ada@fixture.test"), ("Bert Low",
                                                   "bert@fixture.test")
    for author, rel, date in (
            (ada, "src/a.py", "2019-06-01T12:00:00 +0000"),
            (bert, "src/a.py", "2020-12-31T23:59:59 +0000"),
            (ada, "docs/b.md", "2021-01-01T00:00:00 +0000"),
            (bert, "src/c.py", "2021-05-31T23:59:59 +0000"),
            (ada, "src/c.py", "2021-12-31T23:30:00 -0200"),
            (bert, "docs/b.md", "2022-03-01T08:00:00 +0100")):
        repo.write(rel, f"{rel} by {author[0]} at {date}\n")
        repo.commit(author, date=date)
    cache = str(tmp_path / "cache")
    assert run_main(capsys, "ingest", "--repo", str(repo.path),
                    "--cache", cache)[0] == 0
    for query in (
            ["cst", "--metric", "commits", "--cst-metric", "mul-equal"],
            ["cst", "--metric", "locc", "--cst-metric", "non-consecutive",
             "--from", "2020-12", "--to", "2021-05"],
            ["cst", "--metric", "cos", "--cst-metric", "last-change",
             "--dir", "src"],
            ["trend", "--from-year", "2019", "--to-year", "2022"],
            ["trend", "--from-year", "2019", "--to-year", "2022",
             "--cumulative", "--metric", "locc", "--cst-metric",
             "weighted-non-consecutive"]):
        reports = []
        for source in (["--repo", str(repo.path)], ["--cache", cache]):
            code, out, err = run_main(capsys, *query, *source,
                                      "--format", "json")
            assert code == 0, (query, source, err)
            reports.append(_without_run_fields(json.loads(out)))
        assert reports[0] == reports[1], query


@pytest.mark.parametrize("ident, detail, blame_fails", [
    ("<> 1600000000 +0000", "author name and email are both empty", True),
    ("Ada Core <ada@fixture.test> 253402300800 +0000",
     "author date 253402300800 lies outside years 1-9999", False)],
    ids=["nameless-author", "year-10000"])
def test_commit_that_no_record_holds_is_an_error_line(
        ident, detail, blame_fails, repo_factory, tmp_path, capsys):
    # `git fast-import` takes both commits; `git commit` refuses them.
    repo = repo_factory()
    repo.write("a.txt", "one\n")
    repo.commit(ADA)
    bad = repo.import_commits([(ident, {"a.txt": "one\ntwo\n"})])[-1]
    source = ["--repo", str(repo.path)]
    for argv in (["ingest", *source, "--cache", str(tmp_path / "cache")],
                 ["cst", *source, "--metric", "commits",
                  "--cst-metric", "mul-equal"],
                 ["trend", *source, "--from-year", "2020",
                  "--to-year", "2021"]):
        assert run_main(capsys, *argv) == (
            1, "", f"ERROR UnsupportedCommit: commit {bad}: {detail}\n")
    code, out, err = run_main(capsys, "rig", *source, "--exhaustive")
    if blame_fails:
        assert (code, out, err) == (
            1, "", f"ERROR UnsupportedCommit: a.txt: a line at {bad} has "
                   "an author whose name and email are both empty\n")
    else:  # blame reads no date
        assert (code, err) == (0, "")


def test_no_command_builds_a_record_object(repo_factory, tmp_path, capsys,
                                           monkeypatch):
    # Columns run from `git log` to every report: with ChangeRecord and
    # CommitMeta unbuildable, each command gives the report and the
    # cache it gives with them.
    from busfactor import ChangeRecord, CommitMeta, extract_history
    repo = repo_factory()
    for author, rel, date in (
            (ADA, "src/a.py", "2020-03-01T10:00:00 +0000"),
            (BERT, "src/a.py", "2020-12-31T23:00:00 -0300"),
            (ADA, "docs/b.md", "2021-02-01T09:00:00 +0000"),
            (BERT, "src/c.py", "2021-07-01T12:00:00 +0000")):
        repo.write(rel, f"{rel} by {author[0]} at {date}\n")
        repo.commit(author, date=date)
    cache = tmp_path / "cache"
    source = {"--repo": str(repo.path), "--cache": str(cache)}
    queries = [[*query, flag, path, "--format", "json"]
               for query in (["cst", "--metric", "locc", "--cst-metric",
                              "non-consecutive"],
                             ["trend", "--from-year", "2020",
                              "--to-year", "2021"])
               for flag, path in source.items()]
    queries.append(["rig", "--cache", str(cache), "--exhaustive",
                    "--format", "json"])

    def outcomes():
        code, report, err = run_main(capsys, "ingest", "--repo",
                                     str(repo.path), "--cache", str(cache))
        assert (code, err) == (0, "")
        found = [report, (cache / "cache.json").read_bytes()]
        for argv in queries:
            code, out, err = run_main(capsys, *argv)
            assert (code, err) == (0, ""), argv
            found.append(_without_run_fields(json.loads(out)))
        return found
    expected = outcomes()

    def refuse(*args, **kwargs):
        raise AssertionError("a record object was built")
    for kind in (ChangeRecord, CommitMeta):
        monkeypatch.setattr(kind, "__new__", refuse)
        monkeypatch.setattr(kind, "_make", refuse)
    with pytest.raises(AssertionError, match="record object"):
        list(extract_history(repo.path))  # the records, not the columns
    assert outcomes() == expected


def test_rig_repo_rev_fingerprint_names_that_commit(two_dev_repo):
    first = two_dev_repo.git("rev-list", "--max-parents=0", "HEAD").strip()
    proc = run_cli("rig", "--repo", str(two_dev_repo.path), "--rev", first,
                   "--exhaustive", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["revision"] == first
    assert doc["manifest"]["repo_fingerprint"].endswith("@" + first)


def test_trend_csv(two_dev_repo):
    proc = run_cli("trend", "--repo", str(two_dev_repo.path),
                   "--from-year", "2021", "--to-year", "2022",
                   "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    assert lines[0] == "year,bus_factor,total_developers,bf_percentage"
    assert lines[1].startswith("2021,")
    assert lines[2].startswith("2022,0,0,")  # fixture has no 2022 activity


def test_trend_requires_span(two_dev_repo):
    proc = run_cli("trend", "--repo", str(two_dev_repo.path))
    assert proc.returncode == 2


def test_trend_has_no_window_flags(two_dev_repo):
    # the year span is --from-year/--to-year; --from must not abbreviate it
    proc = run_cli("trend", "--repo", str(two_dev_repo.path),
                   "--from-year", "2021", "--to-year", "2021",
                   "--from", "1990")
    assert proc.returncode == 2
    assert "unrecognized arguments: --from 1990" in proc.stderr


def test_trend_at_the_last_datetime_year(two_dev_repo):
    proc = run_cli("trend", "--repo", str(two_dev_repo.path),
                   "--from-year", "9999", "--to-year", "9999")
    assert proc.returncode == 0, proc.stderr
    assert "9999: (no activity)" in proc.stdout


@pytest.mark.parametrize("years", [("10000", "10000"), ("9999", "10000"),
                                   ("0", "2021")])
def test_trend_years_outside_datetime_are_usage_errors(two_dev_repo, years):
    proc = run_cli("trend", "--repo", str(two_dev_repo.path),
                   "--from-year", years[0], "--to-year", years[1])
    assert proc.returncode == 2
    assert "must lie in 1..9999" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cst_window_may_end_in_9999(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--to", "9999", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["time_range"] == "*..9999"
    assert doc["bus_factor"] == 2


def test_compare_prints_bare_difference():
    proc = run_cli("compare", "--bf", "12", "--reference", "17")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5"


def test_compare_requires_both_numbers():
    proc = run_cli("compare", "--bf", "3")
    assert proc.returncode == 2


def test_alias_file_merges_identities(repo_factory, tmp_path):
    repo = repo_factory()
    alice_a = ("Alice Work", "alice@corp.test")
    alice_b = ("Alice", "alice.p@home.example")
    repo.write("code.py", "a\nb\nc\n")
    repo.commit(alice_a, "start")
    repo.write("code.py", "a\nb\nc\nd\n")
    repo.commit(alice_b, "more")
    aliases = tmp_path / "aliases.txt"
    aliases.write_text("alice.p@home.example -> alice@corp.test\n",
                       encoding="utf-8")
    merged = run_cli("cst", "--repo", str(repo.path), "--metric", "commits",
                     "--cst-metric", "mul-equal", "--alias-file",
                     str(aliases), "--format", "json")
    assert merged.returncode == 0, merged.stderr
    doc = json.loads(merged.stdout)
    assert doc["developer_count"] == 1
    assert doc["bus_factor"] == 1


def test_alias_line_with_empty_side_is_usage_error(two_dev_repo, tmp_path):
    aliases = tmp_path / "aliases.txt"
    aliases.write_text(" -> x@y\n", encoding="utf-8")
    proc = run_cli("cst", "--repo", str(two_dev_repo.path), "--metric",
                   "commits", "--cst-metric", "mul-equal", "--alias-file",
                   str(aliases))
    assert proc.returncode == 2
    assert "malformed alias line" in proc.stderr


def test_config_file_supplies_defaults(two_dev_repo, tmp_path):
    cfg = tmp_path / "bf.cfg"
    cfg.write_text("[cst]\nmetric = commits\ncst-metric = mul-equal\n"
                   "format = json\n", encoding="utf-8")
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bus_factor"] == 2


def test_cli_flag_overrides_config(two_dev_repo, tmp_path):
    cfg = tmp_path / "bf.cfg"
    cfg.write_text("[cst]\nmetric = commits\ncst-metric = mul-equal\n"
                   "format = json\n", encoding="utf-8")
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--config", str(cfg), "--cst-metric", "last-change")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["cst_metric"] == "last-change"
    # under last-change the latest committer holds all knowledge
    assert doc["bus_factor"] == 1
    assert doc["knowledge_table"][0]["knowledge"] == 1.0


def test_config_weight_scheme_key(two_dev_repo, tmp_path):
    cfg = tmp_path / "bf.cfg"
    cfg.write_text("[cst]\nmetric = commits\n"
                   "cst-metric = weighted-non-consecutive\n"
                   "weight-scheme = exponential\nformat = json\n",
                   encoding="utf-8")
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert (json.loads(proc.stdout)["config"]["weight_scheme"]
            == "exponential")


def test_weight_scheme_flag(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits",
                   "--cst-metric", "weighted-non-consecutive",
                   "--weight-scheme", "exponential", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert (json.loads(proc.stdout)["config"]["weight_scheme"]
            == "exponential")


@pytest.mark.parametrize("section, line", [
    ("rig", "samples = 0"),
    ("rig", "max-g = 0"),
    ("rig", "line-abandon = 2"),
    ("rig", "similarity = 150"),
    ("cst", "metric = bogus"),
])
def test_config_value_validated_like_its_flag(two_dev_repo, tmp_path,
                                              section, line):
    cfg = tmp_path / "bf.cfg"
    cfg.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
    proc = run_cli(section, "--repo", str(two_dev_repo.path),
                   "--config", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert f"bad value for {line.split(' = ')[0]!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("configured, given", [("repo", "cache"),
                                               ("cache", "repo")])
def test_command_line_source_replaces_config_source(two_dev_repo, tmp_path,
                                                    configured, given):
    paths = {"repo": str(two_dev_repo.path), "cache": str(tmp_path / "cache")}
    assert run_cli("ingest", "--repo", paths["repo"],
                   "--cache", paths["cache"]).returncode == 0
    cfg = tmp_path / "bf.cfg"
    cfg.write_text(f"[cst]\n{configured} = {tmp_path / 'nowhere'}\n"
                   "metric = commits\ncst-metric = mul-equal\n"
                   "format = json\n", encoding="utf-8")
    alone = run_cli("cst", "--config", str(cfg))
    assert alone.returncode == 1, alone.stderr  # the config's source is read
    proc = run_cli("cst", "--config", str(cfg), f"--{given}", paths[given])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bus_factor"] == 2


@pytest.mark.parametrize("configured", ["repo", "cache"])
def test_ingest_takes_repo_and_cache_from_both_sources(two_dev_repo, tmp_path,
                                                       configured):
    # ingest reads --repo and writes --cache: a flag for one of them
    # leaves the config's other in place
    paths = {"repo": str(two_dev_repo.path), "cache": str(tmp_path / "cache")}
    given = "cache" if configured == "repo" else "repo"
    cfg = tmp_path / "bf.cfg"
    cfg.write_text(f"[ingest]\n{configured} = {paths[configured]}\n",
                   encoding="utf-8")
    proc = run_cli("ingest", "--config", str(cfg), f"--{given}",
                   paths[given],
                   env_extra={"BUSFACTOR_CACHE_DIR": str(tmp_path / "env")})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cache").exists()
    assert not (tmp_path / "env").exists()


def test_help_after_config_shows_builtin_defaults(tmp_path):
    cfg = tmp_path / "bf.cfg"
    cfg.write_text("[rig]\nsamples = 7\n", encoding="utf-8")
    proc = run_cli("rig", "--config", str(cfg), "--help")
    assert proc.returncode == 0, proc.stderr
    # the command line is parsed, and --help answered, before the config
    assert ("random subsets per group size (default 1000)"
            in " ".join(proc.stdout.split()))


def test_parser_asks_terminal_width_once(monkeypatch):
    import shutil
    from busfactor.cli import build_parser
    calls = []
    real = shutil.get_terminal_size

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    parser = build_parser()
    assert len(calls) == 1
    parser.format_help()
    parser.commands.choices["rig"].format_help()
    assert len(calls) == 1


@pytest.mark.parametrize("columns", [60, 200])
def test_help_wraps_at_terminal_width(monkeypatch, columns):
    # argparse leaves two columns of margin
    from busfactor.cli import build_parser
    monkeypatch.setenv("COLUMNS", str(columns))
    parser = build_parser()
    for text in (parser.format_help(),
                 parser.commands.choices["rig"].format_help()):
        widths = [len(line) for line in text.splitlines()]
        assert max(widths) <= columns - 2
        assert (max(widths) > 60) is (columns == 200)


def test_time_window_flags(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--from", "2021-01", "--to", "2021-12",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["time_range"] == "2021-01..2021-12"
    assert doc["bus_factor"] == 2


@pytest.mark.parametrize("flag,value,message", [
    ("--to", "0", "year out of range: 0"),
    ("--to", "0-12", "year out of range: 0"),
    ("--to", "10000", "year out of range: 10000"),
    ("--from", "-1", "expected YYYY or YYYY-MM, got '-1'"),
])
def test_window_years_outside_1_to_9999_are_usage_errors(two_dev_repo, flag,
                                                          value, message):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   flag, value)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.rstrip().endswith(f"--from/--to: {message}")
    assert "Traceback" not in proc.stderr


def test_window_with_no_activity_errors(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--from", "1990", "--to", "1991")
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR EmptyScope:")


def test_redact_flag(two_dev_repo):
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--format", "json", "--redact")
    assert proc.returncode == 0
    assert "ada@fixture.test" not in proc.stdout
    assert "dev-" in proc.stdout


def _vendored_repo(repo_factory):
    repo = repo_factory()
    repo.write("src/app.py", "x = 1\n")
    repo.write("vendor/lib.py", "y = 2\n" * 5)
    repo.commit(("Ada Core", "ada@fixture.test"), "app")
    repo.write("vendor/extra.py", "z\n")
    repo.commit(("Bert Low", "bert@fixture.test"), "vendored")
    return repo


def test_exclude_flag(repo_factory):
    repo = _vendored_repo(repo_factory)
    proc = run_cli("cst", "--repo", str(repo.path), "--metric", "commits",
                   "--cst-metric", "mul-equal", "--exclude", "vendor/**",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["developer_count"] == 1
    assert doc["file_count"] == 1


def test_config_exclude_list(repo_factory, tmp_path):
    repo = _vendored_repo(repo_factory)
    cfg = tmp_path / "bf.cfg"
    cfg.write_text("[cst]\nexclude = vendor/lib.py, vendor/extra.py\n",
                   encoding="utf-8")
    proc = run_cli("cst", "--repo", str(repo.path), "--config", str(cfg),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["exclude"] == ["vendor/lib.py", "vendor/extra.py"]
    assert doc["file_count"] == 1


def test_exclude_flag_replaces_config_list(repo_factory, tmp_path):
    repo = _vendored_repo(repo_factory)
    cfg = tmp_path / "bf.cfg"
    cfg.write_text("[cst]\nexclude = vendor/**\n", encoding="utf-8")
    proc = run_cli("cst", "--repo", str(repo.path), "--config", str(cfg),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   "--exclude", "src/**", "--exclude", "vendor/extra.py",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["config"]["exclude"] == ["src/**", "vendor/extra.py"]
    assert doc["file_count"] == 1  # only vendor/lib.py is left


def test_dir_scope_flag(repo_factory):
    repo = repo_factory()
    repo.write("src/a.py", "a\n")
    repo.write("docs/b.md", "b\n")
    repo.commit(("Ada Core", "ada@fixture.test"), "both")
    repo.write("docs/b.md", "b\nc\n")
    repo.commit(("Bert Low", "bert@fixture.test"), "docs only")
    for scope in ("docs", "./docs"):
        proc = run_cli("cst", "--repo", str(repo.path), "--metric", "commits",
                       "--cst-metric", "mul-equal", "--dir", scope,
                       "--format", "json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["scope"] == scope  # the report echoes the flag as given
        assert doc["developer_count"] == 2


def _rig_report(capsys, *args) -> dict:
    """An exhaustive rig JSON report without its run manifest."""
    code, out, err = run_main(capsys, "rig", *args, "--exhaustive",
                              "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    del doc["manifest"]
    return doc


def test_rig_scope_spellings_match(repo_factory, tmp_path, capsys):
    repo = repo_factory()
    repo.write("d00/a.py", "a\nb\nc\n")
    repo.write("d01/b.py", "x\n")
    repo.write("top.txt", "t\n")
    repo.commit(("Ada Core", "ada@fixture.test"))
    repo.write("d00/a.py", "a\nB\nc\nd\n")
    repo.commit(("Bert Low", "bert@fixture.test"))
    repo.write("d01/b.py", "x\ny\n")
    repo.commit(("Cleo Vian", "cleo@fixture.test"))
    cache = tmp_path / "cache"
    assert run_main(capsys, "ingest", "--repo", str(repo.path),
                    "--cache", str(cache))[0] == 0
    for source in (("--repo", str(repo.path)), ("--cache", str(cache))):
        scoped = _rig_report(capsys, *source, "--dir", "d00")
        assert scoped["file_count"] == 1
        assert _rig_report(capsys, *source, "--dir", "./d00") == scoped
        whole = _rig_report(capsys, *source)
        assert whole["file_count"] == 3
        for spelling in (".", "/"):
            assert _rig_report(capsys, *source, "--dir", spelling) == whole


@pytest.mark.parametrize("source", ["repo", "cache"])
@pytest.mark.parametrize("scope", [["--dir", "nosuch"], ["--exclude", "**"]])
def test_rig_nothing_in_scope_is_empty_snapshot(two_dev_repo, tmp_path,
                                                scope, source):
    paths = {"repo": str(two_dev_repo.path), "cache": str(tmp_path / "cache")}
    assert run_cli("ingest", "--repo", paths["repo"],
                   "--cache", paths["cache"]).returncode == 0
    proc = run_cli("rig", f"--{source}", paths[source], *scope)
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR EmptySnapshot:")
    assert repr(scope[1]) in proc.stderr


def test_rig_without_text_files_fails_alike_from_repo_and_cache(
        repo_factory, tmp_path):
    # ingest caches no blame when HEAD holds no text file; rig then finds
    # nothing in scope from either source
    repo = repo_factory()
    repo.write_bytes("b.bin", b"\x00\x01\x02\xff" * 8)
    repo.commit(("Ada Core", "ada@fixture.test"))
    cache = str(tmp_path / "cache")
    assert run_cli("ingest", "--repo", str(repo.path),
                   "--cache", cache).returncode == 0
    from_repo = run_cli("rig", "--repo", str(repo.path))
    from_cache = run_cli("rig", "--cache", cache)
    assert from_repo.returncode == from_cache.returncode == 1
    assert from_repo.stderr == from_cache.stderr == (
        "ERROR EmptySnapshot: no blamed file under '.' outside excludes []\n")


def test_rig_cache_without_blame_checks_rev(repo_factory, tmp_path, capsys):
    # a binary-only HEAD leaves the cache no blame; --rev is still checked
    # against the commit the cache was ingested at
    repo = repo_factory()
    repo.write_bytes("b.bin", b"\x00\x01\x02\xff" * 8)
    repo.commit(("Ada Core", "ada@fixture.test"))
    cache = str(tmp_path / "cache")
    assert run_main(capsys, "ingest", "--repo", str(repo.path),
                    "--cache", cache)[0] == 0
    for rev, error in (("abcd", "UnknownRevision"), ("main", "UnknownRevision"),
                       ("HEAD", "EmptySnapshot"),
                       (repo.head()[:7], "EmptySnapshot")):
        code, _, err = run_main(capsys, "rig", "--cache", cache, "--rev", rev)
        assert code == 1, rev
        assert err.startswith(f"ERROR {error}:"), rev
    assert repo.head() in run_main(capsys, "rig", "--cache", cache,
                                   "--rev", "main")[2]


def test_rig_repo_blames_no_excluded_path(repo_factory, tmp_path,
                                          monkeypatch, capsys):
    from busfactor.cli import main
    repo = repo_factory()
    for i in range(3):
        repo.write(f"src/s{i}.py", "s\n" * (i + 1))
        repo.write(f"vendor/v{i}.c", "v\n" * (i + 2))
    repo.commit(("Ada Core", "ada@fixture.test"))
    repo.write("src/s0.py", "s\nt\n")
    repo.write("vendor/v0.c", "w\n")
    repo.commit(("Bert Low", "bert@fixture.test"))
    cache = str(tmp_path / "cache")
    assert main(["ingest", "--repo", str(repo.path), "--cache", cache]) == 0
    capsys.readouterr()
    blamed = []
    real_popen = subprocess.Popen

    def popen(cmd, *args, **kwargs):
        if "blame" in cmd:
            blamed.append(cmd[-1])  # git blame ... -- <path>
        return real_popen(cmd, *args, **kwargs)
    monkeypatch.setattr(subprocess, "Popen", popen)
    reports = []
    for source in (["--repo", str(repo.path)], ["--cache", cache]):
        assert main(["rig", *source, "--exclude", "vendor/**",
                     "--exhaustive", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        del doc["manifest"]
        reports.append(doc)
    assert sorted(blamed) == ["src/s0.py", "src/s1.py", "src/s2.py"]
    assert reports[0] == reports[1]
    assert reports[0]["file_count"] == 3


def test_git_missing_from_path(two_dev_repo, tmp_path):
    assert os.path.isabs(sys.executable)
    proc = run_cli("cst", "--repo", str(two_dev_repo.path),
                   "--metric", "commits", "--cst-metric", "mul-equal",
                   env_extra={"PATH": str(tmp_path)})
    assert proc.returncode == 1
    assert proc.stderr.startswith("ERROR GitInvocationFailure:")
    assert "Traceback" not in proc.stderr


def test_ingest_reports_stats(two_dev_repo, tmp_path):
    proc = run_cli("ingest", "--repo", str(two_dev_repo.path),
                   "--cache", str(tmp_path / "c"))
    assert proc.returncode == 0
    assert "records" in proc.stdout
    assert "commits" in proc.stdout


@pytest.mark.parametrize("case", ["require", "source", "window", "alias",
                                  "config", "span"])
def test_usage_errors_name_the_subcommand(case, two_dev_repo, tmp_path,
                                          capsys, monkeypatch):
    # Each check past argparse reports through the subcommand's parser,
    # as argparse's own errors for that subcommand do.
    monkeypatch.delenv("BUSFACTOR_CACHE_DIR", raising=False)
    cache = str(tmp_path / "cache")
    assert run_main(capsys, "ingest", "--repo", str(two_dev_repo.path),
                    "--cache", cache)[0] == 0
    aliases = tmp_path / "aliases"
    aliases.write_text("no arrow here\n", encoding="utf-8")
    config = tmp_path / "busfactor.ini"
    config.write_text("[cst]\nnosuch = 1\n", encoding="utf-8")
    query = ["--metric", "commits", "--cst-metric", "mul-equal"]
    argv, message = {
        "require": (["cst", "--cache", cache, "--cst-metric", "mul-equal"],
                    "--metric is required"),
        "source": (["cst", *query], "one of --repo or --cache is required"),
        "window": (["cst", "--cache", cache, *query, "--from", "2022",
                    "--to", "2021"], "--from/--to:"),
        "alias": (["cst", "--cache", cache, *query, "--alias-file",
                   str(aliases)], "--alias-file: malformed alias line"),
        "config": (["cst", "--cache", cache, *query, "--config",
                    str(config)], "--config: unknown key 'nosuch'"),
        # before any input is read: this cache does not exist
        "span": (["trend", "--cache", str(tmp_path / "absent"),
                  "--from-year", "2021", "--to-year", "2020"],
                 "--from-year/--to-year: 2021 is after 2020"),
    }[case]
    code, out, err = run_main(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: busfactor {argv[0]} ")
    assert f"busfactor {argv[0]}: error: {message}" in err
