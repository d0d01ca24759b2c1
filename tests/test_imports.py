"""What importing the package costs: modules loaded, lazy exports, and
the collector's frozen heap.

Each command should load only the modules it runs, so the checks below
run a fresh interpreter and compare the modules an import leaves loaded
with those a bare interpreter already has in the same environment. Both
run under `-S`: the `site` module and the `.pth` files it executes may
load dozens of modules, which would hide the same modules loaded by the
package.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import busfactor

_SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that only some commands need, each imported where it is used.
DEFERRED = {"subprocess", "concurrent.futures", "logging", "configparser",
            "difflib", "csv", "tempfile", "busfactor.rig"}

# Modules no command needs: `dataclasses` and what it pulls in to
# generate code. The package's values derive from records.Value instead.
NEVER = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=60).stdout


def _modules_after(statement: str) -> set[str]:
    return set(_fresh(f"{statement}\nimport sys\n"
                      "print(*sys.modules, sep='\\n')").split())


def _freeze_counts_after(statement: str) -> list[int]:
    """`gc.get_freeze_count()` after `statement`, and after each
    `print(gc.get_freeze_count())` the statement runs itself."""
    return [int(count) for count in _fresh(
        f"import gc\n{statement}\nprint(gc.get_freeze_count())").split()]


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return _modules_after("pass")


def test_import_package_loads_no_submodule(bare):
    loaded = _modules_after("import busfactor") - bare
    assert loaded == {"busfactor"}


def test_import_cli_loads_no_deferred_module(bare):
    loaded = _modules_after("import busfactor.cli") - bare
    assert "busfactor.cli" in loaded
    assert not loaded & DEFERRED


# The engines read paths through the rule in `records`, not the git layer
@pytest.mark.parametrize("module", ["busfactor.cst", "busfactor.trend"])
def test_engine_import_loads_no_git_layer(bare, module):
    loaded = _modules_after(f"import {module}") - bare
    assert module in loaded
    assert "busfactor.gitrepo" not in loaded


def test_import_report_loads_no_engine(bare):
    # The engines' types appear in the report's annotations only.
    loaded = _modules_after("import busfactor.report") - bare
    assert "busfactor.report" in loaded
    assert not loaded & {"busfactor.cst", "busfactor.trend", "busfactor.rig",
                         "busfactor.gitrepo", "busfactor.metrics"}


@pytest.mark.parametrize("module", ["busfactor.cli", "busfactor.rig"])
def test_import_loads_no_code_generation_module(bare, module):
    loaded = _modules_after(f"import {module}") - bare
    assert module in loaded
    assert not loaded & NEVER


def test_import_cli_freezes_its_heap():
    # The CLI's imported modules live as long as the process, so it
    # freezes them once and no collection, at exit least of all, walks
    # them again.
    assert _freeze_counts_after("import busfactor.cli")[0] > 0


@pytest.mark.parametrize("module", ["busfactor", "busfactor.cst",
                                    "busfactor.rig", "busfactor.cache",
                                    "busfactor.gitrepo"])
def test_library_import_leaves_the_collector_alone(module):
    assert _freeze_counts_after(f"import {module}") == [0]


def test_main_freezes_nothing_more(two_dev_repo, tmp_path):
    # The freeze runs at import, not per call: a call's uncollected
    # cycles must stay collectable, or leaks would go unseen. The count
    # may still fall, since a frozen object is freed when its last
    # reference goes (the first `isinstance` against an ABC resets a
    # few caches).
    cache = str(tmp_path / "cache")
    ingest = ["ingest", "--repo", str(two_dev_repo.path), "--cache", cache]
    cst = ["cst", "--cache", cache, "--metric", "commits",
           "--cst-metric", "mul-equal", "--format", "json"]
    before, after = _freeze_counts_after(
        "import contextlib, io\n"
        "from busfactor.cli import main\n"
        "print(gc.get_freeze_count())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({ingest!r}) == 0\n"
        f"    assert main({cst!r}) == 0")
    assert after <= before


def test_every_export_resolves():
    for name in busfactor.__all__:
        assert getattr(busfactor, name) is not None, name
    namespace: dict = {}
    exec("from busfactor import *", namespace)
    assert set(busfactor.__all__) <= set(namespace)
    assert namespace["rig_bus_factor"] is busfactor.rig.rig_bus_factor
    assert namespace["errors"] is sys.modules["busfactor.errors"]
    assert len(busfactor.__all__) == len(set(busfactor.__all__))


def test_dir_lists_every_export():
    assert set(busfactor.__all__) <= set(dir(busfactor))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nosuch"):
        busfactor.nosuch
    assert not hasattr(busfactor, "nosuch")


def test_submodules_still_import_by_name():
    from busfactor import rig, trend
    assert rig is sys.modules["busfactor.rig"]
    assert trend is sys.modules["busfactor.trend"]
    assert rig.rig_repeat is busfactor.rig_repeat


def test_ingest_of_a_proven_history_starts_no_blame_pool(bare, two_dev_repo,
                                                        tmp_path):
    # The history pass proves every file of a history without merges, so
    # no `git blame` runs and no thread pool is started for it.
    ingest = ["ingest", "--repo", str(two_dev_repo.path),
              "--cache", str(tmp_path / "cache")]
    loaded = _modules_after(
        "import contextlib, io\n"
        "from busfactor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({ingest!r}) == 0") - bare
    assert "busfactor.gitrepo" in loaded
    assert not loaded & {"concurrent.futures", "logging"}


def test_cst_on_reordered_names_loads_no_difflib(bare, repo_factory,
                                                 tmp_path):
    # "Core, Ada" has the same words as "Ada Core", so the two merge
    # without a similarity score; no other pair comes near one.
    repo = repo_factory()
    for line, author in enumerate([("Ada Core", "ada@one.test"),
                                   ("Core, Ada", "a.core@two.test"),
                                   ("Bert Low", "bert@one.test")]):
        repo.write(f"f{line}.txt", f"line {line}\n")
        repo.commit(author)
    cache = str(tmp_path / "cache")
    from busfactor.cli import main
    assert main(["ingest", "--repo", str(repo.path), "--cache", cache]) == 0
    cst = ["cst", "--cache", cache, "--metric", "commits",
           "--cst-metric", "mul-equal", "--format", "json"]
    loaded = _modules_after(
        "import contextlib, io, json\n"
        "from busfactor.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    assert main({cst!r}) == 0\n"
        "assert json.loads(out.getvalue())['developer_count'] == 2") - bare
    assert "busfactor.identity" in loaded
    assert "difflib" not in loaded


# OpenSSL's bindings: `hashlib` loads `_hashlib` on import. The cache's
# checks and `--redact` take SHA-256 from the built-in module instead.
OPENSSL = {"hashlib", "_hashlib"}


def test_import_cli_loads_no_openssl(bare):
    loaded = _modules_after("import busfactor.cli") - bare
    assert "busfactor.cli" in loaded
    assert not loaded & OPENSSL


def test_queries_on_a_cache_load_no_openssl(bare, two_dev_repo, tmp_path):
    cache = str(tmp_path / "cache")
    from busfactor.cli import main
    assert main(["ingest", "--repo", str(two_dev_repo.path),
                 "--cache", cache]) == 0
    cst = ["cst", "--cache", cache, "--metric", "commits",
           "--cst-metric", "mul-equal", "--format", "json"]
    queries = [cst, cst + ["--redact"],
               ["rig", "--cache", cache, "--format", "json"],
               ["trend", "--cache", cache, "--from-year", "2021",
                "--to-year", "2021", "--format", "json"]]
    loaded = _modules_after(
        "import contextlib, io\n"
        "from busfactor.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    assert main({argv!r}) == 0\n" for argv in queries)
    ) - bare
    assert {"busfactor.cache", "busfactor.rig"} <= loaded
    assert not loaded & OPENSSL


@pytest.mark.parametrize("size", [0, 1, 83_000, 1 << 20])
def test_lean_sha256_equals_hashlib(size):
    import hashlib

    from busfactor.digest import sha256_hex
    data = bytes(range(256)) * (size // 256) + bytes(size % 256)
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()
