"""The benchmark's traced run wraps package functions by name.

`bench/tracing.py` patches the names where the CLI looks each layer up;
these tests fail when a rename or a changed call leaves a layer untraced.
"""
from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

from busfactor import cli, gitrepo, identity, rig, trend

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

LAYER_SPANS = {"cli.main", "gitrepo.extract_history", "gitrepo.extract_blame",
               "cache.save_cache", "cache.load_cache",
               "identity.resolve_identities", "cst.cst_bus_factor",
               "trend.yearly_trend", "rig.rig_bus_factor", "report.render"}

PATCHED = [*((cli, name) for name in (
               "extract_history", "extract_blame", "load_cache", "save_cache",
               "resolve_identities", "cst_bus_factor", "yearly_trend",
               "render")),
           (trend, "cst_bus_factor"), (rig, "rig_bus_factor"),
           (gitrepo, "tokenize"), (identity, "token_set_ratio"),
           (subprocess, "Popen")]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current():
    return [getattr(owner, name) for owner, name in PATCHED]


def test_tracer_spans_every_layer_and_uninstalls(two_dev_repo, tmp_path):
    originals = _current()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert all(now is not was for now, was in zip(_current(), originals))
        cache = str(tmp_path / "cache")
        for argv in (
                ("ingest", "--repo", str(two_dev_repo.path), "--cache", cache),
                ("cst", "--cache", cache, "--metric", "commits",
                 "--cst-metric", "mul-equal", "--format", "json"),
                ("rig", "--cache", cache, "--exhaustive", "--format", "json"),
                ("trend", "--cache", cache, "--from-year", "2021",
                 "--to-year", "2021", "--format", "json")):
            code, out, _ = tracer.run_command(argv[0], argv)
            assert code == 0, argv
            assert out
    finally:
        tracer.uninstall()
    assert _current() == originals
    assert tracer.problems == []
    assert {span["name"] for span in tracer.spans} == LAYER_SPANS
    cst_parents = {span["parent"] for span in tracer.spans
                   if span["name"] == "cst.cst_bus_factor"}
    assert cst_parents == {"cli.main", "trend.yearly_trend"}
    (rig_span,) = [span for span in tracer.spans
                   if span["name"] == "rig.rig_bus_factor"]
    assert rig_span["counts"]["exhaustive"] == 1
    (ingest_span,) = [span for span in tracer.spans
                      if span["name"] == "cli.main"
                      and span["command"] == "ingest"]
    assert ingest_span["counts"]["git_spawns"] > 0
