"""Bus factor estimation for git repositories.

Two estimators over a local clone: a commit-based one (per-file
developer knowledge from change history, classified against 1/N
thresholds) and a blame-based one (random developer removal until
half the files are abandoned). Plus identity resolution, time
windows, yearly trends and a cache so large repositories are mined
once.

Importing the package loads none of its modules: each exported name
imports its module on first access (PEP 562), so a command pays only
for the modules it runs.
"""
__version__ = "0.1.0"

# Exported names by the submodule that defines them; "errors" exports
# the submodule itself.
_EXPORTS = {
    "records": ("RawAuthor", "CommitMeta", "ChangeRecord", "BlameSnapshot",
                "RecordColumns", "paths_in", "filter_snapshot"),
    "metrics": ("MetricKind", "DataMetric", "tokenize", "locc",
                "token_distance", "contribution"),
    "identity": ("DeveloperId", "IdentityMap", "resolve_identities",
                 "parse_alias_file", "token_set_ratio", "DEFAULT_SIMILARITY"),
    "cst": ("CstMetricKind", "WeightScheme", "TimeWindow", "CstConfig",
            "ThresholdPair", "KnowledgeTable", "BusFactorResult",
            "filter_records", "shares_from_timeline", "knowledge_per_file",
            "aggregate_knowledge", "compute_thresholds",
            "classify_developers", "cst_bus_factor", "compare_error"),
    "rig": ("RigConfig", "RigResult", "abandoned_file_fraction",
            "rig_bus_factor", "rig_repeat", "summarize_runs"),
    "trend": ("TrendPoint", "TrendSeries", "yearly_trend"),
    "gitrepo": ("resolve_revision", "repo_fingerprint", "extract_history",
                "extract_blame", "LineReplay"),
    "cache": ("SCHEMA_VERSION", "save_cache", "load_cache"),
    "report": ("RunManifest", "render", "FORMATS", "payload_cst",
               "payload_ingest", "payload_rig", "payload_trend",
               "redacted_label"),
    "errors": ("errors",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
