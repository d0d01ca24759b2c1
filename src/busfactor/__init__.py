"""Bus factor estimation for git repositories.

Two estimators over a local clone: a commit-based one (per-file
developer knowledge from change history, classified against 1/N
thresholds) and a blame-based one (random developer removal until
half the files are abandoned). Plus identity resolution, time
windows, yearly trends and a cache so large repositories are mined
once.
"""
__version__ = "0.1.0"

from .records import RawAuthor, CommitMeta, ChangeRecord, BlameSnapshot
from .metrics import (MetricKind, DataMetric, tokenize, locc,
                      token_distance, contribution)
from .identity import (DeveloperId, IdentityMap, resolve_identities,
                       parse_alias_file, token_set_ratio,
                       DEFAULT_SIMILARITY)
from .cst import (CstMetricKind, WeightScheme, TimeWindow, CstConfig,
                  ThresholdPair, KnowledgeTable, BusFactorResult,
                  filter_records, shares_from_timeline, knowledge_per_file,
                  aggregate_knowledge, compute_thresholds,
                  classify_developers, cst_bus_factor, compare_error)
from .rig import (RigConfig, RigResult, abandoned_file_fraction,
                  rig_bus_factor, rig_repeat, summarize_runs)
from .trend import TrendPoint, TrendSeries, yearly_trend
from .gitrepo import (resolve_revision, repo_fingerprint, extract_history,
                      extract_blame, compile_globs, path_matches,
                      filter_snapshot)
from .cache import CacheManifest, SCHEMA_VERSION, save_cache, load_cache
from .report import (FORMATS, RunManifest, payload_cst, payload_ingest,
                     payload_rig, payload_trend, redacted_label, render)
from . import errors

__all__ = [
    "__version__",
    "RawAuthor", "CommitMeta", "ChangeRecord", "BlameSnapshot",
    "MetricKind", "DataMetric", "tokenize", "locc",
    "token_distance", "contribution",
    "DeveloperId", "IdentityMap", "resolve_identities", "parse_alias_file",
    "token_set_ratio", "DEFAULT_SIMILARITY",
    "CstMetricKind", "WeightScheme", "TimeWindow", "CstConfig",
    "ThresholdPair", "KnowledgeTable", "BusFactorResult", "filter_records",
    "shares_from_timeline", "knowledge_per_file", "aggregate_knowledge",
    "compute_thresholds", "classify_developers", "cst_bus_factor",
    "compare_error",
    "RigConfig", "RigResult", "abandoned_file_fraction", "rig_bus_factor",
    "rig_repeat", "summarize_runs",
    "TrendPoint", "TrendSeries", "yearly_trend",
    "resolve_revision", "repo_fingerprint", "extract_history",
    "extract_blame", "compile_globs", "path_matches", "filter_snapshot",
    "CacheManifest", "SCHEMA_VERSION", "save_cache", "load_cache",
    "RunManifest", "render", "FORMATS", "payload_cst", "payload_ingest",
    "payload_rig", "payload_trend", "redacted_label",
    "errors",
]
