"""Serialization of analysis results to JSON, CSV and plain text.

Every serialized result embeds a RunManifest so a report is traceable
to the exact invocation that produced it. All three formats are built
from one payload dictionary, which keeps their numbers in agreement,
and rendering is deterministic: keys sorted, developers ordered by
descending knowledge then canonical email, shares at six decimals.
"""
from __future__ import annotations

import io
import json
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Sequence

from .digest import sha256_hex
from .errors import UnsupportedFormat
from .identity import DeveloperId
from .records import Value

if TYPE_CHECKING:
    from .cst import BusFactorResult, CstConfig
    from .rig import RigConfig, RigResult
    from .trend import TrendSeries

FORMATS = ("json", "csv", "text")


class RunManifest(Value):
    tool_version: str
    command_line: str
    repo_fingerprint: str
    started_at: datetime
    finished_at: datetime
    seed: int | None = None


def redacted_label(dev: DeveloperId) -> str:
    """Stable pseudonym for a developer, for reports shared outside."""
    return "dev-" + sha256_hex(dev.label.encode("utf-8"))[:12]


def _share(value: float) -> float:
    return round(value, 6)


def _dev_entry(dev: DeveloperId, share: float | None = None,
               redact: bool = False) -> dict:
    if redact:
        entry = {"name": redacted_label(dev), "email": ""}
    else:
        entry = {"name": dev.canonical_name, "email": dev.canonical_email}
    if share is not None:
        entry["knowledge"] = _share(share)
    return entry


def _manifest_payload(manifest: RunManifest) -> dict:
    return {
        "tool_version": manifest.tool_version,
        "command_line": manifest.command_line,
        "repo_fingerprint": manifest.repo_fingerprint,
        "started_at": manifest.started_at.astimezone(timezone.utc).isoformat(),
        "finished_at": manifest.finished_at.astimezone(timezone.utc).isoformat(),
        "seed": manifest.seed,
    }


def _config_payload(config: CstConfig) -> dict:
    return {
        "cst_metric": config.cst_metric.value,
        "data_metric": config.data_metric.kind.value,
        "cos_scale_by_locc": config.data_metric.cos_scale_by_locc,
        "scope": config.scope,
        "time_range": config.time_range.describe() if config.time_range else None,
        "exclude": list(config.exclude_globs),
        "weight_scheme": config.weight_scheme.value,
    }


def payload_cst(result: BusFactorResult, manifest: RunManifest,
                redact: bool = False) -> dict:
    table = result.knowledge
    ranked = [_dev_entry(d, s, redact) for d, s in table.ranked()]
    # classify_developers takes both lists from the same ranking: each
    # is a slice of the table.
    primary = len(result.primary_devs)
    secondary = primary + len(result.secondary_devs)
    thresholds = result.thresholds
    return {
        "kind": "cst",
        "bus_factor": result.bus_factor,
        "developer_count": result.developer_count,
        "file_count": table.file_count,
        "scope": result.config.scope or ".",
        "thresholds": {
            "primary": _share(thresholds.primary_ratio),
            "secondary": _share(thresholds.secondary_ratio),
        },
        "config": _config_payload(result.config),
        "primary_developers": ranked[:primary],
        "secondary_developers": ranked[primary:secondary],
        "knowledge_table": ranked,
        "manifest": _manifest_payload(manifest),
    }


def payload_rig(results: Sequence[RigResult], config: RigConfig,
                manifest: RunManifest, revision: str, file_count: int,
                developer_count: int, redact: bool = False) -> dict:
    from .rig import summarize_runs
    summary = summarize_runs(results)
    runs = []
    for i, result in enumerate(results):
        members = None
        if result.bf_set is not None:
            ordered = sorted(result.bf_set, key=DeveloperId.sort_key)
            members = [_dev_entry(d, redact=redact) for d in ordered]
        runs.append({
            "run": i,
            "bus_factor": result.bus_factor,
            "abandoned_fraction": _share(result.abandoned_fraction_at_return),
            "samples_evaluated": result.samples_evaluated,
            "bf_set": members,
        })
    return {
        "kind": "rig",
        "bus_factor": summary["mode"],
        "revision": revision,
        "file_count": file_count,
        "developer_count": developer_count,
        "config": {
            "max_group_size": config.max_group_size,
            "samples_per_size": config.samples_per_size,
            "seed": config.seed,
            "line_abandon_fraction": _share(config.line_abandon_fraction),
            "file_abandon_fraction": _share(config.file_abandon_fraction),
            "exhaustive": config.exhaustive,
        },
        "runs": runs,
        "summary": summary,
        "manifest": _manifest_payload(manifest),
    }


def payload_trend(series: TrendSeries, manifest: RunManifest) -> dict:
    return {
        "kind": "trend",
        "scope": series.config.scope or ".",
        "config": _config_payload(series.config),
        "points": [{
            "year": p.year,
            "bus_factor": p.bus_factor,
            "total_developers": p.total_developers,
            "bf_percentage": _share(p.bf_percentage),
            "active": p.active,
        } for p in series.points],
        "manifest": _manifest_payload(manifest),
    }


def payload_ingest(stats: dict, manifest: RunManifest) -> dict:
    payload = {"kind": "ingest"}
    payload.update(stats)
    payload["manifest"] = _manifest_payload(manifest)
    return payload


def render(payload: dict, fmt: str) -> bytes:
    """Serialize a payload dict to the requested format as UTF-8."""
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True,
                          ensure_ascii=False) + "\n"
    elif fmt == "csv":
        text = _render_csv(payload)
    elif fmt == "text":
        text = _render_text(payload)
    else:
        raise UnsupportedFormat(f"unknown output format: {fmt!r}")
    return text.encode("utf-8")


# --- CSV ---------------------------------------------------------------

def _csv_preamble(payload: dict) -> list[str]:
    m = payload["manifest"]
    lines = [
        f"# tool: busfactor {m['tool_version']}",
        f"# command: {m['command_line']}",
        f"# repo: {m['repo_fingerprint']}",
        f"# started: {m['started_at']}  finished: {m['finished_at']}",
    ]
    if m["seed"] is not None:
        lines.append(f"# seed: {m['seed']}")
    return lines


def _csv_rows(rows, header) -> str:
    import csv
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _render_csv(payload: dict) -> str:
    kind = payload["kind"]
    head = "\n".join(_csv_preamble(payload)) + "\n"
    if kind == "cst":
        # Both developer lists are prefixes of the ranked table.
        primary = len(payload["primary_developers"])
        secondary = primary + len(payload["secondary_developers"])
        rows = []
        for rank, entry in enumerate(payload["knowledge_table"], start=1):
            role = ("primary" if rank <= primary
                    else "secondary" if rank <= secondary else "other")
            rows.append([rank, role, entry["name"], entry["email"],
                         f"{entry['knowledge']:.6f}"])
        head += f"# bus_factor: {payload['bus_factor']}\n"
        return head + _csv_rows(rows, ["rank", "role", "name", "email",
                                       "knowledge"])
    if kind == "rig":
        rows = []
        for run in payload["runs"]:
            members = ""
            if run["bf_set"] is not None:
                members = ";".join(e["email"] or e["name"]
                                   for e in run["bf_set"])
            bf = "" if run["bus_factor"] is None else run["bus_factor"]
            rows.append([run["run"], bf,
                         f"{run['abandoned_fraction']:.6f}",
                         run["samples_evaluated"], members])
        head += f"# bus_factor: {payload['bus_factor']}\n"
        return head + _csv_rows(rows, ["run", "bus_factor",
                                       "abandoned_fraction",
                                       "samples_evaluated", "bf_set"])
    if kind == "trend":
        rows = [[p["year"], p["bus_factor"], p["total_developers"],
                 f"{p['bf_percentage']:.6f}"] for p in payload["points"]]
        return head + _csv_rows(rows, ["year", "bus_factor",
                                       "total_developers", "bf_percentage"])
    if kind == "ingest":
        keys = sorted(k for k in payload if k not in ("kind", "manifest"))
        return head + _csv_rows([[k, payload[k]] for k in keys],
                                ["field", "value"])
    raise UnsupportedFormat(f"no CSV rendering for result kind {kind!r}")


# --- plain text --------------------------------------------------------

def _text_footer(payload: dict) -> list[str]:
    m = payload["manifest"]
    lines = ["--", f"busfactor {m['tool_version']}  repo {m['repo_fingerprint']}"]
    if m["seed"] is not None:
        lines[-1] += f"  seed {m['seed']}"
    lines.append(f"command: {m['command_line']}")
    return lines


def _text_dev(entry: dict) -> str:
    if entry["email"]:
        return f"{entry['name']} <{entry['email']}>"
    return entry["name"]


def _render_text(payload: dict) -> str:
    kind = payload["kind"]
    lines: list[str] = []
    if kind == "cst":
        lines.append(f"Bus factor: {payload['bus_factor']}")
        lines.append(
            f"Scope: {payload['scope']}  "
            f"({payload['file_count']} files, "
            f"{payload['developer_count']} developers)")
        thr = payload["thresholds"]
        lines.append(f"Thresholds: primary >= {thr['primary']:.6f}, "
                     f"secondary >= {thr['secondary']:.6f}")
        cfg = payload["config"]
        lines.append(f"Metrics: {cfg['cst_metric']} x {cfg['data_metric']}")
        if payload["primary_developers"]:
            lines.append("Primary developers:")
            for e in payload["primary_developers"]:
                lines.append(f"  {_text_dev(e)}  knowledge {e['knowledge']:.6f}")
        if payload["secondary_developers"]:
            lines.append("Secondary developers:")
            for e in payload["secondary_developers"]:
                lines.append(f"  {_text_dev(e)}  knowledge {e['knowledge']:.6f}")
    elif kind == "rig":
        bf = payload["bus_factor"]
        lines.append(f"RIG bus factor: {'none found' if bf is None else bf}")
        lines.append(f"Revision: {payload['revision']}  "
                     f"({payload['file_count']} files, "
                     f"{payload['developer_count']} developers)")
        for run in payload["runs"]:
            if run["bus_factor"] is None:
                lines.append(
                    f"Run {run['run']}: no feasible group within limits "
                    f"({run['samples_evaluated']} samples)")
                continue
            lines.append(
                f"Run {run['run']}: bus factor {run['bus_factor']}, "
                f"abandoned fraction {run['abandoned_fraction']:.6f} "
                f"after {run['samples_evaluated']} samples")
            lines.append("  departing: "
                         + ", ".join(_text_dev(e) for e in run["bf_set"]))
        if len(payload["runs"]) > 1:
            s = payload["summary"]
            lines.append(f"Summary over {len(payload['runs'])} runs: "
                         f"min {s['min']}, max {s['max']}, mode {s['mode']}")
    elif kind == "trend":
        lines.append(f"Bus factor trend for {payload['scope']}")
        for p in payload["points"]:
            if not p["active"]:
                lines.append(f"  {p['year']}: (no activity)")
                continue
            lines.append(
                f"  {p['year']}: BF {p['bus_factor']} of "
                f"{p['total_developers']} developers "
                f"({p['bf_percentage']:.1f}%)")
    elif kind == "ingest":
        lines.append("Ingestion complete")
        for key in sorted(k for k in payload if k not in ("kind", "manifest")):
            lines.append(f"  {key}: {payload[key]}")
    else:
        raise UnsupportedFormat(f"no text rendering for result kind {kind!r}")
    lines.extend(_text_footer(payload))
    return "\n".join(lines) + "\n"
