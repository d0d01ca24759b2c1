"""Report payloads and the three render formats."""
from __future__ import annotations

import csv
import io
import json
import re
from datetime import datetime, timezone

import pytest

from busfactor import (BusFactorResult, ChangeRecord, CommitMeta, CstConfig,
                       CstMetricKind, DataMetric, DeveloperId, MetricKind,
                       RawAuthor, RigConfig, RigResult, RunManifest,
                       TrendPoint, TrendSeries, cst_bus_factor, payload_cst,
                       payload_rig, payload_trend, redacted_label, render,
                       resolve_identities)
from busfactor.cst import KnowledgeTable
from busfactor.errors import UnsupportedFormat

A = RawAuthor("Ada Core", "ada@fixture.test")
B = RawAuthor("Bert Low", "bert@fixture.test")
DEV_A = DeveloperId(A.name, A.email, frozenset({A}))
DEV_B = DeveloperId(B.name, B.email, frozenset({B}))

MANIFEST = RunManifest(
    tool_version="0.1.0",
    command_line="busfactor cst --repo demo --metric commits",
    repo_fingerprint="/tmp/demo@" + "c" * 40,
    started_at=datetime(2021, 6, 1, 12, 0, tzinfo=timezone.utc),
    finished_at=datetime(2021, 6, 1, 12, 0, 3, tzinfo=timezone.utc),
)


def cst_result():
    config = CstConfig(cst_metric=CstMetricKind.MUL_CHANGES_EQUAL,
                       data_metric=DataMetric(MetricKind.COMMITS))
    table = KnowledgeTable(shares={DEV_A: 0.75, DEV_B: 0.25}, file_count=1)
    return BusFactorResult(primary_devs=(DEV_A,), secondary_devs=(DEV_B,),
                           config=config, knowledge=table)


def rig_results():
    return [RigResult(bf_set=frozenset({DEV_A}), samples_evaluated=3,
                      abandoned_fraction_at_return=0.5)]


def trend_series():
    config = CstConfig(cst_metric=CstMetricKind.MUL_CHANGES_EQUAL,
                       data_metric=DataMetric(MetricKind.COMMITS))
    return TrendSeries(config=config, points=(
        TrendPoint(2021, 1, 1),
        TrendPoint(2022, 2, 2),
        TrendPoint(2023, 0, 0),
    ))


ALL_PAYLOADS = {
    "cst": lambda: payload_cst(cst_result(), MANIFEST),
    "rig": lambda: payload_rig(rig_results(), RigConfig(seed=4), MANIFEST,
                               revision="d" * 40, file_count=2,
                               developer_count=2),
    "trend": lambda: payload_trend(trend_series(), MANIFEST),
}


@pytest.mark.parametrize("kind", sorted(ALL_PAYLOADS))
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_render_is_deterministic(kind, fmt):
    payload = ALL_PAYLOADS[kind]()
    assert render(payload, fmt) == render(ALL_PAYLOADS[kind](), fmt)


@pytest.mark.parametrize("kind", sorted(ALL_PAYLOADS))
def test_json_round_trips(kind):
    payload = ALL_PAYLOADS[kind]()
    parsed = json.loads(render(payload, "json").decode("utf-8"))
    assert parsed == json.loads(json.dumps(payload))


def test_cst_json_shape():
    doc = json.loads(render(ALL_PAYLOADS["cst"](), "json"))
    assert doc["bus_factor"] == 2
    assert doc["thresholds"] == {"primary": 0.5, "secondary": 0.25}
    assert [d["knowledge"] for d in doc["knowledge_table"]] == [0.75, 0.25]
    assert doc["config"]["cst_metric"] == "mul-equal"
    assert doc["config"]["data_metric"] == "commits"
    assert doc["manifest"]["tool_version"] == "0.1.0"


def test_devs_ordered_by_share_then_email():
    table = KnowledgeTable(shares={DEV_B: 0.5, DEV_A: 0.5}, file_count=1)
    result = BusFactorResult(primary_devs=(DEV_A, DEV_B), secondary_devs=(),
                             config=cst_result().config, knowledge=table)
    doc = json.loads(render(payload_cst(result, MANIFEST), "json"))
    emails = [d["email"] for d in doc["knowledge_table"]]
    assert emails == ["ada@fixture.test", "bert@fixture.test"]


def test_csv_roles_follow_rank_not_name_or_email():
    # "bob <>" and "Someone <bob>" are two developers whose CSV key,
    # email or else name, is the same "bob"; only the first is primary
    bob, carl, someone = (RawAuthor("bob", ""), RawAuthor("Carl", "carl@x"),
                          RawAuthor("Someone", "bob"))
    authors = [bob] * 90 + [carl] * 7 + [someone] * 3
    records = [ChangeRecord(CommitMeta(f"{i:040x}", author,
                                       datetime(2021, 1, 1,
                                                tzinfo=timezone.utc),
                                       sequence=i),
                            "f.txt", 1, 0, 1.0)
               for i, author in enumerate(authors)]
    result = cst_bus_factor(records, resolve_identities(set(authors)),
                            cst_result().config)
    blob = render(payload_cst(result, MANIFEST), "csv").decode("utf-8")
    rows = csv.DictReader(l for l in blob.splitlines()
                          if not l.startswith("#"))
    assert [(row["name"], row["email"], row["role"]) for row in rows] == [
        ("bob", "", "primary"), ("Carl", "carl@x", "other"),
        ("Someone", "bob", "other")]


def test_trend_csv_header_and_rows():
    blob = render(ALL_PAYLOADS["trend"](), "csv").decode("utf-8")
    lines = [l for l in blob.splitlines() if not l.startswith("#")]
    assert lines[0] == "year,bus_factor,total_developers,bf_percentage"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0][:3] == ["2021", "1", "1"]
    assert rows[2][:3] == ["2023", "0", "0"]


def test_csv_preamble_carries_manifest():
    for kind in ALL_PAYLOADS:
        blob = render(ALL_PAYLOADS[kind](), "csv").decode("utf-8")
        preamble = [l for l in blob.splitlines() if l.startswith("#")]
        joined = "\n".join(preamble)
        assert "busfactor cst --repo demo" in joined
        assert "/tmp/demo@" in joined


def test_text_report_carries_manifest_and_values():
    blob = render(ALL_PAYLOADS["cst"](), "text").decode("utf-8")
    assert "bus factor: 2" in blob.lower()
    assert "ada@fixture.test" in blob
    assert "0.750000" in blob
    assert "/tmp/demo@" in blob


def test_formats_agree_on_bus_factor():
    payload = ALL_PAYLOADS["cst"]()
    doc = json.loads(render(payload, "json"))
    text = render(payload, "text").decode("utf-8")
    blob = render(payload, "csv").decode("utf-8")
    assert str(doc["bus_factor"]) == "2"
    assert re.search(r"bus factor:\s*2", text, re.IGNORECASE)
    assert re.search(r"(^|,)2(,|$)", blob, re.MULTILINE)


def test_redaction_hides_identity_but_stays_stable():
    plain = json.loads(render(payload_cst(cst_result(), MANIFEST), "json"))
    red = json.loads(render(payload_cst(cst_result(), MANIFEST,
                                        redact=True), "json"))
    assert "ada@fixture.test" not in json.dumps(red)
    assert "Ada Core" not in json.dumps(red)
    label = red["knowledge_table"][0]["name"]
    assert re.fullmatch(r"dev-[0-9a-f]{12}", label)
    assert label == redacted_label(DEV_A)
    # shares are untouched by redaction
    assert ([d["knowledge"] for d in red["knowledge_table"]]
            == [d["knowledge"] for d in plain["knowledge_table"]])


def test_rig_payload_headline_and_runs():
    doc = json.loads(render(ALL_PAYLOADS["rig"](), "json"))
    assert doc["bus_factor"] == 1
    assert doc["summary"] == {"min": 1, "max": 1, "mode": 1}
    run = doc["runs"][0]
    assert run["bus_factor"] == 1
    assert run["bf_set"][0]["email"] == "ada@fixture.test"
    assert doc["config"]["seed"] == 4


def test_rig_null_run_renders():
    results = [RigResult(bf_set=None, samples_evaluated=9,
                         abandoned_fraction_at_return=0.0)]
    payload = payload_rig(results, RigConfig(), MANIFEST, revision="d" * 40,
                          file_count=1, developer_count=4)
    for fmt in ("json", "csv", "text"):
        blob = render(payload, fmt)
        assert blob
    doc = json.loads(render(payload, "json"))
    assert doc["bus_factor"] is None
    assert doc["runs"][0]["bf_set"] is None


def test_unknown_format_rejected():
    with pytest.raises(UnsupportedFormat):
        render(ALL_PAYLOADS["cst"](), "yaml")


def test_unknown_kind_rejected_in_tabular_formats():
    payload = {"kind": "mystery", "manifest": ALL_PAYLOADS["cst"]()["manifest"]}
    for fmt in ("csv", "text"):
        with pytest.raises(UnsupportedFormat):
            render(payload, fmt)


def test_share_rounding_is_six_places():
    table = KnowledgeTable(shares={DEV_A: 2 / 3, DEV_B: 1 / 3}, file_count=1)
    result = BusFactorResult(primary_devs=(DEV_A,), secondary_devs=(),
                             config=cst_result().config, knowledge=table)
    doc = json.loads(render(payload_cst(result, MANIFEST), "json"))
    assert doc["knowledge_table"][0]["knowledge"] == 0.666667
    text = render(payload_cst(result, MANIFEST), "text").decode()
    assert "0.666667" in text
