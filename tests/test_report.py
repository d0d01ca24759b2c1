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
from busfactor.report import payload_ingest
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


# --- golden text and CSV -------------------------------------------------

C = RawAuthor("Cleo Vian", "cleo@fixture.test")
DEV_C = DeveloperId(C.name, C.email, frozenset({C}))


def _with(command_line: str, seed: int | None = None) -> RunManifest:
    return MANIFEST.replace(command_line=command_line, seed=seed)


def three_role_cst() -> BusFactorResult:
    """One primary, one secondary and one other developer."""
    table = KnowledgeTable(shares={DEV_A: 0.5, DEV_B: 0.3, DEV_C: 0.2},
                           file_count=3)
    return BusFactorResult(primary_devs=(DEV_A,), secondary_devs=(DEV_B,),
                           config=cst_result().config, knowledge=table)


GOLDEN_PAYLOADS = {
    "cst": lambda: payload_cst(three_role_cst(), MANIFEST),
    "cst-redacted": lambda: payload_cst(three_role_cst(), MANIFEST,
                                        redact=True),
    "rig": lambda: payload_rig(
        [RigResult(frozenset({DEV_A}), 3, 0.5), RigResult(None, 9, 0.0),
         RigResult(frozenset({DEV_A, DEV_B}), 12, 0.75)],
        RigConfig(seed=4), _with("busfactor rig --repo demo --runs 3", 4),
        revision="d" * 40, file_count=2, developer_count=3),
    "trend": lambda: payload_trend(
        trend_series(), _with("busfactor trend --repo demo")),
    "ingest": lambda: payload_ingest(
        {"cache_path": "/tmp/cache", "records": 4, "commits": 4,
         "files_in_history": 1, "blame_files": 1, "authors": 2},
        _with("busfactor ingest --repo demo --cache /tmp/cache")),
}

_REPO = "/tmp/demo@" + "c" * 40
_TIMES = "2021-06-01T12:00:00+00:00  finished: 2021-06-01T12:00:03+00:00"

# The bytes each payload renders to; every text report ends in the
# manifest footer and every CSV starts with the manifest preamble.
GOLDEN = [
    ("cst", "text", f"""\
Bus factor: 2
Scope: .  (3 files, 3 developers)
Thresholds: primary >= 0.333333, secondary >= 0.166667
Metrics: mul-equal x commits
Primary developers:
  Ada Core <ada@fixture.test>  knowledge 0.500000
Secondary developers:
  Bert Low <bert@fixture.test>  knowledge 0.300000
--
busfactor 0.1.0  repo {_REPO}
command: busfactor cst --repo demo --metric commits
"""),
    ("cst", "csv", f"""\
# tool: busfactor 0.1.0
# command: busfactor cst --repo demo --metric commits
# repo: {_REPO}
# started: {_TIMES}
# bus_factor: 2
rank,role,name,email,knowledge
1,primary,Ada Core,ada@fixture.test,0.500000
2,secondary,Bert Low,bert@fixture.test,0.300000
3,other,Cleo Vian,cleo@fixture.test,0.200000
"""),
    ("cst-redacted", "text", f"""\
Bus factor: 2
Scope: .  (3 files, 3 developers)
Thresholds: primary >= 0.333333, secondary >= 0.166667
Metrics: mul-equal x commits
Primary developers:
  dev-6bce5fb1098a  knowledge 0.500000
Secondary developers:
  dev-8c47bf862862  knowledge 0.300000
--
busfactor 0.1.0  repo {_REPO}
command: busfactor cst --repo demo --metric commits
"""),
    ("cst-redacted", "csv", f"""\
# tool: busfactor 0.1.0
# command: busfactor cst --repo demo --metric commits
# repo: {_REPO}
# started: {_TIMES}
# bus_factor: 2
rank,role,name,email,knowledge
1,primary,dev-6bce5fb1098a,,0.500000
2,secondary,dev-8c47bf862862,,0.300000
3,other,dev-5f4af9eaafcf,,0.200000
"""),
    ("rig", "text", f"""\
RIG bus factor: 1
Revision: {"d" * 40}  (2 files, 3 developers)
Run 0: bus factor 1, abandoned fraction 0.500000 after 3 samples
  departing: Ada Core <ada@fixture.test>
Run 1: no feasible group within limits (9 samples)
Run 2: bus factor 2, abandoned fraction 0.750000 after 12 samples
  departing: Ada Core <ada@fixture.test>, Bert Low <bert@fixture.test>
Summary over 3 runs: min 1, max 2, mode 1
--
busfactor 0.1.0  repo {_REPO}  seed 4
command: busfactor rig --repo demo --runs 3
"""),
    ("rig", "csv", f"""\
# tool: busfactor 0.1.0
# command: busfactor rig --repo demo --runs 3
# repo: {_REPO}
# started: {_TIMES}
# seed: 4
# bus_factor: 1
run,bus_factor,abandoned_fraction,samples_evaluated,bf_set
0,1,0.500000,3,ada@fixture.test
1,,0.000000,9,
2,2,0.750000,12,ada@fixture.test;bert@fixture.test
"""),
    ("trend", "text", f"""\
Bus factor trend for .
  2021: BF 1 of 1 developers (100.0%)
  2022: BF 2 of 2 developers (100.0%)
  2023: (no activity)
--
busfactor 0.1.0  repo {_REPO}
command: busfactor trend --repo demo
"""),
    ("trend", "csv", f"""\
# tool: busfactor 0.1.0
# command: busfactor trend --repo demo
# repo: {_REPO}
# started: {_TIMES}
year,bus_factor,total_developers,bf_percentage
2021,1,1,100.000000
2022,2,2,100.000000
2023,0,0,0.000000
"""),
    ("ingest", "text", f"""\
Ingestion complete
  authors: 2
  blame_files: 1
  cache_path: /tmp/cache
  commits: 4
  files_in_history: 1
  records: 4
--
busfactor 0.1.0  repo {_REPO}
command: busfactor ingest --repo demo --cache /tmp/cache
"""),
    ("ingest", "csv", f"""\
# tool: busfactor 0.1.0
# command: busfactor ingest --repo demo --cache /tmp/cache
# repo: {_REPO}
# started: {_TIMES}
field,value
authors,2
blame_files,1
cache_path,/tmp/cache
commits,4
files_in_history,1
records,4
"""),
]


@pytest.mark.parametrize("case, fmt, expected", GOLDEN,
                         ids=[f"{case}-{fmt}" for case, fmt, _ in GOLDEN])
def test_text_and_csv_bytes_are_pinned(case, fmt, expected):
    assert render(GOLDEN_PAYLOADS[case](), fmt) == expected.encode("utf-8")
