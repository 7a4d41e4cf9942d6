"""The record contract: every record type of the package is an immutable
`NamedTuple` whose constructor signature lists exactly its fields, and a
record that checks its fields checks them however it is built (keyword,
positional, `_make`, `_replace`), with the same exception and message."""

import inspect
import math

import pytest

from cloudforecast.candidates import CandidateEdge, CandidateGraph, Leg, Metric
from cloudforecast.cli import Setting
from cloudforecast.errors import CatalogError
from cloudforecast.executor import (
    ExecutionResult,
    ExperimentReport,
    ExperimentRow,
    Transport,
    Vantage,
)
from cloudforecast.geo import Coordinate, LocationTable, Region, RegionCatalog
from cloudforecast.measurement import Aggregator, ProbeConfig, SyntheticNetworkModel
from cloudforecast.scoring import GraphScore, RankingEntry, RankingReport, ScoringConfig
from cloudforecast.workflow import NodeRole, WorkflowEdge, WorkflowNode, WorkflowSpec

HERE = Coordinate(10.0, 20.0)
REGION = Region("r1", "r1.example.org", HERE)
EDGE = WorkflowEdge("A", "B", 2.0)
NODE = WorkflowNode("A", "a.example.org", NodeRole.SOURCE, HERE, 5.0)
SCORE = GraphScore("r1", Metric.PING, 3.0, 1)
ROW = ExperimentRow("w", 20.0, "r1", 10.0, 100.0)

# each record type with a valid value for every field, in field order
RECORDS = {
    CandidateEdge: dict(src="a", dst="hub", origin=EDGE, leg=Leg.TO_ORCHESTRATOR),
    CandidateGraph: dict(region=REGION, metric=Metric.PING, edges=()),
    Setting: dict(name="seed", default=0, kind=int, help="random seed", flags=("--seed",),
                  choices=None),
    Vantage: dict(id="local", location=HERE),
    ExecutionResult: dict(workflow="w", vantage="local", makespan_ms=1.5,
                          finish_ms={"A": 1.5}, transport=Transport.SIMULATED),
    ExperimentRow: ROW._asdict(),
    ExperimentReport: dict(rows=(ROW,), mean_speedup_pct=100.0),
    Coordinate: dict(lat=10.0, lon=20.0),
    Region: dict(id="r1", probe_host="r1.example.org", location=HERE),
    RegionCatalog: dict(regions=(REGION,)),
    ProbeConfig: dict(samples_per_pair=2, timeout_ms=100.0, aggregator=Aggregator.MIN,
                      max_parallel_probes=3),
    SyntheticNetworkModel: dict(base_latency_ms=1.0, ms_per_100km=2.0, http_overhead_ms=3.0),
    GraphScore: SCORE._asdict(),
    ScoringConfig: dict(shortlist_n=2, weight_ping=0.5, weight_http=2.0, failure_penalty=10.0),
    RankingEntry: dict(region="r1", final_score=3.0, shortlisted=True, rank=1,
                       distance_score=SCORE, ping_score=SCORE, http_score=None),
    RankingReport: dict(workflow="w", entries=(), config={"shortlist_n": 2},
                        provenance={"metrics": ["ping"]}, generated_at=1.0),
    WorkflowNode: NODE._asdict(),
    WorkflowEdge: EDGE._asdict(),
    WorkflowSpec: dict(name="w", nodes=(NODE,), edges=()),
}
IDS = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=IDS)
def test_keyword_and_positional_construction_give_equal_records(cls, fields):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert record._asdict() == fields
    assert cls._make(fields.values()) == record


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=IDS)
def test_the_signature_lists_exactly_the_fields(cls, fields):
    assert list(inspect.signature(cls).parameters) == list(cls._fields) == list(fields)


@pytest.mark.parametrize("cls, fields", RECORDS.items(), ids=IDS)
def test_a_record_is_immutable(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(**fields)


# (type, changed fields, exception, message) for every check a record makes
CHECKS = [
    (Coordinate, dict(lat=math.nan), ValueError, "coordinate must be finite, got (nan, 20.0)"),
    (Coordinate, dict(lon=math.inf), ValueError, "coordinate must be finite, got (10.0, inf)"),
    (Coordinate, dict(lat=91.0), ValueError, "latitude out of range [-90, 90]: 91.0"),
    (Coordinate, dict(lon=-181.0), ValueError, "longitude out of range [-180, 180]: -181.0"),
    (Region, dict(id=""), ValueError, "region id must be non-empty"),
    (Region, dict(probe_host=""), ValueError, "region 'r1': probe_host must be non-empty"),
    (Vantage, dict(id=""), ValueError, "vantage id must be non-empty"),
    (RegionCatalog, dict(regions=()), CatalogError, "region catalog is empty"),
    (RegionCatalog, dict(regions=(REGION, REGION)), CatalogError, "duplicate region id: r1"),
    (ProbeConfig, dict(samples_per_pair=2.5), ValueError,
     "samples_per_pair must be an integer, got 2.5"),
    (ProbeConfig, dict(max_parallel_probes=True), ValueError,
     "max_parallel_probes must be an integer, got True"),
    (ProbeConfig, dict(samples_per_pair=0), ValueError, "samples_per_pair must be >= 1"),
    (ProbeConfig, dict(timeout_ms=0.0), ValueError, "timeout_ms must be positive"),
    (ProbeConfig, dict(max_parallel_probes=0), ValueError, "max_parallel_probes must be >= 1"),
    (ProbeConfig, dict(aggregator="mode"), ValueError, "'mode' is not a valid Aggregator"),
    (SyntheticNetworkModel, dict(base_latency_ms=-1.0), ValueError,
     "base_latency_ms must be non-negative"),
    (SyntheticNetworkModel, dict(ms_per_100km=-1.0), ValueError,
     "ms_per_100km must be non-negative"),
    (SyntheticNetworkModel, dict(http_overhead_ms=-1.0), ValueError,
     "http_overhead_ms must be non-negative"),
    (SyntheticNetworkModel, dict(base_latency_ms=1e308, http_overhead_ms=1e308), ValueError,
     "base_latency_ms + ms_per_100km * km / 100 + http_overhead_ms must be finite"
     " at the longest great-circle distance (20015.1 km)"),
    (ScoringConfig, dict(shortlist_n=math.nan), ValueError,
     "shortlist_n must be an integer, got nan"),
    (ScoringConfig, dict(shortlist_n=0), ValueError, "shortlist_n must be >= 1"),
    (ScoringConfig, dict(weight_http=-1.0), ValueError, "metric weights must be non-negative"),
    (ScoringConfig, dict(weight_ping=0.0, weight_http=0.0), ValueError,
     "weight_ping + weight_http must be positive"),
    (ScoringConfig, dict(failure_penalty=-1.0), ValueError,
     "failure_penalty must be non-negative"),
    (WorkflowNode, dict(role="sink"), ValueError, "'sink' is not a valid NodeRole"),
]


# type and changed fields; a type check of a field is told from its range check
CHECK_IDS = [f"{c.__name__}-{'-'.join(ch)}" + ("-not-an-integer" if "an integer" in m else "")
             for c, ch, _, m in CHECKS]


@pytest.mark.parametrize("cls, changes, error, message", CHECKS, ids=CHECK_IDS)
def test_every_construction_checks(cls, changes, error, message):
    fields = {**RECORDS[cls], **changes}
    builds = {
        "keyword": lambda: cls(**fields),
        "positional": lambda: cls(*fields.values()),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: cls(**RECORDS[cls])._replace(**changes),
    }
    for name, build in builds.items():
        with pytest.raises(error) as info:
            build()
            pytest.fail(f"{name} built {fields}")
        assert str(info.value) == message, name


def test_names_become_members_however_a_record_is_built():
    node = dict(id="A", endpoint="a.example.org", role="source")
    for built in (WorkflowNode(**node), WorkflowNode(*node.values()),
                  WorkflowNode._make(node.values()), NODE._replace(role="source")):
        assert built.role is NodeRole.SOURCE
    config = ProbeConfig(aggregator="median")
    assert config.aggregator is Aggregator.MEDIAN
    assert ProbeConfig()._replace(aggregator="median") == config


def test_a_location_table_is_read_only():
    table = LocationTable(entries={"Host.Example.org": HERE})
    assert LocationTable({"host.example.org": HERE}).entries == table.entries
    assert list(inspect.signature(LocationTable).parameters) == ["entries"]
    for name in ("entries", "_located", "extra"):
        with pytest.raises(AttributeError):
            setattr(table, name, {})
    assert table.locate("http://host.example.org/x") == HERE
