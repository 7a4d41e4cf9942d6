import json

import pytest

from cloudforecast.geo import default_region_catalog
from cloudforecast.workflow import parse_workflow

FIG1_DOC = json.dumps(
    {
        "name": "image-pipeline",
        "nodes": [
            {
                "id": "wikimedia",
                "endpoint": "wikimedia.org",
                "role": "source",
                "location": {"lat": 37.79, "lon": -122.4},
            },
            {
                "id": "princeton",
                "endpoint": "http://princeton.edu/process",
                "role": "service",
                "location": {"lat": 40.35, "lon": -74.65},
                "service_time_ms": 50,
            },
            {
                "id": "sfu",
                "endpoint": "http://surrey.sfu.ca/process",
                "role": "service",
                "location": {"lat": 49.28, "lon": -122.92},
                "service_time_ms": 40,
            },
        ],
        "edges": [
            {"from": "wikimedia", "to": "princeton", "payload_kb": 512},
            {"from": "princeton", "to": "sfu", "payload_kb": 256},
        ],
    }
)

# final scores the ranking fixture must reproduce, keyed by region id
REFERENCE_FINAL_SCORES = {
    "us-east-1": 92530.42,
    "us-west-2": 186251.487,
    "us-west-1": 186374.351,
    "sa-east-1": 366450.152,
    "ap-northeast-1": 421102.237,
    "ap-northeast-2": 510982.726,
    "ap-southeast-1": 532180.129,
    "eu-west-1": 500178094.532,
}

EXPECTED_RANKING = [
    "us-east-1",
    "us-west-2",
    "us-west-1",
    "sa-east-1",
    "ap-northeast-1",
    "ap-northeast-2",
    "ap-southeast-1",
    "eu-west-1",
]


@pytest.fixture
def fig1_doc():
    return FIG1_DOC


@pytest.fixture
def fig1_spec():
    return parse_workflow(FIG1_DOC)


@pytest.fixture
def catalog():
    return default_region_catalog()


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.workflow"
    path.write_text(FIG1_DOC)
    return str(path)
