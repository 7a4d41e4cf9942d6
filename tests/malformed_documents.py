"""Malformed workflow, pool and catalog documents, each with the exact error
its parser raises. `tests/test_document_errors.py` checks the table, and
`tools/compare_outputs.py` runs the same documents (plus `EMPTY_WORKFLOW`)
through the CLI of two trees. Standard library only, so the tool can import
it without a tree's package on the path."""

import copy
import json

_DROP = object()


def _edit(doc, path: tuple, value=_DROP):
    """A copy of `doc` with the value at `path` (keys and indexes) replaced,
    or removed when no value is given."""
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


WORKFLOW = {
    "name": "bad",
    "nodes": [
        {"id": "a", "endpoint": "a.example.org", "role": "source",
         "location": {"lat": 10.0, "lon": 20.0}, "service_time_ms": 5},
        {"id": "b", "endpoint": "b.example.org", "role": "service"},
    ],
    "edges": [{"from": "a", "to": "b", "payload_kb": 64}],
}
POOL = {"nodes": WORKFLOW["nodes"]}
CATALOG = {"regions": [
    {"id": "r1", "probe_host": "r1.example.org", "lat": 1.0, "lon": 2.0},
    {"id": "r2", "probe_host": "r2.example.org", "lat": -3.0, "lon": 4.0},
]}
EMPTY_WORKFLOW = {"name": "empty", "nodes": [], "edges": []}

NODE = ("nodes", 0)
LOCATION = NODE + ("location",)
EDGE = ("edges", 0)
REGION = ("regions", 0)

# (id, kind, document, error class, message); a document is a JSON value,
# written with `json.dumps`, so NaN and Infinity are written as those words
MALFORMED = [
    # workflow: the document
    ("workflow-not-object", "workflow", [], "DocumentFormatError",
     "workflow: expected an object, got list"),
    ("workflow-unknown", "workflow", _edit(WORKFLOW, ("zeta",), 1) | {"alpha": 2},
     "DocumentFormatError", "workflow: unknown field(s): alpha, zeta"),
    ("workflow-unknown-and-missing", "workflow", _edit(WORKFLOW, ("edges",)) | {"extra": 1},
     "DocumentFormatError", "workflow: unknown field(s): extra"),
    ("workflow-missing", "workflow", _edit(_edit(WORKFLOW, ("edges",)), ("name",)),
     "DocumentFormatError", "workflow: missing required field(s): edges, name"),
    ("workflow-name-type", "workflow", _edit(WORKFLOW, ("name",), 5), "DocumentFormatError",
     "workflow.name: expected a string, got 5"),
    ("workflow-nodes-type", "workflow", _edit(WORKFLOW, ("nodes",), {}), "SpecValidationError",
     "workflow 'nodes' and 'edges' must be lists"),
    ("workflow-edges-type", "workflow", _edit(WORKFLOW, ("edges",), None),
     "SpecValidationError", "workflow 'nodes' and 'edges' must be lists"),
    # workflow: nodes[i]
    ("node-not-object", "workflow", _edit(WORKFLOW, NODE, "a"), "DocumentFormatError",
     "nodes[0]: expected an object, got str"),
    ("node-unknown", "workflow", _edit(WORKFLOW, NODE + ("region",), "x"),
     "DocumentFormatError", "nodes[0]: unknown field(s): region"),
    ("node-missing", "workflow", _edit(_edit(WORKFLOW, NODE + ("role",)), NODE + ("id",)),
     "DocumentFormatError", "nodes[0]: missing required field(s): id, role"),
    ("node-id-type", "workflow", _edit(WORKFLOW, NODE + ("id",), 7), "DocumentFormatError",
     "nodes[0].id: expected a string, got 7"),
    ("node-endpoint-type", "workflow", _edit(WORKFLOW, NODE + ("endpoint",), ["a"]),
     "DocumentFormatError", "nodes[0].endpoint: expected a string, got ['a']"),
    ("node-role-type", "workflow", _edit(WORKFLOW, NODE + ("role",), None),
     "DocumentFormatError", "nodes[0].role: expected a string, got None"),
    ("node-role-bad", "workflow", _edit(WORKFLOW, NODE + ("role",), "sink"),
     "SpecValidationError", "nodes[0].role: must be 'source' or 'service', got 'sink'"),
    ("node-role-case", "workflow", _edit(WORKFLOW, ("nodes", 1, "role"), "Service"),
     "SpecValidationError", "nodes[1].role: must be 'source' or 'service', got 'Service'"),
    ("node-service-time-type", "workflow", _edit(WORKFLOW, NODE + ("service_time_ms",), "5"),
     "DocumentFormatError", "nodes[0].service_time_ms: expected a number, got '5'"),
    ("node-service-time-bool", "workflow", _edit(WORKFLOW, NODE + ("service_time_ms",), True),
     "DocumentFormatError", "nodes[0].service_time_ms: expected a number, got True"),
    ("node-service-time-nan", "workflow",
     _edit(WORKFLOW, NODE + ("service_time_ms",), float("nan")), "DocumentFormatError",
     "nodes[0].service_time_ms: expected a finite number, got nan"),
    ("node-service-time-huge", "workflow", _edit(WORKFLOW, NODE + ("service_time_ms",), 10**400),
     "DocumentFormatError",
     "nodes[0].service_time_ms: expected a finite number, got an integer too large for a float"),
    ("node-ids-before-endpoint", "workflow",
     _edit(_edit(WORKFLOW, NODE + ("id",), 1), NODE + ("endpoint",), 2),
     "DocumentFormatError", "nodes[0].id: expected a string, got 1"),
    ("node-role-before-id", "workflow",
     _edit(_edit(WORKFLOW, NODE + ("id",), 1), NODE + ("role",), "sink"),
     "SpecValidationError", "nodes[0].role: must be 'source' or 'service', got 'sink'"),
    # workflow: nodes[i].location
    ("location-not-object", "workflow", _edit(WORKFLOW, LOCATION, [10, 20]),
     "DocumentFormatError", "nodes[0].location: expected an object, got list"),
    ("location-unknown", "workflow", _edit(WORKFLOW, LOCATION + ("alt",), 3),
     "DocumentFormatError", "nodes[0].location: unknown field(s): alt"),
    ("location-missing", "workflow", _edit(WORKFLOW, LOCATION + ("lon",)),
     "DocumentFormatError", "nodes[0].location: missing required field(s): lon"),
    ("location-lat-type", "workflow", _edit(WORKFLOW, LOCATION + ("lat",), "10"),
     "DocumentFormatError", "nodes[0].location.lat: expected a number, got '10'"),
    ("location-lon-inf", "workflow", _edit(WORKFLOW, LOCATION + ("lon",), float("-inf")),
     "DocumentFormatError", "nodes[0].location.lon: expected a finite number, got -inf"),
    ("location-lat-range", "workflow", _edit(WORKFLOW, LOCATION + ("lat",), 90.5),
     "SpecValidationError", "nodes[0].location: latitude out of range [-90, 90]: 90.5"),
    ("location-lon-range", "workflow", _edit(WORKFLOW, LOCATION + ("lon",), -181),
     "SpecValidationError", "nodes[0].location: longitude out of range [-180, 180]: -181.0"),
    # workflow: edges[i]
    ("edge-not-object", "workflow", _edit(WORKFLOW, EDGE, ["a", "b"]), "DocumentFormatError",
     "edges[0]: expected an object, got list"),
    ("edge-unknown", "workflow", _edit(WORKFLOW, EDGE + ("weight",), 1), "DocumentFormatError",
     "edges[0]: unknown field(s): weight"),
    ("edge-missing", "workflow", _edit(WORKFLOW, EDGE + ("to",)), "DocumentFormatError",
     "edges[0]: missing required field(s): to"),
    ("edge-from-type", "workflow", _edit(WORKFLOW, EDGE + ("from",), 0), "DocumentFormatError",
     "edges[0].from: expected a string, got 0"),
    ("edge-to-type", "workflow", _edit(WORKFLOW, EDGE + ("to",), {"id": "b"}),
     "DocumentFormatError", "edges[0].to: expected a string, got {'id': 'b'}"),
    ("edge-payload-type", "workflow", _edit(WORKFLOW, EDGE + ("payload_kb",), "64"),
     "DocumentFormatError", "edges[0].payload_kb: expected a number, got '64'"),
    ("edge-payload-inf", "workflow", _edit(WORKFLOW, EDGE + ("payload_kb",), float("inf")),
     "DocumentFormatError", "edges[0].payload_kb: expected a finite number, got inf"),
    ("edge-payload-negative", "workflow", _edit(WORKFLOW, EDGE + ("payload_kb",), -1),
     "SpecValidationError", "edge a->b: negative payload_kb"),
    # workflow: the graph
    ("edge-dangling", "workflow", _edit(WORKFLOW, EDGE + ("to",), "c"), "SpecValidationError",
     "dangling edge a->c: unknown node id 'c'; workflow is not weakly connected"),
    ("edge-self-loop", "workflow", _edit(WORKFLOW, EDGE + ("to",), "a"), "SpecValidationError",
     "self-loop edge on node 'a'; workflow is not weakly connected"),
    ("node-duplicate", "workflow", _edit(WORKFLOW, ("nodes", 1, "id"), "a"),
     "SpecValidationError",
     "duplicate node id: a; dangling edge a->b: unknown node id 'b'"),
    ("node-id-empty", "workflow", _edit(WORKFLOW, NODE + ("id",), ""), "SpecValidationError",
     "node with empty id; dangling edge a->b: unknown node id 'a'; "
     "workflow is not weakly connected"),
    # pool
    ("pool-not-object", "pool", "nodes", "DocumentFormatError",
     "pool: expected an object, got str"),
    ("pool-unknown", "pool", POOL | {"edges": []}, "DocumentFormatError",
     "pool: unknown field(s): edges"),
    ("pool-missing", "pool", {}, "DocumentFormatError", "pool: missing required field(s): nodes"),
    ("pool-nodes-type", "pool", {"nodes": {}}, "SpecValidationError",
     "pool 'nodes' must be a list"),
    ("pool-node-not-object", "pool", _edit(POOL, NODE, 1), "DocumentFormatError",
     "nodes[0]: expected an object, got int"),
    ("pool-node-role-bad", "pool", _edit(POOL, ("nodes", 1, "role"), "sink"),
     "SpecValidationError", "nodes[1].role: must be 'source' or 'service', got 'sink'"),
    ("pool-location-missing", "pool", _edit(POOL, LOCATION + ("lat",)), "DocumentFormatError",
     "nodes[0].location: missing required field(s): lat"),
    ("pool-node-duplicate", "pool", _edit(POOL, ("nodes", 1, "id"), "a"), "SpecValidationError",
     "duplicate pool node id: a"),
    # catalog
    ("catalog-not-object", "catalog", CATALOG["regions"], "DocumentFormatError",
     "catalog: expected an object, got list"),
    ("catalog-unknown", "catalog", CATALOG | {"zones": []}, "DocumentFormatError",
     "catalog: unknown field(s): zones"),
    ("catalog-missing", "catalog", {}, "DocumentFormatError",
     "catalog: missing required field(s): regions"),
    ("catalog-regions-type", "catalog", {"regions": "r1"}, "CatalogError",
     "catalog 'regions' must be a list"),
    ("region-not-object", "catalog", _edit(CATALOG, REGION, "r1"), "DocumentFormatError",
     "regions[0]: expected an object, got str"),
    ("region-unknown", "catalog", _edit(CATALOG, ("regions", 1, "zone"), "a"),
     "DocumentFormatError", "regions[1]: unknown field(s): zone"),
    ("region-missing", "catalog", _edit(_edit(CATALOG, REGION + ("lon",)), REGION + ("lat",)),
     "DocumentFormatError", "regions[0]: missing required field(s): lat, lon"),
    ("region-id-type", "catalog", _edit(CATALOG, REGION + ("id",), 1), "DocumentFormatError",
     "regions[0].id: expected a string, got 1"),
    ("region-probe-host-type", "catalog", _edit(CATALOG, REGION + ("probe_host",), None),
     "DocumentFormatError", "regions[0].probe_host: expected a string, got None"),
    ("region-lat-type", "catalog", _edit(CATALOG, REGION + ("lat",), False),
     "DocumentFormatError", "regions[0].lat: expected a number, got False"),
    ("region-lon-nan", "catalog", _edit(CATALOG, REGION + ("lon",), float("nan")),
     "DocumentFormatError", "regions[0].lon: expected a finite number, got nan"),
    ("region-lat-range", "catalog", _edit(CATALOG, REGION + ("lat",), -91), "CatalogError",
     "regions[0]: latitude out of range [-90, 90]: -91.0"),
    ("region-id-empty", "catalog", _edit(CATALOG, REGION + ("id",), ""), "CatalogError",
     "regions[0]: region id must be non-empty"),
    ("region-duplicate", "catalog", _edit(CATALOG, ("regions", 1, "id"), "r1"), "CatalogError",
     "duplicate region id: r1"),
]


def document_text(document) -> str:
    """The document as its file holds it."""
    return json.dumps(document)


# the CLI command that reads a document of each kind from the file "{path}";
# "{good}" is a file holding `WORKFLOW`, which is valid
COMMANDS = {
    "workflow": ["analyze", "-w", "{path}"],
    "catalog": ["analyze", "-w", "{good}", "--regions", "{path}"],
    "pool": ["generate", "--pattern", "sequential", "--nodes", "1", "--pool", "{path}"],
}
