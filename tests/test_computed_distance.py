"""Distance computed from the coordinates: with no distance provider a
ranking scores every region's distance itself, bit for bit as the per-pair
`measure_distance` through the store would, and no mode caches it, so a
cached run ranks by the coordinates as they are now."""

import json
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import measurement
from cloudforecast.candidates import Metric, hub_legs, weighted_pairs
from cloudforecast.cli import main
from cloudforecast.errors import UnknownLocationError
from cloudforecast.geo import (
    Coordinate,
    Region,
    RegionCatalog,
    bundled_text,
    default_region_catalog,
)
from cloudforecast.measurement import (
    EchoProber,
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    collect_measurements,
    local_providers,
    location_index,
    measure_distance,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions
from cloudforecast.workflow import WorkflowEdge, WorkflowNode, WorkflowSpec
from conftest import FIG1_DOC
from helpers import COORDS, EDGE_COORDS, SUBSETS, antipode, score_pairs


def answer(name: str) -> float:
    """A fake round trip, different for each host or URL."""
    return 1.0 + zlib.crc32(name.encode()) % 100


class FakeProber:
    mode = "fake"

    def probe(self, host, timeout_s):
        return answer(host)


def _providers(mode, spec, catalog, metrics, distance_provider):
    locations = location_index(spec, catalog)
    if mode == "synthetic":
        providers = synthetic_providers(SyntheticNetworkModel(), locations)
    else:
        providers = local_providers(ProbeConfig(samples_per_pair=1), locations, FakeProber())
    providers = {metric: p for metric, p in providers.items() if metric in metrics}
    if distance_provider:
        providers[Metric.DISTANCE] = lambda pair: measure_distance(pair, locations)
    return providers


def _outcome(mode, spec, catalog, metrics, config, distance_provider):
    """Everything a ranking reports but its time and cache size, each score
    to the bit; or the location error it raised."""
    providers = _providers(mode, spec, catalog, metrics, distance_provider)
    try:
        report = rank_regions(spec, catalog, MeasurementStore(), providers, config)
    except UnknownLocationError as exc:
        return f"UnknownLocationError: {exc}"

    def exact(score):
        return None if score is None else (score.metric, score.value.hex(), score.failed_edges)

    provenance = {k: v for k, v in report.provenance.items() if k != "cache_entries"}
    return [(e.rank, e.region, e.shortlisted, e.final_score.hex(), exact(e.distance_score),
             exact(e.ping_score), exact(e.http_score)) for e in report.entries], provenance


NODE_HOSTS = ["h0.example.net", "h1.example.net", "h2.example.net"]
REGION_HOSTS = ["r0.example.org", "r1.example.org"]
UNKNOWN_HOST = "nowhere.example.com"
FORMS = ("{}", "http://{}/process", "{}:8080")


@st.composite
def located_inputs(draw):
    """A random DAG whose endpoints come in every form the package accepts:
    nodes may share a host, a node's host may be a hub's, and a node without
    a location is found through another node's or a region's host, or not
    at all. Each host has one coordinate."""
    where = {host: Coordinate(*draw(COORDS))
             for host in NODE_HOSTS + REGION_HOSTS + [UNKNOWN_HOST]}
    region_hosts = draw(st.lists(st.sampled_from(NODE_HOSTS + REGION_HOSTS),
                                 min_size=1, max_size=4, unique=True))
    catalog = RegionCatalog(tuple(Region(f"r{i}", host, where[host])
                                  for i, host in enumerate(region_hosts)))
    n = draw(st.integers(min_value=2, max_value=7))
    nodes = []
    for i in range(n):
        host = draw(st.sampled_from(NODE_HOSTS + REGION_HOSTS + [UNKNOWN_HOST]))
        located = draw(st.integers(min_value=0, max_value=3)) > 0
        nodes.append(WorkflowNode(
            id=f"n{i}", endpoint=draw(st.sampled_from(FORMS)).format(host),
            location=where[host] if located else None,
        ))
    links = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    edges = tuple(dict.fromkeys(
        WorkflowEdge(f"n{min(u, v)}", f"n{max(u, v)}") for u, v in links if u != v
    ))
    return WorkflowSpec(name="located", nodes=tuple(nodes), edges=edges), catalog


# -- computed equals measured, bit for bit ------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_computed_distances_are_the_per_pair_sums_at_poles_seams_and_antipodes(data):
    # node n0 feeds every other node, so its leg's multiplicity is above 1
    points = data.draw(st.lists(EDGE_COORDS, min_size=3, max_size=6))
    near = st.sampled_from(points)
    hubs = data.draw(st.lists(st.one_of(EDGE_COORDS, near, near.map(antipode)),
                              min_size=1, max_size=4))
    extra = data.draw(st.lists(st.tuples(st.integers(1, len(points) - 1),
                                         st.integers(1, len(points) - 1)), max_size=6))
    nodes = tuple(WorkflowNode(f"n{i}", f"h{i}.example.net", location=point)
                  for i, point in enumerate(points))
    edges = tuple(dict.fromkeys([WorkflowEdge("n0", f"n{i}") for i in range(1, len(points))] + [
        WorkflowEdge(f"n{min(u, v)}", f"n{max(u, v)}") for u, v in extra if u != v]))
    spec = WorkflowSpec(name="edges", nodes=nodes, edges=edges)
    catalog = RegionCatalog(tuple(Region(f"r{i}", f"r{i}.example.org", hub)
                                  for i, hub in enumerate(hubs)))
    report = rank_regions(spec, catalog, MeasurementStore(), {}, ScoringConfig())
    locations = location_index(spec, catalog)
    legs = hub_legs(spec)
    assert max(legs.values()) > 1
    for entry in report.entries:
        pairs = weighted_pairs(legs, catalog.by_id(entry.region).probe_host)
        measured = {pair: measure_distance(pair, locations) for pair in pairs}
        want = score_pairs(entry.region, Metric.DISTANCE, pairs, measured)
        assert entry.distance_score.value.hex() == want.value.hex()


@settings(max_examples=200, deadline=None)
@given(
    inputs=located_inputs(),
    mode=st.sampled_from(["synthetic", "local"]),
    subset=st.sampled_from(sorted(SUBSETS)),
    shortlist_n=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)
def test_a_computed_distance_ranks_as_the_per_pair_distance_provider(inputs, mode, subset,
                                                                     shortlist_n):
    spec, catalog = inputs
    config = ScoringConfig(shortlist_n=shortlist_n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(measurement, "http_get_ms", lambda url, timeout_s: answer(url))
        computed, measured = (_outcome(mode, spec, catalog, SUBSETS[subset], config, provider)
                              for provider in (False, True))
    assert computed == measured


def test_the_inputs_reach_both_a_ranking_and_a_location_error():
    outcomes = set()

    # the same draws every run, so the check does not depend on a seed
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(inputs=located_inputs())
    def run(inputs):
        outcome = _outcome("synthetic", *inputs, SUBSETS["distance"], ScoringConfig(), False)
        outcomes.add(isinstance(outcome, str))

    run()
    assert outcomes == {False, True}


@pytest.mark.parametrize("mode", ["synthetic", "local"])
def test_an_endpoint_without_a_location_exits_3_before_any_probe(mode, tmp_path, capsys,
                                                                 monkeypatch):
    doc = json.loads(FIG1_DOC)
    doc["nodes"].append({"id": "lost", "endpoint": f"http://{UNKNOWN_HOST}/x", "role": "service"})
    doc["edges"].append({"from": "sfu", "to": "lost"})
    path = tmp_path / "lost.workflow"
    path.write_text(json.dumps(doc))
    probed = []
    monkeypatch.setattr(EchoProber, "probe", lambda self, host, timeout_s: probed.append(host))
    monkeypatch.setattr(measurement, "http_get_ms", lambda url, timeout_s: probed.append(url))
    code = main(["analyze", "-w", str(path), "--probe-mode", mode, "--samples-per-pair", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert f"no known location for host '{UNKNOWN_HOST}'" in captured.err
    assert captured.out == "" and probed == []


# -- the cache holds no distance --------------------------------------------------------

@pytest.fixture
def fake_probes(monkeypatch):
    monkeypatch.setattr(EchoProber, "mode", "icmp")
    monkeypatch.setattr(EchoProber, "probe", lambda self, host, timeout_s: answer(host))
    monkeypatch.setattr(measurement, "http_get_ms", lambda url, timeout_s: answer(url))


def _analyze(capsys, *argv):
    code = main(["analyze", "--format", "json", "--no-timestamps", "--samples-per-pair", "1",
                 *argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("mode", ["synthetic", "local"])
def test_a_cache_holds_no_distance_record(mode, fig1_file, tmp_path, capsys, fake_probes):
    cache = tmp_path / "probes.cache"
    report = _analyze(capsys, "-w", fig1_file, "--probe-mode", mode, "--cache", str(cache))
    records = _records(cache)
    assert {r["metric"] for r in records} == {"ping", "http_rtt"}
    assert len(records) == report["provenance"]["cache_entries"] == 8 * 3 * 2
    assert report["provenance"]["metrics"] == ["distance", "http_rtt", "ping"]


@pytest.mark.parametrize("poisoned", [False, True])
@pytest.mark.parametrize("mode", ["synthetic", "local"])
def test_a_cache_with_distance_records_loads_and_ranks_as_without_them(
        mode, poisoned, fig1_file, fig1_spec, catalog, tmp_path, capsys, fake_probes):
    # the distance records a cache file held when every mode stored distance
    cache = tmp_path / "probes.cache"
    args = ["-w", fig1_file, "--probe-mode", mode]
    fresh = _analyze(capsys, *args, "--cache", str(cache))
    store = MeasurementStore.load(str(cache))
    locations = location_index(fig1_spec, catalog)
    legs = hub_legs(fig1_spec)
    batch = [pair for region in catalog.regions for pair in weighted_pairs(legs, region.probe_host)]

    def distance(pair):  # poisoned: a value that would change every score read from it
        m = measure_distance(pair, locations)
        return m._replace(value=1.0) if poisoned else m

    collect_measurements(store, batch, Metric.DISTANCE, distance)
    store.save(str(cache))
    saved = cache.read_text()
    assert sum(r["metric"] == "distance" for r in _records(cache)) == 8 * 3

    for metrics in ("distance", "distance,ping,http_rtt"):
        warm = _analyze(capsys, *args, "--cache", str(cache), "--metrics", metrics)
        cold = _analyze(capsys, *args, "--metrics", metrics)
        assert warm["entries"] == cold["entries"]
        assert warm["provenance"]["cache_entries"] == 8 * 3 * 3
    assert cache.read_text() == saved  # every record stays


# -- a moved region is ranked where it is now ---------------------------------------------

@pytest.mark.parametrize("argv", [["--metrics", "distance"], ["--shortlist", "3"]],
                         ids=["distance", "shortlist-3"])
def test_a_cached_run_ranks_a_moved_region_by_its_new_coordinates(argv, fig1_file, tmp_path,
                                                                  capsys):
    doc = json.loads(bundled_text("regions.default"))
    regions, cache = tmp_path / "regions.json", tmp_path / "probes.cache"
    args = ["-w", fig1_file, "--regions", str(regions), *argv]
    regions.write_text(json.dumps(doc))
    before = _analyze(capsys, *args, "--cache", str(cache))
    assert before["entries"][0]["region"] == doc["regions"][0]["id"] == "us-east-1"

    # the same probe_host, on the other side of the world
    doc["regions"][0].update(lat=-33.87, lon=151.21)
    regions.write_text(json.dumps(doc))
    after = _analyze(capsys, *args, "--cache", str(cache))
    fresh = _analyze(capsys, *args)
    assert after["entries"] == fresh["entries"]
    moved = next(e for e in after["entries"] if e["region"] == "us-east-1")
    assert moved["rank"] > 1
    assert moved["shortlisted"] == ("--shortlist" not in argv)
    assert moved["distance_score"]["value"] > 4 * before["entries"][0]["distance_score"]["value"]


# -- one location table per spec and catalog ----------------------------------------------

def test_a_ranking_reuses_the_table_its_caller_built(fig1_spec, monkeypatch):
    build, built = measurement.build_location_table, []

    def counted(*sources):
        built.append(build(*sources))
        return built[-1]

    catalog = default_region_catalog()
    spec = WorkflowSpec(*fig1_spec)  # a spec no other test has located
    monkeypatch.setattr(measurement, "build_location_table", counted)
    table = location_index(spec, catalog)
    providers = synthetic_providers(SyntheticNetworkModel(), table)
    first = rank_regions(spec, catalog, MeasurementStore(), providers, ScoringConfig())
    assert built == [table] and location_index(spec, catalog) is table

    # an equal catalog that is another object gets a table of its own, and
    # ranks the same from it
    twin = RegionCatalog(catalog.regions)
    assert twin == catalog and location_index(spec, twin) is built[-1] is not table
    again = rank_regions(spec, twin, MeasurementStore(), providers, ScoringConfig())
    assert len(built) == 2 and again.entries == first.entries

    # a replaced spec starts with no table
    renamed = spec._replace(name="renamed")
    assert location_index(renamed, twin) is built[-1] is not built[1]
    assert len(built) == 3
