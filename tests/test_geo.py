import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudforecast.errors import (
    CatalogError,
    DocumentFormatError,
    SpecValidationError,
    UnknownLocationError,
)
from cloudforecast.geo import (
    EARTH_RADIUS_KM,
    Coordinate,
    LocationTable,
    Region,
    RegionCatalog,
    default_region_catalog,
    haversine_km,
    host_of,
    km_row,
    load_region_catalog,
    prepare_point,
    resolve_location,
)
from helpers import (
    EDGE_COORDS,
    NON_FINITE,
    antipode,
    slc_km,
    urlparse_host_of,
    with_raw_value,
)

LONDON = Coordinate(51.5074, -0.1278)
PARIS = Coordinate(48.8566, 2.3522)

coords = st.builds(
    Coordinate,
    st.floats(min_value=-90, max_value=90, allow_nan=False),
    st.floats(min_value=-180, max_value=180, allow_nan=False),
)


def test_identical_points_are_zero():
    p = Coordinate(12.5, -33.25)
    assert haversine_km(p, p) == 0.0


def test_london_paris_matches_independent_oracle():
    oracle = slc_km(LONDON, PARIS)
    got = haversine_km(LONDON, PARIS)
    assert got == pytest.approx(oracle, rel=0.005)
    # sanity anchor for the oracle itself
    assert oracle == pytest.approx(343.556, abs=0.01)


def test_antipodal_on_equator_is_half_circumference():
    assert haversine_km(Coordinate(0, 0), Coordinate(0, 180)) == pytest.approx(
        math.pi * EARTH_RADIUS_KM, rel=1e-12
    )


def test_a_haversine_term_rounded_above_one_is_clamped_to_half_a_circumference():
    # the term comes to 1.0000000000000004, 2 ulps above 1, where asin has no value
    a = Coordinate(64.15196897125202, 88.19023981582438)
    b = Coordinate(-64.15196897025201, -91.80976018417572)
    for p, q in ((a, b), (b, a)):
        assert haversine_km(p, q) == 20015.086796020572
        assert km_row([prepare_point(p)], q) == [20015.086796020572]


def test_longitude_seam_is_zero_distance():
    assert haversine_km(Coordinate(10, -180), Coordinate(10, 180)) == pytest.approx(0.0, abs=1e-6)


def test_distinct_points_have_positive_distance():
    assert haversine_km(Coordinate(0, 0), Coordinate(0.001, 0)) > 0
    assert haversine_km(Coordinate(10, 20), Coordinate(10, 20.001)) > 0
    assert haversine_km(Coordinate(-89, 0), Coordinate(-89.5, 0)) > 0


def test_oracle_agreement_on_random_pairs():
    rng = random.Random(20130710)
    checked = 0
    while checked < 300:
        a = Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = Coordinate(rng.uniform(-90, 90), rng.uniform(-180, 180))
        oracle = slc_km(a, b)
        if oracle <= 1.0:
            continue
        assert haversine_km(a, b) == pytest.approx(oracle, rel=0.005)
        checked += 1


@given(coords, coords)
def test_symmetry_and_nonnegativity(a, b):
    d_ab = haversine_km(a, b)
    assert d_ab >= 0.0
    assert d_ab == haversine_km(b, a)


# Haversine in binary64 loses accuracy near antipodes. h = sin^2(dlat/2) +
# cos*cos*sin^2(dlon/2) carries a rounding error e of a few units of 2**-53,
# and d = 2R*asin(sqrt(h)) is steepest as h reaches 1: with h = 1 - x, d is
# about 2R*(pi/2 - sqrt(x)), so an error e in h moves d by up to 2R*sqrt(e).
# With e = 4 * 2**-53 that is 2.7e-4 km (over 300,000 near-antipodal pairs
# the worst error against an atan2 reference was 2.685e-4 km), and each of
# the triangle's three sides may carry it.
TRIANGLE_SLACK_KM = 1e-6 + 3 * 2 * EARTH_RADIUS_KM * math.sqrt(4 * 2**-53)


@given(coords, coords, coords)
@example(Coordinate(0.0, 180.0), Coordinate(1.0, 0.0), Coordinate(1.192092896e-07, 0.0))
@settings(max_examples=300)
def test_triangle_inequality(a, b, c):
    assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + TRIANGLE_SLACK_KM


def test_coordinate_range_validation():
    with pytest.raises(ValueError):
        Coordinate(91, 0)
    with pytest.raises(ValueError):
        Coordinate(0, -181)
    with pytest.raises(ValueError):
        Coordinate(float("nan"), 0)


def test_host_extraction():
    assert host_of("http://host.a/x") == "host.a"
    assert host_of("host.b") == "host.b"
    assert host_of("HOST.C:8080/path") == "host.c"
    with pytest.raises(UnknownLocationError):
        host_of("")


# a hub and a row of points: each the hub itself, its antipode, or any edge coordinate
KERNEL_ROWS = EDGE_COORDS.flatmap(lambda hub: st.tuples(st.just(hub), st.lists(
    st.one_of(st.just(hub), st.just(antipode(hub)), EDGE_COORDS), min_size=1, max_size=6)))


@settings(max_examples=500, deadline=None)
@given(row=KERNEL_ROWS)
@example(row=(Coordinate(87.5, -180.0), [Coordinate(-87.5, 0.0)]))  # h rounds above 1.0
def test_the_kilometre_kernel_is_haversine_km_to_the_bit_in_both_directions(row):
    hub, points = row
    kms = [km.hex() for km in km_row([prepare_point(p) for p in points], hub)]
    assert kms == [haversine_km(p, hub).hex() for p in points]
    assert kms == [haversine_km(hub, p).hex() for p in points]
    # symmetric to the bit: what lets a ranking and a simulation skip a leg's direction
    assert kms == [km_row([prepare_point(hub)], p)[0].hex() for p in points]


def _outcome(function, endpoint):
    try:
        return function(endpoint)
    except (UnknownLocationError, ValueError) as exc:
        return type(exc), str(exc)


# [space][scheme://][userinfo@]host[:port][/path][space], each part plain or awkward
_LABEL = st.text("abcXYZ019-.", min_size=1, max_size=8)
ENDPOINTS = st.builds(
    lambda *parts: "".join(parts),
    st.sampled_from(["", " ", "\t", "\n ", "\x00"]),
    st.sampled_from(["", "http://", "HTTPS://", "git+ssh://", "://", "a:b://", "1x://", "h\tttp://"]),
    st.sampled_from(["", "user@", "u:p@", "@"]),
    st.one_of(_LABEL, st.sampled_from(["", "[::1]", "[fe80::1%eth0]", "[::1", "Ex%41MPLE.net",
                                      "b\u00fccher.de", "ho st", "h\u0661.net", "ho\tst", "\u00c5.se"])),
    st.sampled_from(["", ":", ":8080", ":abc", ":\u0663", ":-1", ":80:90"]),
    st.sampled_from(["", "/", "/p", "/p?u=http://x", "?q=1", "#f", "/a\tb\nc", "/\u00e9"]),
    st.sampled_from(["", " ", "\t", "\r\n", "\u3000"]),
)


@settings(max_examples=1000, deadline=None)
@given(endpoint=ENDPOINTS)
@example(endpoint="host/p?u=http://x")
@example(endpoint="HOST.C:8080/path")
def test_host_of_reads_every_endpoint_form_as_urlparse_does(endpoint):
    assert _outcome(host_of, endpoint) == _outcome(urlparse_host_of, endpoint)


@settings(max_examples=500, deadline=None)
@given(endpoint=st.one_of(st.text(), st.text(":/?#@[]%.-aZ09 \t\n\x00\u00e9\u0661")))
def test_host_of_reads_arbitrary_text_as_urlparse_does(endpoint):
    assert _outcome(host_of, endpoint) == _outcome(urlparse_host_of, endpoint)


def test_resolve_location_direct_hit():
    table = LocationTable({"host.a": Coordinate(1, 2)})
    assert resolve_location("http://host.a/x", table) == Coordinate(1, 2)


def test_resolve_location_error():
    empty = LocationTable({})
    with pytest.raises(UnknownLocationError):
        resolve_location("host.c", empty)


def test_default_catalog_has_the_eight_regions():
    catalog = default_region_catalog()
    assert len(catalog.regions) == 8
    assert [r.id for r in catalog.regions] == [
        "us-east-1",
        "us-west-1",
        "us-west-2",
        "sa-east-1",
        "ap-northeast-1",
        "ap-northeast-2",
        "ap-southeast-1",
        "eu-west-1",
    ]


def test_catalog_round_trip():
    catalog = default_region_catalog()
    document = json.dumps({"regions": [
        {"id": r.id, "probe_host": r.probe_host, "lat": r.location.lat, "lon": r.location.lon}
        for r in catalog.regions
    ]})
    assert load_region_catalog(document) == catalog


def test_catalog_duplicate_id_rejected():
    doc = """{"regions": [
        {"id": "us-east-1", "probe_host": "a", "lat": 0, "lon": 0},
        {"id": "us-east-1", "probe_host": "b", "lat": 1, "lon": 1}
    ]}"""
    with pytest.raises(CatalogError, match="duplicate"):
        load_region_catalog(doc)


def test_regions_share_a_probe_host_only_at_one_position():
    from cloudforecast.measurement import location_index
    from cloudforecast.workflow import WorkflowSpec

    here, there = Coordinate(0.0, 0.0), Coordinate(10.0, 10.0)
    shared = RegionCatalog((Region("a", "h.example", here), Region("b", "H.example:80", here)))
    assert location_index(WorkflowSpec("none"), shared).entries == {"h.example": here}
    # the catalog holds both; locating its probe hosts refuses the second position
    moved = RegionCatalog((Region("a", "h.example", here), Region("b", "http://h.example/", there)))
    with pytest.raises(SpecValidationError) as raised:
        location_index(WorkflowSpec("none"), moved)
    assert str(raised.value) == ("host 'h.example' is placed at two coordinates: endpoint "
                                 "'h.example' at (0.0, 0.0) and endpoint 'http://h.example/' "
                                 "at (10.0, 10.0)")


@pytest.mark.parametrize("raw, shown", NON_FINITE.values(), ids=list(NON_FINITE))
def test_catalog_rejects_a_lat_that_is_not_a_finite_float(raw, shown):
    doc = json.dumps({"regions": [{"id": "r", "probe_host": "r.example.org", "lat": 1, "lon": 2}]})
    with pytest.raises(DocumentFormatError) as info:
        load_region_catalog(with_raw_value(doc, ("regions", 0, "lat"), raw))
    assert str(info.value) == f"regions[0].lat: expected a finite number, got {shown}"


def test_catalog_empty_rejected():
    with pytest.raises(CatalogError, match="empty"):
        load_region_catalog('{"regions": []}')


def test_catalog_unknown_field_rejected():
    doc = '{"regions": [{"id": "x", "probe_host": "h", "lat": 0, "lon": 0, "zone": "a"}]}'
    with pytest.raises(Exception, match="unknown field"):
        load_region_catalog(doc)


def test_region_invariants():
    with pytest.raises(ValueError):
        Region("", "host", Coordinate(0, 0))
    with pytest.raises(ValueError):
        Region("r1", "", Coordinate(0, 0))


def test_location_table_rejects_empty_hostname():
    with pytest.raises(ValueError):
        LocationTable({"": Coordinate(0, 0)})


def test_locate_parses_each_endpoint_once(monkeypatch):
    import cloudforecast.geo as geo

    parsed = []
    real_host_of = geo.host_of
    monkeypatch.setattr(geo, "host_of", lambda e: parsed.append(e) or real_host_of(e))
    table = LocationTable({"paris.example.org": PARIS})
    for _ in range(3):
        assert table.locate("http://Paris.example.org/run") == PARIS
        assert resolve_location("paris.example.org:8080", table) == PARIS
    assert parsed == ["http://Paris.example.org/run", "paris.example.org:8080"]


def test_locate_raises_for_an_unknown_host():
    table = LocationTable({"paris.example.org": PARIS})
    with pytest.raises(UnknownLocationError, match="lost.example.org"):
        table.locate("lost.example.org")


def test_build_location_table_parses_each_endpoint_once(monkeypatch):
    import cloudforecast.geo as geo

    parsed = []
    real_host_of = geo.host_of
    monkeypatch.setattr(geo, "host_of", lambda e: parsed.append(e) or real_host_of(e))
    nodes = [("http://paris.example.org/run", PARIS), ("paris.example.org:8080", PARIS),
             ("http://paris.example.org/run", PARIS), ("london.example.org", LONDON)]
    # a region whose probe host is a node's host, at the node's position
    regions = [("PARIS.example.org", PARIS)]
    table = geo.build_location_table(nodes, regions)
    endpoints = list(dict.fromkeys(e for e, _ in nodes + regions))
    assert parsed == endpoints
    for endpoint in endpoints:
        assert table.locate(endpoint) == (LONDON if "london" in endpoint else PARIS)
    assert parsed == endpoints  # `locate` parsed none of them again
    assert table.entries == {"paris.example.org": PARIS, "london.example.org": LONDON}


@pytest.mark.parametrize("sources, first, second", [
    pytest.param([[("http://paris.example.org/run", PARIS)], [("PARIS.example.org", LONDON)]],
                 "'http://paris.example.org/run' at (48.8566, 2.3522)",
                 "'PARIS.example.org' at (51.5074, -0.1278)", id="node-and-region"),
    pytest.param([[("paris.example.org", PARIS), ("paris.example.org:8080", LONDON)]],
                 "'paris.example.org' at (48.8566, 2.3522)",
                 "'paris.example.org:8080' at (51.5074, -0.1278)", id="two-nodes"),
    pytest.param([[("paris.example.org", PARIS), ("paris.example.org", LONDON)]],
                 "'paris.example.org' at (48.8566, 2.3522)",
                 "'paris.example.org' at (51.5074, -0.1278)", id="one-endpoint"),
])
def test_build_location_table_refuses_a_host_placed_at_two_coordinates(sources, first, second):
    from cloudforecast.geo import build_location_table

    with pytest.raises(SpecValidationError) as raised:
        build_location_table(*sources)
    assert str(raised.value) == (f"host 'paris.example.org' is placed at two coordinates: "
                                 f"endpoint {first} and endpoint {second}")
