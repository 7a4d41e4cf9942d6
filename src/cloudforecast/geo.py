"""Coordinates, great-circle distance, endpoint geolocation and the region catalog."""

import math
import os
from typing import Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import urlparse

from .errors import CatalogError, SpecValidationError, UnknownLocationError
from .jsondoc import as_number, as_string, check_fields, field_sets, load_document
from .records import Checked

EARTH_RADIUS_KM = 6371.0
# half a great circle, pi*R: the largest value `haversine_km` and `km_row`
# give, and what they give for a point and its exact antipode
LONGEST_KM = 2.0 * EARTH_RADIUS_KM * math.asin(1.0)
_CATALOG_FIELDS = field_sets(["regions"], [])
_REGION_FIELDS = field_sets(["id", "probe_host", "lat", "lon"], [])


class _CoordinateFields(NamedTuple):
    lat: float
    lon: float


class Coordinate(Checked, _CoordinateFields):
    """Position in decimal degrees, lat in [-90, 90], lon in [-180, 180]."""

    __slots__ = ()

    def __new__(cls, lat: float, lon: float):
        if not (math.isfinite(lat) and math.isfinite(lon)):
            raise ValueError(f"coordinate must be finite, got ({lat}, {lon})")
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {lat}")
        if not -180.0 <= lon <= 180.0:
            raise ValueError(f"longitude out of range [-180, 180]: {lon}")
        return tuple.__new__(cls, (lat, lon))


class _RegionFields(NamedTuple):
    id: str
    probe_host: str
    location: Coordinate


class Region(Checked, _RegionFields):
    """A candidate orchestrator location."""

    __slots__ = ()

    def __new__(cls, id: str, probe_host: str, location: Coordinate):
        if not id:
            raise ValueError("region id must be non-empty")
        if not probe_host:
            raise ValueError(f"region '{id}': probe_host must be non-empty")
        return tuple.__new__(cls, (id, probe_host, location))


class _RegionCatalogFields(NamedTuple):
    regions: tuple[Region, ...]


class RegionCatalog(Checked, _RegionCatalogFields):
    __slots__ = ()

    def __new__(cls, regions: tuple[Region, ...]):
        if not regions:
            raise CatalogError("region catalog is empty")
        seen = set()
        for region in regions:
            if region.id in seen:
                raise CatalogError(f"duplicate region id: {region.id}")
            seen.add(region.id)
        return tuple.__new__(cls, (regions,))

    def by_id(self, region_id: str) -> Region:
        for region in self.regions:
            if region.id == region_id:
                return region
        raise KeyError(region_id)


class LocationTable:
    """Hostname -> coordinate lookup used to geolocate endpoints. Its fields
    are read-only; `_located` is a memo, endpoint -> coordinate, that
    `locate` fills."""

    __slots__ = ("entries", "_located")

    def __init__(self, entries: Mapping[str, Coordinate]):
        normalized = {}
        for host, coord in entries.items():
            if not host:
                raise ValueError("location table hostnames must be non-empty")
            normalized[host.lower()] = coord
        object.__setattr__(self, "entries", normalized)
        object.__setattr__(self, "_located", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def locate(self, endpoint: str) -> Coordinate:
        """Geolocate an endpoint. An endpoint string found in the table is
        parsed only the first time; concurrent first lookups may both parse
        it and store the same coordinate."""
        coord = self._located.get(endpoint)
        if coord is not None:
            return coord
        host = host_of(endpoint)
        coord = self.entries.get(host)
        if coord is not None:
            self._located[endpoint] = coord
            return coord
        raise UnknownLocationError(f"no known location for host '{host}'")


Point = tuple[float, float, float]

# from this |a - b|**2 of unit vectors on (about 174.3 degrees), `km_row`
# measures from the antipode
_NEAR_ANTIPODE = 3.99


def prepare_point(c: Coordinate) -> Point:
    """The unit vector (cos(lat)cos(lon), cos(lat)sin(lon), sin(lat)) of a
    coordinate: what `km_row` needs of it."""
    lat, lon = math.radians(c.lat), math.radians(c.lon)
    cos_lat = math.cos(lat)
    return (cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat))


def km_row(points: Sequence[Point], hub: Coordinate) -> list[float]:
    """The great-circle distance, on a sphere of mean Earth radius 6371.0 km,
    from every prepared point to the hub: the package's one kilometre kernel,
    2R*asin(|a - b| / 2) of the unit vectors. Near the antipode, where that
    asin is ill-conditioned, it gives LONGEST_KM - 2R*asin(|a + b| / 2), so
    no asin argument exceeds 1 and no distance exceeds LONGEST_KM. The
    expression gives the same bits with the point and the hub swapped."""
    hx, hy, hz = prepare_point(hub)
    asin, sqrt = math.asin, math.sqrt
    diameter = 2.0 * EARTH_RADIUS_KM
    kms = []
    for x, y, z in points:
        dx, dy, dz = x - hx, y - hy, z - hz
        h = dx * dx + dy * dy + dz * dz  # squares as products: `**` goes through pow
        if h < _NEAR_ANTIPODE:
            kms.append(diameter * asin(sqrt(h) / 2.0))
        else:
            sx, sy, sz = x + hx, y + hy, z + hz
            kms.append(LONGEST_KM - diameter * asin(sqrt(sx * sx + sy * sy + sz * sz) / 2.0))
    return kms


def haversine_km(a: Coordinate, b: Coordinate) -> float:
    """The great-circle distance between two coordinates: `km_row` for one
    point (named for the haversine formula the kernel once used)."""
    return km_row([prepare_point(a)], b)[0]


# a host `host_of` splits itself; any other character goes to `urlparse`
_HOST_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-")
_PORT_CHARS = frozenset("0123456789")


def host_of(endpoint: str) -> str:
    """Extract the hostname from a bare host, host:port, or URL. A plain
    endpoint, `[scheme://]host[:port][/...]` with an ASCII-letter scheme, a
    host of ASCII letters, digits, '.' and '-' and a digit port, is split
    here; `urlparse`, which gives the same host for it, reads any other."""
    endpoint = endpoint.strip()
    scheme, url, rest = endpoint.partition("://")
    host, _, port = (rest if url else endpoint).partition("/")[0].partition(":")
    if (host and _HOST_CHARS.issuperset(host) and _PORT_CHARS.issuperset(port)
            and (not url or (scheme.isascii() and scheme.isalpha()))):
        return host.lower()
    parsed = urlparse(endpoint if url else f"//{endpoint}")
    if not parsed.hostname:
        raise UnknownLocationError(f"cannot extract a host from endpoint {endpoint!r}")
    return parsed.hostname


def resolve_location(endpoint: str, table: LocationTable) -> Coordinate:
    """Geolocate an endpoint via the table."""
    return table.locate(endpoint)


def load_region_catalog(document: str) -> RegionCatalog:
    """Parse a catalog document: {"regions": [{"id", "probe_host", "lat", "lon"}]}."""
    data = load_document(document, "region catalog")
    check_fields(data, _CATALOG_FIELDS, "catalog")
    raw = data["regions"]
    if not isinstance(raw, list):
        raise CatalogError("catalog 'regions' must be a list")
    regions = []
    for i, entry in enumerate(raw):
        ctx = f"regions[{i}]"
        check_fields(entry, _REGION_FIELDS, ctx)
        try:
            regions.append(
                Region(
                    id=as_string(entry["id"], f"{ctx}.id"),
                    probe_host=as_string(entry["probe_host"], f"{ctx}.probe_host"),
                    location=Coordinate(
                        as_number(entry["lat"], f"{ctx}.lat"),
                        as_number(entry["lon"], f"{ctx}.lon"),
                    ),
                )
            )
        except ValueError as exc:
            raise CatalogError(f"{ctx}: {exc}") from exc
    return RegionCatalog(tuple(regions))


def bundled_text(name: str) -> str:
    """The text of a file in the package's `data` directory."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


def default_region_catalog() -> RegionCatalog:
    """The bundled 8-region catalog."""
    return load_region_catalog(bundled_text("regions.default"))


def build_location_table(*sources: Iterable[tuple[str, Coordinate]]) -> LocationTable:
    """Merge (endpoint, coordinate) streams, keyed by `host_of(endpoint)` as
    `resolve_location` looks them up. A host placed at two coordinates is a
    `SpecValidationError` naming it and both endpoints. Each endpoint is
    parsed once, and the table starts out knowing where every merged
    endpoint is, so `locate` parses none of them again."""
    merged: dict[str, Coordinate] = {}
    hosts: dict[str, str] = {}
    for source in sources:
        for endpoint, coord in source:
            host = hosts.get(endpoint)
            if host is None:
                host = hosts[endpoint] = host_of(endpoint)
            known = merged.setdefault(host, coord)
            if known != coord:
                first = next(e for e, h in hosts.items() if h == host)
                raise SpecValidationError(
                    f"host '{host}' is placed at two coordinates: endpoint {first!r} at "
                    f"({known.lat}, {known.lon}) and endpoint {endpoint!r} at "
                    f"({coord.lat}, {coord.lon})"
                )
    table = LocationTable(merged)
    table._located.update((endpoint, merged[host]) for endpoint, host in hosts.items())
    return table
