"""Coordinates, great-circle distance, endpoint geolocation and the region catalog."""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping
from urllib.parse import urlparse

from .errors import CatalogError, UnknownLocationError
from .jsondoc import as_number, as_string, check_fields, load_document

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class Coordinate:
    """Position in decimal degrees, lat in [-90, 90], lon in [-180, 180]."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"coordinate must be finite, got ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range [-180, 180]: {self.lon}")


@dataclass(frozen=True)
class Region:
    """A candidate orchestrator location."""

    id: str
    probe_host: str
    location: Coordinate

    def __post_init__(self):
        if not self.id:
            raise ValueError("region id must be non-empty")
        if not self.probe_host:
            raise ValueError(f"region '{self.id}': probe_host must be non-empty")


@dataclass(frozen=True)
class RegionCatalog:
    regions: tuple[Region, ...]

    def __post_init__(self):
        if not self.regions:
            raise CatalogError("region catalog is empty")
        seen = set()
        for region in self.regions:
            if region.id in seen:
                raise CatalogError(f"duplicate region id: {region.id}")
            seen.add(region.id)

    def by_id(self, region_id: str) -> Region:
        for region in self.regions:
            if region.id == region_id:
                return region
        raise KeyError(region_id)

    @property
    def ids(self) -> list[str]:
        return [r.id for r in self.regions]


@dataclass(frozen=True)
class LocationTable:
    """Hostname -> coordinate lookup used to geolocate endpoints."""

    entries: Mapping[str, Coordinate]
    # endpoint -> coordinate, filled by `locate`
    _located: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        normalized = {}
        for host, coord in self.entries.items():
            if not host:
                raise ValueError("location table hostnames must be non-empty")
            normalized[host.lower()] = coord
        object.__setattr__(self, "entries", normalized)

    def get(self, host: str) -> Coordinate | None:
        return self.entries.get(host.lower())

    def locate(self, endpoint: str, fallback: Coordinate | None = None) -> Coordinate:
        """Geolocate an endpoint, falling back when allowed. An endpoint string
        found in the table is parsed only the first time; concurrent first
        lookups may both parse it and store the same coordinate."""
        coord = self._located.get(endpoint)
        if coord is not None:
            return coord
        host = host_of(endpoint)
        coord = self.get(host)
        if coord is not None:
            self._located[endpoint] = coord
            return coord
        if fallback is not None:
            return fallback
        raise UnknownLocationError(f"no known location for host '{host}'")


def haversine_km(a: Coordinate, b: Coordinate) -> float:
    """Great-circle distance on a sphere of mean Earth radius 6371.0 km."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(min(1.0, h)))


def host_of(endpoint: str) -> str:
    """Extract the hostname from a bare host, host:port, or URL."""
    endpoint = endpoint.strip()
    parsed = urlparse(endpoint if "://" in endpoint else f"//{endpoint}")
    if not parsed.hostname:
        raise UnknownLocationError(f"cannot extract a host from endpoint {endpoint!r}")
    return parsed.hostname


def resolve_location(
    endpoint: str,
    table: LocationTable,
    fallback: Coordinate | None = None,
) -> Coordinate:
    """Geolocate an endpoint via the table, falling back when allowed."""
    return table.locate(endpoint, fallback)


def load_region_catalog(document: str) -> RegionCatalog:
    """Parse a catalog document: {"regions": [{"id", "probe_host", "lat", "lon"}]}."""
    data = load_document(document, "region catalog")
    check_fields(data, ["regions"], [], "catalog")
    raw = data["regions"]
    if not isinstance(raw, list):
        raise CatalogError("catalog 'regions' must be a list")
    if not raw:
        raise CatalogError("region catalog is empty")
    regions = []
    for i, entry in enumerate(raw):
        ctx = f"regions[{i}]"
        check_fields(entry, ["id", "probe_host", "lat", "lon"], [], ctx)
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


def render_region_catalog(catalog: RegionCatalog) -> str:
    doc = {
        "regions": [
            {"id": r.id, "probe_host": r.probe_host, "lat": r.location.lat, "lon": r.location.lon}
            for r in catalog.regions
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def bundled_text(name: str) -> str:
    """The text of a file in the package's `data` directory."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return f.read()


def default_region_catalog() -> RegionCatalog:
    """The bundled 8-region catalog."""
    return load_region_catalog(bundled_text("regions.default"))


def build_location_table(*sources: Iterable[tuple[str, Coordinate]]) -> LocationTable:
    """Merge (endpoint, coordinate) streams, keyed by `host_of(endpoint)` as
    `resolve_location` looks them up; later sources win on conflict. Each
    endpoint is parsed once, and the table starts out knowing where every
    merged endpoint is, so `locate` parses none of them again."""
    merged: dict[str, Coordinate] = {}
    hosts: dict[str, str] = {}
    for source in sources:
        for endpoint, coord in source:
            host = hosts.get(endpoint)
            if host is None:
                host = hosts[endpoint] = host_of(endpoint)
            merged[host] = coord
    table = LocationTable(merged)
    table._located.update((endpoint, table.get(host)) for endpoint, host in hosts.items())
    return table
