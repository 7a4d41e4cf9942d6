"""Independent reference for the synthetic ranking and the simulated executor.

Nothing here imports cloudforecast. Distances use the vector (atan2) form of
the great-circle central angle instead of the package's haversine, on the
same sphere of mean Earth radius 6371.0 km. Latencies apply the published
formulas of the synthetic network model:

    ping_ms = base_latency_ms + ms_per_100km * km / 100
    http_ms = ping_ms + http_overhead_ms

A region's metric sum runs over both legs (src -> hub, hub -> dst) of every
workflow edge, and its final score is weight_ping * ping + weight_http * http.
The n distance-closest regions are shortlisted and ranked by final score; the
rest follow by distance sum. Ties break on region id.
"""

import math

EARTH_RADIUS_KM = 6371.0

# Scores are sums of a few hundred floats computed with a different formula,
# so they agree to ~1e-13 relative; 1e-9 leaves room and still catches any
# real change of model, weight or edge set.
REL_TOL = 1e-9

MODEL = {"base_latency_ms": 5.0, "ms_per_100km": 1.0, "http_overhead_ms": 20.0}
WEIGHTS = {"ping": 1.0, "http": 1.0}


class OracleMismatch(Exception):
    """The program's output disagrees with the reference."""


def great_circle_km(a, b):
    """Central angle via atan2(|u x v|, u . v) of the two unit vectors."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    u = (math.cos(lat1) * math.cos(lon1), math.cos(lat1) * math.sin(lon1), math.sin(lat1))
    v = (math.cos(lat2) * math.cos(lon2), math.cos(lat2) * math.sin(lon2), math.sin(lat2))
    cross = (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return EARTH_RADIUS_KM * math.atan2(math.sqrt(sum(c * c for c in cross)), dot)


def ping_ms(km):
    return MODEL["base_latency_ms"] + MODEL["ms_per_100km"] * (km / 100.0)


def http_ms(km):
    return ping_ms(km) + MODEL["http_overhead_ms"]


def close(a, b, rel=REL_TOL):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + rel


def expected_ranking(workflow, regions, shortlist_n=None):
    """Reference ranking for a workflow document (dict) over regions.

    `regions` is a list of {"id", "lat", "lon"}. Returns
    {"order": [ids], "shortlisted": set, "scores": {id: {...}}}.
    """
    coord = {n["id"]: (n["location"]["lat"], n["location"]["lon"]) for n in workflow["nodes"]}
    scores = {}
    for region in regions:
        hub = (region["lat"], region["lon"])
        km = ping = http = 0.0
        for edge in workflow["edges"]:
            for leg in (great_circle_km(coord[edge["from"]], hub),
                        great_circle_km(hub, coord[edge["to"]])):
                km += leg
                ping += ping_ms(leg)
                http += http_ms(leg)
        scores[region["id"]] = {
            "distance": km,
            "ping": ping,
            "http": http,
            "final": WEIGHTS["ping"] * ping + WEIGHTS["http"] * http,
        }
    n = len(regions) if shortlist_n is None else min(shortlist_n, len(regions))
    by_distance = sorted(scores, key=lambda r: (scores[r]["distance"], r))
    shortlisted = by_distance[:n]
    order = sorted(shortlisted, key=lambda r: (scores[r]["final"], r)) + by_distance[n:]
    return {"order": order, "shortlisted": set(shortlisted), "scores": scores}


def _check_order(ids, key, what):
    for a, b in zip(ids, ids[1:]):
        ka, kb = key(a), key(b)
        if ka > kb and not close(ka, kb):
            raise OracleMismatch(f"{what}: {a} ({ka!r}) ranked before {b} ({kb!r})")


def check_ranked(entries, expected):
    """Check (region, final_score, shortlisted) rows in program order.

    Scores must match within REL_TOL. Rank order and shortlist membership
    may differ from the reference only between scores that tie within it.
    """
    scores = expected["scores"]
    ids = [region for region, _, _ in entries]
    if sorted(ids) != sorted(scores):
        raise OracleMismatch(f"regions differ: got {sorted(ids)}, expected {sorted(scores)}")
    short = [r for r, _, s in entries if s]
    rest = [r for r, _, s in entries if not s]
    if ids != short + rest:
        raise OracleMismatch("shortlisted regions are not ranked first")
    if len(short) != len(expected["shortlisted"]):
        raise OracleMismatch(f"shortlist has {len(short)} regions, expected {len(expected['shortlisted'])}")
    if short and rest:
        worst = max(short, key=lambda r: scores[r]["distance"])
        best = min(rest, key=lambda r: scores[r]["distance"])
        if not (scores[worst]["distance"] <= scores[best]["distance"]
                or close(scores[worst]["distance"], scores[best]["distance"])):
            raise OracleMismatch(f"shortlist holds {worst} but not the closer {best}")
    for region, final, shortlisted in entries:
        want = scores[region]["final"] if shortlisted else scores[region]["distance"]
        if not close(final, want):
            raise OracleMismatch(f"{region}: score {final!r}, expected {want!r}")
    _check_order(short, lambda r: scores[r]["final"], "shortlist order")
    _check_order(rest, lambda r: scores[r]["distance"], "remainder order")


def check_report_json(doc, expected):
    """Check a `render_report(..., "json")` document against the reference."""
    entries = doc["entries"]
    if [e["rank"] for e in entries] != list(range(1, len(entries) + 1)):
        raise OracleMismatch("ranks are not 1..n")
    scores = expected["scores"]
    for e in entries:
        want = scores.get(e["region"])
        if want is None:
            continue  # check_ranked reports the unknown region
        parts = [("distance_score", "distance")]
        if e["shortlisted"]:
            parts += [("ping_score", "ping"), ("http_score", "http")]
        for field, metric in parts:
            score = e[field]
            if score is None or score["failed_edges"] or not close(score["value"], want[metric]):
                raise OracleMismatch(f"{e['region']} {metric}: got {score}, expected {want[metric]!r}")
    check_ranked([(e["region"], e["final_score"], e["shortlisted"]) for e in entries], expected)


def check_table(text, expected, decimals=3):
    """Check the default `analyze` table, whose scores carry `decimals` places."""
    rows = []
    for line in text.splitlines()[3:]:
        rank, region, score, shortlisted = line.split()
        rows.append((int(rank), region, float(score), shortlisted == "true"))
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        raise OracleMismatch("table ranks are not 1..n")
    half_unit = 0.5 * 10.0 ** -decimals
    reference = {}
    for _, region, score, shortlisted in rows:
        want = expected["scores"].get(region, {}).get("final" if shortlisted else "distance")
        if want is not None and abs(score - want) > half_unit + REL_TOL * abs(want):
            raise OracleMismatch(f"{region}: table score {score}, expected {want!r}")
        reference[region] = want
    # printed scores are rounded, so order is checked on the reference values
    check_ranked([(region, reference[region], s) for _, region, _, s in rows], expected)


def simulated_makespan(workflow, vantage):
    """Reference executor: a node starts once every input has arrived through
    the vantage; each edge costs ping(src, vantage) + ping(vantage, dst)."""
    nodes = {n["id"]: n for n in workflow["nodes"]}
    coord = {nid: (n["location"]["lat"], n["location"]["lon"]) for nid, n in nodes.items()}
    parents = {nid: [] for nid in nodes}
    for edge in workflow["edges"]:
        parents[edge["to"]].append(edge["from"])
    finish = {}

    def done(nid):
        # iterative: a generated chain can be deeper than the recursion limit
        stack = [nid]
        while stack:
            top = stack[-1]
            pending = [p for p in parents[top] if p not in finish]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if top in finish:
                continue
            service = nodes[top].get("service_time_ms", 0.0)
            arrival = max(
                (finish[p] + ping_ms(great_circle_km(coord[p], vantage))
                 + ping_ms(great_circle_km(vantage, coord[top])) for p in parents[top]),
                default=0.0,
            )
            finish[top] = service + arrival
        return finish[nid]

    return max((done(nid) for nid in nodes), default=0.0)


def check_makespan(got, want, what):
    if not close(got, want):
        raise OracleMismatch(f"{what}: makespan {got!r}, expected {want!r}")
