"""Measurement cache records that `MeasurementStore.load` accepts, with the
odd values a line writer must get right: ASCII and non-ASCII texts (escapes,
control characters, a character outside the BMP, a lone surrogate), int and
float values, a failed record whose value is NaN, a null note and a record
without a note. Notes that are equal as dict keys but written differently
(`1`, `1.0` and `true`; `0`, `-0.0` and `false`) and successful values `0.0`
and `-0.0` each have a record of their own, so a loader that shares equal
values rather than equal strings reads some of them back wrong. A bool
`samples` is refused
(`tests/test_measurement.py::POISONED`). Every `taken_at` lies centuries
ahead, so no record expires. `tests/test_store_tables.py` draws from these
records, and `tools/compare_outputs.py` saves them in two trees. Standard
library only, so the tool can import it without a tree's package on the
path."""

import json
import math

# 2100-01-01T00:00:00Z
_AHEAD = 4102444800

CACHE_CORPUS = [
    {"dst": "probe.us-east-1.example", "metric": "ping", "note": "synthetic", "samples": 5,
     "src": "a.example.org", "success": True, "taken_at": _AHEAD + 0.25, "unit": "ms",
     "value": 12.5},
    {"dst": "probe.us-east-1.example", "metric": "http_rtt", "note": "", "samples": 1,
     "src": "a.example.org", "success": True, "taken_at": _AHEAD, "unit": "ms", "value": 3},
    {"dst": "東京.example.jp", "metric": "ping", "src": "zürich.example.ch",
     "note": 'café "quoted" \\ tab\t newline\n bell\x07 snowman ☃ rocket \U0001f680  ',
     "samples": 2, "success": True, "taken_at": 1.0e12, "unit": "ms", "value": 0.1},
    {"dst": "zürich.example.ch", "metric": "http_rtt", "note": "icmp/timeout", "samples": 3,
     "src": "b.example.org", "success": False, "taken_at": _AHEAD + 1.5, "unit": "ms",
     "value": math.nan},
    {"dst": "c.example.org", "metric": "ping", "note": None, "samples": 1,
     "src": "b.example.org", "success": True, "taken_at": 32503680000, "unit": "ms",
     "value": 1e-07},
    {"dst": "c.example.org", "metric": "http_rtt", "note": "lone \ud800 surrogate",
     "samples": 1, "src": "b.example.org", "success": False, "taken_at": _AHEAD,
     "unit": "ms", "value": -0.0},
    {"dst": "d.example.org", "metric": "distance", "samples": 1, "src": "c.example.org",
     "success": True, "taken_at": _AHEAD + 1e-06, "unit": "km",
     "value": 20015.086796020572},
    {"dst": "d.example.org", "metric": "ping", "note": "an int value", "samples": 7,
     "src": "c.example.org", "success": True, "taken_at": 1.0e16, "unit": "ms",
     "value": 10**20},
    {"dst": "e.example.org", "metric": "http_rtt", "note": "tcp/refused", "samples": 4,
     "src": "d.example.org", "success": False, "taken_at": _AHEAD, "unit": "ms",
     "value": -math.inf},
    {"dst": "e.example.org", "metric": "ping", "note": "exponent", "samples": 2,
     "src": "d.example.org", "success": True, "taken_at": _AHEAD, "unit": "ms",
     "value": 1e22},
    {"dst": "g.example.org", "metric": "ping", "note": 1, "samples": 1, "src": "f.example.org",
     "success": True, "taken_at": _AHEAD + 2.0, "unit": "ms", "value": 0.0},
    {"dst": "g.example.org", "metric": "http_rtt", "note": 1.0, "samples": 1,
     "src": "f.example.org", "success": True, "taken_at": _AHEAD + 2.0, "unit": "ms",
     "value": -0.0},
    {"dst": "g.example.org", "metric": "distance", "note": True, "samples": 1,
     "src": "f.example.org", "success": True, "taken_at": _AHEAD + 2.0, "unit": "km",
     "value": 1.0},
    {"dst": "h.example.org", "metric": "ping", "note": 0, "samples": 1, "src": "g.example.org",
     "success": True, "taken_at": _AHEAD + 2.0, "unit": "ms", "value": -0.0},
    {"dst": "h.example.org", "metric": "http_rtt", "note": -0.0, "samples": 1,
     "src": "g.example.org", "success": True, "taken_at": _AHEAD + 2.0, "unit": "ms",
     "value": 0.0},
    {"dst": "h.example.org", "metric": "distance", "note": False, "samples": 1,
     "src": "g.example.org", "success": True, "taken_at": _AHEAD + 2.0, "unit": "km",
     "value": 0},
]


def corpus_text() -> str:
    """The corpus as a cache file: one JSON record per line, in corpus order."""
    return "".join(json.dumps(record) + "\n" for record in CACHE_CORPUS)
