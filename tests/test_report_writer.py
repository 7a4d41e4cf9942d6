"""The JSON report is written entry by entry, yet to the byte as one
`json.dumps(indent=2)` of the report as a dict writes it
(`helpers.dict_report_json`)."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudforecast.candidates import Metric
from cloudforecast.geo import default_region_catalog
from cloudforecast.measurement import (
    MeasurementStore,
    SyntheticNetworkModel,
    location_index,
    synthetic_providers,
)
from cloudforecast.scoring import (
    GraphScore,
    RankingEntry,
    RankingReport,
    ScoringConfig,
    rank_regions,
    render_report,
)
from helpers import dict_report_json

# ids whose JSON strings need escapes: a quote, a backslash, control
# characters, non-ASCII text, a line separator and a lone surrogate
ESCAPED = ['say "hi"', "back\\slash", "nul\x00 tab\t bell\x07 del\x7f", "café", "東京",
           "line\u2028sep", "lone\ud800"]
IDS = st.text() | st.sampled_from(ESCAPED)
FLOATS = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])
SCORES = st.none() | st.builds(GraphScore, IDS, st.sampled_from(Metric), FLOATS,
                               st.integers(0, 2**40))
ENTRIES = st.builds(RankingEntry, IDS, FLOATS, st.booleans(), st.integers(1, 10**6),
                    SCORES, SCORES, SCORES)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)
REPORTS = st.builds(
    RankingReport, st.text(), st.lists(ENTRIES, max_size=5).map(tuple),
    st.dictionaries(st.text(), st.none() | st.integers() | FLOATS, max_size=4),
    st.dictionaries(st.text(), VALUES, max_size=4), st.none() | FLOATS)


# every case the formatter branches on, in one report
EDGE_CASES = RankingReport(
    workflow='flow "x"\n',
    entries=tuple(
        RankingEntry(region, final, shortlisted, rank, GraphScore(region, Metric.DISTANCE, final),
                     None if rank % 2 else GraphScore(region, Metric.PING, math.inf, 3),
                     None if rank % 3 else GraphScore(region, Metric.HTTP_RTT, math.nan))
        for rank, (region, final, shortlisted) in enumerate(
            zip(ESCAPED, [math.inf, math.nan, -0.0, 1e308, 5e-324, 2.5, 0.1],
                [True, True, False, True, False, False, True]), 1)),
    config={"shortlist_n": None, "weight_ping": 1, "weight_http": 0.5, "failure_penalty": 1e8},
    provenance={"metrics": ["distance", "ping"], "note": "é\x00", "nested": {"a": [None]}},
    generated_at=None,
)


@settings(max_examples=150, deadline=None)
@given(REPORTS)
@example(EDGE_CASES)
@example(EDGE_CASES._replace(entries=()))
@example(EDGE_CASES._replace(config={"shortlist_n": 16}, generated_at=1.7e9))
def test_the_json_report_is_the_dict_dump_to_the_byte(report):
    assert render_report(report, "json") == dict_report_json(report)


def test_a_ranking_renders_as_its_dict_dump(fig1_spec):
    catalog = default_region_catalog()
    providers = synthetic_providers(SyntheticNetworkModel(), location_index(fig1_spec, catalog))
    full = rank_regions(fig1_spec, catalog, MeasurementStore(), providers, ScoringConfig())
    short = rank_regions(fig1_spec, catalog, MeasurementStore(), providers,
                         ScoringConfig(shortlist_n=3))
    assert short.entries[-1].ping_score is None
    for report in (full, short):
        assert render_report(report, "json") == dict_report_json(report)
