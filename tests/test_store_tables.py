"""The store's per-metric tables seen from outside: a warm ranking over a
loaded cache equals the cold one, `load` checks a record with or without its
optional `note` alike, `save` writes each line as `json.dumps` would, and a
ranking builds each region's pairs at most once for all per-pair metrics,
only for the regions such a metric scores, and not at all when the store
answers a synthetic ranking nothing."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import scoring
from cloudforecast.candidates import Metric
from cloudforecast.errors import DocumentFormatError
from cloudforecast.measurement import (
    Measurement,
    MeasurementStore,
    UNIT_BY_METRIC,
    SyntheticNetworkModel,
    location_index,
    synthetic_providers,
)
from cloudforecast.scoring import ScoringConfig, rank_regions
from cloudforecast.workflow import WorkflowSpec
from cache_corpus import CACHE_CORPUS, corpus_text
from helpers import SUBSETS, json_dumps_line, synthetic_inputs


def _scores(report):
    """Each entry's region, rank and every score, as exact float hex."""
    def hx(score):
        return None if score is None else (score.value.hex(), score.failed_edges)

    return [(e.rank, e.region, e.final_score.hex(), e.shortlisted,
             hx(e.distance_score), hx(e.ping_score), hx(e.http_score)) for e in report.entries]


class Refusing:
    """Provider that records every pair it is asked for and measures nothing."""

    def __init__(self, calls):
        self.calls = calls

    def __call__(self, pair):
        self.calls.append(pair)
        raise AssertionError(f"a warm ranking measured {pair}")


# -- warm equals cold ---------------------------------------------------------------

@given(
    inputs=synthetic_inputs(),
    subset=st.sampled_from(sorted(SUBSETS)),
    shortlist_n=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_a_warm_ranking_over_the_saved_cache_equals_the_cold_one(inputs, subset,
                                                                  shortlist_n, data):
    spec, catalog = inputs
    metrics = SUBSETS[subset]
    config = ScoringConfig(shortlist_n=shortlist_n)
    cold_store = MeasurementStore()
    synthetic = synthetic_providers(SyntheticNetworkModel(), location_index(spec, catalog))
    providers = {metric: p for metric, p in synthetic.items() if metric in metrics}
    cold = rank_regions(spec, catalog, cold_store, providers, config)
    calls = []
    refusing = {metric: Refusing(calls) for metric in providers}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probes.cache")
        cold_store.save(path)
        saved = os.stat(path).st_mtime_ns

        def warm(s):
            store = MeasurementStore.load(path)
            return store, rank_regions(s, catalog, store, refusing, config)

        warm_store, report = warm(spec)
        assert calls == []
        assert _scores(report) == _scores(cold)
        assert report.provenance == cold.provenance
        warm_store.save(path)
        assert os.stat(path).st_mtime_ns == saved

        permuted = WorkflowSpec(name=spec.name, nodes=spec.nodes,
                                edges=tuple(data.draw(st.permutations(spec.edges))))
        _, again = warm(permuted)
    assert calls == []
    assert [(e.region, e.shortlisted) for e in again.entries] == \
        [(e.region, e.shortlisted) for e in report.entries]
    for a, b in zip(report.entries, again.entries):
        for x, y in ((a.final_score, b.final_score),
                     *((s.value, t.value) for s, t in
                       ((a.distance_score, b.distance_score), (a.ping_score, b.ping_score),
                        (a.http_score, b.http_score)) if s is not None)):
            assert y == pytest.approx(x, rel=1e-9, abs=1e-9)  # summed in another order


# -- the pairs of a region are built at most once -----------------------------------

@pytest.mark.parametrize("shortlist_n", [None, 3])
@pytest.mark.parametrize("subset", sorted(SUBSETS))
def test_a_ranking_builds_each_regions_pairs_at_most_once(fig1_spec, catalog, monkeypatch,
                                                          subset, shortlist_n):
    built = []
    weighted_pairs = scoring.weighted_pairs
    monkeypatch.setattr(scoring, "weighted_pairs",
                        lambda legs, hub: built.append(hub) or weighted_pairs(legs, hub))
    synthetic = synthetic_providers(SyntheticNetworkModel(), location_index(fig1_spec, catalog))
    providers = {metric: p for metric, p in synthetic.items() if metric in SUBSETS[subset]}
    per_pair = {metric: (lambda pair, p=p: p(pair)) for metric, p in providers.items()}
    config = ScoringConfig(shortlist_n=shortlist_n)
    store = MeasurementStore()
    # a fresh store answers a synthetic ranking nothing: no pair is built
    rank_regions(fig1_spec, catalog, store, providers, config)
    assert built == []
    # a store that answers (the records just stored), or per-pair providers:
    # at most once, and only for the regions a per-pair metric scores
    for store, chosen in ((store, providers), (MeasurementStore(), per_pair)):
        built.clear()
        report = rank_regions(fig1_spec, catalog, store, chosen, config)
        scored = [catalog.by_id(e.region).probe_host for e in report.entries
                  if e.shortlisted and providers]
        assert sorted(built) == sorted(scored)
    for metric, attr in ((Metric.PING, "ping_score"), (Metric.HTTP_RTT, "http_score")):
        scored = sum(getattr(e, attr) is not None for e in report.entries)
        assert scored == ((shortlist_n or len(catalog.regions)) if metric in providers else 0)


# -- the records of `load` ---------------------------------------------------------------

RECORD = {"dst": "b", "metric": "ping", "note": "fixture", "samples": 1, "src": "a",
          "success": True, "taken_at": 1.0e12, "unit": "ms", "value": 2.0}


def _load_one(tmp_path, record, **kwargs):
    path = tmp_path / "probes.cache"
    path.write_text(json.dumps(record) + "\n")
    return path, MeasurementStore.load(str(path), **kwargs)


@pytest.mark.parametrize(
    "record, message",
    [
        ({**{k: v for k, v in RECORD.items() if k != "note"}, "notes": ""},
         "unknown field(s): notes"),
        ({**RECORD, "metric": "warp"}, "'warp' is not a valid Metric"),
        ({**RECORD, "src": 7}, "src must be a string, got 7"),
        ({**RECORD, "dst": ["b"]}, "dst must be a string, got ['b']"),
        ({**RECORD, "src": 1, "dst": 2}, "src must be a string, got 1"),
        ({k: v for k, v in {**RECORD, "src": None}.items() if k != "note"},
         "src must be a string, got None"),
    ],
    ids=["misspelled-note", "unknown-metric", "int-src", "list-dst", "int-pair",
         "null-src-without-note"],
)
def test_a_bad_cache_record_names_file_and_line(tmp_path, record, message):
    with pytest.raises(DocumentFormatError) as info:
        _load_one(tmp_path, record)
    assert str(info.value) == f"{tmp_path / 'probes.cache'}:1: {message}"


def test_a_record_without_note_loads_with_an_empty_note(tmp_path):
    record = {k: v for k, v in {**RECORD, "src": "z"}.items() if k != "note"}
    _, store = _load_one(tmp_path, record)
    loaded = store.get(("b", "z"), Metric.PING)
    assert loaded is store.get(("z", "b"), Metric.PING)
    assert loaded == Measurement("z", "b", Metric.PING, 2.0, "ms", 1, True, 1.0e12, "")
    assert loaded.metric is Metric.PING


def test_putting_nothing_keeps_a_loaded_store_in_sync_with_its_file(tmp_path, monkeypatch):
    path, store = _load_one(tmp_path, RECORD)
    store.put_many(())
    store.put_many(m for m in ())

    def refuse(*args):
        raise AssertionError("an unchanged store rewrote its file")

    monkeypatch.setattr("cloudforecast.measurement.os.replace", refuse)
    store.save(str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["probes.cache"]


def test_save_orders_records_by_pair_then_metric_across_the_tables(tmp_path):
    store = MeasurementStore()
    store.put_many([
        Measurement(src, dst, metric, 1.0, UNIT_BY_METRIC[metric], 1, True, 1.0e12)
        for metric in (Metric.PING, Metric.HTTP_RTT, Metric.DISTANCE)
        for src, dst in (("b", "a"), ("a", "b"), ("a", "c"))
    ] + [Measurement("c", "a", Metric.PING, 2.0, "ms", 1, True, 1.0e12)])
    path = tmp_path / "probes.cache"
    store.save(str(path))
    records = map(json.loads, path.read_text().splitlines())
    keys = [(r["src"], r["dst"], r["metric"]) for r in records]
    # both directions share a key; the later measurement wins and keeps its pair,
    # and records sort by key, so ping's ("c", "a") sits with the ("a", "c") records
    assert keys == [("a", "b", "distance"), ("a", "b", "http_rtt"), ("a", "b", "ping"),
                    ("a", "c", "distance"), ("a", "c", "http_rtt"), ("c", "a", "ping")]


# -- the lines of `save` ---------------------------------------------------------------

# a high surrogate followed by a low one is read back as one character, so
# drawn texts hold none; the corpus holds a lone one
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
AHEAD = 4102444800  # 2100-01-01: no drawn record expires


@st.composite
def accepted_records(draw):
    """A `Measurement` the store accepts, odd fields included: any JSON scalar
    as a failed value or note, and any `samples` >= 1."""
    success = draw(st.booleans())
    if success:
        value = draw(st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.just(-0.0),
                               st.integers(min_value=0, max_value=10**300), st.booleans()))
    else:
        value = draw(SCALARS)
    metric = draw(st.sampled_from(Metric))
    return Measurement(
        src=draw(st.text(max_size=8)), dst=draw(st.text(max_size=8)),
        metric=metric, value=value, unit=UNIT_BY_METRIC[metric],
        samples=draw(st.integers(min_value=1)),
        success=success,
        taken_at=draw(st.one_of(st.floats(min_value=AHEAD, max_value=1e300),
                                st.integers(min_value=AHEAD, max_value=10**300))),
        note=draw(SCALARS),
    )


CORPUS_RECORDS = [Measurement(**{"note": "", **record, "metric": Metric(record["metric"])})
                  for record in CACHE_CORPUS]


def _store_key(m):
    return (min(m.src, m.dst), max(m.src, m.dst), m.metric.value)


@given(st.lists(st.one_of(accepted_records(), st.sampled_from(CORPUS_RECORDS)),
                max_size=6, unique_by=_store_key))
@settings(max_examples=300, deadline=None)
def test_saved_lines_are_json_dumps_of_each_record_and_load_back_equal(records):
    store = MeasurementStore()
    store.put_many(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "probes.cache")
        store.save(path)
        with open(path) as fh:
            text = fh.read()
        loaded = MeasurementStore.load(path)
    ordered = sorted(records, key=_store_key)
    assert text == "".join(json_dumps_line(m) + "\n" for m in ordered)
    assert len(loaded) == len(records)
    for m in records:
        # repr tells 1 from 1.0 and True, and shows every nan alike
        assert list(map(repr, loaded.get((m.src, m.dst), m.metric))) == list(map(repr, m))


def test_the_corpus_file_loads_to_its_records_and_saves_as_json_dumps(tmp_path):
    corpus, saved = tmp_path / "corpus.cache", tmp_path / "saved.cache"
    corpus.write_text(corpus_text())
    loaded = MeasurementStore.load(str(corpus))
    assert len(loaded) == len(CORPUS_RECORDS)
    for m in CORPUS_RECORDS:
        # repr tells 1 from 1.0 and True, and -0.0 from 0.0
        assert list(map(repr, loaded.get((m.src, m.dst), m.metric, now=m.taken_at))) == list(
            map(repr, m))
    loaded.save(str(saved))
    assert saved.read_text() == "".join(json_dumps_line(m) + "\n"
                                        for m in sorted(CORPUS_RECORDS, key=_store_key))


# subclasses whose own repr must not reach the file: `json.dumps` writes the
# base type's form
class _Float(float):
    def __repr__(self):
        return "_Float"


class _Int(int):
    def __repr__(self):
        return "_Int"


class _Str(str):
    pass


def test_subclass_values_are_saved_as_json_dumps_writes_them(tmp_path):
    m = Measurement(_Str("a\u00e9"), "b", Metric.PING, _Float(2.5), _Str("ms"), _Int(3), True,
                    _Float(AHEAD), _Str("n\n"))
    store = MeasurementStore()
    store.put_many([m])
    path = tmp_path / "probes.cache"
    store.save(str(path))
    assert path.read_text() == json_dumps_line(m) + "\n"
