"""Every malformed document of `malformed_documents.MALFORMED` is refused with
its exact message and error class, by its parser and through the CLI; a
document, config or cache file that is not UTF-8 is refused at its line, and
a UTF-8 one reads the same under any locale; and any one mutation of a
valid document of each kind the CLI reads exits 0 or 2 and never raises."""

import copy
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudforecast import cli
from cloudforecast.geo import load_region_catalog
from cloudforecast.workflow import WorkflowSpec, parse_node_pool, parse_workflow, validate_dag
from conftest import FIG1_DOC
from malformed_documents import COMMANDS, EMPTY_WORKFLOW, MALFORMED, WORKFLOW, document_text

PARSERS = {"workflow": parse_workflow, "pool": parse_node_pool, "catalog": load_region_catalog}
IDS = [case[0] for case in MALFORMED]


def _error(parse, document):
    with pytest.raises(Exception) as info:
        parse(document_text(document))
    return type(info.value).__name__, str(info.value)


@pytest.mark.parametrize("kind, document, error, message", [case[1:] for case in MALFORMED],
                         ids=IDS)
def test_a_malformed_document_gets_its_exact_error(kind, document, error, message):
    assert _error(PARSERS[kind], document) == (error, message)


def test_every_case_has_its_own_id():
    assert len(set(IDS)) == len(MALFORMED)


def _cli(kind, document, tmp_path, monkeypatch, capsys):
    """What the CLI command of `kind` does with the document in `bad.json`."""
    monkeypatch.chdir(tmp_path)
    for key in [k for k in os.environ if k.startswith("CLOUDFORECAST_")]:
        monkeypatch.delenv(key)
    (tmp_path / "bad.json").write_text(document_text(document))
    (tmp_path / "good.workflow").write_text(document_text(WORKFLOW))
    code = cli.main([a.format(path="bad.json", good="good.workflow") for a in COMMANDS[kind]])
    return (code, *capsys.readouterr())


@pytest.mark.parametrize("kind, document, message", [case[1:3] + case[4:] for case in MALFORMED],
                         ids=IDS)
def test_the_cli_names_the_file_and_exits_2(tmp_path, monkeypatch, capsys, kind, document,
                                            message):
    assert _cli(kind, document, tmp_path, monkeypatch, capsys) == (
        2, "", f"error: bad.json: {message}\n")


def test_an_empty_workflow_is_refused(tmp_path, monkeypatch, capsys):
    assert _error(parse_workflow, EMPTY_WORKFLOW) == ("SpecValidationError",
                                                      "workflow has no nodes")
    assert validate_dag(WorkflowSpec("empty")) == ["workflow has no nodes"]
    assert _cli("workflow", EMPTY_WORKFLOW, tmp_path, monkeypatch, capsys) == (
        2, "", "error: bad.json: workflow has no nodes\n")


# -- files are read and written as UTF-8 ------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
# a cache record that loads, one line of the file
CACHE_LINE = json.dumps({"dst": "b.example.org", "metric": "ping", "note": "", "samples": 1,
                         "src": "a.example.org", "success": True, "taken_at": 1.0e12,
                         "unit": "ms", "value": 2.5}) + "\n"


def _main(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for key in [k for k in os.environ if k.startswith("CLOUDFORECAST_")]:
        monkeypatch.delenv(key)
    return (cli.main(argv), *capsys.readouterr())


def test_a_workflow_that_is_not_utf8_is_refused_at_its_line(tmp_path, monkeypatch, capsys):
    text = json.dumps(json.loads(FIG1_DOC), indent=1)  # the name on line 2
    data = text.replace('"image-pipeline"', '"image-pipeline\udcff"').encode(
        "utf-8", "surrogateescape")
    (tmp_path / "bad.workflow").write_bytes(data)
    at = data.index(b"\xff")
    assert _main(["analyze", "-w", "bad.workflow"], tmp_path, monkeypatch, capsys) == (
        2, "", f"error: bad.workflow:2: not UTF-8: invalid start byte at byte {at}\n")


def test_a_config_that_is_not_utf8_is_refused_naming_it(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.json").write_bytes(b'{"seed": 7,\n "format": "js\xc3(on"}\n')
    (tmp_path / "fig1.workflow").write_text(FIG1_DOC, encoding="utf-8")
    assert _main(["analyze", "-w", "fig1.workflow", "--config", "bad.json"], tmp_path,
                 monkeypatch, capsys) == (
        2, "", "error: bad.json:2: not UTF-8: invalid continuation byte at byte 26\n")


def test_a_cache_that_is_not_utf8_is_refused_at_its_line(tmp_path, monkeypatch, capsys):
    # the bad byte lies past the first chunks a text file is decoded in
    good = CACHE_LINE * 300
    (tmp_path / "bad.cache").write_bytes(good.encode() + b'{"src": "\xe9"}\n' + CACHE_LINE.encode())
    (tmp_path / "fig1.workflow").write_text(FIG1_DOC, encoding="utf-8")
    at = len(good) + len('{"src": "')
    assert _main(["analyze", "-w", "fig1.workflow", "--cache", "bad.cache"], tmp_path,
                 monkeypatch, capsys) == (
        2, "", f"error: bad.cache:301: not UTF-8: invalid continuation byte at byte {at}\n")
    assert (tmp_path / "bad.cache").read_bytes().count(b"\n") == 302  # left as it was


# a workflow name as its document writes it, as a JSON report shows it and as
# every other output shows it: a lone surrogate, which UTF-8 cannot encode,
# is written as its escape
NAMES = {"non-ascii": ("café-東京", '"caf\\u00e9-\\u6771\\u4eac"', "café-東京"),
         "lone-surrogate": ("bad-\\ud800", '"bad-\\ud800"', "bad-\\ud800")}


@pytest.mark.parametrize("written, in_json, shown", NAMES.values(), ids=list(NAMES))
def test_a_workflow_is_read_and_a_report_written_as_utf8_under_any_locale(written, in_json,
                                                                          shown, tmp_path):
    named = FIG1_DOC.replace('"image-pipeline"', f'"{written}"')
    (tmp_path / "named.workflow").write_text(named, encoding="utf-8")
    (tmp_path / "workflows").mkdir()
    (tmp_path / "workflows" / "named.workflow").write_text(named, encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("CLOUDFORECAST_", "LC_", "LANG"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for utf8_mode in ("1", "0"):  # UTF-8 mode, then the C locale's ASCII
        locale = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8=utf8_mode)
        runs = []
        analyze = ["analyze", "-w", "named.workflow", "--no-timestamps"]
        for argv in (analyze + ["--format", "json"],
                     analyze + ["--out", f"report-{utf8_mode}.txt"],
                     analyze,
                     ["simulate", "-w", "named.workflow"],
                     ["experiment", "--workflow-dir", "workflows",
                      "--out-dir", f"out-{utf8_mode}"]):
            done = subprocess.run([sys.executable, "-m", "cloudforecast.cli", *argv],
                                  cwd=tmp_path, env=locale, capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, b""), argv
            runs.append(done.stdout)
        runs.append((tmp_path / f"report-{utf8_mode}.txt").read_bytes())
        runs.append((tmp_path / f"out-{utf8_mode}" / "experiment.csv").read_bytes())
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    json_out, _, table, simulated, experiment, report, csv = outputs[0]
    assert f'"workflow": {in_json}'.encode() in json_out
    for text in (table, simulated, experiment, report, csv):
        assert shown.encode() in text


# -- documents past the decoder's limits -------------------------------------------------

DEEP = "[" * 100_000 + "]" * 100_000  # far past the interpreter's recursion limit
LONG = "7" * 5000  # past its default limit on the digits of an integer (4,300)
# (file, its text, the flags that read it, the error): each file is read by
# its own decode site, and exits 2 naming the file, with the line of a cache
PAST_LIMITS = {
    "workflow-deep": ("bad.workflow", f'{{"name": {DEEP}}}', ["-w", "bad.workflow"],
                      "bad.workflow: invalid workflow: nested too deeply"),
    "workflow-digits": ("bad.workflow", f'{{"name": "w", "nodes": {LONG}}}',
                        ["-w", "bad.workflow"],
                        "bad.workflow: invalid workflow: an integer has too many digits"),
    "cache-deep": ("bad.cache", CACHE_LINE + f'{{"src": {DEEP}}}\n',
                   ["-w", "fig1.workflow", "--cache", "bad.cache"],
                   "bad.cache:2: not a JSON record: nested too deeply"),
    "cache-digits": ("bad.cache", CACHE_LINE + f'{{"samples": {LONG}}}\n',
                     ["-w", "fig1.workflow", "--cache", "bad.cache"],
                     "bad.cache:2: not a JSON record: an integer has too many digits"),
    "config-deep": ("bad.json", f'{{"seed": {DEEP}}}',
                    ["-w", "fig1.workflow", "--config", "bad.json"],
                    "bad.json: invalid config file: nested too deeply"),
    "config-digits": ("bad.json", f'{{"seed": {LONG}}}',
                      ["-w", "fig1.workflow", "--config", "bad.json"],
                      "bad.json: invalid config file: an integer has too many digits"),
}


@pytest.mark.parametrize("case", sorted(PAST_LIMITS))
def test_a_file_past_the_decoders_limits_is_refused_naming_it(case, tmp_path, monkeypatch,
                                                              capsys):
    name, text, flags, message = PAST_LIMITS[case]
    (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "fig1.workflow").write_text(FIG1_DOC, encoding="utf-8")
    assert _main(["analyze", *flags], tmp_path, monkeypatch, capsys) == (
        2, "", f"error: {message}\n")


# -- any mutation of a valid document exits 0 or 2 ---------------------------------------

# a valid seed of each kind the CLI reads. Each node's host is also a region's
# probe host at the node's position, so a node without a location is still
# placed, and nothing the config can set starts a probe or a server
SEED_WORKFLOW = {
    "name": "seed",
    "nodes": [{"id": "a", "endpoint": "a.example.org", "role": "source",
               "location": {"lat": 10.0, "lon": 20.0}, "service_time_ms": 5},
              {"id": "b", "endpoint": "http://b.example.org/x", "role": "service",
               "location": {"lat": -3.0, "lon": 4.0}, "service_time_ms": 1.5}],
    "edges": [{"from": "a", "to": "b", "payload_kb": 64}],
}
SEED_CATALOG = {"regions": [{"id": "r1", "probe_host": "a.example.org", "lat": 10.0, "lon": 20.0},
                            {"id": "r2", "probe_host": "b.example.org", "lat": -3.0, "lon": 4.0}]}
SEEDS = {
    "workflow": SEED_WORKFLOW,
    "catalog": SEED_CATALOG,
    "pool": {"nodes": SEED_WORKFLOW["nodes"]},
    "recipe": {"workflows": [{"pattern": "sequential", "nodes": 2, "seed": 1},
                             {"pattern": "mixed", "nodes": 3}]},
    "config": {"format": "json", "seed": 7, "shortlist_n": 1, "samples_per_pair": 2,
               "timeout_ms": 100.0, "base_latency_ms": 5.0, "metrics": "distance,ping"},
    # a cache is one record a line: a ping, an HTTP and a failed record of the seed's legs
    "cache": [json.loads(CACHE_LINE),
              dict(json.loads(CACHE_LINE), metric="http_rtt", note=None, samples=2, value=3),
              dict(json.loads(CACHE_LINE), src="b.example.org", success=False, value=0.0)],
}
# the command that reads the file "bad.json" as a document of each kind
READERS = {
    "workflow": ["analyze", "-w", "bad.json", "-r", "good.json"],
    "catalog": ["analyze", "-w", "good.workflow", "-r", "bad.json"],
    "pool": ["generate", "--pattern", "sequential", "--nodes", "2", "--pool", "bad.json"],
    "recipe": ["experiment", "--recipe", "bad.json", "-r", "good.json", "--out-dir", "out"],
    "config": ["analyze", "-w", "good.workflow", "-r", "good.json", "--config", "bad.json"],
    "cache": ["analyze", "-w", "good.workflow", "-r", "good.json", "--cache", "bad.json",
              "--format", "json"],
}
# JSON texts a value is swapped for: past the decoder's limits, not finite,
# negative zero, of another type, or a string with a lone surrogate, a NUL or
# a raw line separator
ODD_VALUES = [DEEP, LONG, "NaN", "Infinity", "-Infinity", "-0.0", "1e400", "true", "false",
              "null", '"x\\ud800"', '"x\\u0000"', '"x\u2028y"']


def _at(document, path):
    for step in path:
        document = document[step]
    return document


def _paths(value, path=()):
    """The path (keys and indexes) of every value in the document, its own first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


def _text(kind, document) -> str:
    """The document as its file holds it: a cache one record a line."""
    return ("".join(json.dumps(record) + "\n" for record in document) if kind == "cache"
            else json.dumps(document))


@st.composite
def mutated_documents(draw, kind):
    """The file bytes of the seed of `kind` with one mutation: a value swapped
    for an odd one, a key dropped or repeated, a byte made invalid UTF-8, or
    the file cut short."""
    seed = SEEDS[kind]
    how = draw(st.sampled_from(["swap", "drop", "repeat", "byte", "truncate"]))
    if how in ("byte", "truncate"):
        data = _text(kind, seed).encode()
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + b"\xff" + data[at + 1:] if how == "byte" else data[:at]
    paths = [p for p in _paths(seed) if p or kind != "cache"]
    if how != "swap":
        paths = [p for p in paths if isinstance(_at(seed, p), dict) and _at(seed, p)]
    path = draw(st.sampled_from(paths))
    document = copy.deepcopy(seed)
    if how == "swap":
        raw = draw(st.sampled_from(ODD_VALUES))
        if not path:
            return raw.encode()
        _at(document, path[:-1])[path[-1]] = "@raw@"
        return _text(kind, document).replace('"@raw@"', raw).encode()
    target = _at(document, path)
    key = draw(st.sampled_from(sorted(target)))
    if how == "drop":
        del target[key]
        return _text(kind, document).encode()
    target["@dup@"] = "@raw@"
    raw = draw(st.sampled_from([json.dumps(target[key])] + ODD_VALUES))
    return _text(kind, document).replace('"@dup@"', json.dumps(key)).replace(
        '"@raw@"', raw).encode()


def _about_another_source(kind, err) -> bool:
    """Whether a refusal that does not name the document names what it is
    about: a host the workflow and the catalog place at two coordinates, or a
    config value's setting, whose range is checked where it is used, the same
    whichever source set it."""
    if kind == "config":
        return err.startswith(tuple(f"error: {name}" for name in SEEDS["config"]))
    return kind in ("workflow", "catalog") and "is placed at two coordinates" in err


@pytest.mark.parametrize("kind", sorted(SEEDS))
def test_a_mutated_document_exits_0_or_2_naming_it(kind, tmp_path, monkeypatch, capsys):
    (tmp_path / "good.workflow").write_text(json.dumps(SEED_WORKFLOW))
    (tmp_path / "good.json").write_text(json.dumps(SEED_CATALOG))
    (tmp_path / "bad.json").write_text(_text(kind, SEEDS[kind]))
    assert _main(READERS[kind], tmp_path, monkeypatch, capsys)[0] == 0  # the seed is valid
    sys.stdout.reconfigure(errors="backslashreplace")  # as `cli.run` sets it

    # the same draws every run, so the check does not depend on a seed
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=mutated_documents(kind))
    def run(data):
        (tmp_path / "bad.json").write_bytes(data)
        code, out, err = _main(READERS[kind], tmp_path, monkeypatch, capsys)
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "bad.json" in err or _about_another_source(kind, err), err
        else:
            assert not re.search(r"\bnan\b", out, re.IGNORECASE), out

    run()
