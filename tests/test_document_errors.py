"""Every malformed document of `malformed_documents.MALFORMED` is refused with
its exact message and error class, by its parser and through the CLI; a
document, config or cache file that is not UTF-8 is refused at its line, and
a UTF-8 one reads the same under any locale."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_a_workflow_is_read_and_a_report_written_as_utf8_under_any_locale(tmp_path):
    (tmp_path / "named.workflow").write_text(
        FIG1_DOC.replace('"image-pipeline"', '"café-東京"'), encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("CLOUDFORECAST_", "LC_", "LANG"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for utf8_mode in ("1", "0"):  # UTF-8 mode, then the C locale's ASCII
        locale = dict(env, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8=utf8_mode)
        runs = []
        for argv in (["--format", "json"], ["--out", f"report-{utf8_mode}.txt"]):
            done = subprocess.run([sys.executable, "-m", "cloudforecast.cli", "analyze",
                                   "-w", "named.workflow", "--no-timestamps", *argv],
                                  cwd=tmp_path, env=locale, capture_output=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, b"")
            runs.append(done.stdout)
        runs.append((tmp_path / f"report-{utf8_mode}.txt").read_bytes())
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert b'"workflow": "caf\\u00e9-\\u6771\\u4eac"' in outputs[0][0]
    assert "café-東京".encode() in outputs[0][2]
