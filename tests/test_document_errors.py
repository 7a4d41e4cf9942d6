"""Every malformed document of `malformed_documents.MALFORMED` is refused with
its exact message and error class, by its parser and through the CLI."""

import os

import pytest

from cloudforecast import cli
from cloudforecast.geo import load_region_catalog
from cloudforecast.workflow import WorkflowSpec, parse_node_pool, parse_workflow, validate_dag
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
