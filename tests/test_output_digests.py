"""The outputs `tools/compare_outputs.py` guards, pinned by their digests, and
the tool's exit status.

tests/output_digests.txt holds one `name sha256 size` line per output of the
committed tree, under a header naming the interpreter and platform it was
made on. A change that declares an output change regenerates it with

    python3 tools/compare_outputs.py --digest . > tests/output_digests.txt

so the file's diff names exactly the outputs that changed.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "output_digests.txt"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs_under_test",
                                                  ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _tool()


def _digests(text: str) -> dict[str, str]:
    """Output name -> "sha256 size", from the lines after the header."""
    return {name: rest for name, rest in
            (line.split(" ", 1) for line in text.splitlines()[1:])}


def test_the_working_tree_outputs_match_the_recorded_digests():
    recorded = DIGESTS.read_text()
    header = recorded.splitlines()[0]
    if header != compare_outputs.digest_header():
        pytest.skip(f"the digests were made on '{header}', not on "
                    f"'{compare_outputs.digest_header()}': float.hex outputs hash "
                    "differently under another interpreter or libm")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
                           "--digest", str(ROOT)], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header
    expected, got = _digests(recorded), _digests(done.stdout)
    changed = [name for name in expected if got.get(name) != expected[name]]
    added = [name for name in got if name not in expected]
    assert (changed, added) == ([], []), (
        f"outputs changed: {changed}; outputs not recorded: {added}")


def test_a_digest_line_is_the_name_the_sha256_and_the_size_of_the_utf8_bytes():
    assert compare_outputs.digest_lines({"plain": "ab\n", "accent": "\u00e9"}) == [
        "plain " + hashlib.sha256(b"ab\n").hexdigest() + " 3",
        "accent " + hashlib.sha256(bytes([0xC3, 0xA9])).hexdigest() + " 2",
    ]


# a generated ranking's dump with the edges as written and reversed
def _outputs(reversed_dump: str, other: str = "same") -> dict[str, str]:
    return {"rank/9x9/as-written/all": "dump", "rank/9x9/reversed/all": reversed_dump,
            "analyze-table": other}


@pytest.mark.parametrize("parent, change, code, line", [
    (_outputs("dump"), _outputs("dump"), 0, "order-free  parent: yes  change: yes"),
    (_outputs("dump"), _outputs("dump", "other"), 1, "order-free  parent: yes  change: yes"),
    (_outputs("edge-order"), _outputs("edge-order"), 1, "order-free  parent: no  change: no"),
    (_outputs("dump"), _outputs("edge-order"), 1, "order-free  parent: yes  change: no"),
    (_outputs("edge-order"), _outputs("dump"), 1, "order-free  parent: no  change: yes"),
], ids=["same", "an-output-differs", "neither-order-free", "change-not-order-free",
        "parent-not-order-free"])
def test_the_comparison_fails_when_an_output_differs_or_a_tree_depends_on_edge_order(
        monkeypatch, capsys, parent, change, code, line):
    trees = {"PARENT": parent, "CHANGE": change}
    monkeypatch.setattr(compare_outputs, "collect", trees.__getitem__)
    assert compare_outputs.main(["PARENT", "CHANGE"]) == code
    assert line in capsys.readouterr().out.splitlines()


def test_the_digest_mode_prints_the_header_and_one_line_per_output(monkeypatch, capsys):
    monkeypatch.setattr(compare_outputs, "collect", {"TREE": _outputs("dump")}.__getitem__)
    assert compare_outputs.main(["--digest", "TREE"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [compare_outputs.digest_header(),
                     *compare_outputs.digest_lines(_outputs("dump"))]
    assert [line.split()[0] for line in lines[1:]] == list(_outputs("dump"))
