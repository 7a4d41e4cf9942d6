"""Every Python file of the repo parses as Python 3.10, the oldest version
`pyproject.toml` supports. The check is the parser's: it refuses syntax the
parser knows to be newer (`except*`, for one), not every 3.11 feature, and
no library call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "bench", "tools")


def test_every_python_file_parses_as_python_3_10():
    refused = []
    for top in DIRS:
        files = sorted((ROOT / top).rglob("*.py"))
        assert files, f"no Python file under {top}/"
        for path in files:
            try:
                ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                          feature_version=(3, 10))
            except SyntaxError as exc:
                refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []
