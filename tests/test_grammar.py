"""Every Python file of the project parses under the 3.10 grammar, the
oldest version ``pyproject.toml`` supports, even when the suite runs on a
newer interpreter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "perfbench")
               for path in (ROOT / folder).rglob("*.py"))


def test_files_found():
    names = {path.name for path in FILES}
    assert {"experiment.py", "test_grammar.py", "run.py"} <= names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_grammar_check_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
