"""Rules on the library source itself.

Self-checks must survive ``python -O``, which strips ``assert`` statements,
so every check in ``src/bslat`` raises explicitly instead.
"""

import ast
from pathlib import Path

SOURCES = sorted(
    (Path(__file__).resolve().parents[1] / "src" / "bslat").glob("*.py")
)


def test_no_assert_statements():
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
