"""Rules on the library source itself.

Self-checks must survive ``python -O``, which strips ``assert`` statements,
so every check in ``src/bslat`` raises explicitly instead.  The literal
(k, j) search and the table of size caps exist once, in ``exactnum``.
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


def test_literal_search_lives_in_exactnum():
    # smooth_divisors is the candidate pool of the one literal (k, j)
    # search; a second module reaching for it would fork that search
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "exactnum.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Name) and node.id == "smooth_divisors")
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "smooth_divisors"
        )
        or (
            isinstance(node, ast.alias) and node.name == "smooth_divisors"
        )
    ]
    assert found == []


def test_size_caps_live_in_exactnum():
    # every cap and budget is assigned once, in the table in exactnum
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "exactnum.py"
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for name in ast.walk(target)
        if isinstance(name, ast.Name)
        and name.id.endswith(("_CAP", "_BUDGET"))
    ]
    assert found == []
