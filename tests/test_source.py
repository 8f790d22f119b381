"""Rules on the library source itself.

Self-checks must survive ``python -O``, which strips ``assert`` statements,
so every check in ``src/bslat`` raises explicitly instead.  The literal
(k, j) search and the table of size caps exist once, in ``exactnum``.
JSON text is parsed in one place, ``cli._parse_json``.  A class keeps one
form: no attribute is conjured by ``__getattr__``, and no constructor
bypasses validation with ``object.__new__``.  A failed self-check names
both values that disagreed.  Values enter the library in one form, numbers
with an explicit base: text becomes a number only in ``cli`` and the
``from_json`` record readers, and a record's integer field is read by
``exactnum.record_int``.
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


def test_json_is_parsed_in_one_place():
    # cli._parse_json turns every JSON text Python cannot hold into a
    # ParseError; a second reader would miss those inputs
    def reads_json(node):
        if isinstance(node, ast.Attribute):
            return (
                node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            )
        return (
            isinstance(node, ast.ImportFrom)
            and node.module == "json"
            and any(alias.name in ("load", "loads") for alias in node.names)
        )

    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        helper = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and (path.name, function.name) == ("cli.py", "_parse_json")
            for node in ast.walk(function)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if reads_json(node) and id(node) not in helper
        ]
    assert found == []


def test_no_class_defines_getattr():
    found = [
        f"{path.name}:{item.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__getattr__"
    ]
    assert found == []


def test_no_object_new():
    # every instance passes its class's own checks; a constructor that
    # bypassed them with object.__new__ would be a second form of the class
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    assert found == []


def test_self_checks_name_both_values():
    # a failed self-check names the two values that disagreed: every
    # raise AssertionError in src/bslat passes one f-string with at least
    # two replacement fields
    def names_two_values(exc):
        return (
            isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name)
            and exc.func.id == "AssertionError"
            and len(exc.args) == 1
            and isinstance(exc.args[0], ast.JoinedStr)
            and sum(
                isinstance(part, ast.FormattedValue)
                for part in exc.args[0].values
            ) >= 2
        )

    raised, found = 0, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            called = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(called, ast.Name) and called.id == "AssertionError":
                raised += 1
                if not names_two_values(exc):
                    found.append(f"{path.name}:{node.lineno}")
    assert raised > 0
    assert found == []


def _calls(name):
    """(path, innermost enclosing function or None, call) for every call of
    the bare name."""

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == name
            ):
                yield path, function, child
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, path, child.name)
            else:
                yield from visit(child, path, function)

    for path in SOURCES:
        yield from visit(ast.parse(path.read_text(), str(path)), path, None)


# bench/record_golden.py builds the benchmark's embedding records from text
# values of s; it changes only with the benchmark, so standard_embedding
# keeps its one text branch until that script parses s itself
TEXT_BRANCH = ("lattice.py", "standard_embedding")


def test_no_str_branch():
    # a constructor takes a Fraction or an int; text is parsed at the edge
    found = [
        f"{path.name}:{node.lineno}"
        for path, function, node in _calls("isinstance")
        if (path.name, function) != TEXT_BRANCH
        and len(node.args) == 2
        and "str" in {
            name.id
            for name in ast.walk(node.args[1])
            if isinstance(name, ast.Name)
        }
    ]
    assert found == []


def test_text_is_parsed_at_the_edge():
    # the command line and the JSON record readers parse rationals; the
    # layers below them take numbers
    found = [
        f"{path.name}:{node.lineno}"
        for path, function, node in _calls("parse_rational")
        if path.name != "cli.py" and function != "from_json"
        and (path.name, function) != TEXT_BRANCH
    ]
    assert len(list(_calls("parse_rational"))) > 1
    assert found == []


def test_record_integers_are_typed():
    # int() would read "3", true and 2.5 as integers; record_int refuses them
    found = [
        f"{path.name}:{node.lineno}"
        for path, _, node in _calls("int")
        if len(node.args) == 1
        and isinstance(node.args[0], ast.Subscript)
        and isinstance(node.args[0].slice, ast.Constant)
        and isinstance(node.args[0].slice.value, str)
    ]
    assert found == []
