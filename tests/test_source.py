import ast
import re
import subprocess
import sys

import pytest
from conftest import SRC, child_env

SOURCES = sorted((SRC / "pcomp").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert(path):
    # python -O strips assert statements; every check must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graphs.py"],
                         ids=lambda p: p.name)
def test_library_reads_pairs_from_masks(path):
    # Graph.edges and Digraph.arcs build a frozenset of every pair on each
    # read; library code works on the masks instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("edges", "arcs")]
    assert lines == [], f"{path.name}: .edges or .arcs read on lines {lines}"


def test_cli_import_skips_dataclasses_and_inspect():
    # every python -m pcomp pays for its imports; dataclasses alone pulls in
    # inspect, ast, dis and tokenize, which no subcommand uses.  Comparing
    # sys.modules before and after keeps this independent of what site loads.
    code = ("import sys; before = set(sys.modules); import pcomp.cli; "
            "print(*sorted(set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, env=child_env(), check=True)
    loaded = set(res.stdout.split())
    assert "pcomp.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"}), sorted(loaded)


def _raises_invalid(node: ast.AST) -> bool:
    """True iff node is `raise InvalidParameterError(...)`."""
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "InvalidParameterError")


def _floor_raises(tree: ast.AST) -> list[int]:
    """Lines raising InvalidParameterError with a `need ... >= ...` message."""
    lines = []
    for node in ast.walk(tree):
        if not (_raises_invalid(node) and node.exc.args):
            continue
        message = node.exc.args[0]
        parts = message.values if isinstance(message, ast.JoinedStr) else [message]
        text = "".join(p.value for p in parts
                       if isinstance(p, ast.Constant) and isinstance(p.value, str))
        if re.search(r"need .*>=", text):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_floor_checks_go_through_the_helper(path):
    # `need x >= low, got x=value` has one home, errors._at_least
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _floor_raises(tree)
    assert lines == [], f"{path.name}: inline floor check on lines {lines}"


def test_floor_check_lint_sees_an_inline_check():
    tree = ast.parse('raise InvalidParameterError(f"need p >= 1, got p={p}")\n')
    assert _floor_raises(tree) == [1]


def _floor_ifs(tree: ast.AST) -> list[int]:
    """Lines of `if NAME < INT:` or `if NAME <= INT:` whose body raises
    InvalidParameterError."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
            continue
        test = node.test
        bound = test.comparators[0]
        if (isinstance(test.left, ast.Name) and len(test.ops) == 1
                and isinstance(test.ops[0], (ast.Lt, ast.LtE))
                and isinstance(bound, ast.Constant) and type(bound.value) is int
                and any(map(_raises_invalid, node.body))):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_floor_comparisons_go_through_the_helper(path):
    # the rule "n is an int >= k" has one home too, whatever the message says
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _floor_ifs(tree)
    assert lines == [], f"{path.name}: inline floor comparison on lines {lines}"


@pytest.mark.parametrize("op", ["<", "<="])
def test_floor_comparison_lint_sees_an_inline_check(op):
    tree = ast.parse(f'if n {op} 1:\n    raise InvalidParameterError(f"got n={{n}}")\n')
    assert _floor_ifs(tree) == [1]


def _digraph_builds(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level function, line) of each `Digraph._from_masks(...)` call."""
    builds = []
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_from_masks"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "Digraph"):
                builds.append((getattr(top, "name", ""), node.lineno))
    return builds


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_digraph_masks_are_built_by_realize_alone(path):
    # a cover's sets become a digraph's masks in one place; realize_acyclic
    # reorders the sets and realizes them
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builds = [(name, line) for name, line in _digraph_builds(tree)
              if (path.name, name) != ("realization.py", "realize")]
    assert builds == [], f"{path.name}: Digraph._from_masks called in {builds}"


def test_digraph_build_lint_sees_a_planted_call():
    tree = ast.parse("def realize_acyclic(f, order):\n"
                     "    return Digraph._from_masks(f.n, out, tuple(preds))\n")
    assert _digraph_builds(tree) == [("realize_acyclic", 2)]
