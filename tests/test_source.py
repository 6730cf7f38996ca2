import ast
import re
import subprocess
import sys

import pytest
from conftest import SRC, child_env
from linecount import count

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


def _set_builders(tree: ast.Module) -> list[tuple[str, int]]:
    """(top-level function, line) of each `_trusted(...)` call handed a set
    builder: a lambda, or a function defined in the same top-level function."""
    builds = []
    for top in tree.body:
        local = {node.name for node in ast.walk(top)
                 if isinstance(node, ast.FunctionDef) and node is not top}
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "_trusted" and len(node.args) >= 2):
                sets = node.args[1]
                if isinstance(sets, ast.Lambda) or (
                        isinstance(sets, ast.Name) and sets.id in local):
                    builds.append((getattr(top, "name", ""), node.lineno))
    return builds


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_set_builders_come_from_the_closed_forms_alone(path):
    # a cover handed a set builder holds only its masks, so the builder must
    # be a construction's own closed form (a lift's reads its base's sets),
    # never a read of the masks
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    builds = [(name, line) for name, line in _set_builders(tree)
              if path.name != "covers.py"
              or name not in ("cycle_cover", "complement_cycle_cover", "lift_cover")]
    assert builds == [], f"{path.name}: _trusted handed a set builder in {builds}"


def test_set_builder_lint_sees_a_planted_builder():
    tree = ast.parse("def complement_cycle_cover(n):\n"
                     "    return CliqueCover._trusted(n, lambda: (), inc)\n"
                     "def realize_acyclic(f, order):\n"
                     "    def sets():\n"
                     "        return f.sets\n"
                     "    return realize(CliqueCover._trusted(f.n, sets, f._inc))\n")
    assert _set_builders(tree) == [("complement_cycle_cover", 2), ("realize_acyclic", 6)]


def _sets_lengths(tree: ast.Module) -> list[int]:
    """Lines of each `len(<expr>.sets)` outside the CliqueCover class."""
    return [node.lineno for top in tree.body
            if not (isinstance(top, ast.ClassDef) and top.name == "CliqueCover")
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "len" and len(node.args) == 1
            and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "sets"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_set_counts_are_read_through_len(path):
    # len(f) reads the member masks when the cover holds them, while
    # len(f.sets) builds a construction's deferred frozensets
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _sets_lengths(tree) == [], f"{path.name}: len(...sets) on lines {_sets_lengths(tree)}"


def test_set_count_lint_sees_a_planted_call():
    tree = ast.parse("class CliqueCover:\n"
                     "    def __len__(self):\n"
                     "        return len(self.sets)\n"
                     "def realize(f):\n"
                     "    return len(f.sets) > f.n\n")
    assert _sets_lengths(tree) == [5]


def _pair_count_compares(tree: ast.AST) -> list[int]:
    """Lines of each comparison between a `.bit_count()` call and `p`."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Name) and side.id == "p"
                    for side in (node.left, *node.comparators))
            and any(isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute)
                    and side.func.attr == "bit_count" for side in (node.left, *node.comparators))]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graphs.py"],
                         ids=lambda p: p.name)
def test_pair_counts_meet_p_in_the_partner_kernel_alone(path):
    # whether two vertices share p sets (or prey) is decided in one place,
    # graphs._partners, which the verifier and the p-competition map read
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _pair_count_compares(tree)
    assert lines == [], f"{path.name}: a popcount compared with p on lines {lines}"


def test_pair_count_lint_sees_an_inline_check():
    tree = ast.parse("if (row & rows[v]).bit_count() >= p:\n"
                     "    pass\n"
                     "short = p > (ox & out[y]).bit_count()\n"
                     "wide = m.bit_count() > spare\n")
    assert _pair_count_compares(tree) == [1, 3]


def test_line_counter_splits_a_planted_module():
    # tests/linecount.py gives the code and docstring counts CHANGES.md reports
    text = ('"""Module\n'
            'docstring."""\n'
            '\n'
            '# a comment\n'
            'def f(x):\n'
            '    """One line."""\n'
            '    return """not a\n'
            'docstring"""  # trailing\n')
    assert count(text) == (8, 3, 3)
