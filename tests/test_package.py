"""The package's deferred modules: what a command runs, what `import pcomp`
exports, and first use from several threads.  Each check starts a fresh
interpreter, since it is about what runs before anything is loaded."""

import json
import subprocess
import sys

import pytest
from conftest import SRC, child_env, run_main

ALL = [
    "CliqueCover", "Decision", "Digraph", "Graph", "InfeasibleError", "InvalidParameterError",
    "PcompError", "REASON_FAMILY_SMALLER_THAN_P", "REASON_NONEDGE_IN_P_SETS",
    "REASON_UNCOVERED_EDGE", "ScaleError", "SearchResult", "UnsupportedInstanceError",
    "Verdict", "common_prey_count", "complement", "complement_cycle_cover",
    "cover_from_json_dict", "cover_to_json_dict", "cycle_cover", "digraph_from_json_dict",
    "digraph_to_dot", "digraph_to_json_dict", "exact_theta_e", "exact_theta_e_p",
    "graph_from_json_dict", "graph_to_dot", "graph_to_json_dict", "is_acyclic", "is_clique",
    "is_p_competition", "lift_cover", "make_cycle", "maximal_cliques", "p_competition_graph",
    "realize", "realize_acyclic", "satisfies_acyclic_ordering", "verify_ecc", "verify_p_ecc",
]
SUBMODULES = ["competition", "covers", "errors", "graphs", "oracle", "realization"]
DUNDERS = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
           "__name__", "__package__", "__path__", "__spec__", "__version__"]


def child(code: str, *args: str, cwd=None) -> str:
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=child_env(), cwd=cwd, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


# the module bodies one run of cli.main executes, read off the "exec"
# audit event that runs each one
AUDIT = f"""
import sys
from pathlib import Path
src = Path({str(SRC / "pcomp")!r})
ran = set()
def hook(event, args):
    if event == "exec" and hasattr(args[0], "co_filename"):
        path = Path(args[0].co_filename)
        if path.parent == src:
            ran.add("pcomp" if path.stem == "__init__" else path.stem)
sys.addaudithook(hook)
import pcomp.cli
code = pcomp.cli.main(sys.argv[1:])
print(code, *sorted(ran))
"""

BASE = ["cli", "errors", "graphs", "pcomp"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for argv in (["gen", "cycle", "--n", "6", "--out", "g.json"],
                 ["cover", "cycle", "--n", "6", "--p", "2", "--out", "f.json"],
                 ["realize", "f.json", "--out", "d.json"]):
        assert run_main(argv, cwd=root).returncode == 0
    # set j holds vertex j - 1, so the identity order is acyclic
    (root / "chain.json").write_text(json.dumps({"n": 3, "sets": [[], [0], [1]]}))
    return root


CASES = [
    (["gen", "cycle", "--n", "6"], []),
    (["gen", "co-cycle", "--n", "6", "--format", "dot"], []),
    (["cover", "co-cycle", "--n", "6", "--p", "2"], ["covers"]),
    (["verify", "g.json", "f.json", "--p", "2"], ["covers"]),
    (["realize", "f.json"], ["covers", "realization"]),
    (["realize", "chain.json", "--order", "0,1,2", "--format", "dot"],
     ["covers", "realization"]),
    (["compete", "d.json", "--p", "2"], ["competition"]),
    (["decide", "g.json", "--p", "2", "--method", "none"],
     ["competition", "covers", "oracle", "realization"]),
]


@pytest.mark.parametrize("argv,used", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_a_command_runs_only_the_modules_it_calls(files, argv, used):
    code, *ran = child(AUDIT, *argv, cwd=files).splitlines()[-1].split()
    assert code == ("2" if "none" in argv else "0")
    assert ran == sorted(BASE + used)


def test_import_runs_no_deferred_module():
    ran = child("import sys, pcomp; print(*sorted(k for k in sys.modules "
                "if k.startswith('pcomp.') and type(sys.modules[k]).__name__ == 'module'))")
    assert ran.split() == ["pcomp.errors", "pcomp.graphs"]
    # every module is in sys.modules from the start, run or not
    names = child("import sys, pcomp; print(*sorted(k for k in sys.modules "
                  "if k.startswith('pcomp.')))")
    assert names.split() == [f"pcomp.{m}" for m in SUBMODULES]


def test_exports_are_unchanged():
    code = """
import json, sys, pcomp
listed, names = pcomp.__all__, dir(pcomp)
space = {}
exec("from pcomp import *", space)
same = all(space[name] is getattr(pcomp, name) for name in listed)
print(json.dumps([listed, names, sorted(space), same]))
"""
    listed, names, star, same = json.loads(child(code))
    assert listed == ALL
    assert names == sorted(ALL + SUBMODULES + DUNDERS)
    assert star == sorted(ALL + ["__builtins__"])
    assert same


def test_unknown_name_is_an_attribute_error():
    import pcomp
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        pcomp.nothing  # noqa: B018


# several threads touch unloaded modules at the same moment, through the
# package and through the modules, with a short switch interval so that
# each body's run is interleaved with the other threads' first reads
THREADS = """
import sys, threading
sys.setswitchinterval(1e-6)
import pcomp
g = pcomp.complement(pcomp.make_cycle(6))
uses = [
    lambda: pcomp.is_p_competition(g, 2).value,
    lambda: pcomp.oracle.exact_theta_e(g).value,
    lambda: pcomp.realization.realize(pcomp.covers.cycle_cover(6, 2)).n,
    lambda: pcomp.p_competition_graph(pcomp.realize(pcomp.cycle_cover(6, 1)), 1).n,
    lambda: pcomp.competition.common_prey_count(pcomp.graphs.Digraph(3, [(0, 2), (1, 2)]), 0, 1),
    lambda: pcomp.covers.verify_p_ecc(g, pcomp.oracle.exact_theta_e(g).certificate, 1).valid,
    lambda: len(pcomp.maximal_cliques(g)),
    lambda: pcomp.SearchResult(1, None, 0).value,
]
start = threading.Barrier(len(uses))
got, failed = [None] * len(uses), []
def run(i):
    start.wait()
    try:
        got[i] = uses[i]()
    except BaseException as exc:
        failed.append(repr(exc))
threads = [threading.Thread(target=run, args=(i,)) for i in range(len(uses))]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(failed or got)
"""


@pytest.mark.parametrize("attempt", range(5))
def test_first_use_from_many_threads(attempt):
    assert child(THREADS).strip() == "[True, 5, 6, 6, 1, True, 5, 1]"
