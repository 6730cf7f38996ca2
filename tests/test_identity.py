"""The identity corpus: outputs a refactor must leave as they are.

tests/golden/identity.json records, for a fixed list of CLI argument
vectors run in-process through cli.main, the exit code, a digest of stdout
and the stderr text; and for the exact searches a digest of (value,
certificate, bound), on co-C5..co-C16 and on seeded random graphs.  Node
counts sit beside the digests, never inside them, so a change in pruning
shows as a diff of its own.  `python tests/golden/regenerate.py` rebuilds
the file from the code; a change to it is an output change, to be declared
as one, never a way to make these tests pass.
"""

import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from conftest import child_env, run_main

from pcomp import (
    Graph,
    complement,
    complement_cycle_cover,
    cover_to_json_dict,
    cycle_cover,
    digraph_to_json_dict,
    exact_theta_e,
    exact_theta_e_p,
    graph_to_json_dict,
    lift_cover,
    make_cycle,
    maximal_cliques,
    realize,
)
from pcomp.graphs import MAX_N

CORPUS = Path(__file__).resolve().parent / "golden" / "identity.json"
NODES = re.compile(r'"nodes":(\d+)')
SECTIONS = ["cli", "exact_theta_e", "exact_theta_e_p", "maximal_cliques"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeded_graph(n: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def co_cycle(n: int) -> Graph:
    return complement(make_cycle(n))


def chain(n: int) -> dict:
    """A cover on n vertices whose set j holds vertex j - 1 (set 0 is
    empty), so only the identity order is acyclic."""
    return {"n": n, "sets": [[j - 1] if j else [] for j in range(n)]}


# random graphs for the searches: n 4..8, densities cycling 0.3 to 0.85
RANDOM = {f"r{i}": seeded_graph(4 + i % 5, (0.3, 0.5, 0.7, 0.85)[i % 4], 1600 + i)
          for i in range(12)}


def write_inputs(root: Path) -> None:
    graphs = {
        "c4": make_cycle(4), "c5": make_cycle(5), "c6": make_cycle(6), "c9": make_cycle(9),
        "co-c5": co_cycle(5), "co-c6": co_cycle(6), "co-c7": co_cycle(7), "co-c9": co_cycle(9),
        "edgeless": Graph(3, []), "k33": Graph(6, [(u, v) for u in range(3) for v in range(3, 6)]),
        "r6": seeded_graph(6, 0.6, 6), "r9": seeded_graph(9, 0.5, 9),
    }
    objects = {f"{name}.json": graph_to_json_dict(g) for name, g in graphs.items()}
    objects.update({
        "c6p2.json": cover_to_json_dict(cycle_cover(6, 2)),
        "co-c9p2.json": cover_to_json_dict(lift_cover(complement_cycle_cover(9), 2)),
        "chain6.json": chain(6),
        "chain300.json": chain(300),
        "d6.json": digraph_to_json_dict(realize(cycle_cover(6, 2))),
        "dco9.json": digraph_to_json_dict(realize(lift_cover(complement_cycle_cover(9), 2))),
    })
    for name, obj in objects.items():
        (root / name).write_text(json.dumps(obj))
    (root / "bad.json").write_text("{")


def long_order(bad: str) -> str:
    """The identity order on 300 vertices with entry 150 replaced by bad."""
    order = [str(v) for v in range(300)]
    order[150] = bad
    return ",".join(order)


def cli_vectors() -> list[list[str]]:
    """Every subcommand, its error exits, and decide under all four methods
    on cycles, cycle complements and two seeded graphs."""
    vectors = [
        ["gen", "cycle", "--n", "5"],
        ["gen", "cycle", "--n", "6", "--format", "dot"],
        ["gen", "co-cycle", "--n", "7"],
        ["gen", "co-cycle", "--n", "4"],
        ["gen", "cycle", "--n", str(MAX_N + 1)],
        ["cover", "cycle", "--n", "8", "--p", "3"],
        ["cover", "cycle", "--n", "8"],
        ["cover", "cycle", "--n", "5", "--p", "3"],
        ["cover", "co-cycle", "--n", "9"],
        ["cover", "co-cycle", "--n", "10", "--p", "5"],
        ["cover", "co-cycle", "--n", "4"],
        ["verify", "c6.json", "c6p2.json", "--p", "2"],
        ["verify", "c6.json", "c6p2.json", "--p", "3"],
        ["verify", "co-c9.json", "co-c9p2.json", "--p", "2"],
        ["verify", "c5.json", "c6p2.json", "--p", "2"],
        ["verify", "bad.json", "c6p2.json", "--p", "2"],
        ["verify", "missing.json", "c6p2.json", "--p", "2"],
        ["realize", "c6p2.json"],
        ["realize", "co-c9p2.json", "--format", "dot"],
        ["realize", "chain6.json", "--order", "0,1,2,3,4,5"],
        ["realize", "chain6.json", "--order", "1,0,2,3,4,5"],
        ["realize", "chain6.json", "--order", "0,1,2"],
        ["realize", "chain6.json", "--order", "0,1,x,3,4,5"],
        ["realize", "chain6.json"],
        ["realize", "c6p2.json", "--order", "9,9"],
        ["realize", "chain300.json", "--order", long_order("149")],
        ["realize", "chain300.json", "--order", long_order("x")],
        ["compete", "d6.json", "--p", "2"],
        ["compete", "d6.json", "--p", "1", "--format", "dot"],
        ["compete", "dco9.json", "--p", "2"],
        ["compete", "bad.json", "--p", "2"],
        ["theta-e", "co-c9.json", "--upper", "3"],
        ["theta-e", "co-c9.json", "--guard", "5"],
        ["theta-e", "bad.json"],
        ["theta-e-p", "co-c7.json", "--p", "3", "--budget", "5"],
        ["theta-e-p", "co-c9.json", "--p", "2"],
        ["theta-e-p", "co-c9.json", "--p", "2", "--guard", "9"],
        ["decide", "co-c7.json", "--p", "1000000", "--method", "construct"],
        ["decide", "c5.json", "--p", "2", "--method", "none"],
        ["decide", "c5.json", "--p", "0"],
        ["decide", "c5.json", "--p", "2", "--guard", "-1"],
        ["survey", "cycle", "--n", "4..12", "--p", "1..6"],
        ["survey", "cycle", "--n", "4..12", "--p", "1..6", "--guard", "6"],
        ["survey", "cycle", "--n", "3..9", "--p", "1..9", "--guard", "0"],
        ["survey", "co-cycle", "--n", "5..10", "--p", "1..6", "--guard", "6"],
        ["survey", "co-cycle", "--n", "5..8", "--p", "1..7", "--guard", "8"],
        ["survey", "co-cycle", "--n", "9..13", "--p", "1..6"],
        ["survey", "cycle", "--n", "9..4", "--p", "1"],
        ["survey", "cycle", "--n", "2..5", "--p", "1"],
        ["bogus"],
        ["--help"],
    ]
    for command in ["gen", "cover", "verify", "realize", "compete", "theta-e", "theta-e-p",
                    "decide", "survey"]:
        vectors.append([command, "--help"])
    for name in ["c5", "c6", "co-c7", "co-c9", "edgeless", "k33", "r6", "r9"]:
        vectors.append(["theta-e", f"{name}.json"])
    for name in ["c5", "co-c5", "co-c6", "co-c7", "r6"]:
        for p in ["1", "2", "3"]:
            vectors.append(["theta-e-p", f"{name}.json", "--p", p])
    for name in ["c4", "c6", "c9", "co-c5", "co-c7", "co-c9", "edgeless", "r6", "r9"]:
        for p in ["1", "2", "3", "5"]:
            for method in ["auto", "construct", "oracle", "both"]:
                for guard in ["5", "8"]:
                    vectors.append(["decide", f"{name}.json", "--p", p, "--method", method,
                                    "--guard", guard])
    return vectors


def cli_entry(argv: list[str], code: int, out: str, err: str) -> dict:
    """Exit code, stdout digest (node counts masked) and stderr of one run;
    the node count, where stdout has one, on its own."""
    entry = {"argv": argv, "exit": code, "stdout": digest(NODES.sub('"nodes":_', out)),
             "stderr": err}
    nodes = NODES.findall(out)
    if nodes:
        entry["nodes"] = int(nodes[0])
    return entry


def search_entry(call: str, result) -> dict:
    certificate = None if result.certificate is None else cover_to_json_dict(result.certificate)
    return {"call": call, "result": digest(json.dumps([result.value, certificate, result.bound])),
            "nodes": result.nodes}


def search_graphs(ns) -> dict[str, Graph]:
    return {**{f"co-C{n}": co_cycle(n) for n in ns}, **RANDOM}


def search_sections() -> dict[str, list[dict]]:
    theta_e = [search_entry(name, exact_theta_e(g))
               for name, g in search_graphs(range(5, 17)).items()]
    theta_e_p = []
    cliques = []
    for name, g in search_graphs(range(5, 11)).items():
        ps = range(1, g.n + 1) if name.startswith("co-") else range(1, 4)
        for p in ps:
            theta_e_p.append(search_entry(f"{name} p={p}", exact_theta_e_p(g, p, g.n, guard=g.n)))
        found = [sorted(c) for c in maximal_cliques(g)]
        cliques.append({"call": name, "result": digest(json.dumps(found))})
    return {"exact_theta_e": theta_e, "exact_theta_e_p": theta_e_p, "maximal_cliques": cliques}


def corpus_at(root: Path) -> dict[str, list[dict]]:
    """The corpus as the code gives it, reading the CLI inputs from root.
    argparse wraps usage and help to COLUMNS, so the runs pin it at 80."""
    with patch.dict(os.environ, {"COLUMNS": "80"}):
        cli = [cli_entry(argv, *run_main(argv, cwd=root)) for argv in cli_vectors()]
    return {"cli": cli, **search_sections()}


def dump(corpus: dict[str, list[dict]]) -> str:
    """JSON with one entry per line, so a changed entry is a one-line diff."""
    sections = [f'"{name}": [\n' + ",\n".join(json.dumps(e) for e in corpus[name]) + "\n]"
                for name in SECTIONS]
    return "{\n" + ",\n".join(sections) + "\n}\n"


def key(entry: dict):
    return " ".join(entry["argv"]) if "argv" in entry else entry["call"]


def split(entries: list[dict]) -> tuple[dict, dict]:
    """(entry without nodes, nodes) by key."""
    outputs = {key(e): {k: v for k, v in e.items() if k != "nodes"} for e in entries}
    nodes = {key(e): e.get("nodes") for e in entries}
    return outputs, nodes


@pytest.fixture(scope="module")
def recorded():
    return json.loads(CORPUS.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("identity")
    write_inputs(root)
    return root


@pytest.fixture(scope="module")
def current(inputs):
    return corpus_at(inputs)


def test_corpus_file_is_as_dumped(recorded):
    assert list(recorded) == SECTIONS
    assert dump(recorded) == CORPUS.read_text()


@pytest.mark.parametrize("section", SECTIONS)
def test_outputs_unchanged(recorded, current, section):
    want, _ = split(recorded[section])
    got, _ = split(current[section])
    assert list(got) == list(want)
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, [(k[:80], want[k], got[k]) for k in changed[:5]]


@pytest.mark.parametrize("section", SECTIONS)
def test_node_counts_unchanged(recorded, current, section):
    _, want = split(recorded[section])
    _, got = split(current[section])
    changed = {k[:80]: (want[k], got.get(k)) for k in want if got.get(k) != want[k]}
    assert not changed


@pytest.mark.parametrize("seed", ["0", "1"])
def test_outputs_do_not_depend_on_the_hash_seed(recorded, inputs, seed):
    # a fresh interpreter per run: set and dict orders of strings follow
    # PYTHONHASHSEED, and no output may
    picks = [["theta-e", "co-c9.json"], ["theta-e-p", "r6.json", "--p", "2"],
             ["decide", "r6.json", "--p", "2", "--method", "both", "--guard", "8"],
             ["realize", "co-c9p2.json", "--format", "dot"]]
    want = {key(e): e for e in recorded["cli"]}
    for argv in picks:
        res = subprocess.run([sys.executable, "-m", "pcomp", *argv], capture_output=True,
                             text=True, env=child_env(PYTHONHASHSEED=seed), cwd=inputs)
        got = cli_entry(argv, res.returncode, res.stdout, res.stderr)
        assert got == want[key(got)]


def test_regenerate_reports_each_moved_entry(recorded):
    spec = importlib.util.spec_from_file_location("regenerate", CORPUS.parent / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    assert regenerate.changes(recorded, recorded) == []
    moved = json.loads(json.dumps(recorded))
    moved["exact_theta_e"][0]["nodes"] += 1
    moved["cli"].append({"argv": ["gen"], "exit": 2})
    first = recorded["exact_theta_e"][0]
    assert regenerate.changes(recorded, moved) == [
        "cli gen: argv None -> ['gen'], exit None -> 2",
        f"exact_theta_e {first['call']}: nodes {first['nodes']} -> {first['nodes'] + 1}",
    ]
