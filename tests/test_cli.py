import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env, run_main

import pcomp.oracle
from pcomp import (
    CliqueCover,
    SearchResult,
    Verdict,
    complement,
    complement_cycle_cover,
    cover_to_json_dict,
    cycle_cover,
    digraph_to_json_dict,
    graph_to_json_dict,
    lift_cover,
    make_cycle,
    realize,
)
from pcomp.graphs import MAX_N

GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"


def run_optimized(argv):
    """python -O -m pcomp argv in a child: -O is a flag of the interpreter,
    so only a fresh one runs under it."""
    return subprocess.run([sys.executable, "-O", "-m", "pcomp", *map(str, argv)],
                          capture_output=True, text=True, env=child_env())


class TestGen:
    def test_cycle_json(self):
        res = run_main(["gen", "cycle", "--n", 5])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["n"] == 5 and len(data["edges"]) == 5

    def test_co_cycle_edge_count(self):
        res = run_main(["gen", "co-cycle", "--n", 8])
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["edges"]) == 20

    def test_bad_n_exits_2(self):
        res = run_main(["gen", "cycle", "--n", 2])
        assert res.returncode == 2
        assert res.stderr.strip()

    @pytest.mark.parametrize("n", [3, 4])
    def test_small_co_cycles(self, n):
        # co-C3 is edgeless and co-C4 a perfect matching; survey builds them too
        code, out, err = run_main(["gen", "co-cycle", "--n", n])
        assert (code, err) == (0, "")
        assert json.loads(out) == graph_to_json_dict(complement(make_cycle(n)))

    def test_dot_format(self):
        res = run_main(["gen", "cycle", "--n", 4, "--format", "dot"])
        assert res.returncode == 0
        assert res.stdout.startswith("graph G {")

    def test_deterministic_output(self):
        a = run_main(["gen", "co-cycle", "--n", 9])
        b = run_main(["gen", "co-cycle", "--n", 9])
        assert a.stdout == b.stdout


class TestCover:
    def test_cycle_cover_shape(self):
        res = run_main(["cover", "cycle", "--n", 10, "--p", 7])
        data = json.loads(res.stdout)
        assert len(data["sets"]) == 10
        assert all(len(s) == 8 for s in data["sets"])

    def test_co_cycle_cover_size(self):
        res = run_main(["cover", "co-cycle", "--n", 9])
        assert len(json.loads(res.stdout)["sets"]) == 7

    def test_co_cycle_lifted(self):
        res = run_main(["cover", "co-cycle", "--n", 10, "--p", 3])
        assert len(json.loads(res.stdout)["sets"]) == 8

    def test_infeasible_exits_3_naming_the_inequality(self):
        res = run_main(["cover", "cycle", "--n", 5, "--p", 3])
        assert res.returncode == 3
        assert "n >= p+3" in res.stderr

    @pytest.mark.parametrize("family,n", [("cycle", 8), ("co-cycle", 9)])
    def test_p_defaults_to_1(self, family, n):
        plain = run_main(["cover", family, "--n", n])
        assert plain == run_main(["cover", family, "--n", n, "--p", 1])
        assert plain.returncode == 0 and plain.stderr == ""

    @pytest.mark.parametrize("n,code,message", [
        (-2, 2, "pcomp: need n >= 3, got n=-2"),
        (2, 2, "pcomp: need n >= 3, got n=2"),
        (3, 3, "pcomp: cycle cover requires n >= p+3 (got n=3, p=3)"),
        (5, 3, "pcomp: cycle cover requires n >= p+3 (got n=5, p=3)"),
    ])
    def test_cycle_vertex_count_exit_codes(self, n, code, message):
        # no cycle below 3 vertices (exit 2, like gen); 3..p+2 is infeasible
        exit_code, out, err = run_main(["cover", "cycle", "--n", n, "--p", "3"])
        assert exit_code == code
        assert out == "" and err == message + "\n"


class TestVerify:
    def test_valid_cover_exits_0(self, tmp_path):
        g = tmp_path / "g.json"
        f = tmp_path / "f.json"
        run_main(["gen", "cycle", "--n", 5, "--out", g])
        run_main(["cover", "cycle", "--n", 5, "--p", 2, "--out", f])
        res = run_main(["verify", g, f, "--p", 2])
        assert res.returncode == 0
        assert json.loads(res.stdout)["valid"] is True

    def test_invalid_cover_exits_1_with_witness(self, tmp_path):
        g = tmp_path / "g.json"
        f = tmp_path / "f.json"
        run_main(["gen", "cycle", "--n", 4, "--out", g])
        f.write_text(json.dumps({"n": 4, "sets": [[0, 1], [0, 1], [0, 1], [0, 1]]}))
        res = run_main(["verify", g, f, "--p", 2])
        assert res.returncode == 1
        verdict = json.loads(res.stdout)
        assert verdict["valid"] is False
        assert verdict["witness"]["reason"] == "uncovered-edge"

    def test_missing_file_exits_2(self, tmp_path):
        res = run_main(["verify", tmp_path / "nope.json", tmp_path / "nope2.json", "--p", 1])
        assert res.returncode == 2

    def test_garbage_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_main(["verify", bad, bad, "--p", 1])
        assert res.returncode == 2


class TestPipeline:
    def test_gen_cover_verify_realize_compete_roundtrip(self, tmp_path):
        g = tmp_path / "g.json"
        f = tmp_path / "f.json"
        d = tmp_path / "d.json"
        g2 = tmp_path / "g2.json"
        assert run_main(["gen", "cycle", "--n", 8, "--out", g]).returncode == 0
        assert run_main(["cover", "cycle", "--n", 8, "--p", 3, "--out", f]).returncode == 0
        assert run_main(["verify", g, f, "--p", 3]).returncode == 0
        assert run_main(["realize", f, "--out", d]).returncode == 0
        assert run_main(["compete", d, "--p", 3, "--out", g2]).returncode == 0
        assert g.read_text() == g2.read_text()

    def test_co_cycle_lifted_pipeline(self, tmp_path):
        g = tmp_path / "g.json"
        f = tmp_path / "f.json"
        d = tmp_path / "d.json"
        g2 = tmp_path / "g2.json"
        assert run_main(["gen", "co-cycle", "--n", 10, "--out", g]).returncode == 0
        assert run_main(["cover", "co-cycle", "--n", 10, "--p", 5, "--out", f]).returncode == 0
        assert run_main(["verify", g, f, "--p", 5]).returncode == 0
        assert run_main(["realize", f, "--out", d]).returncode == 0
        assert run_main(["compete", d, "--p", 5, "--out", g2]).returncode == 0
        assert g.read_text() == g2.read_text()


class TestSingleWriter:
    """main writes every command's text: --out FILE holds exactly what
    stdout would, and a command that fails writes nothing."""

    @pytest.fixture
    def inputs(self, tmp_path):
        files = {
            "g.json": graph_to_json_dict(make_cycle(8)),
            "f.json": cover_to_json_dict(cycle_cover(8, 3)),
            "d.json": digraph_to_json_dict(realize(cycle_cover(8, 3))),
            "c4.json": graph_to_json_dict(make_cycle(4)),
            "bad.json": {"n": 4, "sets": [[0, 1], [0, 1], [0, 1], [0, 1]]},
        }
        for name, data in files.items():
            (tmp_path / name).write_text(json.dumps(data))
        return tmp_path

    @pytest.mark.parametrize("argv,code", [
        (["gen", "co-cycle", "--n", "6", "--format", "dot"], 0),
        (["cover", "co-cycle", "--n", "9", "--p", "2"], 0),
        (["verify", "g.json", "f.json", "--p", "3"], 0),
        (["verify", "c4.json", "bad.json", "--p", "2"], 1),
        (["realize", "f.json", "--format", "dot"], 0),
        (["compete", "d.json", "--p", "3"], 0),
        (["theta-e", "g.json"], 0),
        (["theta-e-p", "c4.json", "--p", "2"], 0),
        (["decide", "g.json", "--p", "3"], 0),
        (["decide", "c4.json", "--p", "2"], 1),
        (["survey", "co-cycle", "--n", "5..6", "--p", "1..2"], 0),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
    def test_out_file_holds_the_stdout_bytes(self, inputs, argv, code):
        plain = run_main(argv, cwd=inputs)
        assert (plain.returncode, plain.stderr) == (code, "")
        assert plain.stdout.endswith("\n")
        written = run_main([*argv, "--out", "out.txt"], cwd=inputs)
        assert written == (code, "", "")
        assert (inputs / "out.txt").read_bytes() == plain.stdout.encode("utf-8")

    @pytest.mark.parametrize("argv,code", [
        (["gen", "cycle", "--n", "2"], 2),
        (["cover", "cycle", "--n", "5", "--p", "3"], 3),
        (["verify", "g.json", "missing.json", "--p", "1"], 2),
        (["realize", "f.json", "--order", "1,0,2,3,4,5,6,7"], 3),
        (["theta-e", "g.json", "--guard", "4"], 3),
        (["survey", "cycle", "--n", "2..5", "--p", "1"], 2),
    ])
    def test_failing_command_writes_no_file(self, inputs, argv, code):
        res = run_main([*argv, "--out", "out.txt"], cwd=inputs)
        assert res.returncode == code and res.stdout == ""
        assert res.stderr.startswith("pcomp: ") and res.stderr.count("\n") == 1
        assert not (inputs / "out.txt").exists()

    def test_unwritable_out_exits_2(self, inputs):
        res = run_main(["gen", "cycle", "--n", "5", "--out", str(inputs)], cwd=inputs)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("pcomp: ") and res.stderr.count("\n") == 1


def test_readme_tour_exits_0(tmp_path):
    # the sh block under "## CLI tour", line by line in one directory: pcomp
    # lines through cli.main, the others (writing an input file) through sh
    tour = README.read_text(encoding="utf-8").split("## CLI tour", 1)[1]
    lines = [line for line in tour.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
             if line.strip()]
    assert sum(line.startswith("pcomp realize") for line in lines) == 2, lines
    for line in lines:
        if line.startswith("pcomp "):
            code, _, err = run_main(shlex.split(line, comments=True)[1:], cwd=tmp_path)
        else:
            res = subprocess.run(["sh", "-c", line], cwd=tmp_path, capture_output=True, text=True)
            code, err = res.returncode, res.stderr
        assert code == 0, (line, err)


class TestRealizeCommand:
    def test_acyclic_with_order(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"n": 3, "sets": [[], [0], [0, 1]]}))
        res = run_main(["realize", f, "--order", "0,1,2"])
        assert res.returncode == 0
        arcs = {tuple(a) for a in json.loads(res.stdout)["arcs"]}
        assert arcs == {(0, 1), (0, 2), (1, 2)}

    def test_acyclic_violation_exits_3(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"n": 3, "sets": [[0], [1], [2]]}))
        assert run_main(["realize", f, "--order", "0,1,2"]).returncode == 3

    def test_too_many_sets_exits_3(self, tmp_path):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"n": 2, "sets": [[0], [1], [0, 1]]}))
        assert run_main(["realize", f]).returncode == 3

    @pytest.mark.parametrize("order,entries", [("9,9", 2), ("0,1,2,0", 4)])
    def test_wrong_length_order_exits_2(self, tmp_path, order, entries):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"n": 3, "sets": [[], [0], [0, 1]]}))
        code, out, err = run_main(["realize", f, "--order", order])
        assert code == 2
        assert out == "" and err == f"pcomp: order has {entries} entries, expected 3\n"

    @pytest.mark.parametrize("bad", ["149", "x", "9" * 5000, "x" * 1000])
    def test_long_order_error_line_stays_short(self, tmp_path, bad):
        # a 300-set chain cover and the identity order with entry 150 bad
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"n": 300, "sets": [[j - 1] if j else [] for j in range(300)]}))
        order = [str(v) for v in range(300)]
        order[150] = bad
        code, out, err = run_main(["realize", f, "--order", ",".join(order)])
        assert code == 2
        assert out == "" and err.startswith("pcomp: ") and err.count("\n") == 1
        assert len(err.encode()) < 200, err


class TestStrictInput:
    @pytest.mark.parametrize("argv,name,data", [
        (("theta-e",), "g.json", {"n": True, "edges": []}),
        (("theta-e",), "g.json", {"n": 3, "edges": [[0.9, 1.7]]}),
        (("theta-e",), "g.json", {"n": 3, "edges": [["0", 2]]}),
        (("compete", "--p", 1), "d.json", {"n": 3, "arcs": [[0, 1.5]]}),
        (("realize",), "f.json", {"n": 3, "sets": [["1"]]}),
    ])
    def test_non_integer_fields_exit_2(self, tmp_path, argv, name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        res = run_main([argv[0], path, *argv[1:]])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("pcomp: ") and res.stderr.count("\n") == 1

    def test_non_utf8_file_exits_2(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_bytes(b'{"n": 3, "edges": [], "note": "\xff\xfe"}')
        res = run_main(["theta-e", g])
        assert res.returncode == 2
        assert res.stderr.startswith("pcomp: ") and res.stderr.count("\n") == 1

    # json raises RecursionError on deep nesting and ValueError on an integer
    # past Python's 4,300-digit limit for int(str)
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"n": ' + "9" * 5000 + ', "edges": []}'],
                             ids=["deep", "bign"])
    @pytest.mark.parametrize("argv", [
        ("theta-e", "bad.json"), ("verify", "bad.json", "c.json", "--p", "1"),
        ("verify", "g.json", "bad.json", "--p", "1"), ("realize", "bad.json"),
        ("compete", "bad.json", "--p", "1"),
    ], ids=["theta-e", "verify-graph", "verify-cover", "realize", "compete"])
    def test_deep_or_oversized_json_exits_2(self, tmp_path, text, argv):
        (tmp_path / "bad.json").write_text(text)
        (tmp_path / "g.json").write_text(json.dumps(graph_to_json_dict(make_cycle(5))))
        (tmp_path / "c.json").write_text(json.dumps(cover_to_json_dict(cycle_cover(5, 1))))
        res = run_main(argv, cwd=tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("pcomp: bad.json: ") and res.stderr.count("\n") == 1
        assert "set_int_max_str_digits" not in res.stderr

    @pytest.mark.parametrize("text", ['{"n": 5, "sets": [["1"]]}', '{"n": 5, "sets": [',
                                      '{"n": 5, "sets": [], "note": "\udcff"}'],
                             ids=["field", "syntax", "bytes"])
    def test_errors_name_the_file(self, tmp_path, text):
        (tmp_path / "g.json").write_text(json.dumps(graph_to_json_dict(make_cycle(5))))
        (tmp_path / "f.json").write_text(text, errors="surrogateescape")
        res = run_main(["verify", "g.json", "f.json", "--p", "1"], cwd=tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("pcomp: f.json: ") and res.stderr.count("\n") == 1


HUGE = "99999999999999999999"


class TestVertexLimit:
    """A vertex count or a --p above MAX_N ends with exit 2 before anything
    of that size is built (in-process, so a missed check shows as a hang or
    a memory error rather than a killed child)."""

    @pytest.mark.parametrize("argv", [
        ["gen", "cycle", "--n", str(MAX_N + 1)],
        ["gen", "co-cycle", "--n", HUGE],
        ["cover", "cycle", "--n", HUGE, "--p", "3"],
        ["cover", "co-cycle", "--n", HUGE, "--p", "2"],
        ["survey", "cycle", "--n", f"{MAX_N}..{MAX_N + 1}", "--p", "1"],
        ["survey", "co-cycle", "--n", HUGE, "--p", "1"],
        ["cover", "co-cycle", "--n", "10", "--p", "99999999999"],
        ["cover", "cycle", "--n", "10", "--p", HUGE],
        ["survey", "cycle", "--n", "4..5", "--p", "1..99999999999"],
        ["survey", "cycle", "--n", "4..5", "--p", f"{MAX_N}..{MAX_N + 1}"],
        ["survey", "co-cycle", "--n", "5", "--p", HUGE],
    ])
    def test_n_option_above_limit_exits_2(self, argv):
        code, out, err = run_main(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("pcomp: ") and str(MAX_N) in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv,data", [
        (["theta-e"], {"n": int(HUGE), "edges": []}),
        (["compete", "--p", "1"], {"n": int(HUGE), "arcs": []}),
        (["realize"], {"n": MAX_N + 1, "sets": []}),
    ])
    def test_file_n_above_limit_exits_2(self, tmp_path, argv, data):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        code, out, err = run_main([argv[0], path, *argv[1:]])
        assert code == 2
        assert out == ""
        assert err.startswith("pcomp: ") and str(MAX_N) in err and err.count("\n") == 1

    def test_limit_itself_is_accepted(self, tmp_path):
        g = tmp_path / "g.json"
        assert run_main(["gen", "cycle", "--n", MAX_N, "--out", g]).returncode == 0
        assert json.loads(g.read_text())["n"] == MAX_N

    def test_p_at_the_limit_is_accepted(self, tmp_path):
        f = tmp_path / "f.json"
        assert run_main(["cover", "co-cycle", "--n", 5, "--p", MAX_N, "--out", f]).returncode == 0
        assert len(json.loads(f.read_text())["sets"]) == 5 + MAX_N - 1


class TestPcompErrorsExit3:
    """A library PcompError outside the named families ends the CLI with
    exit 3 and one stderr line, never a traceback (run in-process so the
    library can be patched)."""

    def test_rejected_search_certificate(self, tmp_path, monkeypatch):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
        monkeypatch.setattr(
            pcomp.oracle, "verify_p_ecc", lambda g, f, p: Verdict(False, "stub", (0, 2)))
        code, out, err = run_main(["theta-e", g])
        assert code == 3
        assert out == ""
        assert err.startswith("pcomp: ") and err.count("\n") == 1

    def test_decide_both_disagreement(self, tmp_path, monkeypatch):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
        monkeypatch.setattr(
            pcomp.oracle, "exact_theta_e_p",
            lambda g, p, budget, guard: SearchResult(4, cycle_cover(4, 1), 0))
        code, out, err = run_main(["decide", g, "--p", "2", "--method", "both"])
        assert code == 3
        assert out == ""
        assert err.startswith("pcomp: ") and "disagree" in err and err.count("\n") == 1

    def test_survey_disagreement(self, monkeypatch):
        monkeypatch.setattr(
            pcomp.oracle, "exact_theta_e_p",
            lambda g, p, budget, guard: SearchResult(4, cycle_cover(4, 1), 0))
        code, out, err = run_main(["survey", "cycle", "--n", "4", "--p", "2"])
        assert code == 3
        assert out == ""
        assert err.startswith("pcomp: ") and "disagree" in err and err.count("\n") == 1

    def test_rejected_decision_certificate(self, tmp_path, monkeypatch):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 9, "edges": [[i, (i + 1) % 9] for i in range(9)]}))

        def dropped(n, p):
            f = cycle_cover(n, p)
            return CliqueCover(n, f.sets[:-1])

        monkeypatch.setattr(pcomp.oracle, "cycle_cover", dropped)
        code, out, err = run_main(["decide", g, "--p", "6"])
        assert code == 3
        assert out == ""
        assert err.startswith("pcomp: ") and err.count("\n") == 1


class TestRecursionLimit:
    def test_search_past_the_recursion_limit_exits_3(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 1200, "edges": [[0, 1]]}))
        res = run_main(["theta-e-p", g, "--p", "2", "--guard", "2048"])
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith(
            "pcomp: p-cover search on n=1200 recurses past Python's recursion limit")
        assert res.stderr.count("\n") == 1


class TestOracleCommands:
    def test_theta_e(self, tmp_path):
        g = tmp_path / "g.json"
        run_main(["gen", "co-cycle", "--n", 6, "--out", g])
        res = run_main(["theta-e", g])
        data = json.loads(res.stdout)
        assert data["outcome"] == "exact" and data["value"] == 5
        assert len(data["certificate"]["sets"]) == 5
        assert data["nodes"] > 0

    def test_theta_e_edgeless_prints_empty_certificate(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": []}))
        res = run_main(["theta-e", g])
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["value"] == 0
        assert data["certificate"] == {"n": 3, "sets": []}

    @pytest.mark.parametrize("edges", [[[0, 1]], []], ids=["edge", "edgeless"])
    def test_theta_e_negative_upper_exits_2(self, tmp_path, edges):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": edges}))
        code, out, err = run_main(["theta-e", g, "--upper", "-1"])
        assert code == 2
        assert out == ""
        assert err.startswith("pcomp: need upper >= 0") and err.count("\n") == 1

    def test_theta_e_p_exceeds(self, tmp_path):
        g = tmp_path / "g.json"
        run_main(["gen", "cycle", "--n", 4, "--out", g])
        res = run_main(["theta-e-p", g, "--p", 2, "--budget", 4])
        data = json.loads(res.stdout)
        assert data["outcome"] == "exceeds-bound" and data["value"] is None

    def test_theta_e_p_set_count_guard_exit_3(self, tmp_path):
        # K_{4,4} needs more than 8 sets at p = 2; the guard refuses the
        # 9-set round instead of searching up to the budget
        g = tmp_path / "k44.json"
        g.write_text(json.dumps(
            {"n": 8, "edges": [[u, v] for u in range(4) for v in range(4, 8)]}))
        res = run_main(["theta-e-p", g, "--p", 2, "--budget", 40])
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr.startswith("pcomp: ") and res.stderr.count("\n") == 1
        assert "at most 8 sets" in res.stderr

    def test_theta_e_guard_exit_3(self, tmp_path):
        g = tmp_path / "g.json"
        run_main(["gen", "cycle", "--n", 18, "--out", g])
        assert run_main(["theta-e", g]).returncode == 3
        assert run_main(["theta-e", g, "--guard", 18]).returncode == 0

    def test_theta_e_guard_alone_caps_the_clique_enumeration(self, tmp_path):
        g = tmp_path / "p33.json"
        g.write_text(json.dumps({"n": 33, "edges": [[v, v + 1] for v in range(32)]}))
        code, out, err = run_main(["theta-e", g, "--guard", "40"])
        assert code == 0
        sets = ",".join(f"[{v},{v + 1}]" for v in range(32))
        assert (out, err) == (
            '{"outcome":"exact","value":32,"certificate":{"n":33,"sets":['
            + sets + ']},"nodes":64}\n', "")
        code, out, err = run_main(["theta-e", g])
        assert code == 3
        assert (out, err) == (
            "", "pcomp: exact cover search requires n <= 16 (got 33); "
            "raise guard to override\n")

    @pytest.mark.parametrize("argv", [
        ["theta-e-p", "{g}", "--p", "2"],
        ["decide", "{g}", "--p", "2", "--method", "oracle"],
    ], ids=["theta-e-p", "decide-oracle"])
    def test_guard_default_is_the_librarys(self, tmp_path, argv):
        # without --guard the library's default of 8 refuses a 9-vertex graph
        g = tmp_path / "p9.json"
        g.write_text(json.dumps({"n": 9, "edges": [[v, v + 1] for v in range(8)]}))
        code, out, err = run_main([a.format(g=g) for a in argv])
        assert (code, out) == (3, "")
        assert err == ("pcomp: p-cover search requires n <= 8 (got 9); "
                       "raise guard to override\n")

    def test_decide_usage_lists_the_librarys_methods(self):
        # the parser copies oracle.METHODS by hand, so building it runs no oracle
        code, out, _ = run_main(["decide", "--help"])
        assert code == 0
        assert "[--method {" + ",".join(pcomp.oracle.METHODS) + "}]" in out

    def test_decide_yes_no_exit_codes(self, tmp_path):
        g = tmp_path / "g.json"
        run_main(["gen", "cycle", "--n", 9, "--out", g])
        yes = run_main(["decide", g, "--p", 6])
        assert yes.returncode == 0
        assert json.loads(yes.stdout) == {
            "is_p_competition": True, "method": "construct", "cover_size": 9,
            "certificate": cover_to_json_dict(cycle_cover(9, 6))}
        run_main(["gen", "cycle", "--n", 4, "--out", g])
        no = run_main(["decide", g, "--p", 2])
        assert no.returncode == 1
        assert json.loads(no.stdout) == {
            "is_p_competition": False, "method": "construct", "cover_size": None,
            "certificate": None}

    @pytest.mark.parametrize("argv,code_at_0", [
        (["theta-e", "{g}"], 3),
        (["theta-e-p", "{g}", "--p", "1"], 3),
        (["decide", "{g}", "--p", "1", "--method", "oracle"], 3),
        (["decide", "{g}", "--p", "1"], 0),
        (["survey", "cycle", "--n", "4..6", "--p", "1..2"], 0),
    ], ids=["theta-e", "theta-e-p", "decide-oracle", "decide", "survey"])
    def test_negative_guard_exits_2(self, tmp_path, argv, code_at_0):
        g = tmp_path / "c5.json"
        g.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
        argv = [a.format(g=g) for a in argv]
        code, out, err = run_main([*argv, "--guard", "-1"])
        assert code == 2
        assert out == "" and err == "pcomp: need guard >= 0, got guard=-1\n"
        # a guard of 0 is a real guard: the search refuses n = 5 (exit 3),
        # and the constructions answer without the search
        assert run_main([*argv, "--guard", "0"]).returncode == code_at_0

    def test_decide_both_without_a_construction_searches(self, tmp_path):
        # co-C5 at p = 2 has no lifted cover within 5 sets, so "both" runs
        # the search alone and answers as it does
        g = tmp_path / "g.json"
        g.write_text(json.dumps(graph_to_json_dict(complement(make_cycle(5)))))
        code, out, err = run_main(["decide", g, "--p", "2", "--method", "both"])
        assert code == 0
        assert err == "" and json.loads(out)["method"] == "oracle"

    def test_decide_unsupported_exits_2(self, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 12, "edges": [[0, 1]]}))
        assert run_main(["decide", g, "--p", 2]).returncode == 2
        # at p = 1 the default guard is the clique search's 16
        res = run_main(["decide", g, "--p", 1])
        assert res.returncode == 0 and json.loads(res.stdout)["method"] == "oracle"
        g.write_text(json.dumps({"n": 17, "edges": [[0, 1]]}))
        assert run_main(["decide", g, "--p", 1]).returncode == 2


class TestSurvey:
    def test_golden_cycle_table(self):
        res = run_main(["survey", "cycle", "--n", "4..12", "--p", "1..6"])
        assert res.returncode == 0
        golden = (GOLDEN / "survey_cycle_n4-12_p1-6.tsv").read_text()
        assert res.stdout == golden

    def test_single_value_ranges(self):
        res = run_main(["survey", "cycle", "--n", "7", "--p", "4"])
        lines = res.stdout.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("7\t4\tyes")

    def test_co_cycle_rows(self):
        res = run_main(["survey", "co-cycle", "--n", "9..13", "--p", "1..6"])
        rows = {tuple(line.split("\t")[:2]): line.split("\t")
                for line in res.stdout.strip().split("\n")[1:]}
        assert rows[("9", "3")][2] == "yes"
        assert rows[("9", "4")][2] == "skipped"
        assert rows[("12", "6")][2] == "yes"

    def test_guard_alone_caps_the_set_count(self):
        # co-C13 at p = 8 needs a round of 13 sets
        res = run_main(["survey", "co-cycle", "--n", "13", "--p", "8..9", "--guard", "13"])
        assert res.returncode == 0, res.stderr
        assert res.stdout == ("n\tp\tdecision\tmethod\tcover_size\tagree\n"
                              "13\t8\tyes\toracle\t13\t-\n"
                              "13\t9\tno\toracle\t-\t-\n")

    def test_bad_range_exits_2(self):
        assert run_main(["survey", "cycle", "--n", "9..4", "--p", "1"]).returncode == 2

    @pytest.mark.parametrize("n,p,message", [
        ("2..5", "1", "need n >= 3, got n=2"),
        ("4..5", "0..1", "need p >= 1, got p=0"),
    ])
    def test_library_refuses_small_n_and_p(self, n, p, message):
        # the survey checks neither itself: make_cycle and is_p_competition do
        code, out, err = run_main(["survey", "cycle", "--n", n, "--p", p])
        assert code == 2
        assert out == "" and err == f"pcomp: {message}\n"


class TestOptimizedInterpreter:
    """Certificate checks are plain raises, so `python -O` prints the same."""

    def test_golden_survey_under_O(self):
        res = run_optimized(["survey", "cycle", "--n", "4..12", "--p", "1..6"])
        assert res.returncode == 0
        assert res.stdout == (GOLDEN / "survey_cycle_n4-12_p1-6.tsv").read_text()

    def test_oracle_decision_under_O(self, tmp_path):
        g = tmp_path / "g.json"
        run_main(["gen", "co-cycle", "--n", 7, "--out", g])
        plain = run_main(["decide", g, "--p", 2])
        optimized = run_optimized(["decide", g, "--p", 2])
        assert plain.returncode == optimized.returncode == 0
        assert optimized.stdout == plain.stdout
        data = json.loads(plain.stdout)
        assert data["method"] == "oracle" and data["certificate"] is not None

    def test_theta_e_p_under_O(self, tmp_path):
        g = tmp_path / "g.json"
        run_main(["gen", "co-cycle", "--n", 7, "--out", g])
        plain = run_main(["theta-e-p", g, "--p", 2])
        optimized = run_optimized(["theta-e-p", g, "--p", 2])
        assert plain.returncode == optimized.returncode == 0
        assert optimized.stdout == plain.stdout
        data = json.loads(plain.stdout)
        assert data["value"] == 7 and data["nodes"] == 404

    @pytest.mark.parametrize("f,g,p", [
        (cycle_cover(200, 10), make_cycle(200), 10),
        (lift_cover(complement_cycle_cover(9), 2), complement(make_cycle(9)), 2),
    ], ids=["sparse-C200-p10", "dense-co-C9-p2"])
    def test_compete_under_O(self, tmp_path, f, g, p):
        # the C200 realization's rows walk their candidates; the lifted
        # co-C9 one's, whose full set makes every pair a candidate, count
        # every vertex above them
        d = tmp_path / "d.json"
        d.write_text(json.dumps(digraph_to_json_dict(realize(f))))
        res = run_optimized(["compete", d, "--p", p])
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout == json.dumps(graph_to_json_dict(g), separators=(",", ":")) + "\n"

    def test_verify_dropped_set_under_O(self, tmp_path):
        # C12 at p = 3 without the run {0, 1, 2, 3}: edge {0, 1} keeps 2 sets
        g, f = tmp_path / "g.json", tmp_path / "f.json"
        g.write_text(json.dumps(graph_to_json_dict(make_cycle(12))))
        f.write_text(json.dumps({"n": 12, "sets": [sorted(s) for s in cycle_cover(12, 3).sets[1:]]}))
        res = run_optimized(["verify", g, f, "--p", 3])
        assert res.returncode == 1 and res.stderr == ""
        assert res.stdout == \
            '{"valid":false,"witness":{"reason":"uncovered-edge","pair":[0,1]}}\n'
