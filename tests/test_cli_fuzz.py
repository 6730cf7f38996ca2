"""Random argument vectors for every subcommand, run in-process through
cli.main: each run must end with an exit code in {0, 1, 2, 3} and at most
one `pcomp:` line on stderr, never a traceback.

Sizes stay small (integers up to 12, --guard up to 8) apart from three kinds
of draw.  Now and then an integer from 13 to 300 is drawn for --n and --p of
gen and cover, and for --p, --budget and --upper of the other subcommands;
survey spans stay within 12, since a 300 x 300 span is 90,000 cells.
MAX_N + 1 must be refused before anything of that size is built, and BIG, a
number past Python's 4,300-digit limit for int(str), must be refused as bad
input by options and JSON files alike; so must JSON nested 100,000 deep.
Long --order lists, of up to 300 vertices, get a test of their own:
permutations and lists with one vertex repeated or missing."""

import json
import re

import pytest
from conftest import run_main
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pcomp import (
    complement,
    cover_to_json_dict,
    cycle_cover,
    digraph_to_json_dict,
    graph_to_json_dict,
    make_cycle,
    realize,
)
from pcomp.graphs import MAX_N

# the error line of pcomp itself ("pcomp: ...") or of argparse ("pcomp gen: error: ...")
ERROR_LINE = re.compile(r"^pcomp( \S+)?: ", re.MULTILINE)

# MAX_N + 1 and the nonpositive values are drawn often enough to be tried
# on every option, but most runs get past the argument checks
INT_VALUES = [*range(-2, 13), *range(2, 9), MAX_N + 1]
INTS = st.sampled_from(INT_VALUES)
BIG = "9" * 5000
# option values: the integers, and now and then BIG
NUMBERS = st.sampled_from([*INT_VALUES, BIG])
# the same, and in about one draw in ten an integer from 13 to 300
WIDE = st.one_of(*[NUMBERS] * 9, st.integers(13, 300))
TOKENS = st.one_of(NUMBERS.map(str), st.sampled_from(["", "x", "1.5", "--", "-h", "3..", "..4"]))
FAMILIES = st.sampled_from(["cycle", "co-cycle"] * 4 + ["path"])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTS | st.floats(-3, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "arcs", "sets", "x"]), inner, max_size=4),
    max_leaves=12)
SMALL = st.integers(-1, 8)


@st.composite
def shaped(draw, key, set_like=False):
    """A JSON object of the right shape whose members stay mostly in range."""
    n = draw(INTS)
    member = st.integers(-1, max(0, min(n, 12)))
    if set_like:
        return {"n": n, "sets": draw(st.lists(st.lists(member, max_size=5), max_size=10))}
    pairs = st.lists(st.tuples(member, member).map(list), max_size=14)
    return {"n": n, key: draw(pairs)}


SHAPED = {"graph": shaped("edges"), "digraph": shaped("arcs"), "cover": shaped("sets", True)}
VALID = {
    "graph": ["c5.json", "co-c6.json", "edgeless.json"],
    "cover": ["cover.json"],
    "digraph": ["digraph.json"],
}
BROKEN = ["random.json", "random.bin", "missing.json", ".", "deep.json", "bign.json"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    contents = {
        "c5.json": graph_to_json_dict(make_cycle(5)),
        "co-c6.json": graph_to_json_dict(complement(make_cycle(6))),
        "edgeless.json": {"n": 3, "edges": []},
        "cover.json": cover_to_json_dict(cycle_cover(6, 2)),
        "digraph.json": digraph_to_json_dict(realize(cycle_cover(6, 2))),
    }
    for name, obj in contents.items():
        (root / name).write_text(json.dumps(obj))
    (root / "deep.json").write_text("[" * 100_000)
    (root / "bign.json").write_text(f'{{"n": {BIG}, "edges": [], "arcs": [], "sets": []}}')
    return root


def option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def file_arg(files, data, kind):
    """Mostly a valid file of the kind the subcommand reads or a random one
    of that shape; else a file of another kind, random JSON, random bytes, a
    missing file or a directory.  Random contents are drawn for each run."""
    others = [name for k, names in VALID.items() if k != kind for name in names]
    name = data.draw(st.sampled_from(
        [*VALID[kind] * 3, "shaped.json", "shaped.json", *others, *BROKEN]))
    path = files / name
    if name == "random.json":
        path.write_text(json.dumps(data.draw(JSON_VALUES)))
    elif name == "shaped.json":
        path.write_text(json.dumps(data.draw(SHAPED[kind])))
    elif name == "random.bin":
        path.write_bytes(data.draw(st.binary(max_size=40)))
    return str(path)


def rarely(data):
    """True in about one run in ten."""
    return data.draw(st.sampled_from([False] * 9 + [True]))


def required(data, name, values):
    """A required option with a drawn value, left out in about one run in ten."""
    return [] if rarely(data) else [name, str(data.draw(values))]


def span(data):
    lo, hi = data.draw(INTS), data.draw(INTS)
    return data.draw(st.sampled_from(
        [str(lo), f"{lo}..{hi}", f"{min(lo, hi)}..{max(lo, hi)}", f"{lo}..{BIG}"]))


def argv_for(command, files, data):
    draw = data.draw
    guard = option("--guard", st.integers(-1, 8))
    fmt = option("--format", st.sampled_from(["json", "json", "dot", "tsv"]))
    if command == "gen":
        return [draw(FAMILIES), *required(data, "--n", WIDE), *draw(fmt)]
    if command == "cover":
        return [draw(FAMILIES), *required(data, "--n", WIDE), *draw(option("--p", WIDE))]
    if command == "verify":
        return [file_arg(files, data, "graph"), file_arg(files, data, "cover"),
                *required(data, "--p", WIDE)]
    if command == "realize":
        order = st.permutations(range(6)) | st.lists(SMALL, max_size=7)
        orders = order.map(lambda o: ",".join(map(str, o))) | TOKENS
        return [file_arg(files, data, "cover"), *draw(option("--order", orders)), *draw(fmt)]
    if command == "compete":
        return [file_arg(files, data, "digraph"), *required(data, "--p", WIDE), *draw(fmt)]
    if command == "theta-e":
        return [file_arg(files, data, "graph"), *draw(option("--upper", WIDE)), *draw(guard)]
    if command == "theta-e-p":
        return [file_arg(files, data, "graph"), *required(data, "--p", WIDE),
                *draw(option("--budget", WIDE)), *draw(guard)]
    if command == "decide":
        methods = st.sampled_from(["auto", "construct", "oracle", "both", "none"])
        return [file_arg(files, data, "graph"), *required(data, "--p", WIDE),
                *draw(option("--method", methods)), *draw(guard)]
    return [draw(FAMILIES), "--n", span(data), "--p", span(data), *draw(guard)]


COMMANDS = ["gen", "cover", "verify", "realize", "compete", "theta-e", "theta-e-p",
            "decide", "survey"]


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_random_argv_exits_cleanly(files, data):
    command = data.draw(st.sampled_from([*COMMANDS, *COMMANDS, "bogus"]))
    argv = [command, *argv_for(command, files, data)]
    if rarely(data):
        argv.append(data.draw(TOKENS))
    out = files / "out.txt"
    argv += data.draw(st.sampled_from([[], ["--out", str(out)], ["--out", str(files)]]))
    code, _, err = run_main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert len(ERROR_LINE.findall(err)) <= 1, (argv, err)
    if code in (0, 1):
        assert err == "", (argv, err)
    else:
        assert len(ERROR_LINE.findall(err)) == 1, (argv, err)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), kind=st.sampled_from(["permutation", "repeated", "missing"]),
       shuffle=st.sampled_from([True, True, False]), rng=st.randoms(use_true_random=False),
       data=st.data())
def test_long_orders_exit_cleanly(files, n, kind, shuffle, rng, data):
    # set 0 is empty and set j holds vertex j - 1, so of the permutations
    # only the identity keeps every member of set j before position j
    cover = files / "chain.json"
    cover.write_text(json.dumps({"n": n, "sets": [[j - 1] if j else [] for j in range(n)]}))
    order = list(range(n))
    if shuffle:
        rng.shuffle(order)
    if kind == "repeated":
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 2))
        order[i] = order[k + (k >= i)]
    elif kind == "missing":
        del order[data.draw(st.integers(0, n - 1))]
    code, _, err = run_main(["realize", str(cover), "--order", ",".join(map(str, order))])
    if sorted(order) == list(range(n)):
        want = 0 if order == list(range(n)) else 3
    else:
        want = 2
    event(f"{kind} exit {code}")
    assert code == want, (n, kind, code, err)
    assert "Traceback" not in err
    assert err.count("\n") == (code != 0) and len(ERROR_LINE.findall(err)) == (code != 0)
