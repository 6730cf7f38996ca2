"""Command-line front end.

Subcommands: gen, cover, verify, realize, compete, theta-e, theta-e-p,
decide, survey.  Objects travel as JSON (optionally DOT for graphs and
digraphs), survey tables as TSV.  Each subcommand returns its text and exit
code, and `main` alone writes that text to --out or stdout, so a command that
fails leaves both untouched.  The commands reach the library through its
modules (`covers.cycle_cover`, not `cycle_cover`), and the package runs a
module's body on first use, so a command compiles only the modules it calls.
Each command passes the library only the options the user gave, so the
library's signatures alone hold the defaults of --guard, --upper, --budget
and --method; survey's --guard 5 and cover's --p 1 are the CLI's own.

`decide` and `survey` both ask oracle.is_p_competition and only format
its Decision: a survey cell is `decide --method both`, else `skipped`.

Exit codes: 0 success / valid / positive decision, 1 invalid cover or
negative decision, 2 input or parameter problems (unreadable, non-UTF-8,
malformed or too deeply nested JSON files, integers past Python's digit
limit or a vertex count above graphs.MAX_N in a file, --n or --p above it,
an --order that is no permutation of the cover's vertices, an unknown
--method, no decision route), 3 infeasible parameters (among them an
--order that puts a member of set j at position j or later), an exceeded
search guard or recursion limit, or any other pcomp error (a certificate
the checks reject, or the two decision routes disagreeing).
Every failure ends with a one-line `pcomp:` message on stderr, which names
the file for an input error in a JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import competition, covers, oracle, realization
from .errors import InvalidParameterError, PcompError, UnsupportedInstanceError
from .graphs import (
    MAX_N,
    complement,
    digraph_from_json_dict,
    digraph_to_dot,
    digraph_to_json_dict,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
    make_cycle,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3


def _json(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _format(args: argparse.Namespace, obj, to_dot, to_json_dict) -> str:
    """obj as DOT under --format dot, else as JSON."""
    return to_dot(obj) if args.format == "dot" else _json(to_json_dict(obj))


def _load_json(path: str, from_json_dict):
    """from_json_dict of the JSON in path.  Bad bytes, syntax, nesting, digit
    counts and fields are input errors, and each message names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidParameterError(f"{path}: {exc}") from exc
    except ValueError as exc:  # an integer past Python's digit limit for int(str)
        raise InvalidParameterError(f"{path}: a number has too many digits") from exc
    try:
        return from_json_dict(data)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{path}: {exc}") from exc


def _check_limit(option: str, value: int) -> None:
    """Refuse --n or --p above MAX_N before anything of that size exists."""
    if value > MAX_N:
        raise InvalidParameterError(f"{option} {value} is above the limit {MAX_N}")


def _parse_span(text: str) -> tuple[int, int]:
    """Parse 'a..b' (inclusive) or a single integer 'a'."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError as exc:
        raise InvalidParameterError(f"bad range {text!r}: {exc}") from exc
    if b < a:
        raise InvalidParameterError(f"bad range {text!r}: end below start")
    return a, b


def _parse_order(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InvalidParameterError(
            f"bad order {realization.excerpt(repr(text))}: "
            f"{realization.excerpt(str(exc))}") from exc


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options the user gave, so the library's defaults fill the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _family_graph(family: str, n: int):
    if family == "cycle":
        return make_cycle(n)
    return complement(make_cycle(n))


def cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    _check_limit("--n", args.n)
    g = _family_graph(args.family, args.n)
    return _format(args, g, graph_to_dot, graph_to_json_dict), EXIT_OK


def cmd_cover(args: argparse.Namespace) -> tuple[str, int]:
    _check_limit("--n", args.n)
    _check_limit("--p", args.p)
    if args.family == "cycle":
        f = covers.cycle_cover(args.n, args.p)
    else:
        f = covers.lift_cover(covers.complement_cycle_cover(args.n), args.p)
    return _json(covers.cover_to_json_dict(f)), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_json(args.graph, graph_from_json_dict)
    f = _load_json(args.cover, covers.cover_from_json_dict)
    verdict = covers.verify_p_ecc(g, f, args.p)
    return _json(verdict.to_json_dict()), EXIT_OK if verdict.valid else EXIT_INVALID


def cmd_realize(args: argparse.Namespace) -> tuple[str, int]:
    f = _load_json(args.cover, covers.cover_from_json_dict)
    if args.order is None:
        d = realization.realize(f)
    else:
        d = realization.realize_acyclic(f, _parse_order(args.order))
    return _format(args, d, digraph_to_dot, digraph_to_json_dict), EXIT_OK


def cmd_compete(args: argparse.Namespace) -> tuple[str, int]:
    d = _load_json(args.digraph, digraph_from_json_dict)
    return _format(args, competition.p_competition_graph(d, args.p), graph_to_dot,
                   graph_to_json_dict), EXIT_OK


def cmd_theta_e(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_json(args.graph, graph_from_json_dict)
    result = oracle.exact_theta_e(g, **_given(args, "upper", "guard"))
    return _json(result.to_json_dict()), EXIT_OK


def cmd_theta_e_p(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_json(args.graph, graph_from_json_dict)
    result = oracle.exact_theta_e_p(g, args.p, **_given(args, "budget", "guard"))
    return _json(result.to_json_dict()), EXIT_OK


def cmd_decide(args: argparse.Namespace) -> tuple[str, int]:
    g = _load_json(args.graph, graph_from_json_dict)
    decision = oracle.is_p_competition(g, args.p, **_given(args, "method", "guard"))
    return _json(decision.to_json_dict()), EXIT_OK if decision.value else EXIT_INVALID


def cmd_survey(args: argparse.Namespace) -> tuple[str, int]:
    n_lo, n_hi = _parse_span(args.n)
    _check_limit("--n", n_hi)
    p_lo, p_hi = _parse_span(args.p)
    _check_limit("--p", p_hi)
    lines = ["n\tp\tdecision\tmethod\tcover_size\tagree"]
    for n in range(n_lo, n_hi + 1):
        g = _family_graph(args.family, n)
        for p in range(p_lo, p_hi + 1):
            try:
                d = oracle.is_p_competition(g, p, method="both", guard=args.guard)
            except UnsupportedInstanceError:
                cells = "skipped\t-\t-\t-"
            else:
                size = d.cover_size if d.value else "-"
                agree = "yes" if d.method == "both" else "-"
                cells = f"{'yes' if d.value else 'no'}\t{d.method}\t{size}\t{agree}"
            lines.append(f"{n}\t{p}\t{cells}")
    return "\n".join(lines), EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcomp",
        description="p-competition graphs of cycles and cycle complements: "
        "constructions, verification, realization, exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a cycle or cycle-complement graph")
    gen.add_argument("family", choices=["cycle", "co-cycle"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--format", choices=["json", "dot"], default="json")
    gen.set_defaults(func=cmd_gen)

    cover = sub.add_parser("cover", help="emit a cover family for a cycle or its complement")
    cover.add_argument("family", choices=["cycle", "co-cycle"])
    cover.add_argument("--n", type=int, required=True)
    cover.add_argument("--p", type=int, default=1)
    cover.set_defaults(func=cmd_cover)

    verify = sub.add_parser("verify", help="verify a p-edge clique cover against a graph")
    verify.add_argument("graph")
    verify.add_argument("cover")
    verify.add_argument("--p", type=int, required=True)
    verify.set_defaults(func=cmd_verify)

    real = sub.add_parser("realize", help="build the digraph realizing a cover")
    real.add_argument("cover")
    real.add_argument("--order", help="comma-separated vertex permutation: build the acyclic "
                      "realization, with set j's prey at order[j]")
    real.add_argument("--format", choices=["json", "dot"], default="json")
    real.set_defaults(func=cmd_realize)

    compete = sub.add_parser("compete", help="compute the p-competition graph of a digraph")
    compete.add_argument("digraph")
    compete.add_argument("--p", type=int, required=True)
    compete.add_argument("--format", choices=["json", "dot"], default="json")
    compete.set_defaults(func=cmd_compete)

    te = sub.add_parser("theta-e", help="exact minimum edge clique cover size")
    te.add_argument("graph")
    te.add_argument("--upper", type=int)
    te.add_argument("--guard", type=int)
    te.set_defaults(func=cmd_theta_e)

    tep = sub.add_parser("theta-e-p", help="exact minimum p-edge clique cover size up to a budget")
    tep.add_argument("graph")
    tep.add_argument("--p", type=int, required=True)
    tep.add_argument("--budget", type=int, help="defaults to the vertex count")
    tep.add_argument("--guard", type=int,
                     help="cap on the vertex count, and at p >= 2 on the number of sets")
    tep.set_defaults(func=cmd_theta_e_p)

    decide = sub.add_parser("decide", help="is the graph a p-competition graph?")
    decide.add_argument("graph")
    decide.add_argument("--p", type=int, required=True)
    # is_p_competition checks the method, so the parser needs no oracle
    decide.add_argument("--method", metavar="{auto,construct,oracle,both}")
    decide.add_argument("--guard", type=int)
    decide.set_defaults(func=cmd_decide)

    survey = sub.add_parser("survey", help="tabulate decisions over n/p ranges as TSV")
    survey.add_argument("family", choices=["cycle", "co-cycle"])
    survey.add_argument("--n", required=True, help="range a..b (inclusive) or a single value")
    survey.add_argument("--p", required=True, help="range a..b (inclusive) or a single value")
    survey.add_argument("--guard", type=int, default=5,
                        help="run the exhaustive oracle on rows with n up to this")
    survey.set_defaults(func=cmd_survey)

    for command in sub.choices.values():  # main writes each one's text; --out comes last
        command.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        if args.out is None:
            sys.stdout.write(text + "\n")
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return code
    except (InvalidParameterError, UnsupportedInstanceError, OSError) as exc:
        print(f"pcomp: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PcompError as exc:
        print(f"pcomp: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
