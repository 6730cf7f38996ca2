"""The contract of the three result types, Verdict, SearchResult and
Decision: immutable value records whose defaults, repr and JSON form
callers and the CLI rely on."""

import json

import pytest
from conftest import run_main

from pcomp import (
    CliqueCover,
    Decision,
    SearchResult,
    Verdict,
    cover_to_json_dict,
    cycle_cover,
    exact_theta_e,
    is_p_competition,
    make_cycle,
)

C4_COVER = CliqueCover(4, [(0, 1), (0, 3), (1, 2), (2, 3)])


def test_field_defaults():
    assert Verdict(True) == Verdict(True, None, None)
    assert SearchResult(None, None, 7) == SearchResult(None, None, 7, None)
    assert Decision(False, "construct") == Decision(False, "construct", None)
    assert Verdict._fields == ("valid", "reason", "pair")
    assert SearchResult._fields == ("value", "certificate", "nodes", "bound")
    assert Decision._fields == ("value", "method", "certificate")


@pytest.mark.parametrize("obj", [
    Verdict(False, "uncovered-edge", (0, 1)),
    SearchResult(4, C4_COVER, 8),
    Decision(True, "construct", C4_COVER),
], ids=lambda obj: type(obj).__name__)
def test_immutable(obj):
    for name in (*type(obj)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


@pytest.mark.parametrize("make,other", [
    (lambda: Verdict(False, "uncovered-edge", (0, 1)),
     Verdict(False, "uncovered-edge", (0, 2))),
    (lambda: SearchResult(4, CliqueCover(4, C4_COVER.sets), 8),
     SearchResult(4, C4_COVER, 9)),
    (lambda: Decision(True, "both", CliqueCover(4, C4_COVER.sets)),
     Decision(True, "oracle", C4_COVER)),
], ids=["Verdict", "SearchResult", "Decision"])
def test_equality_and_hash_by_value(make, other):
    # two separately built records with equal fields
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other


def test_repr_text():
    assert repr(Verdict(True)) == "Verdict(valid=True, reason=None, pair=None)"
    assert (repr(Verdict(False, "uncovered-edge", (0, 1)))
            == "Verdict(valid=False, reason='uncovered-edge', pair=(0, 1))")
    assert repr(exact_theta_e(make_cycle(4))) == (
        "SearchResult(value=4, certificate=CliqueCover(n=4, sets=[[0, 1], [0, 3], [1, 2], "
        "[2, 3]]), nodes=8, bound=None)")
    assert (repr(SearchResult(None, None, 7, 3))
            == "SearchResult(value=None, certificate=None, nodes=7, bound=3)")
    assert repr(is_p_competition(make_cycle(5), 2, method="both")) == (
        "Decision(value=True, method='both', certificate=CliqueCover(n=5, sets=[[0, 1, 2], "
        "[1, 2, 3], [2, 3, 4], [0, 3, 4], [0, 1, 4]]))")
    assert (repr(Decision(False, "construct"))
            == "Decision(value=False, method='construct', certificate=None)")


def test_to_json_dict():
    assert Verdict(True).to_json_dict() == {"valid": True, "witness": None}
    assert Verdict(False, "nonedge-in-p-sets", (1, 3)).to_json_dict() == {
        "valid": False, "witness": {"reason": "nonedge-in-p-sets", "pair": [1, 3]}}
    assert Verdict(False, "stub").to_json_dict() == {
        "valid": False, "witness": {"reason": "stub"}}
    assert SearchResult(4, C4_COVER, 8).to_json_dict() == {
        "outcome": "exact", "value": 4,
        "certificate": {"n": 4, "sets": [[0, 1], [0, 3], [1, 2], [2, 3]]}, "nodes": 8}
    assert SearchResult(None, None, 7, 3).to_json_dict() == {
        "outcome": "exceeds-bound", "value": None, "certificate": None, "nodes": 7}
    assert Decision(True, "construct", C4_COVER).to_json_dict() == {
        "is_p_competition": True, "method": "construct", "cover_size": 4,
        "certificate": {"n": 4, "sets": [[0, 1], [0, 3], [1, 2], [2, 3]]}}
    assert Decision(False, "oracle").to_json_dict() == {
        "is_p_competition": False, "method": "oracle", "cover_size": None,
        "certificate": None}


def test_decide_both_prints_method_and_certificate(tmp_path):
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
    code, out, err = run_main(["decide", g, "--p", "2", "--method", "both"])
    assert code == 0
    assert err == ""
    cert = json.dumps(cover_to_json_dict(cycle_cover(5, 2)), separators=(",", ":"))
    assert out == (
        '{"is_p_competition":true,"method":"both","cover_size":5,'
        f'"certificate":{cert}}}\n')
