import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORPUS = json.loads((ROOT / "tests" / "mutants" / "mutants.json").read_text(encoding="utf-8"))


def test_names_are_unique():
    names = [m["name"] for m in CORPUS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", CORPUS, ids=lambda m: m["name"])
def test_old_text_occurs_once_in_todays_source(mutant):
    # a change to mutated code must update or retire the mutant with it;
    # tests/mutants/run.py applies and runs the corpus
    assert set(mutant) == {"name", "file", "old", "new", "tests", "equivalent"}
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert isinstance(mutant["equivalent"], bool)
    for selection in mutant["tests"]:
        assert (ROOT / selection.partition("::")[0]).is_file(), selection
