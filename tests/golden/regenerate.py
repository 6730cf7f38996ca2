"""Rebuild tests/golden/identity.json from the code as it stands.

    python tests/golden/regenerate.py

Run it only for a declared output change: the diff it leaves lists every
entry the change altered, one line each, and the change names them.  After
writing, it prints each changed entry as its section, its key and every
field that moved, old -> new.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_identity import CORPUS, SECTIONS, corpus_at, dump, key, write_inputs  # noqa: E402


def changes(old: dict, new: dict) -> list[str]:
    """One line per entry that differs between two corpora, with its moved
    fields as old -> new; an entry on one side only moves from or to None."""
    lines = []
    for section in SECTIONS:
        before = {key(e): e for e in old.get(section, [])}
        after = {key(e): e for e in new[section]}
        for k in dict.fromkeys([*before, *after]):
            was, now = before.get(k, {}), after.get(k, {})
            moved = [f"{field} {was.get(field)!r} -> {now.get(field)!r}"
                     for field in dict.fromkeys([*was, *now]) if was.get(field) != now.get(field)]
            if moved:
                lines.append(f"{section} {k[:80]}: " + ", ".join(moved))
    return lines


def main() -> None:
    old = json.loads(CORPUS.read_text()) if CORPUS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        new = corpus_at(root)
    CORPUS.write_text(dump(new))
    print(f"wrote {CORPUS}")
    for line in changes(old, new) or ["no entry changed"]:
        print(line)


if __name__ == "__main__":
    main()
