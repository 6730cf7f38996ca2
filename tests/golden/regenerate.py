"""Rebuild tests/golden/identity.json from the code as it stands.

    python tests/golden/regenerate.py

Run it only for a declared output change: the diff it leaves lists every
entry the change altered, one line each, and the change names them.
"""

import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_identity import CORPUS, corpus_at, dump, write_inputs  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        CORPUS.write_text(dump(corpus_at(root)))
    print(f"wrote {CORPUS}")


if __name__ == "__main__":
    main()
