"""`python -m pcomp` with tracing: the traced run of the cli workload.

Usage: python3 perfbench/cli_child.py SPANS.json <pcomp arguments...>

Runs `pcomp.cli.main` from the tree's src/ with every traced function
wrapped, then writes the spans to SPANS.json and exits with main's code.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pcomp.cli  # noqa: E402  (imported before wrapping, like python -m pcomp)

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return pcomp.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
