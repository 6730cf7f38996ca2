"""Run the mutant corpus in mutants.json and print killed or survived for each.

Each entry names a source file, an exact old text that occurs once in it,
the new text that replaces it, the tests to run, and whether the mutant is
equivalent (changes speed or nothing at all, so no test can kill it).  For
each mutant the runner copies src/, tests/, pyproject.toml and README.md
(whose CLI tour a test runs) to a fresh temporary directory, applies the
mutant there and runs only its tests with pytest, stopping at the first
failure.  The working tree is never touched.  The last line sums up the
run: mutants run, killed, survived as equivalent, results that disagree
with their flag, and total seconds.

    python tests/mutants/run.py            # every mutant
    python tests/mutants/run.py NAME ...   # the named mutants

The exit code is 1 when a mutant's result disagrees with its
``equivalent`` flag (a killed equivalent mutant or a surviving one that
is not), else 0.  This is not part of tier-1: each mutant runs a test
file, so the corpus takes minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).with_name("mutants.json")
TIMEOUT_S = 600


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def run_one(mutant: dict) -> str:
    """'killed', 'survived' or 'error: ...' for one mutant."""
    with tempfile.TemporaryDirectory(prefix="pcomp-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, work)
        target = work / mutant["file"]
        text = target.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "error: old text does not occur exactly once"
        target.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(work / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *mutant["tests"]]
        try:
            res = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                                 text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"  # a mutant that hangs its tests is caught by them
    if res.returncode == 0:
        return "survived"
    if res.returncode == 1:
        return "killed"
    return f"error: pytest exit {res.returncode}"


def main(names: list[str]) -> int:
    corpus = load()
    unknown = set(names) - {m["name"] for m in corpus}
    if unknown:
        print(f"unknown mutants: {' '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    ran = killed = equivalent = bad = 0
    began = time.perf_counter()
    for mutant in corpus:
        if names and mutant["name"] not in names:
            continue
        start = time.perf_counter()
        result = run_one(mutant)
        expected = "survived" if mutant["equivalent"] else "killed"
        note = "" if result == expected else "  <- expected " + expected
        ran += 1
        killed += result == "killed"
        equivalent += result == expected == "survived"
        bad += result != expected
        kind = "equivalent" if mutant["equivalent"] else "mutant"
        print(f"{mutant['name']}: {result} ({kind}, {time.perf_counter() - start:.1f} s){note}",
              flush=True)
    print(f"{ran} run, {killed} killed, {equivalent} survived as equivalent, "
          f"{bad} disagree with their flag, {time.perf_counter() - began:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
