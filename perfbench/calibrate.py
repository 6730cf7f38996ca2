"""Reference computations that put the benchmark's timings on a fixed scale.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: the
same operation takes up to about 1.5 times as long from one minute to the
next, often for the whole of a run.  A median over a run cannot remove a
drift that lasts the run, so each operation is timed next to a reference
computation that belongs to the benchmark and never changes, and a run's
times are scaled by how fast the reference ran through it:

    calibrated time = measured time * NOMINAL_S / (median reference time)

NOMINAL_S is the reference's time on the reference machine (2 vCPUs,
Python 3.11) while that host was quiet, so a calibrated time reads as
seconds on that machine.  The reference runs no pcomp code, so a change to
pcomp moves calibrated and measured times alike.  One factor per run, from
the median of all its reference samples, leaves the short bursts that hit
single operations to the medians over the run.

Two references, one per kind of operation:

* `InProcess`: a bitmask maximal-clique search and a pair count over the
  cliques, the same kind of interpreter work (small ints, bit tricks,
  recursion, frozensets, dicts) as pcomp's searches and covers.
* `BareChild`: starting `python -c pass` and waiting for it, the same kind
  of work (fork, exec, interpreter start, site import) as a `python -m
  pcomp` child.

With the host slowed on purpose (a second process thrashing memory or
spinning on the other vCPU) and in quiet spells, raw medians moved by up to
1.5x while search and pipeline latencies divided by `InProcess` moved by at
most 6%, and `python -m pcomp` children divided by `BareChild` by 4%.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

# timings of the in-process reference per sample
REPEATS = 3


def _graph(n: int = 27, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.55:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph()


def _cliques(r: int, p: int, x: int, out: list[int]) -> None:
    """Bron-Kerbosch with a pivot, over bitmasks."""
    if not p:
        if not x:
            out.append(r)
        return
    cand = p & ~_ADJ[(p | x).bit_length() - 1]
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        _cliques(r | low, p & _ADJ[v], x & _ADJ[v], out)
        p &= ~low
        x |= low
        cand &= ~low


def _reference_work() -> tuple[int, int]:
    cliques: list[int] = []
    _cliques(0, (1 << len(_ADJ)) - 1, 0, cliques)
    counts: dict[tuple[int, int], int] = {}
    for mask in cliques:
        s = frozenset(i for i in range(len(_ADJ)) if mask >> i & 1)
        for u in s:
            for v in s:
                if u < v:
                    counts[u, v] = counts.get((u, v), 0) + 1
    return len(cliques), len(counts)


EXPECTED = (152, 204)   # what _reference_work returns; checked on every call


class Reference:
    """A fixed computation timed beside the operations."""

    NOMINAL_S: float   # its time on the reference machine, host quiet

    def sample(self) -> float:
        raise NotImplementedError


class InProcess(Reference):
    NOMINAL_S = 0.00225

    def sample(self) -> float:
        """The median of REPEATS timings of the clique search and pair count."""
        return statistics.median(self._once() for _ in range(REPEATS))

    @staticmethod
    def _once() -> float:
        t0 = time.perf_counter()
        got = _reference_work()
        elapsed = time.perf_counter() - t0
        if got != EXPECTED:
            raise RuntimeError(f"reference computation gave {got}, not {EXPECTED}")
        return elapsed


class BareChild(Reference):
    """`python -c pass` with the environment and directory the children get."""

    NOMINAL_S = 0.080

    def __init__(self, env: dict | None = None, cwd: Path | None = None) -> None:
        self.env, self.cwd = env, cwd

    def sample(self) -> float:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.cwd,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or done.stdout or done.stderr:
            raise RuntimeError(f"`python -c pass` gave exit {done.returncode}")
        return elapsed


def factor(samples: list[float], nominal_s: float) -> float:
    """The scale factor for one run: NOMINAL_S over the median of the
    reference samples taken through the run."""
    return nominal_s / statistics.median(samples)
