"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  Criterion 6 contains four subcases whose size bound is
mathematically unattainable; see the comment there.  They fail and are
deliberately not weakened.
"""

import random
import time
from itertools import combinations
from pathlib import Path

from conftest import literal_verify_p_ecc, random_instance, run_main
from pcomp import (
    CliqueCover,
    complement,
    complement_cycle_cover,
    cycle_cover,
    exact_theta_e,
    exact_theta_e_p,
    is_acyclic,
    is_p_competition,
    lift_cover,
    make_cycle,
    p_competition_graph,
    realize,
    realize_acyclic,
    satisfies_acyclic_ordering,
    verify_ecc,
    verify_p_ecc,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _conclude(criterion, failures, total=None):
    ok = not failures
    scope = f" ({total - len(failures)}/{total} subchecks)" if total else ""
    print(f"{'PASS' if ok else 'FAIL'} {criterion}{scope}")
    assert ok, f"{criterion}: " + "; ".join(str(f) for f in failures[:10])


def test_criterion_1_exact_theta_e_of_cycle_complements():
    failures = []
    start = time.perf_counter()
    for n, want in [(5, 5), (6, 5), (7, 7), (8, 6)]:
        g = complement(make_cycle(n))
        result = exact_theta_e(g)
        if result.value != want:
            failures.append(f"theta_e(co-C{n}) = {result.value}, want {want}")
            continue
        if len(result.certificate.sets) != want or not verify_ecc(g, result.certificate).valid:
            failures.append(f"co-C{n}: certificate missing or invalid")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _conclude("criterion 1 (exact cover numbers of co-C5..co-C8)", failures, 5)


def test_criterion_2_c4_is_not_a_2_competition_graph():
    failures = []
    start = time.perf_counter()
    result = exact_theta_e_p(make_cycle(4), 2, 4)
    elapsed = time.perf_counter() - start
    if result.outcome != "exceeds-bound":
        failures.append(f"outcome {result.outcome}, want exceeds-bound")
    if not 0 < result.nodes <= 65536:
        failures.append(f"nodes {result.nodes} outside (0, 65536]")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _conclude("criterion 2 (C_4 refuted for p=2 by exhausted canonical search)", failures, 3)


def test_criterion_3_cycle_cover_constructions_and_roundtrips():
    pairs = [(n, p) for n in range(4, 21) for p in range(1, n - 2)]
    assert len(pairs) == 153
    failures = []
    start = time.perf_counter()
    for n, p in pairs:
        cycle = make_cycle(n)
        f = cycle_cover(n, p)
        if not verify_p_ecc(cycle, f, p).valid:
            failures.append(f"cycle_cover({n},{p}) fails verification")
            continue
        if p_competition_graph(realize(f), p) != cycle:
            failures.append(f"roundtrip broken for ({n},{p})")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _conclude("criterion 3 (153 cycle covers verify and roundtrip)", failures, 154)


def test_criterion_4_small_cycles_refuted_by_the_oracle():
    # the same pairs are also refuted by tests/test_oracle.py
    failures = []
    for n, p in [(4, 2), (4, 3), (5, 3), (5, 4), (6, 4)]:
        decision = is_p_competition(make_cycle(n), p, method="oracle")
        if decision.value is not False:
            failures.append(f"oracle thinks C_{n} is a {p}-competition graph")
    # agreement with the n >= p+3 law on every oracle-decidable pair here
    for n in (4, 5, 6):
        for p in (1, 2, 3, 4):
            decision = is_p_competition(make_cycle(n), p, method="oracle")
            if decision.value != (n >= p + 3):
                failures.append(f"oracle disagrees with the law at ({n},{p})")
    _conclude("criterion 4 (oracle refutations below n = p+3)", failures, 17)


def test_criterion_5_complement_cycle_cover_families():
    failures = []
    start = time.perf_counter()
    cases = [(n, (n + 5) // 2) for n in range(9, 26, 2)]
    cases += [(n, n // 2 + 1) for n in range(10, 25, 2)]
    for n, want in cases:
        f = complement_cycle_cover(n)
        if len(f.sets) != want:
            failures.append(f"co-C{n}: {len(f.sets)} sets, want {want}")
            continue
        if not verify_ecc(complement(make_cycle(n)), f).valid:
            failures.append(f"co-C{n}: family fails verification")
            continue
        cyc = make_cycle(n)
        for s in f.sets:
            if any(cyc.has_edge(u, v) for u, v in combinations(sorted(s), 2)):
                failures.append(f"co-C{n}: a set is not independent on the cycle")
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _conclude("criterion 5 (cover families for odd 9..25 and even 10..24)", failures, 18)


def test_criterion_6_lift_composition_for_cycle_complements():
    # Sweep per the claimed ranges.  Note: any edge clique cover of co-C6
    # has at least 5 sets and of co-C8 at least 6 (exact minima), so the
    # lifted family has at least 5+p-1 resp. 6+p-1 sets.  The size bound
    # |lift| <= n is therefore unattainable for co-C6 with p >= 3 and
    # co-C8 with p >= 4; exhaustive search further shows co-C6 is not a
    # 4-competition graph at all.  Those four subcases fail below and are
    # kept as stated rather than weakened.
    cases = []
    for n, p_max in [(9, 3), (10, 5), (12, 6), (6, 4), (8, 5)]:
        cases += [(n, p) for p in range(1, p_max + 1)]
    failures = []
    for n, p in cases:
        g = complement(make_cycle(n))
        lifted = lift_cover(complement_cycle_cover(n), p)
        if len(lifted.sets) > n:
            failures.append(f"(co-C{n}, p={p}): lift has {len(lifted.sets)} sets > n")
            continue
        if not verify_p_ecc(g, lifted, p).valid:
            failures.append(f"(co-C{n}, p={p}): lifted cover fails verification")
            continue
        if p_competition_graph(realize(lifted), p) != g:
            failures.append(f"(co-C{n}, p={p}): roundtrip broken")
    _conclude("criterion 6 (lift composition across the stated ranges)",
              failures, len(cases))


def test_criterion_7_pairwise_counting_matches_the_literal_definition():
    rng = random.Random(20250810)
    failures = []
    for k in range(200):
        g, f, p = random_instance(rng, max_n=7, max_sets=10, max_p=3)
        got = verify_p_ecc(g, f, p).valid
        want = literal_verify_p_ecc(g, f, p)
        if got != want:
            failures.append(f"instance {k}: verifier {got}, literal {want}")
    _conclude("criterion 7 (200 random instances agree with the literal check)",
              failures, 200)


def test_criterion_8_accepted_orderings_realize_acyclically():
    corpus = [
        (CliqueCover(3, [(), (0,), (0, 1)]), [0, 1, 2], 1),
        (CliqueCover(4, [(), (), (0, 1), (1, 2)]), [0, 1, 2, 3], 1),
        (CliqueCover(3, [(), (2,), (2, 0)]), [2, 0, 1], 1),
        (CliqueCover(4, [(), (3,), (3, 0), (3, 0, 2)]), [3, 0, 2, 1], 2),
    ]
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(2, 7)
        order = list(range(n))
        rng.shuffle(order)
        sets = []
        for j in range(n):
            allowed = order[:j]
            sets.append([v for v in allowed if rng.random() < 0.5])
        corpus.append((CliqueCover(n, sets), order, rng.randint(1, 3)))

    failures = []
    for idx, (f, order, p) in enumerate(corpus):
        if not satisfies_acyclic_ordering(f, order):
            failures.append(f"corpus item {idx} not accepted")
            continue
        d = realize_acyclic(f, order)
        if not is_acyclic(d):
            failures.append(f"corpus item {idx}: realization has a cycle")
            continue
        covered = p_competition_graph(realize(f), p)
        if p_competition_graph(d, p) != covered:
            failures.append(f"corpus item {idx}: competition graph changed")
    _conclude("criterion 8 (accepted orderings give acyclic realizations)",
              failures, len(corpus))


def test_criterion_9_golden_survey_table():
    failures = []
    res = run_main(["survey", "cycle", "--n", "4..12", "--p", "1..6"])
    if res.returncode != 0:
        failures.append(f"survey exited {res.returncode}")
    golden = (GOLDEN / "survey_cycle_n4-12_p1-6.tsv").read_text()
    if res.stdout != golden:
        failures.append("output differs from the checked-in table")
    rows = res.stdout.strip().split("\n")[1:]
    if len(rows) != 54:
        failures.append(f"{len(rows)} rows, want 54")
    for line in rows:
        n, p, decision = line.split("\t")[:3]
        if decision != ("yes" if int(n) >= int(p) + 3 else "no"):
            failures.append(f"cell ({n},{p}) is {decision}")
    _conclude("criterion 9 (golden survey table equals the n >= p+3 law)",
              failures, 57)
