"""Acceptance gate.

One test per shipped guarantee, one printed PASS/FAIL line each, zero
tolerance: any disagreement between the fixed-point solver and the
brute-force oracles fails the suite.  Corpora are deterministic, so a
failure here is reproducible as-is.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

from conftest import closure_trace_violations
from superstab.cli import generate_instance
from superstab.hardness import (
    CoverageInstance,
    oracle_min_coverage,
    parse_coverage,
    reduce_min_coverage,
    solve_two_side_deletion,
)
from superstab.model import (
    Edge,
    hospital,
    is_super_stable,
    make_instance,
    parse_instance,
)
from superstab.oracle import (
    count_matchings,
    enumerate_super_stable,
    oracle_min_hospital_deletion,
    oracle_two_side_deletion,
)
from superstab.superstable import closure, exists_super_stable, solve_min_hospital_deletion

HERE = Path(__file__).parent
LEVELS = 3
PROFILE_CAP = 5000


def report(name: str, failures: list[str], elapsed: float, bound: float | None) -> None:
    ok = not failures and (bound is None or elapsed <= bound)
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, f"{name}: {len(failures)} failures, first: {failures[:3]}, {elapsed:.1f}s"


def _levels_to_groups(partners: tuple[str, ...], levels: tuple[int, ...]) -> list[list[str]]:
    by: dict[int, list[str]] = {}
    for p, lv in zip(partners, levels):
        by.setdefault(lv, []).append(p)
    return [by[k] for k in sorted(by)]


@lru_cache(maxsize=1)
def profile_corpus():
    """Complete graphs, every preference profile with up to LEVELS rank
    levels per vertex; sizes whose profile space exceeds PROFILE_CAP are
    sampled that many times from a fixed seed."""
    out = []
    for n in range(1, 4):
        for m in range(1, 4):
            doctors = tuple(f"d{i}" for i in range(1, n + 1))
            hospitals = tuple(f"h{j}" for j in range(1, m + 1))
            if LEVELS ** (2 * n * m) <= PROFILE_CAP:
                spaces = [list(product(range(1, LEVELS + 1), repeat=m))] * n + [
                    list(product(range(1, LEVELS + 1), repeat=n))
                ] * m
                combos = product(*spaces)
            else:
                rng = random.Random(f"profiles-{n}-{m}")
                combos = (
                    tuple(
                        tuple(rng.randint(1, LEVELS) for _ in range(m if k < n else n))
                        for k in range(n + m)
                    )
                    for _ in range(PROFILE_CAP)
                )
            for combo in combos:
                dprefs = {d: _levels_to_groups(hospitals, combo[i]) for i, d in enumerate(doctors)}
                hprefs = {
                    h: _levels_to_groups(doctors, combo[n + j]) for j, h in enumerate(hospitals)
                }
                out.append(make_instance(doctors, hospitals, dprefs, hprefs))
    return out


def random_corpus(count: int, max_side: int, prefix: str):
    rng = random.Random(prefix)
    return [
        generate_instance(
            rng.randint(0, max_side),
            rng.randint(0, max_side),
            rng.uniform(0.0, 1.0),
            rng.uniform(0.0, 1.0),
            seed=f"{prefix}-{i}",
        )
        for i in range(count)
    ]


@lru_cache(maxsize=1)
def existence_corpus():
    return profile_corpus() + random_corpus(500, 5, "acceptance-existence")


def hospital_subsets(inst):
    for k in range(len(inst.hospitals) + 1):
        for names in combinations(inst.hospitals, k):
            yield frozenset(hospital(x) for x in names)


def test_acceptance_1_existence_equivalence():
    t0 = time.perf_counter()
    failures = []
    for idx, inst in enumerate(existence_corpus()):
        fast = exists_super_stable(inst) is not None
        slow = bool(enumerate_super_stable(inst, max_edges=None))
        if fast != slow:
            failures.append(f"instance {idx}: solver={fast} oracle={slow}")
    report("1 existence equivalence", failures, time.perf_counter() - t0, 60.0)


def test_acceptance_1b_super_stable_matchings_cover_the_same_vertices():
    t0 = time.perf_counter()
    failures = []
    several = 0
    for idx, inst in enumerate(existence_corpus()):
        stable = enumerate_super_stable(inst, max_edges=None)
        several += len(stable) > 1
        covered = {
            frozenset(f"d {e.doctor}" for e in m) | frozenset(f"h {e.hospital}" for e in m)
            for m in stable
        }
        if len(covered) > 1:
            failures.append(f"instance {idx}: {len(covered)} vertex sets")
    if not several:
        failures.append("no instance has two super-stable matchings")
    report("1b super-stable matchings cover the same vertices", failures, time.perf_counter() - t0, 60.0)


def test_acceptance_2_min_deletion_optimality():
    t0 = time.perf_counter()
    failures = []
    for idx, inst in enumerate(existence_corpus()):
        cert = solve_min_hospital_deletion(inst)
        best, _ = oracle_min_hospital_deletion(inst)
        if len(cert.critical) != best:
            failures.append(f"instance {idx}: solver={len(cert.critical)} oracle={best}")
        if not is_super_stable(inst, cert.critical, cert.matching):
            failures.append(f"instance {idx}: residual matching not super-stable")
    report("2 minimum deletion optimality", failures, time.perf_counter() - t0, 120.0)


def test_acceptance_3_forbidden_set_properties():
    t0 = time.perf_counter()
    failures = []
    swept = 0
    for idx, inst in enumerate(existence_corpus()):
        if len(inst.hospitals) > 4:
            continue
        swept += 1
        base, _ = closure(inst)
        for removed in hospital_subsets(inst):
            forbidden, _ = closure(inst, removed)
            if not base <= forbidden:
                failures.append(f"instance {idx}, X={sorted(v.name for v in removed)}: "
                                "unseeded forbidden set not contained")
            for mu in enumerate_super_stable(inst, removed, max_edges=None):
                if mu & forbidden:
                    failures.append(f"instance {idx}: stable matching meets forbidden set")
    if swept == 0:
        failures.append("sweep matched no instances")
    report("3 forbidden-set properties", failures, time.perf_counter() - t0, 120.0)


def test_acceptance_4_closure_mechanics():
    t0 = time.perf_counter()
    failures = []
    for idx, inst in enumerate(existence_corpus()):
        sweeps = hospital_subsets(inst) if len(inst.hospitals) <= 4 else [frozenset()]
        for removed in sweeps:
            forbidden, trace = closure(inst, removed)
            for bad in closure_trace_violations(inst, removed, forbidden, trace):
                failures.append(f"instance {idx}: {bad}")
    report("4 closure mechanics", failures, time.perf_counter() - t0, None)


def test_acceptance_5_coverage_equivalence():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for n in range(4):
        ground = tuple(f"s{j}" for j in range(1, n + 1))
        subsets = [
            frozenset(pick) for size in range(n + 1) for pick in combinations(ground, size)
        ]
        for m in range(4):
            for fams in product(subsets, repeat=m):
                for x in range(m + 1):
                    for y in range(n + 1):
                        cov = CoverageInstance(ground, fams, x, y)
                        red = reduce_min_coverage(cov)
                        want = oracle_min_coverage(cov)
                        via_solver = (
                            solve_two_side_deletion(
                                red.instance, red.doctor_budget, red.hospital_budget
                            )
                            is not None
                        )
                        via_oracle = (
                            oracle_two_side_deletion(
                                red.instance, red.doctor_budget, red.hospital_budget
                            )
                            is not None
                        )
                        if not (want == via_solver == via_oracle):
                            failures.append(
                                f"n={n} m={m} x={x} y={y}: coverage={want} "
                                f"solver={via_solver} oracle={via_oracle}"
                            )
                        checked += 1
    if checked != 10075:
        failures.append(f"cross product covered {checked} questions, expected 10075")
    report("5 coverage equivalence", failures, time.perf_counter() - t0, 60.0)


def test_acceptance_6_two_side_solver_soundness():
    t0 = time.perf_counter()
    failures = []
    for idx, inst in enumerate(random_corpus(300, 6, "acceptance-twoside")):
        for q1 in range(3):
            for q2 in range(3):
                got = solve_two_side_deletion(inst, q1, q2)
                expect = oracle_two_side_deletion(inst, q1, q2)
                if (got is None) != (expect is None):
                    failures.append(f"instance {idx} budgets ({q1},{q2}): answers differ")
                for who, witness in (("solver", got), ("oracle", expect)):
                    if witness is None:
                        continue
                    dn = sum(1 for v in witness if v.side == "D")
                    hn = len(witness) - dn
                    if dn > q1 or hn > q2:
                        failures.append(
                            f"instance {idx} budgets ({q1},{q2}): {who} witness over budget"
                        )
                    elif exists_super_stable(inst, witness) is None:
                        failures.append(
                            f"instance {idx} budgets ({q1},{q2}): {who} witness infeasible"
                        )
    report("6 two-side solver soundness", failures, time.perf_counter() - t0, 180.0)


SNAPSHOTS = [
    ("check_strict", 0, ["check", "data/strict.ssm"]),
    ("check_tie", 1, ["check", "data/tie.ssm"]),
    ("solve1_tie_q2", 0, ["solve1", "data/tie.ssm", "--q", "2"]),
    ("solve1_tie_q1", 1, ["solve1", "data/tie.ssm", "--q", "1"]),
    ("solve1_strict_q0", 0, ["solve1", "data/strict.ssm", "--q", "0"]),
    ("solve2_tie_1_1", 0, ["solve2", "data/tie.ssm", "--q1", "1", "--q2", "1"]),
    ("solve2_tie_0_1", 1, ["solve2", "data/tie.ssm", "--q1", "0", "--q2", "1"]),
    ("solve2_tie_0_2", 0, ["solve2", "data/tie.ssm", "--q1", "0", "--q2", "2"]),
    ("closure_strict", 0, ["closure", "data/strict.ssm"]),
    ("closure_tie", 0, ["closure", "data/tie.ssm"]),
    ("closure_strict_delete_both", 0, ["closure", "data/strict.ssm", "--delete", "h1", "h2"]),
    ("reduce_cover", 0, ["reduce", "data/cover.cov"]),
]


def bootstrap_failures() -> list[str]:
    """Confirm the frozen example values against the oracles before any
    byte comparison, so a stale snapshot cannot hide a wrong answer."""
    failures = []
    strict = parse_instance((HERE / "data" / "strict.ssm").read_text())
    tie = parse_instance((HERE / "data" / "tie.ssm").read_text())
    if count_matchings(strict) != 7 or count_matchings(tie) != 7:
        failures.append("search space is not the 7 matchings of a complete 2x2 graph")
    if enumerate_super_stable(strict) != [
        frozenset({Edge("d1", "h1"), Edge("d2", "h2")})
    ]:
        failures.append("oracle enumeration on the strict example changed")
    if enumerate_super_stable(tie):
        failures.append("oracle found a super-stable matching in the all-tie example")
    if oracle_min_hospital_deletion(strict) != (0, frozenset()):
        failures.append("oracle minimum deletion on the strict example changed")
    if oracle_min_hospital_deletion(tie) != (2, frozenset({hospital("h1"), hospital("h2")})):
        failures.append("oracle minimum deletion on the all-tie example changed")

    expected = {
        (): (frozenset({Edge("d2", "h1")}), 2),
        ("h1", "h2"): (frozenset(strict.edges), 1),
    }
    for names, (want_forbidden, want_rounds) in expected.items():
        removed = frozenset(hospital(x) for x in names)
        forbidden, trace = closure(strict, removed)
        if forbidden != want_forbidden or trace.iterations != want_rounds:
            failures.append(f"strict closure with X={list(names)} changed")
        for mu in enumerate_super_stable(strict, removed):
            if mu & forbidden:
                failures.append("forbidden set meets an enumerated stable matching")
    forbidden, trace = closure(tie)
    if forbidden != tie.edges or trace.iterations != 2:
        failures.append("all-tie closure changed")

    cov = parse_coverage((HERE / "data" / "cover.cov").read_text())
    red = reduce_min_coverage(cov)
    if not oracle_min_coverage(cov):
        failures.append("coverage example stopped being a yes-instance")
    if oracle_two_side_deletion(red.instance, red.doctor_budget, red.hospital_budget) is None:
        failures.append("reduced coverage example has no deletion witness")
    harder = CoverageInstance(cov.ground, cov.families, 2, 1)
    red2 = reduce_min_coverage(harder)
    if oracle_min_coverage(harder):
        failures.append("two-pick variant of the coverage example became a yes-instance")
    if oracle_two_side_deletion(red2.instance, red2.doctor_budget, red2.hospital_budget):
        failures.append("two-pick variant has a deletion witness but no coverage")
    return failures


def test_acceptance_7_worked_example_snapshots():
    t0 = time.perf_counter()
    failures = bootstrap_failures()
    for name, want_rc, args in SNAPSHOTS:
        argv = [sys.executable, "-m", "superstab.cli", "--no-timing"]
        for a in args:
            argv.append(str(HERE / a) if a.startswith("data/") else a)
        proc = subprocess.run(argv, capture_output=True)
        if proc.returncode != want_rc:
            failures.append(f"{name}: exit {proc.returncode}, expected {want_rc}")
        want_bytes = (HERE / "snapshots" / f"{name}.out").read_bytes()
        if proc.stdout != want_bytes:
            failures.append(f"{name}: output bytes changed")
    report("7 worked-example snapshots", failures, time.perf_counter() - t0, None)
