"""The benchmark's four seeded workloads: inputs, reference answers, checks.

Each workload loads a different module of `superstab` hardest:

- tie-trace       `closure FILE` on sparse random instances with heavy ties;
                  the loop ends in a few rounds, so time goes to parsing
                  (model) and to writing the round-by-round trace (cli).
- master-list     `solve1 FILE --q 0` on master-list instances; the closure
                  needs n rounds of full rescans (superstable).
- cover-two-side  `solve2` on coverage-reduction instances; thousands of
                  tiny induced instances and closures (hardness).
- verify-oracle   `verify FILE --mode problem1` on small random instances;
                  the brute-force oracle dominates (oracle).

Inputs depend only on the workload name, the seed and the parameters
below.  Reference answers come from closed forms, from the coverage data,
or not at all (trace invariants, oracle agreement); `checker.py` judges
every output without calling the solver.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from checker import CheckFailed, Prefs, check_closure_trace, check_super_stable

Groups = list[list[str]]


@dataclass(frozen=True)
class Case:
    """One instance file and the CLI arguments that run it.  The file
    path goes right after `command`; `expect` is the reference answer."""

    text: str
    command: str
    options: tuple[str, ...]
    expect: object


@dataclass(frozen=True)
class Output:
    rc: int
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    smoke_params: dict
    make: Callable[[random.Random, dict], list[Case]]
    check: Callable[[Prefs, Case, Output], None]


def instance_text(
    doctors: list[str],
    hospitals: list[str],
    prefs: dict[str, Groups],
    pref_order: list[str],
) -> str:
    """Instance file text with pref lines in `pref_order`."""

    def groups(gs: Groups) -> str:
        return " ".join(g[0] if len(g) == 1 else f"({' '.join(g)})" for g in gs)

    lines = [f"doctors: {' '.join(doctors)}", f"hospitals: {' '.join(hospitals)}"]
    lines += [f"pref {v}: {groups(prefs[v])}".rstrip() for v in pref_order]
    return "\n".join(lines) + "\n"


def random_instance(
    rng: random.Random, n_doctors: int, n_hospitals: int, n_edges: int, tie_prob: float
) -> str:
    """The distribution of `superstab gen` with the edge count fixed: the
    edges are `n_edges` doctor-hospital pairs drawn uniformly, and every
    list is a shuffled permutation whose adjacent entries tie with
    probability `tie_prob`.  A fixed edge count keeps the cost of the
    files of one seed, and of different seeds, comparable."""
    doctors = [f"d{i}" for i in range(1, n_doctors + 1)]
    hospitals = [f"h{j}" for j in range(1, n_hospitals + 1)]
    partners: dict[str, list[str]] = {v: [] for v in doctors + hospitals}
    for pair in sorted(rng.sample(range(n_doctors * n_hospitals), n_edges)):
        d, h = doctors[pair // n_hospitals], hospitals[pair % n_hospitals]
        partners[d].append(h)
        partners[h].append(d)

    def tie_up(names: list[str]) -> Groups:
        rng.shuffle(names)
        out: Groups = []
        for name in names:
            if out and rng.random() < tie_prob:
                out[-1].append(name)
            else:
                out.append([name])
        return out

    prefs = {v: tie_up(partners[v]) for v in doctors + hospitals}
    return instance_text(doctors, hospitals, prefs, doctors + hospitals)


def _parsed(out: Output) -> dict:
    try:
        return json.loads(out.stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def _expect_rc(out: Output, rc: int) -> None:
    if out.rc != rc:
        raise CheckFailed(f"exit code {out.rc}, expected {rc}")


# --- tie-trace -------------------------------------------------------------


def make_tie_trace(rng: random.Random, p: dict) -> list[Case]:
    return [
        Case(
            random_instance(rng, p["doctors"], p["hospitals"], p["edges"], p["tie_prob"]),
            "closure",
            (),
            None,
        )
        for _ in range(p["files"])
    ]


def check_tie_trace(prefs: Prefs, case: Case, out: Output) -> None:
    _expect_rc(out, 0)
    check_closure_trace(prefs, _parsed(out))


# --- master-list -----------------------------------------------------------


def make_master_list(rng: random.Random, p: dict) -> list[Case]:
    """Every doctor ranks the hospitals in one order H; every hospital ranks
    the doctors in the reverse of one order D.  The unique super-stable
    matching pairs H[i] with D[n-1-i], and the closure needs n rounds to
    find it.  The seed shuffles labels and declaration order."""
    cases = []
    for n in p["sizes"]:
        doctors = [f"d{i}" for i in range(1, n + 1)]
        hospitals = [f"h{i}" for i in range(1, n + 1)]
        order_d = rng.sample(doctors, n)
        order_h = rng.sample(hospitals, n)
        prefs: dict[str, Groups] = {d: [[h] for h in order_h] for d in doctors}
        prefs.update({h: [[d] for d in reversed(order_d)] for h in hospitals})
        pref_order = rng.sample(doctors + hospitals, 2 * n)
        text = instance_text(rng.sample(doctors, n), rng.sample(hospitals, n), prefs, pref_order)
        matching = sorted([order_d[n - 1 - i], order_h[i]] for i in range(n))
        cases.append(Case(text, "solve1", ("--q", "0"), matching))
    return cases


def check_master_list(prefs: Prefs, case: Case, out: Output) -> None:
    _expect_rc(out, 0)
    got = _parsed(out)
    if got.get("answer") != "yes" or got.get("deleted_hospitals") != []:
        raise CheckFailed("expected answer yes with no deleted hospitals")
    if sorted(got.get("matching", [])) != case.expect:
        raise CheckFailed("matching differs from the closed form H[i]-D[n-1-i]")


# --- cover-two-side --------------------------------------------------------


def make_cover_two_side(rng: random.Random, p: dict) -> list[Case]:
    """Random coverage data reduced to a two-side deletion instance.  Every
    family has `family_size` elements, so every file has the same number of
    edges.  The union limit y is the smallest union of `picks` families,
    or one less, so the answers mix yes and no."""
    from superstab.hardness import CoverageInstance, oracle_min_coverage, reduce_min_coverage
    from superstab.model import serialize_instance

    ground = tuple(f"e{j}" for j in range(1, p["elements"] + 1))
    # Three files in four get y one below the minimum: no answers, which
    # try every subset and so cost the same; the seed picks which.  Were
    # the split even, the median would fall in the gap between the cheaper
    # yes files and the no files.
    drops = [int(i % 4 != 0) for i in range(p["files"])]
    rng.shuffle(drops)
    cases = []
    for drop in drops:
        families = tuple(
            frozenset(rng.sample(ground, p["family_size"])) for _ in range(p["families"])
        )
        smallest = min(len(frozenset().union(*c)) for c in combinations(families, p["picks"]))
        limit = max(0, smallest - drop)
        cov = CoverageInstance(ground, families, p["picks"], limit)
        red = reduce_min_coverage(cov)
        budgets = (red.doctor_budget, red.hospital_budget)
        cases.append(
            Case(
                serialize_instance(red.instance),
                "solve2",
                ("--q1", str(budgets[0]), "--q2", str(budgets[1])),
                (oracle_min_coverage(cov), budgets),
            )
        )
    return cases


def check_cover_two_side(prefs: Prefs, case: Case, out: Output) -> None:
    yes, (q1, q2) = case.expect
    _expect_rc(out, 0 if yes else 1)
    got = _parsed(out)
    if got.get("answer") != ("yes" if yes else "no"):
        raise CheckFailed(f"answer {got.get('answer')!r} disagrees with the coverage oracle")
    if yes:
        dd, dh = got["deleted_doctors"], got["deleted_hospitals"]
        if len(dd) > q1 or len(dh) > q2:
            raise CheckFailed("the witness exceeds a deletion budget")
        check_super_stable(prefs, got["matching"], dd, dh)


# --- verify-oracle ---------------------------------------------------------


def make_verify_oracle(rng: random.Random, p: dict) -> list[Case]:
    """Random instances whose minimum hospital deletion is exactly
    `min_deletions`.  The oracle's cost grows with that number, so fixing
    it keeps the files of one seed, and of different seeds, comparable."""
    from superstab.model import parse_instance
    from superstab.superstable import solve_min_hospital_deletion

    cases = []
    while len(cases) < p["files"]:
        text = random_instance(rng, p["doctors"], p["hospitals"], p["edges"], p["tie_prob"])
        critical = solve_min_hospital_deletion(parse_instance(text)).critical
        if len(critical) == p["min_deletions"]:
            cases.append(Case(text, "verify", ("--mode", "problem1"), None))
    return cases


def check_verify_oracle(prefs: Prefs, case: Case, out: Output) -> None:
    _expect_rc(out, 0)
    if _parsed(out).get("answer") != "yes" or out.stderr.strip() != b"AGREE":
        raise CheckFailed("the solver and the oracle disagree")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tie-trace",
            "closure FILE; 12 files, 400 doctors x 400 hospitals, 4000 edges, tie 0.8: "
            "about 10 rounds, so parsing (model) and writing the 2 MB round trace (cli) dominate",
            dict(files=12, doctors=400, hospitals=400, edges=4000, tie_prob=0.8),
            dict(files=2, doctors=30, hospitals=30, edges=90, tie_prob=0.8),
            make_tie_trace,
            check_tie_trace,
        ),
        Workload(
            "master-list",
            "solve1 FILE --q 0; complete master-list instances, n = 60, 70, 80, labels "
            "shuffled: n closure rounds of full edge rescans, so closure (superstable) dominates",
            dict(sizes=(60, 70, 80)),
            dict(sizes=(4, 5, 6)),
            make_master_list,
            check_master_list,
        ),
        Workload(
            "cover-two-side",
            "solve2; 16 coverage reductions, 10 families of 3 out of 10 elements, x 3, y the "
            "minimum (4 files) or one less (12): ~1000 tiny instances and closures per file",
            dict(files=16, families=10, elements=10, family_size=3, picks=3),
            dict(files=4, families=5, elements=5, family_size=2, picks=2),
            make_cover_two_side,
            check_cover_two_side,
        ),
        Workload(
            "verify-oracle",
            "verify --mode problem1; 32 files, 8 doctors x 9 hospitals, 24 edges, tie 0.5, "
            "minimum hospital deletion 3: the brute-force oracle and its cache dominate",
            dict(files=32, doctors=8, hospitals=9, edges=24, tie_prob=0.5, min_deletions=3),
            dict(files=2, doctors=4, hospitals=5, edges=10, tie_prob=0.5, min_deletions=1),
            make_verify_oracle,
            check_verify_oracle,
        ),
    )
}
