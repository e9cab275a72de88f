"""Fixed-point solver for super-stable matchings and hospital deletions.

The closure loop lets every doctor propose along its weakly best edges
that are not yet forbidden; a hospital holds a proposal only when it
beats, strictly, every other proposal or already-forbidden edge incident
to it; proposals nobody holds become forbidden, and the next round
starts.  Only the frontier moves between rounds: a doctor proposes anew
only once its whole current tie group is forbidden, and only hospitals
that receive new proposals decide again.  At the fixed point no
super-stable matching can use a forbidden edge, each hospital retains at
most one candidate, and the hospitals left empty while still wanted form
a smallest deletion set whose removal restores super-stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .model import (
    HOSPITAL,
    Edge,
    Instance,
    Vertex,
    all_doctor_choices,
    all_hospital_choices,  # unused here; bench/tracer.py patches both scans in this module
    induced_instance,
)


@dataclass(frozen=True)
class ClosureRound:
    """One round of the closure loop; `index` is 1-based."""

    index: int
    proposed: frozenset[Edge]
    held: frozenset[Edge]
    forbidden: frozenset[Edge]


@dataclass(frozen=True)
class ClosureTrace:
    """Every round of one closure run, including the final no-change round."""

    initial_forbidden: frozenset[Edge]
    rounds: tuple[ClosureRound, ...]

    @property
    def iterations(self) -> int:
        return len(self.rounds)

    @property
    def result(self) -> frozenset[Edge]:
        return self.rounds[-1].forbidden if self.rounds else self.initial_forbidden


@dataclass(frozen=True)
class DeletionCertificate:
    """What the solver found: forbidden edges, the candidate matching it
    leaves, the critical hospitals, and the full trace."""

    forbidden: frozenset[Edge]
    matching: frozenset[Edge]
    critical: frozenset[Vertex]
    trace: ClosureTrace


def closure(
    inst: Instance, deleted: Iterable[Vertex] = ()
) -> tuple[frozenset[Edge], ClosureTrace]:
    """Run the forbidding loop with the edges of `deleted` hospitals seeded.

    Returns the final forbidden edge set and the round-by-round trace.
    `deleted` may only contain hospitals of the instance.

    Each round equals one pass of the definition: every doctor proposes
    its weakly best edges outside the forbidden set, each hospital holds
    its strictly best edge among its proposals and forbidden edges if that
    edge is a proposal, and the proposals not held become forbidden.  The
    loop itself touches only the frontier.  A doctor's proposals carry
    over until all of its current tie group is forbidden, and then it
    moves to its next group.  A hospital's pool of proposed and forbidden
    edges only grows, so a hospital decides again only when proposals
    arrive, from its best rank and the number of edges at that rank.
    Reaching the fixed point costs O(|E| log |E|); building the returned
    trace costs its size on top.
    """
    deleted = frozenset(deleted)
    for v in deleted:
        if not isinstance(v, Vertex) or v.side != HOSPITAL:
            raise ValueError(f"closure deletes hospitals only, got {v!r}")
        if v.name not in inst.hospital_set:
            raise ValueError(f"unknown {v.describe()}")
    gone = {v.name for v in deleted}
    initial = frozenset().union(*(inst.rank[v] for v in deleted))

    # Per doctor: its tie groups not yet proposed along, best first, and
    # how many of its current proposals are not yet forbidden.
    rest: dict[str, Iterator[list[Edge]]] = {}
    left: dict[str, int] = {}
    hospital_table: dict[str, Mapping[Edge, int]] = {}
    for v, table in inst.rank.items():
        if v.side == HOSPITAL:
            hospital_table[v.name] = table
            continue
        by_rank: dict[int, list[Edge]] = {}
        for e, r in table.items():
            by_rank.setdefault(r, []).append(e)
        rest[v.name] = iter([by_rank[r] for r in sorted(by_rank)])

    def propose(d: str) -> list[Edge]:
        """Move `d` to its next tie group with an edge outside the seed."""
        for group in rest[d]:
            if gone:
                group = [e for e in group if e.hospital not in gone]
            if group:
                left[d] = len(group)
                return group
        return []

    # Per hospital: the best rank in its pool, how many pool edges have
    # that rank and the first edge to reach it; and the proposal it holds.
    pool_best: dict[str, tuple[int, int, Edge]] = {}
    holds: dict[str, Edge] = {}
    log: list[tuple[list[Edge], list[Edge]]] = []
    new = [e for d in rest for e in propose(d)]
    while True:
        arrivals: dict[str, list[Edge]] = {}
        for e in new:
            arrivals.setdefault(e.hospital, []).append(e)
        lost: list[Edge] = []
        for h, live in arrivals.items():
            table = hospital_table[h]
            b, c, t = pool_best.get(h, (None, 0, None))
            for e in live:
                r = table[e]
                if b is None or r < b:
                    b, c, t = r, 1, e
                elif r == b:
                    c += 1
            pool_best[h] = b, c, t
            if h in holds:
                live.append(holds.pop(h))
            for e in live:
                if c == 1 and e == t:
                    holds[h] = e
                else:
                    lost.append(e)
        log.append((new, lost))
        if not lost:
            break
        new = []
        for e in lost:
            left[e.doctor] -= 1
            if not left[e.doctor]:
                new.extend(propose(e.doctor))

    rounds: list[ClosureRound] = []
    proposed: set[Edge] = set()
    forbidden = initial
    for index, (new, lost) in enumerate(log, 1):
        proposed.update(new)
        offered = frozenset(proposed)
        if lost:
            proposed.difference_update(lost)
            forbidden = forbidden.union(lost)
        held = frozenset(proposed) if lost else offered
        rounds.append(ClosureRound(index, offered, held, forbidden))
    return forbidden, ClosureTrace(initial, tuple(rounds))


def extract_matching(inst: Instance, forbidden: Iterable[Edge]) -> frozenset[Edge]:
    """The matching the non-forbidden doctor choices induce.

    Requires a completed closure result: every hospital may appear in at
    most one doctor's choice set.  Each doctor with choices left takes
    the one with the smallest hospital name.
    """
    pool = inst.edges - frozenset(forbidden)
    choices = all_doctor_choices(inst, pool)
    per_hospital: dict[str, int] = {}
    for e in choices:
        per_hospital[e.hospital] = per_hospital.get(e.hospital, 0) + 1
    crowded = [h for h, c in per_hospital.items() if c > 1]
    if crowded:
        raise ValueError(
            f"hospital {sorted(crowded)[0]!r} is chosen by several doctors; "
            "the forbidden set is not a completed closure result"
        )
    best: dict[str, Edge] = {}
    for e in choices:
        cur = best.get(e.doctor)
        if cur is None or e.hospital < cur.hospital:
            best[e.doctor] = e
    return frozenset(best.values())


def critical_hospitals(
    inst: Instance, forbidden: Iterable[Edge], matching: Iterable[Edge]
) -> frozenset[Vertex]:
    """Hospitals left unmatched that some doctor still wants.

    A hospital is critical when `matching` leaves it empty although it
    has a forbidden edge or appears in some doctor's current choices.
    """
    forbidden = frozenset(forbidden)
    choices = all_doctor_choices(inst, inst.edges - forbidden)
    matched = {e.hospital for e in matching}
    wanted = {e.hospital for e in forbidden} | {e.hospital for e in choices}
    return frozenset(
        Vertex(HOSPITAL, h) for h in inst.hospitals if h not in matched and h in wanted
    )


def solve_min_hospital_deletion(inst: Instance) -> DeletionCertificate:
    """Compute the smallest hospital deletion set restoring super-stability.

    The returned certificate's `critical` set is that minimum; its
    `matching` is super-stable once the critical hospitals are removed.
    """
    forbidden, trace = closure(inst)
    matching = extract_matching(inst, forbidden)
    critical = critical_hospitals(inst, forbidden, matching)
    return DeletionCertificate(forbidden, matching, critical, trace)


def decide_hospital_deletion(inst: Instance, budget: int) -> tuple[bool, DeletionCertificate]:
    """Can deleting at most `budget` hospitals make the instance solvable?"""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    cert = solve_min_hospital_deletion(inst)
    return len(cert.critical) <= budget, cert


def exists_super_stable(
    inst: Instance, deleted: Iterable[Vertex] = ()
) -> frozenset[Edge] | None:
    """A super-stable matching of the graph minus `deleted`, or None.

    `deleted` may mix doctors and hospitals.  Note that the empty
    matching is a valid answer, so compare against None rather than
    relying on truthiness.
    """
    sub = induced_instance(inst, deleted)
    cert = solve_min_hospital_deletion(sub)
    return None if cert.critical else cert.matching


__all__ = [
    "ClosureRound",
    "ClosureTrace",
    "DeletionCertificate",
    "closure",
    "extract_matching",
    "critical_hospitals",
    "solve_min_hospital_deletion",
    "decide_hospital_deletion",
    "exists_super_stable",
]
