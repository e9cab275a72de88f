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

One loop serves every caller: `closure` builds the tie groups, runs the
loop and rebuilds the rounds from its log, while the two-side search in
`hardness` builds the groups once and runs the loop once per doctor
subset, reading only its final state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from .model import (
    HOSPITAL,
    Edge,
    Instance,
    Vertex,
    all_doctor_choices,
    all_hospital_choices,  # unused here; bench/tracer.py patches both scans in this module
    induced_instance,
)


# An edge with its rank on the hospital's list, and per doctor its tie
# groups of those, best first.
_Entry = tuple[Edge, int]
_TieGroups = dict[str, list[list[_Entry]]]


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


def _tie_groups(inst: Instance) -> _TieGroups:
    """Each doctor's tie groups, best first, in the instance's doctor order.

    Entries carry the hospital's rank, so the loop never looks a
    hospital's table up.
    """
    hospital_rank = inst.hospital_rank
    groups: _TieGroups = {}
    for v, table in inst.rank.items():
        if v.side == HOSPITAL:
            continue
        by_rank: dict[int, list[_Entry]] = {}
        for e, r in table.items():
            by_rank.setdefault(r, []).append((e, hospital_rank[e]))
        groups[v.name] = [by_rank[r] for r in sorted(by_rank)]
    return groups


def _fixed_point(
    groups: _TieGroups,
    gone: Collection[str] = (),
    skip: Collection[str] = (),
) -> tuple[
    list[tuple[list[_Entry], list[Edge]]], dict[str, tuple[int, int, Edge]], dict[str, int]
]:
    """Run the forbidding loop over prepared tie groups.

    Hospitals named in `gone` are deleted, and doctors named in `skip` are
    left out as if they were deleted.  Returns the log of what each round
    newly proposed and newly forbade, `pool_best` (per hospital whose pool
    of proposed and forbidden edges is non-empty: its best rank, how many
    pool edges have that rank and the first edge to reach it) and each
    doctor's position: the index of its current tie group, or the number
    of its groups once every edge is forbidden.
    """
    # Per doctor: its current group and how many of its current proposals
    # are not yet forbidden.
    position: dict[str, int] = {}
    left: dict[str, int] = {}

    def propose(d: str) -> list[_Entry]:
        """Move `d` to its next tie group with an edge outside the seed."""
        mine = groups[d]
        i = position.get(d, -1) + 1
        while i < len(mine):
            group = mine[i]
            if gone:
                group = [p for p in group if p[0].hospital not in gone]
            if group:
                break
            i += 1
        else:
            group = []
        position[d] = i
        left[d] = len(group)
        return group

    # Per hospital: its pool summary, and the proposal it holds.
    pool_best: dict[str, tuple[int, int, Edge]] = {}
    holds: dict[str, _Entry] = {}
    log: list[tuple[list[_Entry], list[Edge]]] = []
    new = [p for d in groups if d not in skip for p in propose(d)]
    while True:
        arrivals: dict[str, list[_Entry]] = {}
        for p in new:
            arrivals.setdefault(p[0].hospital, []).append(p)
        lost: list[Edge] = []
        for h, live in arrivals.items():
            b, c, t = pool_best.get(h, (None, 0, None))
            for e, r in live:
                if b is None or r < b:
                    b, c, t = r, 1, e
                elif r == b:
                    c += 1
            pool_best[h] = b, c, t
            if h in holds:
                live.append(holds.pop(h))
            for p in live:
                if c == 1 and p[0] == t:
                    holds[h] = p
                else:
                    lost.append(p[0])
        log.append((new, lost))
        if not lost:
            break
        new = []
        for e in lost:
            left[e.doctor] -= 1
            if not left[e.doctor]:
                new.extend(propose(e.doctor))
    return log, pool_best, position


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
    initial = frozenset().union(*(inst.rank[v] for v in deleted))
    log, _, _ = _fixed_point(_tie_groups(inst), {v.name for v in deleted})

    rounds: list[ClosureRound] = []
    proposed: set[Edge] = set()
    forbidden = initial
    for index, (new, lost) in enumerate(log, 1):
        proposed.update(e for e, _ in new)
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


def _critical_count(groups: _TieGroups, skip: Collection[str]) -> int:
    """How many hospitals the one-side solver deletes once the doctors in
    `skip` are gone: at the loop's fixed point, the hospitals whose pool
    is non-empty minus the doctors still on a tie group (see
    `hardness.solve_two_side_deletion` for why)."""
    _, pool_best, position = _fixed_point(groups, skip=skip)
    return len(pool_best) - sum(i < len(groups[d]) for d, i in position.items())


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
