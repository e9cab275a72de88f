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

The loop logs, per round, the edges newly proposed and newly forbidden,
O(|E|) in all, and that log is the only store of a run: the trace keeps
it and builds the full rounds on first access, and the matching and the
critical set are read straight from it.  The two-side search in
`hardness` builds the tie groups once and runs the loop per doctor subset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
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


# An edge with its rank on the hospital's list; per doctor, its tie groups
# of those, best first; per round of the loop, the entries newly proposed and
# the edges newly forbidden; and what one run leaves (see `_fixed_point`).
_Entry = tuple[Edge, int]
_TieGroups = dict[str, list[list[_Entry]]]
_Log = list[tuple[list[_Entry], list[Edge]]]
_Run = tuple[_Log, dict[str, tuple[int, int, Edge]], dict[str, int]]


@dataclass(frozen=True)
class ClosureRound:
    """One round of the closure loop; `index` is 1-based."""

    index: int
    proposed: frozenset[Edge]
    held: frozenset[Edge]
    forbidden: frozenset[Edge]


class ClosureTrace:
    """Every round of one closure run, including the final no-change round.

    A trace from `closure` stores only the loop's O(|E|) log and builds
    `rounds` from it on first access, at the cost of the whole history;
    `iterations` and `result` (the final forbidden set) never build them.
    """

    def __init__(self, initial_forbidden: frozenset[Edge], rounds: Iterable[ClosureRound] = (),
                 *, log: _Log | None = None) -> None:
        self.initial_forbidden = initial_forbidden
        self._log = log
        if log is None:
            self.rounds = tuple(rounds)
            self.iterations = len(self.rounds)
            self.result = self.rounds[-1].forbidden if self.rounds else initial_forbidden
        else:
            self.iterations = len(log)
            self.result = initial_forbidden.union(*(lost for _, lost in log))

    @cached_property
    def rounds(self) -> tuple[ClosureRound, ...]:
        out: list[ClosureRound] = []
        proposed: set[Edge] = set()
        forbidden = self.initial_forbidden
        for index, (new, lost) in enumerate(self._log, 1):
            proposed.update(e for e, _ in new)
            offered = frozenset(proposed)
            if lost:
                proposed.difference_update(lost)
                forbidden = forbidden.union(lost)
            held = frozenset(proposed) if lost else offered
            out.append(ClosureRound(index, offered, held, forbidden))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        same = (self.initial_forbidden, self.rounds)
        return isinstance(other, ClosureTrace) and same == (other.initial_forbidden, other.rounds)

    def __hash__(self) -> int:
        return hash((self.initial_forbidden, self.iterations, self.result))


@dataclass(frozen=True)
class DeletionCertificate:
    """What the solver found: forbidden edges, the candidate matching it
    leaves, the critical hospitals, and the full trace."""

    forbidden: frozenset[Edge]
    matching: frozenset[Edge]
    critical: frozenset[Vertex]
    trace: ClosureTrace


def _tie_groups(inst: Instance) -> _TieGroups:
    """Each doctor's tie groups, best first, in the instance's doctor order;
    entries carry the hospital's rank, so the loop never looks it up."""
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


def _fixed_point(groups: _TieGroups, gone: Collection[str] = (), skip: Collection[str] = ()) -> _Run:
    """Run the forbidding loop over prepared tie groups, with the hospitals
    named in `gone` deleted and the doctors named in `skip` left out.

    Returns the log, `pool_best` (per hospital whose pool of proposed and
    forbidden edges is non-empty: its best rank, how many pool edges have
    it and the first edge to reach it) and each doctor's position (its
    current tie group, or its number of groups once all are forbidden).
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
    log: _Log = []
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

    Returns the final forbidden edge set and the trace, whose rounds
    each equal one pass of the definition (see the module docstring).
    `deleted` may only contain hospitals of the instance.  A doctor's
    proposals carry over until all of its current tie group is forbidden,
    and a hospital's pool of proposed and forbidden edges only grows, so
    it decides again only when proposals arrive, from its best rank and
    the number of edges at that rank.  Reaching the fixed point costs
    O(|E| log |E|), and the trace keeps the loop's O(|E|) log.
    """
    deleted = frozenset(deleted)
    for v in deleted:
        if not isinstance(v, Vertex) or v.side != HOSPITAL:
            raise ValueError(f"closure deletes hospitals only, got {v!r}")
        if v.name not in inst.hospital_set:
            raise ValueError(f"unknown {v.describe()}")
    initial = frozenset().union(*(inst.rank[v] for v in deleted))
    log, _, _ = _fixed_point(_tie_groups(inst), {v.name for v in deleted})
    trace = ClosureTrace(initial, log=log)
    return trace.result, trace


def _smallest_per_doctor(edges: Iterable[Edge]) -> frozenset[Edge]:
    """Each doctor's edge with the smallest hospital name among `edges`."""
    return frozenset({e.doctor: e for e in sorted(edges, reverse=True)}.values())


def extract_matching(inst: Instance, forbidden: Iterable[Edge]) -> frozenset[Edge]:
    """The matching the non-forbidden doctor choices induce.

    Requires a completed closure result: every hospital may appear in at
    most one doctor's choice set.  Each doctor with choices left takes
    the one with the smallest hospital name.
    """
    choices = all_doctor_choices(inst, inst.edges - frozenset(forbidden))
    crowded = [h for h, c in Counter(e.hospital for e in choices).items() if c > 1]
    if crowded:
        raise ValueError(
            f"hospital {sorted(crowded)[0]!r} is chosen by several doctors; "
            "the forbidden set is not a completed closure result"
        )
    return _smallest_per_doctor(choices)


def critical_hospitals(
    inst: Instance, forbidden: Iterable[Edge], matching: Iterable[Edge]
) -> frozenset[Vertex]:
    """Hospitals left unmatched that some doctor still wants.

    A hospital is critical when `matching` leaves it empty although it
    has a forbidden edge or appears in some doctor's current choices.
    """
    forbidden = frozenset(forbidden)
    wanted = {e.hospital for e in forbidden | all_doctor_choices(inst, inst.edges - forbidden)}
    wanted.difference_update(e.hospital for e in matching)
    return frozenset(Vertex(HOSPITAL, h) for h in inst.hospitals if h in wanted)


def _critical_count(groups: _TieGroups, run: _Run) -> int:
    """How many hospitals the one-side solver deletes, read from a finished
    `_fixed_point` run over `groups`: the hospitals whose pool is non-empty minus
    the doctors still on a tie group (`hardness.solve_two_side_deletion` says why)."""
    _, pool_best, position = run
    return len(pool_best) - sum(i < len(groups[d]) for d, i in position.items())


def _outcome(log: _Log) -> tuple[frozenset[Edge], frozenset[Vertex]]:
    """The matching and the critical hospitals at the loop's fixed point,
    in O(|E|) over its log: the proposals never forbidden are the held
    edges, and each doctor takes the one with the smallest hospital name;
    the critical hospitals received a proposal and are left unmatched.
    """
    proposed = [e for new, _ in log for e, _ in new]
    lost = {e for _, forbade in log for e in forbade}
    matching = _smallest_per_doctor(e for e in proposed if e not in lost)
    wanted = {e.hospital for e in proposed} - {e.hospital for e in matching}
    return matching, frozenset(Vertex(HOSPITAL, h) for h in wanted)


def solve_min_hospital_deletion(inst: Instance) -> DeletionCertificate:
    """Compute the smallest hospital deletion set restoring super-stability.

    The returned certificate's `critical` set is that minimum; its
    `matching` is super-stable once the critical hospitals are removed.
    Both are read from the closure's log without rescanning the edges, so
    the whole solve takes O(|E| log |E|) time and O(|E|) memory.
    """
    forbidden, trace = closure(inst)
    matching, critical = _outcome(trace._log)
    return DeletionCertificate(forbidden, matching, critical, trace)


def decide_hospital_deletion(inst: Instance, budget: int) -> tuple[bool, DeletionCertificate]:
    """Can deleting at most `budget` hospitals make the instance solvable?"""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    cert = solve_min_hospital_deletion(inst)
    return len(cert.critical) <= budget, cert


def exists_super_stable(inst: Instance, deleted: Iterable[Vertex] = ()) -> frozenset[Edge] | None:
    """A super-stable matching of the graph minus `deleted`, or None.

    `deleted` may mix doctors and hospitals.  Note that the empty
    matching is a valid answer, so compare against None rather than
    relying on truthiness.
    """
    cert = solve_min_hospital_deletion(induced_instance(inst, deleted))
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
