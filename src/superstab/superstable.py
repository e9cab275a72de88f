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
it, `ClosureTrace.changes()` walks it round by round, the full rounds are
built from that walk on first access, and the matching and the critical
set are read straight from the log.

Every one-side question is one run of `_fixed_point` over `_tie_groups`,
read with `_outcome`; no caller copies the instance.  Deleted hospitals
are named in `_tie_groups(inst, gone)`, which leaves their edges out, and
deleted doctors in `_fixed_point(groups, skip)`, which never lets them
propose.  `closure` passes `gone` only; `exists_super_stable` passes
both; the two-side search in `hardness` builds the groups once and
passes `skip` per doctor subset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator

from .model import (
    HOSPITAL,
    Edge,
    Instance,
    Vertex,
    _removed_names,
    all_doctor_choices,
    all_hospital_choices,  # unused here; bench/tracer.py patches both scans in this module
    induced_instance,  # unused here; bench/tracer.py patches it
)


# An edge with its rank on the hospital's list; per doctor, its tie groups
# of those, best first; and per round of the loop, the entries newly proposed
# and the edges newly forbidden.
_Entry = tuple[Edge, int]
_TieGroups = dict[str, list[list[_Entry]]]
_Log = list[tuple[list[_Entry], list[Edge]]]


@dataclass(frozen=True)
class ClosureRound:
    """One round of the closure loop; `index` is 1-based."""

    index: int
    proposed: frozenset[Edge]
    held: frozenset[Edge]
    forbidden: frozenset[Edge]


class ClosureTrace:
    """Every round of one closure run, including the final no-change round.

    A trace stores only the loop's O(|E|) log.  `changes()` walks it in
    O(|E|) in all, yielding per round what changed; `rounds` builds every
    round's full sets from that walk on first access, at the cost of the
    whole history, O(rounds·|E|).  `iterations` and `result` (the final
    forbidden set) need neither.
    """

    def __init__(self, initial_forbidden: frozenset[Edge], *, log: _Log) -> None:
        self.initial_forbidden = initial_forbidden
        self._log = log
        self.iterations = len(log)
        self.result = initial_forbidden.union(*(lost for _, lost in log))

    def changes(self) -> Iterator[tuple[int, list[Edge], list[Edge]]]:
        """Per round, in order: its 1-based index, the edges newly proposed
        and the edges newly forbidden.  A round's proposed set is the last
        round's held set plus the new proposals; its held set is that minus
        the newly forbidden edges; its forbidden set is the last round's
        (at first `initial_forbidden`) plus them."""
        for index, (new, lost) in enumerate(self._log, 1):
            yield index, [e for e, _ in new], lost[:]

    @cached_property
    def rounds(self) -> tuple[ClosureRound, ...]:
        out: list[ClosureRound] = []
        proposed: set[Edge] = set()
        forbidden = self.initial_forbidden
        for index, new, lost in self.changes():
            proposed.update(new)
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


def _tie_groups(inst: Instance, gone: Collection[str] = ()) -> _TieGroups:
    """Each doctor's tie groups, best first, in the instance's doctor order,
    without the edges of the hospitals named in `gone`, so no group is
    empty; entries carry the hospital's rank, so the loop never looks it up."""
    hospital_rank = inst.hospital_rank
    groups: _TieGroups = {}
    for v, table in inst.rank.items():
        if v.side == HOSPITAL:
            continue
        by_rank: dict[int, list[_Entry]] = {}
        for e, r in table.items():
            if e.hospital not in gone:
                by_rank.setdefault(r, []).append((e, hospital_rank[e]))
        groups[v.name] = [by_rank[r] for r in sorted(by_rank)]
    return groups


def _fixed_point(groups: _TieGroups, skip: Collection[str] = ()) -> tuple[_Log, int]:
    """Run the forbidding loop over prepared tie groups, with the doctors
    named in `skip` left out.

    Returns the log and the critical count: how many hospitals the
    one-side solver deletes, that is, the hospitals whose pool of proposed
    and forbidden edges is non-empty minus the doctors still on a tie
    group (`hardness.solve_two_side_deletion` says why).
    """
    # Per doctor: its current group and how many of its current proposals
    # are not yet forbidden.
    position: dict[str, int] = {}
    left: dict[str, int] = {}

    def propose(d: str) -> list[_Entry]:
        """Move `d` to its next tie group."""
        mine = groups[d]
        i = position.get(d, -1) + 1
        group = mine[i] if i < len(mine) else []
        position[d] = i
        left[d] = len(group)
        return group

    # Per hospital whose pool is non-empty: its best rank, how many pool
    # edges have it and the first edge to reach it; and the proposal it holds.
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
    return log, len(pool_best) - sum(i < len(groups[d]) for d, i in position.items())


def closure(
    inst: Instance, deleted: Iterable[Vertex] = ()
) -> tuple[frozenset[Edge], ClosureTrace]:
    """Run the forbidding loop with the edges of `deleted` hospitals seeded.

    Returns the final forbidden edge set and the trace, whose rounds
    each equal one pass of the definition (see the module docstring).
    `deleted` may only contain hospitals of the instance; a doctor or other
    non-hospital is reported before an unknown hospital.  A doctor's
    proposals carry over until all of its current tie group is forbidden,
    and a hospital's pool of proposed and forbidden edges only grows, so
    it decides again only when proposals arrive, from its best rank and
    the number of edges at that rank.  Reaching the fixed point costs
    O(|E| log |E|), and the trace keeps the loop's O(|E|) log.
    """
    deleted = frozenset(deleted)
    bad = [v for v in deleted if not isinstance(v, Vertex) or v.side != HOSPITAL]
    if bad:  # as `_removed_names` does: the member whose repr sorts first
        raise ValueError(f"closure deletes hospitals only, got {min(bad, key=repr)!r}")
    _, gone = _removed_names(inst, deleted)
    initial = frozenset().union(*(inst.rank[v] for v in deleted))
    log, _ = _fixed_point(_tie_groups(inst, gone))
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

    `deleted` may mix doctors and hospitals.  One run of the loop answers,
    with the deleted hospitals' edges left out of the tie groups and the
    deleted doctors skipped, so no instance is copied; the matching is the
    one `solve_min_hospital_deletion` gives on the graph without
    `deleted`.  Note that the empty matching is a valid answer, so compare
    against None rather than relying on truthiness.
    """
    gone_d, gone_h = _removed_names(inst, deleted)
    log, count = _fixed_point(_tie_groups(inst, gone_h), gone_d)
    return None if count else _outcome(log)[0]


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
