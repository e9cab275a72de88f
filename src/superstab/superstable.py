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
read with `_outcome`; no caller copies the instance.  All three work on
the instance's integer core (see `model.Instance`): edge ids, doctor
and hospital indices, and state in lists indexed by them; `Edge` and
`Vertex` objects are made only for what a caller reads.  Deleted
hospitals are named in `_tie_groups(inst, gone)`, which leaves their
edges out, and deleted doctors in `_fixed_point(inst, groups, skip)`,
which never lets them propose.  `closure` passes `gone` only;
`exists_super_stable` passes both; the two-side search in `hardness`
builds the groups once and passes `skip` per doctor subset.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

from .model import (
    HOSPITAL,
    Edge,
    Instance,
    Vertex,
    _Record,
    _removed_names,
    all_doctor_choices,
    all_hospital_choices,  # unused here; bench/tracer.py patches both scans in this module
    induced_instance,  # unused here; bench/tracer.py patches it
)


# Per doctor index, its tie groups of edge ids, best first; and per round of
# the loop, the ids newly proposed and the ids newly forbidden.
_TieGroups = list[list[list[int]]]
_Log = list[tuple[list[int], list[int]]]


class ClosureRound(_Record):
    """One round of the closure loop; `index` is 1-based.  Its fields are
    `index: int` and `proposed`, `held` and `forbidden`, each a
    `frozenset[Edge]`."""

    _fields = ("index", "proposed", "held", "forbidden")


class ClosureTrace:
    """Every round of one closure run, including the final no-change round.

    A trace stores only the loop's O(|E|) log, of edge ids, and `edges`,
    the Edge of each id.  `changes()` walks the log in O(|E|) in all,
    yielding per round what changed; `rounds` builds every round's full
    sets from that walk on first access, at the cost of the whole
    history, O(rounds·|E|).  `iterations` and `result` (the final
    forbidden set) need neither.
    """

    def __init__(
        self, initial_forbidden: frozenset[Edge], *, log: _Log, edges: Sequence[Edge] = ()
    ) -> None:
        self.initial_forbidden = initial_forbidden
        self._log = log
        self._edges = edges
        self.iterations = len(log)
        self.result = initial_forbidden.union(*(map(edges.__getitem__, lost) for _, lost in log))

    def changes(self) -> Iterator[tuple[int, list[Edge], list[Edge]]]:
        """Per round, in order: its 1-based index, the edges newly proposed
        and the edges newly forbidden.  A round's proposed set is the last
        round's held set plus the new proposals; its held set is that minus
        the newly forbidden edges; its forbidden set is the last round's
        (at first `initial_forbidden`) plus them."""
        edge = self._edges
        for index, (new, lost) in enumerate(self._log, 1):
            yield index, [edge[e] for e in new], [edge[e] for e in lost]

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


class DeletionCertificate(_Record):
    """What the solver found: forbidden edges, the candidate matching it
    leaves, the critical hospitals, and the full trace.  Its fields are
    `forbidden: frozenset[Edge]`, `matching: frozenset[Edge]`,
    `critical: frozenset[Vertex]` and `trace: ClosureTrace`."""

    _fields = ("forbidden", "matching", "critical", "trace")


def _tie_groups(inst: Instance, gone: Collection[str] = ()) -> _TieGroups:
    """Each doctor's tie groups of edge ids, best first, by doctor index,
    without the edges of the hospitals named in `gone`, so no group is
    empty.  With nothing gone they are the core's own lists, which no
    caller changes."""
    if not gone:
        return inst._groups
    keep = [h not in gone for h in inst.hospitals]
    eh = inst._eh
    return [
        [kept for group in mine if (kept := [e for e in group if keep[eh[e]]])]
        for mine in inst._groups
    ]


def _fixed_point(inst: Instance, groups: _TieGroups, skip: Collection[str] = ()) -> tuple[_Log, int]:
    """Run the forbidding loop over prepared tie groups of `inst`, with
    the doctors named in `skip` left out.

    Returns the log and the critical count: how many hospitals the
    one-side solver deletes, that is, the hospitals whose pool of proposed
    and forbidden edges is non-empty minus the doctors still on a tie
    group (`hardness.solve_two_side_deletion` says why).
    """
    eh, hl, ed = inst._eh, inst._hl, inst._ed
    # Per doctor: its current group (-1 before it first proposes) and how
    # many of its current proposals are not yet forbidden.
    position = [-1] * len(groups)
    left = [0] * len(groups)

    def propose(d: int) -> Sequence[int]:
        """Move doctor `d` to its next tie group."""
        i = position[d] = position[d] + 1
        group = groups[d][i] if i < len(groups[d]) else ()
        left[d] = len(group)
        return group

    # Per hospital: the best rank in its pool (0 while the pool is empty),
    # how many pool edges have it and the first edge to reach it; and the
    # proposal it holds (-1 for none).
    n = len(inst.hospitals)
    best, ties, top, holds = [0] * n, [0] * n, [0] * n, [-1] * n
    log: _Log = []
    new = [e for d, name in enumerate(inst.doctors) if name not in skip for e in propose(d)]
    while True:
        arrivals: dict[int, list[int]] = {}
        for e in new:
            arrivals.setdefault(eh[e], []).append(e)
        lost: list[int] = []
        for h, live in arrivals.items():
            b, c, t = best[h], ties[h], top[h]
            for e in live:
                r = hl[e]
                if not b or r < b:
                    b, c, t = r, 1, e
                elif r == b:
                    c += 1
            best[h], ties[h], top[h] = b, c, t
            if holds[h] >= 0:
                live.append(holds[h])
                holds[h] = -1
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
            d = ed[e]
            left[d] -= 1
            if not left[d]:
                new += propose(d)
    return log, n - best.count(0) - sum(0 <= i < len(g) for i, g in zip(position, groups))


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
    edge = inst._edge
    initial = frozenset(edge[e] for h, ids in zip(inst.hospitals, inst._by_h) if h in gone for e in ids)
    log, _ = _fixed_point(inst, _tie_groups(inst, gone))
    trace = ClosureTrace(initial, log=log, edges=edge)
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


def _outcome(inst: Instance, log: _Log) -> tuple[frozenset[Edge], frozenset[Vertex]]:
    """The matching and the critical hospitals at the loop's fixed point,
    in O(|E|) over its log: the proposals never forbidden are the held
    edges, and each doctor takes the one with the smallest hospital name;
    the critical hospitals received a proposal and are left unmatched.
    """
    edge = inst._edge
    proposed = [edge[e] for new, _ in log for e in new]
    lost = {edge[e] for _, forbade in log for e in forbade}
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
    matching, critical = _outcome(inst, trace._log)
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
    log, count = _fixed_point(inst, _tie_groups(inst, gone_h), gone_d)
    return None if count else _outcome(inst, log)[0]


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
