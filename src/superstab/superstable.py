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

Every one-side question is one run of `_fixed_point`, read with
`_outcome`; the two-side search in `hardness` drives the same rounds,
from `_loop`, resuming them from one doctor subset's fixed point to the
next.  No caller copies the instance.  The loop works on its integer core
(see `model.Instance`): edge ids, doctor and hospital indices, and state
in lists indexed by them; it makes no `Edge` or `Vertex` object.
`closure()` does: its forbidden set and its trace are of `Edge`s, so it
builds the `Edge` of every edge id once, as `inst._edge`, and `check`,
`solve1` and `closure` run it.  `exists_super_stable` and the two-side
search make objects only for what they return.  The deleted vertices of
both sides are arguments of the loop: `_fixed_point(inst, skip, gone)`
never lets the doctors named in `skip` propose, and its doctors pass
over the edges of the hospitals named in `gone`.

`extract_matching` and `critical_hospitals` read the same answers from
the edges again, with the choice scans of `_objects`.  No command runs
them, so they live with those scans in `_objects`, which no solver
command compiles; `__all__` here lists them, and each is read from
`_objects` on first access.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Sequence

from . import _lazy
from .model import HOSPITAL, Edge, Instance, Vertex, _checked, _Record, _removed_names

# Each name of `__all__` that this file does not define, the plain
# rescans, is read from `_objects` on first access.  So are the choice
# scans and `induced_instance`, which no code here calls: they resolve
# here only because `bench/tracer.py` names this module among its targets.
__getattr__ = _lazy(
    globals(),
    dict.fromkeys(("all_doctor_choices", "all_hospital_choices", "induced_instance"), "_objects").get,
    "_objects",
)


# Per round of the loop, the ids newly proposed and the ids newly forbidden.
_Log = list[tuple[list[int], list[int]]]
# The loop's state, as `_loop` describes it.
_State = tuple[list[int], list[int], list[int], list[int], list[int]]


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
        # Equal `rounds`, read from the log: equal initial sets, and per round equal new proposals and losses.
        if not isinstance(other, ClosureTrace):
            return NotImplemented
        steps = lambda trace: [(frozenset(new), frozenset(lost)) for _, new, lost in trace.changes()]
        return self.initial_forbidden == other.initial_forbidden and steps(self) == steps(other)

    def __hash__(self) -> int:
        return hash((self.initial_forbidden, self.iterations, self.result))


class DeletionCertificate(_Record):
    """What the solver found: forbidden edges, the candidate matching it
    leaves, the critical hospitals, and the full trace.  Its fields are
    `forbidden: frozenset[Edge]`, `matching: frozenset[Edge]`,
    `critical: frozenset[Vertex]` and `trace: ClosureTrace`."""

    _fields = ("forbidden", "matching", "critical", "trace")


def _loop(
    inst: Instance, gone: Collection[str] = ()
) -> tuple[Callable[[int], Sequence[int]], Callable[[list[int]], _Log], _State]:
    """The forbidding loop on `inst` without the hospitals named in `gone`,
    with no doctor proposing yet: a doctor passes over the edges of gone
    hospitals.

    Returns `propose`, `run` and the loop's state.  `propose(d)` moves
    doctor index `d` to its next tie group and returns its edges; `run(new)`
    lets the proposals `new` arrive, runs rounds until none is forbidden
    and returns their log.  The state is five lists that only these two
    change, in place: per doctor, `at` and `left`; per hospital, `best`,
    `ties` and `top`.  A caller may copy them and later assign the copies
    back, slice for slice, to resume from the copied state.
    """
    eh, hl, ed, dl, first = inst._eh, inst._hl, inst._ed, inst._dl, inst._first
    keep = [h not in gone for h in inst.hospitals] if gone else ()
    # Per doctor: the id its next tie group starts at, and how many of its
    # current proposals are not yet forbidden (0 when it has none left).
    at = first[:-1]
    left = [0] * len(at)

    def propose(d: int) -> Sequence[int]:
        """Move doctor `d` to its next tie group, the next run of equal rank
        in its ids, with an edge to a hospital not in `gone`, and return
        those edges (none past its last group)."""
        i, stop, group = at[d], first[d + 1], ()
        while i < stop:
            j, r = i + 1, dl[i]
            while j < stop and dl[j] == r:
                j += 1
            group = [e for e in range(i, j) if keep[eh[e]]] if gone else range(i, j)
            i = j
            if group:
                break
        at[d], left[d] = i, len(group)
        return group

    # Per hospital: the best rank in its pool (0 while the pool is empty),
    # how many pool edges have it and the first edge to reach it.  The
    # hospital holds that edge exactly when it is the only one at that rank.
    n = len(inst.hospitals)
    best, ties, top = [0] * n, [0] * n, [0] * n

    def run(new: list[int]) -> _Log:
        log: _Log = []
        while True:
            arrivals: dict[int, list[int]] = {}
            for e in new:
                arrivals.setdefault(eh[e], []).append(e)
            lost: list[int] = []
            for h, live in arrivals.items():
                b, c, t = best[h], ties[h], top[h]
                held = t if c == 1 else -1
                for e in live:
                    r = hl[e]
                    if not b or r < b:
                        b, c, t = r, 1, e
                    elif r == b:
                        c += 1
                best[h], ties[h], top[h] = b, c, t
                if held >= 0:
                    live.append(held)
                for e in live:
                    if c != 1 or e != t:
                        lost.append(e)
            log.append((new, lost))
            if not lost:
                return log
            new = []
            for e in lost:
                d = ed[e]
                left[d] -= 1
                if not left[d]:
                    new += propose(d)

    return propose, run, (at, left, best, ties, top)


def _count(state: _State) -> int:
    """The critical count at a fixed point of the loop with this state: the
    hospitals whose pool of proposed and forbidden edges is non-empty minus
    the doctors left with a live proposal (`hardness.solve_two_side_deletion`
    says why).  At a fixed point a doctor has a live proposal exactly when
    its `left` is positive."""
    _, left, best, _, _ = state
    return len(best) - best.count(0) - (len(left) - left.count(0))


def _fixed_point(inst: Instance, skip: Collection[str] = (), gone: Collection[str] = ()) -> tuple[_Log, int]:
    """Run the forbidding loop on `inst` without the doctors named in
    `skip` and the hospitals named in `gone`: a skipped doctor never
    proposes, and a doctor passes over the edges of gone hospitals.

    Returns the log and the critical count: how many hospitals the
    one-side solver deletes (see `_count`).
    """
    propose, run, state = _loop(inst, gone)
    log = run([e for d, name in enumerate(inst.doctors) if name not in skip for e in propose(d)])
    return log, _count(state)


def closure(
    inst: Instance, deleted: Iterable[Vertex] = ()
) -> tuple[frozenset[Edge], ClosureTrace]:
    """Run the forbidding loop with the edges of `deleted` hospitals seeded.

    Returns the final forbidden edge set and the trace, whose rounds
    each equal one pass of the definition (see the module docstring).
    `deleted` may only contain hospitals of the instance, each a Vertex or
    a plain pair `("H", name)`; a doctor or other non-hospital is reported
    before an unknown hospital.  A doctor's proposals carry over until all
    of its current tie group is forbidden, and a hospital's pool of
    proposed and forbidden edges only grows, so it decides again only when
    proposals arrive, from its best rank and the number of edges at that
    rank.  Reaching the fixed point costs O(|E| log |E|), and the trace
    keeps the loop's O(|E|) log.
    """
    a_hospital = lambda v: isinstance(v, tuple) and len(v) == 2 and v[0] == HOSPITAL
    deleted = _checked(deleted, a_hospital, lambda v: ValueError(f"closure deletes hospitals only, got {v!r}"))
    _, gone = _removed_names(inst, deleted)
    edge = inst._edge
    initial = frozenset(edge[e] for h, ids in zip(inst.hospitals, inst._by_h) if h in gone for e in ids)
    log, _ = _fixed_point(inst, gone=gone)
    trace = ClosureTrace(initial, log=log, edges=edge)
    return trace.result, trace


def _outcome(inst: Instance, log: _Log) -> tuple[frozenset[Edge], frozenset[Vertex]]:
    """The matching and the critical hospitals at the loop's fixed point,
    in O(|E|) over its log of edge ids: the proposals never forbidden are
    the held edges, and each doctor takes the one with the smallest
    hospital name; the critical hospitals received a proposal and are left
    unmatched.  Only the matching's edges and the critical hospitals
    become `Edge` and `Vertex` objects.
    """
    doctors, hospitals, ed, eh = inst.doctors, inst.hospitals, inst._ed, inst._eh
    proposed = [e for new, _ in log for e in new]
    lost = {e for _, forbade in log for e in forbade}
    held = sorted((e for e in proposed if e not in lost), key=lambda e: hospitals[eh[e]], reverse=True)
    taken = {ed[e]: e for e in held}.values()  # per doctor, the last: the smallest hospital name
    wanted = {eh[e] for e in proposed}.difference(eh[e] for e in taken)
    matching = frozenset(Edge(doctors[ed[e]], hospitals[eh[e]]) for e in taken)
    return matching, frozenset(Vertex(HOSPITAL, hospitals[h]) for h in wanted)


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


def exists_super_stable(inst: Instance, deleted: Iterable[Vertex] = ()) -> frozenset[Edge] | None:
    """A super-stable matching of the graph minus `deleted`, or None.

    `deleted` may mix doctors and hospitals.  One run of the loop answers,
    with the deleted doctors skipped and the deleted hospitals gone, so no
    instance is copied; the matching is the one
    `solve_min_hospital_deletion` gives on the graph without `deleted`.
    Note that the empty matching is a valid answer, so compare against
    None rather than relying on truthiness.
    """
    gone_d, gone_h = _removed_names(inst, deleted)
    log, count = _fixed_point(inst, gone_d, gone_h)
    return None if count else _outcome(inst, log)[0]


__all__ = [
    "ClosureRound",
    "ClosureTrace",
    "DeletionCertificate",
    "closure",
    "extract_matching",
    "critical_hospitals",
    "solve_min_hospital_deletion",
    "exists_super_stable",
]
