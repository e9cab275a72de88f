"""Two-side deletion: an exact solver and a coverage-built instance family.

Two-side deletion is NP-complete, so the exact solver enumerates doctor
deletions, by size and then name order.  Each doctor set is completed by
the polynomial hospital-side routine, whose answer is the critical set
of the remaining instance.  The search needs only that set's size, read
from the closure loop of `superstable` at its fixed point with those
doctors left out (`solve_two_side_deletion` says why that count is
right).

The loop is not rerun per doctor set.  One forbidding step is monotone:
as edges are forbidden, a doctor's current tie group only moves later and
a hospital's pool only grows.  So an edge forbidden with more doctors
left out is forbidden with fewer: F(G - D'') is a subset of F(G - D')
when D' is a subset of D'', F being the final forbidden set.  A monotone
loop started at or below its least fixed point reaches that fixed point
in any fair order of steps: Tarski's fixed-point theorem (1955) and the
chaotic iteration of Cousot & Cousot (1977), applied to the forbidding
loop of Irving (1994).  So the loop for G - D' may resume from the final
state of G - D'', with the doctors of D'' minus D' proposing.

`_first_hit` walks the doctor sets that way, depth first, restoring the
loop's state on backtrack.  It walks in windows of sizes (lo, hi], with
hi = 0, 1, 3, 7, ... up to the doctor budget.  It cuts every node that
cannot reach a size above lo or below the smallest hit so far, and stops
a window at a hit of size lo + 1, so a search that hits at a small size
never walks the large ones.  The first doctor set within the hospital
budget runs the loop once more on its own, and takes its critical set
from that run as the one-side solver reads its own.

The same lemma bounds the count from below, which makes the walk a
branch-and-bound search (Land & Doig, 1960).  At a node the state is the
fixed point with only the doctors kept so far proposing, so its count is
read there for free.  Keeping a set A of the doctors still to decide
lowers the count by at most |A|, for two reasons.  The wanted hospitals,
those with a non-empty pool, only grow: no forbidden edge comes back, and
a doctor's tie group only moves later.  And a doctor left without a live
proposal stays so, while each doctor of A adds at most one with one.  A
doctor whose first tie group holds a lone hospital, one that no other
doctor lists, lowers the count by nothing: its first proposal makes
wanted a hospital that no other doctor can.  Every doctor of a coverage
reduction has one, its slot hospital.  So a node whose count, less the
number of doctors without one that it may still keep, exceeds the
hospital budget holds no hit, and the walk cuts it.  The surviving sets
keep their order, so the first hit, and with it the witness, is the
uncut walk's.

The instance builder turns set-coverage data (pick exactly `picks`
families, keep their union within `cover_limit`) into a fully
indifferent matching instance whose deletion budgets mirror the coverage
question.  That side lives in `_coverage`: `solve2` never runs it, so it
never compiles it.  `__all__` here lists its names, and each is read
from `_coverage` on first access.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from . import _lazy
from .model import CapExceeded, Instance, Vertex, doctor
from .superstable import _count, _fixed_point, _loop, _outcome

# Each name of `__all__` that this file does not define, the coverage
# side, is read from `_coverage` on first access.  `induced_instance`,
# which no code here calls, is read from `_objects`: it resolves here only
# because `bench/tracer.py` names this module among its targets.
__getattr__ = _lazy(globals(), {"induced_instance": "_objects"}.get, "_coverage")


def solve_two_side_deletion(
    inst: Instance,
    doctor_budget: int,
    hospital_budget: int,
    *,
    max_doctors: int = 20,
) -> frozenset[Vertex] | None:
    """Some vertex set within both budgets whose removal restores
    super-stability, or None.

    Doctor subsets are tried by increasing size in name order; each one
    is completed by the one-side solver, so the witness's hospital part
    is that subproblem's critical set and the whole answer is
    deterministic.

    A subset's critical count is read from the closure loop's fixed point
    with its doctors skipped:
    |hospitals whose pool is non-empty| - |doctors with a live proposal|.
    Every proposed edge is either forbidden or held, so a non-empty pool
    is exactly what `critical_hospitals` calls wanted; and each such
    doctor's smallest-name live edge is held by a hospital of its own, so
    the matched hospitals are one per such doctor, all of them wanted.

    The subsets are not run one by one.  `_first_hit` walks them in
    windows of sizes (lo, hi], hi = 0, 1, 3, 7, ..., resuming the loop
    from a fixed point with more doctors left out; the module docstring
    gives the lemma that makes this sound.  In a window it cuts every node
    that cannot reach a size above lo or below the smallest hit so far,
    and it stops at a hit of size lo + 1.  It also cuts every node whose
    count, less the doctors it may still keep that could lower it, exceeds
    the hospital budget: by the same lemma no subset below it fits, so the
    first hit stays the uncut walk's.  The first subset within the
    hospital budget runs the loop once more on its own and reads its
    critical set from that run, as `solve_min_hospital_deletion` would on
    the instance without those doctors.
    """
    if doctor_budget < 0 or hospital_budget < 0:
        raise ValueError("budgets must be non-negative")
    if len(inst.doctors) > max_doctors:
        raise CapExceeded(
            f"{len(inst.doctors)} doctors exceed the subset-search cap of {max_doctors}; "
            "raise max_doctors"
        )
    names = sorted(inst.doctors)
    most = min(operator.index(doctor_budget), len(names))
    hospital_budget = operator.index(hospital_budget)
    lo, hi = -1, 0
    while lo < most:
        hi = min(hi, most)
        combo = _first_hit(inst, names, lo, hi, hospital_budget)
        if combo is not None:
            _, critical = _outcome(inst, _fixed_point(inst, combo)[0])
            return frozenset(doctor(n) for n in combo) | critical
        lo, hi = hi, 2 * hi + 1
    return None


def _first_hit(
    inst: Instance,
    names: Sequence[str],
    lo: int,
    hi: int,
    budget: int,
    hit: Callable[[tuple[str, ...], int], object] | None = None,
) -> tuple[str, ...] | None:
    """The first, in name order, of the smallest subsets of `names` with a
    size in (lo, hi] and a critical count of at most `budget`, or None.
    `hit`, when given, is handed each subset the walk reaches with its
    count, and a subset it rejects is no hit.

    One depth-first walk decides the doctors in the order of `names`.
    Skipping a doctor puts it in the subset and leaves the loop's state as
    it is; keeping it lets its first tie group propose, and the loop
    resumes from the parent node's fixed point.  Skips go first, so the
    subsets of each size are reached in name order.  Once no skip is left,
    the remaining doctors propose together and the loop runs once more.
    The walk cuts every node that cannot reach a size above `lo` or below
    the smallest hit so far, and stops at a hit of size `lo + 1`.  A keep
    first restores the state copied at its node, since the skips walked
    before it changed that state; at most one copy per doctor on the
    path is held, O(|D|·(|D|+|H|)) memory.

    It also cuts every node whose subsets all count above `budget`, by
    the bound of the module docstring.  At node i, with `size` doctors
    skipped, `_count(state)` is the count K of the doctors kept so far.
    Each subset below keeps some of the n - i doctors still to decide,
    and lowers K by at most one per kept doctor without a lone hospital
    in its first tie group.  It keeps at most `free[i]` of those, and at
    most n - i - (lo + 1 - size) doctors in all when the window still
    needs lo + 1 - size > 0 more skips.  A cut subtree holds no hit and
    the surviving subsets keep their order, so the first hit is the
    uncut walk's.
    """
    propose, run, state = _loop(inst)
    index = {name: d for d, name in enumerate(inst.doctors)}
    order = [index[name] for name in names]
    n = len(order)
    eh, dl, first = inst._eh, inst._dl, inst._first
    lone = [len(ids) == 1 for ids in inst._by_h]
    # free[i]: how many of the doctors order[i:] have no lone hospital in
    # their first tie group, the only ones whose keep can lower the count.
    # A doctor's ids are in rank order, so that group is the ids of its
    # first id's rank.
    free = [0] * (n + 1)
    for i in reversed(range(n)):
        ids = range(first[order[i]], first[order[i] + 1])
        free[i] = free[i + 1] + (not any(lone[eh[e]] for e in ids if dl[e] == dl[ids[0]]))
    found = None
    # A node is (position of the next doctor, the names skipped so far,
    # None); its keep branch is the same with the state copied at the node.
    stack: list = [(0, (), None)]
    while stack:
        i, combo, saved = stack.pop()
        size = len(combo)
        if saved is not None:
            for now, then in zip(state, saved):
                now[:] = then
            run(list(propose(order[i])))
            i += 1
        if _count(state) - min(free[i], n - i - max(0, lo + 1 - size)) > budget:
            continue
        if size < hi and i < n:
            if size + n - i - 1 > lo:
                stack.append((i, combo, [now[:] for now in state]))
            stack.append((i + 1, combo + (names[i],), None))
            continue
        if i < n:
            run([e for d in order[i:] for e in propose(d)])
        count = _count(state)
        if (hit is None or hit(combo, count)) and count <= budget:
            found, hi = combo, size - 1
            if hi == lo:
                break
    return found


__all__ = [
    "CoverageInstance",
    "ReductionOutput",
    "parse_coverage",
    "reduce_min_coverage",
    "oracle_min_coverage",
    "solve_two_side_deletion",
]
