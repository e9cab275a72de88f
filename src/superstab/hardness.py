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

The instance builder turns set-coverage data (pick exactly `picks`
families, keep their union within `cover_limit`) into a fully
indifferent matching instance whose deletion budgets mirror the coverage
question.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Callable, Sequence

from .model import (
    CapExceeded,
    FormatError,
    Instance,
    Vertex,
    _Record,
    _lines,
    _name_ok,
    _name_problem,
    doctor,
    hospital,
    induced_instance,  # unused here; bench/tracer.py counts subsets through it
    make_instance,
)
from .superstable import _count, _fixed_point, _loop, _outcome


class CoverageInstance(_Record):
    """Choose exactly `picks` families whose union has at most `cover_limit`
    elements."""

    _fields = ("ground", "families", "picks", "cover_limit")

    def __init__(
        self, ground: tuple[str, ...], families: tuple[frozenset[str], ...], picks: int, cover_limit: int
    ) -> None:
        super().__init__(ground, families, picks, cover_limit)
        if problem := _name_problem(self.ground, "ground element", "duplicate ground element"):
            raise ValueError(problem[1])
        for i, fam in enumerate(self.families, 1):
            stray = fam.difference(self.ground)
            if stray:
                raise ValueError(
                    f"family {i} contains {sorted(stray)[0]!r}, which is not a ground element"
                )
        if not 0 <= self.picks <= len(self.families):
            raise ValueError("picks must be between 0 and the number of families")
        if not 0 <= self.cover_limit <= len(self.ground):
            raise ValueError("cover_limit must be between 0 and the ground size")


class ReductionOutput(_Record):
    """The built instance plus budgets and the index-to-vertex name maps.  Its
    fields are `instance: Instance`, `doctor_budget: int`,
    `hospital_budget: int`, and `doctor_of` and `slot_of`, each a
    `Mapping[int, Vertex]`."""

    _fields = ("instance", "doctor_budget", "hospital_budget", "doctor_of", "slot_of")


def parse_coverage(text: str) -> CoverageInstance:
    """Parse coverage text: a `ground:` line, one `set NAME:` line per
    family, and `x:` / `y:` lines for picks and cover limit."""
    ground: tuple[str, ...] | None = None
    families: list[frozenset[str]] = []
    family_names: set[str] = set()
    picks: int | None = None
    limit: int | None = None

    for lineno, words, body, _ in _lines(text):
        if words == ["ground"]:
            if ground is not None:
                raise FormatError("second 'ground:' line", line=lineno)
            ground = _token_list(body, lineno, "ground element")
        elif len(words) == 2 and words[0] == "set":
            if ground is None:
                raise FormatError("'set' line before 'ground:' line", line=lineno)
            name = words[1]
            if not _name_ok(name):
                raise FormatError(f"invalid set name {name!r}", line=lineno)
            if name in family_names:
                raise FormatError(f"duplicate set name {name!r}", line=lineno)
            family_names.add(name)
            members = _token_list(body, lineno, "set member")
            stray = set(members) - set(ground)
            if stray:
                raise FormatError(
                    f"set {name!r} contains {sorted(stray)[0]!r}, which is not in the ground set",
                    line=lineno,
                )
            families.append(frozenset(members))
        elif words in (["x"], ["y"]):
            label = words[0]
            try:
                value = int(body.strip())
            except ValueError:
                raise FormatError(f"'{label}:' needs an integer", line=lineno) from None
            if label == "x":
                if picks is not None:
                    raise FormatError("second 'x:' line", line=lineno)
                picks = value
            else:
                if limit is not None:
                    raise FormatError("second 'y:' line", line=lineno)
                limit = value
        else:
            raise FormatError("expected 'ground:', 'set NAME:', 'x:' or 'y:'", line=lineno)

    if ground is None:
        raise FormatError("missing 'ground:' line")
    if picks is None:
        raise FormatError("missing 'x:' line")
    if limit is None:
        raise FormatError("missing 'y:' line")
    try:
        return CoverageInstance(ground, tuple(families), picks, limit)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _token_list(body: str, lineno: int, word: str) -> tuple[str, ...]:
    names = body.split()
    if problem := _name_problem(names, word, f"duplicate {word}"):
        raise FormatError(problem[1], line=lineno)
    return tuple(names)


def reduce_min_coverage(cov: CoverageInstance) -> ReductionOutput:
    """Build the matching instance that mirrors a coverage question.

    Family i becomes doctor `Ti`; ground element j becomes hospital `sj`;
    each doctor also gets a private slot hospital `ti`.  A doctor is
    adjacent to its members' hospitals and its own slot, and every
    preference list is one big tie.  The budgets are `m - picks` doctor
    deletions and `cover_limit` hospital deletions.
    """
    m = len(cov.families)
    n = len(cov.ground)
    doctors = tuple(f"T{i}" for i in range(1, m + 1))
    grounds = tuple(f"s{j}" for j in range(1, n + 1))
    slots = tuple(f"t{i}" for i in range(1, m + 1))
    index_of = {name: j for j, name in enumerate(cov.ground, 1)}

    doctor_prefs: dict[str, list[list[str]]] = {}
    member_doctors: dict[str, list[str]] = {g: [] for g in grounds}
    for i, fam in enumerate(cov.families, 1):
        partners = [f"s{index_of[name]}" for name in sorted(fam, key=index_of.get)]
        for g in partners:
            member_doctors[g].append(f"T{i}")
        doctor_prefs[f"T{i}"] = [partners + [f"t{i}"]]
    hospital_prefs: dict[str, list[list[str]]] = {
        g: ([ds] if ds else []) for g, ds in member_doctors.items()
    }
    for i in range(1, m + 1):
        hospital_prefs[f"t{i}"] = [[f"T{i}"]]

    instance = make_instance(doctors, grounds + slots, doctor_prefs, hospital_prefs)
    return ReductionOutput(
        instance=instance,
        doctor_budget=m - cov.picks,
        hospital_budget=cov.cover_limit,
        doctor_of={i: doctor(f"T{i}") for i in range(1, m + 1)},
        slot_of={i: hospital(f"t{i}") for i in range(1, m + 1)},
    )


def oracle_min_coverage(cov: CoverageInstance, *, max_families: int = 20) -> bool:
    """Brute-force answer to the coverage question itself."""
    m = len(cov.families)
    if m > max_families:
        raise CapExceeded(f"{m} families exceed the subset-search cap of {max_families}")
    for picked in combinations(range(m), cov.picks):
        union: set[str] = set()
        for i in picked:
            union |= cov.families[i]
        if len(union) <= cov.cover_limit:
            return True
    return False


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
    and it stops at a hit of size lo + 1.  The first subset within the
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
    lo, hi = -1, 0
    while lo < most:
        hi = min(hi, most)
        combo = _first_hit(inst, names, lo, hi, lambda _, count: count <= hospital_budget)
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
    hit: Callable[[tuple[str, ...], int], bool],
) -> tuple[str, ...] | None:
    """The first, in name order, of the smallest subsets of `names` with a
    size in (lo, hi] whose critical count `hit` accepts, or None.

    One depth-first walk decides the doctors in the order of `names`.
    Skipping a doctor puts it in the subset and leaves the loop's state as
    it is; keeping it lets its first tie group propose, and the loop
    resumes from the parent node's fixed point.  Skips go first, so the
    subsets of each size reach `hit` in name order.  Once no skip is left,
    the remaining doctors propose together and the loop runs once more.
    The walk cuts every node that cannot reach a size above `lo` or below
    the smallest hit so far, and stops at a hit of size `lo + 1`.  A keep
    first restores the state copied at its node, since the skips walked
    before it changed that state; at most one copy per doctor on the
    path is held, O(|D|·(|D|+|H|)) memory.
    """
    propose, run, state = _loop(inst)
    index = {name: d for d, name in enumerate(inst.doctors)}
    order = [index[name] for name in names]
    n = len(order)
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
        if size < hi and i < n:
            if size + n - i - 1 > lo:
                stack.append((i, combo, [now[:] for now in state]))
            stack.append((i + 1, combo + (names[i],), None))
            continue
        if i < n:
            run([e for d in order[i:] for e in propose(d)])
        if hit(combo, _count(state)):
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
