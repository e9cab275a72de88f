"""Two-side deletion: an exact solver and a coverage-built instance family.

Two-side deletion is NP-complete, so the exact solver enumerates doctor
deletions, by size and then name order.  Each doctor set is completed by
the polynomial hospital-side routine, whose answer is the critical set
of the remaining instance.  The search needs only that set's size, so
it builds every doctor's tie groups once and, per doctor set, runs the
closure loop of `superstable` with those doctors passed as `skip`; no
hospital is deleted there, so it never passes `gone`.  At the loop's
fixed point the critical count is the number of hospitals whose pool is
non-empty minus the number of doctors still on a tie group; the proof is
in `solve_two_side_deletion`.  The first doctor set that fits the
budget takes its critical set from the same run, as the one-side solver
reads its own.  The instance builder turns set-coverage data
(pick exactly `picks` families, keep their union within `cover_limit`)
into a fully indifferent matching instance whose deletion budgets mirror
the coverage question.
"""

from __future__ import annotations

from itertools import combinations

from .model import (
    CapExceeded,
    FormatError,
    Instance,
    Vertex,
    _Record,
    _lines,
    _name_ok,
    doctor,
    hospital,
    induced_instance,  # unused here; bench/tracer.py counts subsets through it
    make_instance,
)
from .superstable import _fixed_point, _outcome, _tie_groups


class CoverageInstance(_Record):
    """Choose exactly `picks` families whose union has at most `cover_limit`
    elements."""

    _fields = ("ground", "families", "picks", "cover_limit")

    def __init__(
        self, ground: tuple[str, ...], families: tuple[frozenset[str], ...], picks: int, cover_limit: int
    ) -> None:
        super().__init__(ground, families, picks, cover_limit)
        seen: set[str] = set()
        for name in self.ground:
            if not _name_ok(name):
                raise ValueError(f"invalid ground element name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate ground element {name!r}")
            seen.add(name)
        for i, fam in enumerate(self.families, 1):
            stray = fam - seen
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
    names: list[str] = []
    seen: set[str] = set()
    for token in body.split():
        if not _name_ok(token):
            raise FormatError(f"invalid {word} name {token!r}", line=lineno)
        if token in seen:
            raise FormatError(f"duplicate {word} {token!r}", line=lineno)
        seen.add(token)
        names.append(token)
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

    The tie groups are built once, and each subset runs the closure loop
    with its doctors skipped.  At the fixed point the critical count is
    |hospitals whose pool is non-empty| - |doctors still on a group|:
    every proposed edge is either forbidden or held, so a non-empty pool
    is exactly what `critical_hospitals` calls wanted; and each live
    doctor's smallest-name live edge is held by a hospital of its own, so
    the matched hospitals are one per live doctor, all of them wanted.
    The first subset within the hospital budget reads its critical set
    from the same run, as `solve_min_hospital_deletion` would on the
    instance without those doctors.
    """
    if doctor_budget < 0 or hospital_budget < 0:
        raise ValueError("budgets must be non-negative")
    if len(inst.doctors) > max_doctors:
        raise CapExceeded(
            f"{len(inst.doctors)} doctors exceed the subset-search cap of {max_doctors}; "
            "raise max_doctors"
        )
    groups = _tie_groups(inst)
    names = sorted(inst.doctors)
    for size in range(min(doctor_budget, len(names)) + 1):
        for combo in combinations(names, size):
            log, count = _fixed_point(inst, groups, skip=combo)
            if count <= hospital_budget:
                _, critical = _outcome(inst, log)
                return frozenset(doctor(n) for n in combo) | critical
    return None


__all__ = [
    "CoverageInstance",
    "ReductionOutput",
    "parse_coverage",
    "reduce_min_coverage",
    "oracle_min_coverage",
    "solve_two_side_deletion",
]
