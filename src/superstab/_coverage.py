"""The coverage side of `hardness`: coverage data, its file format, and
the instance family built from it.

Of the commands, only `reduce` runs this code, so `solve2` never
compiles it: `hardness` reads these names from here on first access
(PEP 562) and lists them in its `__all__`.
"""

from __future__ import annotations

from itertools import combinations

from ._objects import _lines, _name_ok, _name_problem, make_instance
from .model import CapExceeded, FormatError, _Record, doctor, hospital


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
        raise CapExceeded(f"{m} families exceed the subset-search cap of {max_families}; raise max_families")
    for picked in combinations(range(m), cov.picks):
        union: set[str] = set()
        for i in picked:
            union |= cov.families[i]
        if len(union) <= cov.cover_limit:
            return True
    return False
