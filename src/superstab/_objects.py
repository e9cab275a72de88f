"""The cold code of `model`, `superstable`, `hardness`, `oracle` and `cli`.

Nothing here runs in `check`, `solve1`, `closure`, `solve2` or
`verify --mode problem1` on good input, so those commands never compile
it.  `model`, `superstable`, `hardness`, `oracle` and `cli` read these
names from this module on first access (PEP 562), and each public one
stays in the `__all__` of its public module.  It holds:

- the builders that start from Python objects: `make_instance` and its
  list checks, and `Instance(...)`'s validation of its four fields;
- what turns an instance back into lists or text: `serialize_instance`,
  `induced_instance` and `transpose_instance`;
- the definitional scans: the choice scans of one closure round;
  `_blocking`, the one blocking rule, which `blocking_edges` and
  `enumerate_super_stable` both ask; and
  `extract_matching` and `critical_hospitals`, which rescan the edges
  with the choice scans where the solver reads its own log;
- the error namer: `model` reads instance text in one pass and builds
  instances with checks that run in bulk and say only that something is
  wrong.  When one of them fails, `_text_problem` or `_list_problem`
  reads the input again, one check at a time in file or list order, and
  says what the first problem is and where; good input never runs it.
  `_text_problem` reads text line by line, scanning each line's tokens
  once for its names and their columns, and hands the lists to
  `_list_problem`, which scans them entry by entry;
- the oracles that only `verify --mode existence` and `--mode problem2`
  run: `_walk`, the matching enumerators and `oracle_two_side_deletion`;
- the coverage side of `hardness`: coverage data, its file format, and
  the instance family built from it, which only `reduce` runs;
- the cold commands: `generate_instance`, the handlers of `gen`,
  `reduce` and `transpose`, and the argparse parser, built only for
  `--help` and for the command lines that `cli`'s plain reader declines.
  They import the names they need from `cli` where they run, so
  importing this module loads no `cli`.

A private module stands apart only where some command loads its public
module without it.  The error namer and the coverage side both read the
name checks and the line splitter here, so every run that needed one of
them loaded this module too, and they live in it.  So do the cold
commands: every one but `--help` builds or serializes an instance here.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from itertools import chain, combinations, count, groupby, repeat
from operator import index, itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .model import (
    DOCTOR,
    HOSPITAL,
    CapExceeded,
    Edge,
    FormatError,
    Instance,
    Vertex,
    _SIDE_WORD,
    _build,
    _Entries,
    _Record,
    _checked,
    _member_name,
    _pair,
    _removed_names,
    doctor,
    hospital,
    ordered_edges,
    parse_instance,
)

if TYPE_CHECKING:
    import argparse
    from types import SimpleNamespace

# Names must survive the text format: one token, no grouping or delimiter
# chars.  `\s` matches exactly the characters `str.isspace` accepts.
_NOT_IN_NAME = re.compile(r"[\s()#:]")


def _name_ok(name: object) -> bool:
    return isinstance(name, str) and bool(name) and not _NOT_IN_NAME.search(name)


def _name_problem(names: Sequence[object], word: str, repeated: str) -> tuple[int, str] | None:
    """The index and message of the first of `names` that is invalid or
    repeats an earlier one: "invalid {word} name 'x'" or "{repeated} 'x'"."""
    seen: set[object] = set()
    for k, name in enumerate(names):
        if not _name_ok(name):
            return k, f"invalid {word} name {name!r}"
        if name in seen:
            return k, f"{repeated} {name!r}"
        seen.add(name)
    return None


def _table_lists(
    rank: Mapping[Vertex, Mapping[Edge, int]], doctors: tuple[str, ...], hospitals: tuple[str, ...]
) -> list[list[_Entries]]:
    """The doctors' and the hospitals' lists in the rank tables, in
    declaration order, as `_build` reads them: each table in rank order,
    tied edges in table order."""
    out = []
    for side, names, partner in ((DOCTOR, doctors, itemgetter(1)), (HOSPITAL, hospitals, itemgetter(0))):
        tables = map(rank.__getitem__, map(Vertex, repeat(side), names))
        ordered = (sorted(t.items(), key=itemgetter(1)) for t in tables)  # stable: ties keep table order
        out.append([([partner(e) for e, _ in t], [r for _, r in t]) for t in ordered])
    return out


def _lists(inst: Instance) -> tuple[list[_Entries], list[_Entries]]:
    """The doctors' and the hospitals' lists in the core of `inst`, in
    declaration order, as `_build` reads them."""
    first, partners = inst._first, list(map(inst.hospitals.__getitem__, inst._eh))
    doctor_lists = [(partners[a:b], inst._dl[a:b]) for a, b in zip(first, first[1:])]
    doctor_of, rank = list(map(inst.doctors.__getitem__, inst._ed)).__getitem__, inst._hl.__getitem__
    return doctor_lists, [(list(map(doctor_of, ids)), list(map(rank, ids))) for ids in inst._by_h]


def _entries(groups: list[list[str]]) -> _Entries:
    """Tie groups, best first, as one list: the names and the level of each."""
    return list(chain.from_iterable(groups)), list(chain.from_iterable(map(repeat, count(1), map(len, groups))))


def _check_names(doctors: tuple[str, ...], hospitals: tuple[str, ...]) -> None:
    for word, names in (("doctor", doctors), ("hospital", hospitals)):
        if problem := _name_problem(names, word, f"duplicate {word} name"):
            raise ValueError(problem[1])


def _validate_instance(
    doctors: tuple[str, ...], hospitals: tuple[str, ...], edges: frozenset[Edge], rank: Mapping[Vertex, Mapping]
) -> None:
    """Check the fields given to `Instance(...)`, before any is stored:
    valid, unique names, edges between declared vertices, and one table
    per vertex ranking exactly its edges; ValueError for the first problem."""
    _check_names(doctors, hospitals)
    dset, hset = set(doctors), set(hospitals)
    expected = {Vertex(DOCTOR, d) for d in doctors} | {Vertex(HOSPITAL, h) for h in hospitals}
    incident: dict[Vertex, set[Edge]] = {v: set() for v in expected}
    declared = lambda e: isinstance(e, Edge) and _pair(e) and e.doctor in dset and e.hospital in hset
    problem = lambda e: "has an undeclared endpoint" if isinstance(e, Edge) else "is not an Edge"
    edges = _checked(edges, declared, lambda e: ValueError(f"edge {_member_name(e)} {problem(e)}"))
    for e in edges:
        incident[Vertex(DOCTOR, e.doctor)].add(e)
        incident[Vertex(HOSPITAL, e.hospital)].add(e)
    if set(rank) != expected:
        raise ValueError("preference table must cover every declared vertex exactly")
    for v, table in rank.items():
        if set(table) != incident[v]:
            raise ValueError(f"{v.describe()} must rank exactly its incident edges")
        for r in table.values():
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError(f"{v.describe()} has a non-positive rank {r!r}")


PrefInput = Sequence["str | Iterable[str]"]


def _from_lists(
    doctors: tuple[str, ...], hospitals: tuple[str, ...], prefs: Mapping[Vertex, PrefInput]
) -> Instance:
    """Check one preference list per declared vertex and build the instance.

    The declared names must already be valid and unique.  Lists whose
    tie groups are all non-empty and hold only strings go to the bulk
    checks of `_build`.  Only when those fail are the lists scanned entry
    by entry, by `_list_problem`, to raise `_ListError` for the first
    problem, which never depends on hashing.
    """
    seen: dict[Vertex, list[list]] = {}  # each list's tie groups, read once
    lists: dict[Vertex, _Entries] = {}
    for owner, raw in prefs.items():
        try:
            groups = seen[owner] = [[item] if isinstance(item, str) else list(item) for item in raw]
        except TypeError:  # an item that is not iterable: the scan meets it in order
            break
        names, _ = lists[owner] = _entries(groups)
        if not all(groups) or not all(map(isinstance, names, repeat(str))):
            break
    else:
        inst = _build(
            doctors,
            hospitals,
            [lists[DOCTOR, d] for d in doctors],  # a Vertex is the tuple (side, name)
            [lists[HOSPITAL, h] for h in hospitals],
        )
        if inst is not None:
            return inst

    raise _list_problem(doctors, hospitals, {**prefs, **seen})


def make_instance(
    doctors: Iterable[str],
    hospitals: Iterable[str],
    doctor_prefs: Mapping[str, PrefInput] | None = None,
    hospital_prefs: Mapping[str, PrefInput] | None = None,
) -> Instance:
    """Build a validated instance from per-vertex preference lists.

    A preference list is a sequence whose items are either a partner
    name (a rank level of its own) or an iterable of names tied at one
    level, best level first.  Listing must be mutual: a doctor may rank
    a hospital only if that hospital ranks the doctor back.  Vertices
    absent from the mapping get an empty list.
    """
    doctors = tuple(doctors)
    hospitals = tuple(hospitals)
    _check_names(doctors, hospitals)
    doctor_prefs = dict(doctor_prefs or {})
    hospital_prefs = dict(hospital_prefs or {})
    for word, prefs, declared in (
        ("doctor", doctor_prefs, set(doctors)),
        ("hospital", hospital_prefs, set(hospitals)),
    ):
        extra = set(prefs) - declared
        if extra:
            raise ValueError(f"preferences given for undeclared {word} {sorted(extra)[0]!r}")

    lists = {Vertex(DOCTOR, d): doctor_prefs.get(d, ()) for d in doctors}
    lists.update({Vertex(HOSPITAL, h): hospital_prefs.get(h, ()) for h in hospitals})
    return _from_lists(doctors, hospitals, lists)


def _lines(text: str) -> Iterator[tuple[int, list[str], str, int]]:
    """Each line of `text` that is not blank once its `#` comment is cut:
    its number, the words before its first ':', the body after it, and the
    body's offset in the line.  A line without ':' raises FormatError."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise FormatError("expected ':'", line=lineno, column=len(line.rstrip()) + 1)
        yield lineno, head.split(), body, len(head) + 1


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; the parser reads it back verbatim.

    Tie groups are emitted best to worst with members sorted by name, so
    equal instances serialize to identical bytes.
    """
    def name_line(label: str, names: tuple[str, ...]) -> str:
        return f"{label}:" + ("" if not names else " " + " ".join(names))

    lines = [name_line("doctors", inst.doctors), name_line("hospitals", inst.hospitals)]
    for v, (names, ranks) in zip(inst.vertices(), chain(*_lists(inst))):
        runs = groupby(zip(ranks, names), itemgetter(0))  # the tie groups: runs of equal rank
        groups = [sorted(map(itemgetter(1), run)) for _, run in runs]
        parts = [f"({' '.join(g)})" if len(g) > 1 else g[0] for g in groups]
        lines.append(f"pref {v.name}:" + ("" if not parts else " " + " ".join(parts)))
    return "\n".join(lines) + "\n"


def induced_edges(inst: Instance, removed: Iterable[Vertex] = ()) -> frozenset[Edge]:
    """Edges of the subgraph left after deleting `removed` vertices."""
    gone_d, gone_h = _removed_names(inst, removed)
    if not gone_d and not gone_h:
        return inst.edges
    return frozenset(
        e for e in inst.edges if e.doctor not in gone_d and e.hospital not in gone_h
    )


def induced_instance(inst: Instance, removed: Iterable[Vertex]) -> Instance:
    """The instance on the remaining vertices.

    Declaration order is preserved, edge sets shrink accordingly, and
    surviving rank values carry over unchanged.
    """
    removed = list(removed)
    edges = induced_edges(inst, removed)  # checks each member before any is hashed
    removed = frozenset(removed)
    if not removed:
        return inst
    doctors = tuple(d for d in inst.doctors if Vertex(DOCTOR, d) not in removed)
    hospitals = tuple(h for h in inst.hospitals if Vertex(HOSPITAL, h) not in removed)
    rank = {v: {e: r for e, r in table.items() if e in edges} for v, table in inst.rank.items()}
    return _build(doctors, hospitals, *_table_lists(rank, doctors, hospitals))


def transpose_instance(inst: Instance) -> Instance:
    """Swap the two sides, preserving every preference."""
    doctor_lists, hospital_lists = _lists(inst)
    return _build(inst.hospitals, inst.doctors, hospital_lists, doctor_lists)


def _edges_given(inst: Instance, members: Iterable[Edge], what: str = "edge") -> list:
    """`members` as a list, once each is an edge of `inst`, as an Edge or a
    plain pair of strings; else ValueError, by `_checked`, says "{what} X is
    not an edge of the instance"."""
    outside = lambda e: ValueError(f"{what} {_member_name(e)} is not an edge of the instance")
    return _checked(members, lambda e: _pair(e) and e in inst.edges, outside)


def _best_edges(inst: Instance, pool: Iterable[Edge], end: int) -> list[list[Edge]]:
    """Per endpoint `e[end]` of the edges in `pool`, edges of `inst` that
    are already checked, its best ones by that endpoint's ranks."""
    table = inst.hospital_rank if end else inst.doctor_rank
    keep: dict[str, tuple[int, list[Edge]]] = {}
    for e in pool:
        r = table[e]
        b = keep.get(e[end])
        if b is None or r < b[0]:
            keep[e[end]] = (r, [e])
        elif r == b[0]:
            b[1].append(e)
    return [es for _, es in keep.values()]


def _doctor_choices(inst: Instance, pool: Iterable[Edge]) -> frozenset[Edge]:
    """`all_doctor_choices` of edges of `inst` that are already checked."""
    return frozenset(chain.from_iterable(_best_edges(inst, pool, 0)))


def all_doctor_choices(inst: Instance, pool: Iterable[Edge]) -> frozenset[Edge]:
    """Union of every doctor's weakly best edges within `pool`."""
    return _doctor_choices(inst, _edges_given(inst, pool))


def all_hospital_choices(inst: Instance, pool: Iterable[Edge]) -> frozenset[Edge]:
    """Union of every hospital's held edge within `pool` (strict bests only)."""
    return frozenset(es[0] for es in _best_edges(inst, _edges_given(inst, pool), 1) if len(es) == 1)


def _assignment(pool: frozenset[Edge], matching: Iterable[Edge]) -> tuple[dict[str, Edge], dict[str, Edge]]:
    """Each side's partner in `matching`, which must be a matching of `pool`,
    as Edges or plain pairs of strings: else ValueError names a member
    outside `pool`, by `_checked`, or says that two edges share an endpoint."""
    outside = lambda e: ValueError(f"matching edge {_member_name(e)} is not in the induced graph")
    matching = frozenset(_checked(matching, lambda e: _pair(e) and e in pool, outside))
    by_d = {e[0]: e for e in matching}
    by_h = {e[1]: e for e in matching}
    if not len(by_d) == len(by_h) == len(matching):
        raise ValueError("two matching edges share an endpoint")
    return by_d, by_h


def _blocking(inst: Instance, pool: Iterable[Edge], by_d: dict, by_h: dict) -> Iterator[Edge]:
    """The edges of `pool` outside the matching (doctor -> edge, hospital ->
    edge) that block it, by the rank tables of `inst`: neither endpoint
    strictly prefers its partner, and being unmatched loses to anything.
    No other code compares a blocking edge's ranks."""
    dr, hr = inst.doctor_rank, inst.hospital_rank
    for e in pool:
        md = by_d.get(e.doctor)
        if md == e or (md is not None and dr[md] < dr[e]):
            continue
        mh = by_h.get(e.hospital)
        if mh is None or hr[e] <= hr[mh]:
            yield e


def blocking_edges(
    inst: Instance, removed: Iterable[Vertex], matching: Iterable[Edge]
) -> frozenset[Edge]:
    """Every edge of the graph minus `removed` that blocks `matching`.

    An edge blocks when both of its endpoints find it at least as good
    as their current assignment (being unmatched loses to anything).
    Raises ValueError when `matching` is not a matching of the induced
    graph.
    """
    pool = induced_edges(inst, removed)
    by_d, by_h = _assignment(pool, matching)
    return frozenset(_blocking(inst, pool, by_d, by_h))


def is_super_stable(
    inst: Instance, removed: Iterable[Vertex], matching: Iterable[Edge]
) -> bool:
    """True when `matching` has no blocking edge in the graph minus `removed`."""
    return not blocking_edges(inst, removed, matching)


def extract_matching(inst: Instance, forbidden: Iterable[Edge]) -> frozenset[Edge]:
    """The matching the non-forbidden doctor choices induce.

    Requires a completed closure result: every hospital may appear in at
    most one doctor's choice set.  Each doctor with choices left takes
    the one with the smallest hospital name.  Every forbidden member must
    be an edge of `inst`, else ValueError names it.
    """
    forbidden = _edges_given(inst, forbidden, "forbidden edge")
    choices = _doctor_choices(inst, inst.edges.difference(forbidden))
    crowded = [h for h, c in Counter(e.hospital for e in choices).items() if c > 1]
    if crowded:
        raise ValueError(
            f"hospital {sorted(crowded)[0]!r} is chosen by several doctors; "
            "the forbidden set is not a completed closure result"
        )
    return frozenset({e.doctor: e for e in sorted(choices, reverse=True)}.values())


def critical_hospitals(
    inst: Instance, forbidden: Iterable[Edge], matching: Iterable[Edge]
) -> frozenset[Vertex]:
    """Hospitals left unmatched that some doctor still wants.

    A hospital is critical when `matching` leaves it empty although it
    has a forbidden edge or appears in some doctor's current choices.
    """
    forbidden = frozenset(_edges_given(inst, forbidden, "forbidden edge"))
    wanted = {e[1] for e in forbidden | _doctor_choices(inst, inst.edges - forbidden)}
    wanted.difference_update(e[1] for e in _edges_given(inst, matching, "matching edge"))
    return frozenset(Vertex(HOSPITAL, h) for h in inst.hospitals if h in wanted)


def _walk(pool: list[Edge]) -> Iterator[tuple[dict, dict]]:
    """Visit every matching within `pool` once, and yield it as
    (doctor -> edge, hospital -> edge).  Each edge is left out before it
    is taken.  The dicts are live: read them before resuming."""
    by_d: dict[str, Edge] = {}
    by_h: dict[str, Edge] = {}
    # Entries: next pool index, matched edges to keep, edge to add or None.
    stack: list[tuple[int, int, Edge | None]] = [(0, 0, None)]
    while stack:
        i, keep, add = stack.pop()
        while len(by_d) > keep:
            del by_h[by_d.popitem()[1].hospital]  # popitem drops the newest
        if add is not None:
            by_d[add.doctor] = by_h[add.hospital] = add
        if i == len(pool):
            yield by_d, by_h
            continue
        e = pool[i]
        if e.doctor not in by_d and e.hospital not in by_h:
            stack.append((i + 1, len(by_d), e))
        stack.append((i + 1, len(by_d), None))


def all_matchings(inst: Instance, deleted: Iterable[Vertex] = ()) -> Iterator[frozenset[Edge]]:
    """Yield every matching of the graph minus `deleted`, each exactly once."""
    for by_d, _ in _walk(ordered_edges(_check_edge_cap(inst, deleted, None))):
        yield frozenset(by_d.values())


def count_matchings(
    inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int | None = 20
) -> int:
    """How many matchings the graph minus `deleted` has.  More than
    `max_edges` edges raise CapExceeded; None lifts the cap."""
    return sum(1 for _ in _walk(ordered_edges(_check_edge_cap(inst, deleted, max_edges))))


def _check_edge_cap(inst: Instance, deleted: Iterable[Vertex], max_edges: int | None) -> frozenset[Edge]:
    pool = induced_edges(inst, deleted)
    if max_edges is not None and len(pool) > max_edges:
        from .oracle import _cap_exceeded

        raise _cap_exceeded(len(pool), "edges", "enumeration", "max_edges", max_edges)
    return pool


def enumerate_super_stable(
    inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int | None = 20
) -> list[frozenset[Edge]]:
    """Every super-stable matching of the graph minus `deleted`.

    Deterministic order.  The search walks every matching and keeps the
    ones that `_blocking` finds no blocking edge of, the rule that
    `is_super_stable` asks too, so membership is `is_super_stable` by
    construction.  More than `max_edges` edges raise CapExceeded; None
    lifts the cap.
    """
    pool = ordered_edges(_check_edge_cap(inst, deleted, max_edges))
    return [
        frozenset(by_d.values())
        for by_d, by_h in _walk(pool)
        if not any(_blocking(inst, pool, by_d, by_h))
    ]


def oracle_two_side_deletion(
    inst: Instance,
    doctor_budget: int,
    hospital_budget: int,
    *,
    max_vertices: int = 14,
) -> frozenset[Vertex] | None:
    """Some vertex set within both budgets whose removal restores
    super-stability, or None.

    The witness is the first hit of a scan over doctor and hospital sets
    (D', H') by total size, doctor count, then names.  Each D' within the
    doctor budget takes one `_least_blocking` walk on G minus D', and the
    least key (|D'| + |H'|, |D'|, D', H') within the hospital budget wins.
    That is the scan's first hit: there the minimum deletion of G minus D'
    is |H'|, or the scan would have hit earlier, and H' is the walk's first
    set of that size in name order.  Sizes of D' stop at the best total,
    which a larger D' could only tie with more doctors.
    """
    from .oracle import _cap_exceeded, _least_blocking

    if doctor_budget < 0 or hospital_budget < 0:
        raise ValueError("budgets must be non-negative")
    total_vertices = len(inst.doctors) + len(inst.hospitals)
    if total_vertices > max_vertices:
        raise _cap_exceeded(
            total_vertices, "vertices", "subset-search", "max_vertices", max_vertices
        )
    names = sorted(inst.doctors)
    doctor_budget, hospital_budget = index(doctor_budget), index(hospital_budget)
    pool = ordered_edges(inst.edges)
    best = None
    for size in range(min(doctor_budget, len(names)) + 1):
        if best is not None and size >= best[0]:
            break
        for combo in combinations(names, size):
            hs = _least_blocking(inst, [e for e in pool if e.doctor not in combo])
            key = (size + len(hs), size, combo, hs)
            if len(hs) <= hospital_budget and (best is None or key < best):
                best = key
    if best is None:
        return None
    _, _, combo, hs = best
    return frozenset(doctor(n) for n in combo) | frozenset(hospital(n) for n in hs)


_OTHER_SIDE = {DOCTOR: HOSPITAL, HOSPITAL: DOCTOR}
# The tokens of a name line, and of a `pref` body: parentheses and names.
_NAME_TOKEN = re.compile(r"\S+")
_PREF_TOKEN = re.compile(r"[()]|[^\s()]+")


class _ListError(ValueError):
    """A problem in one preference list: `owner` holds the list and `entry`
    is the 0-based position of the faulty entry, counted across tie groups
    (None when no single entry is at fault)."""

    def __init__(self, message: str, owner: Vertex, entry: int | None = None):
        super().__init__(message)
        self.owner = owner
        self.entry = entry


def _list_problem(
    doctors: tuple[str, ...], hospitals: tuple[str, ...], prefs: Mapping[Vertex, PrefInput]
) -> _ListError:
    """The first problem in lists that `_build` refused, scanned entry by
    entry: problems within a list come first, lists in `prefs` order and
    entries in list order; then the first one-sided listing in edge order,
    doctors' lists before hospitals'.  So which one is reported never
    depends on hashing."""
    partners = {DOCTOR: frozenset(hospitals), HOSPITAL: frozenset(doctors)}
    # Per list, partner name -> rank level, in entry order.
    levels_of: dict[Vertex, dict[str, int]] = {}
    for owner, raw in prefs.items():
        levels: dict[str, int] = {}
        for level, item in enumerate(raw, 1):
            group = [item] if isinstance(item, str) else list(item)
            if not group:
                return _ListError(f"{owner.describe()} has an empty tie group", owner)
            for name in group:
                if not isinstance(name, str):
                    return _ListError(
                        f"{owner.describe()} lists a non-string entry {name!r}", owner, len(levels)
                    )
                if name not in partners[owner.side]:
                    return _ListError(
                        f"unknown {_SIDE_WORD[_OTHER_SIDE[owner.side]]} {name!r} "
                        f"in preference list of {owner.name!r}",
                        owner,
                        len(levels),
                    )
                if name in levels:
                    return _ListError(
                        f"{owner.name!r} lists {name!r} more than once", owner, len(levels)
                    )
                levels[name] = level
        levels_of[owner] = levels

    one_sided = []
    for owner, levels in levels_of.items():
        for name in levels:
            if owner.name not in levels_of[Vertex(_OTHER_SIDE[owner.side], name)]:
                pair = (owner.name, name) if owner.side == DOCTOR else (name, owner.name)
                one_sided.append((owner.side, pair, owner, name))
    _, _, owner, name = min(one_sided)
    partner = Vertex(_OTHER_SIDE[owner.side], name)
    return _ListError(
        f"{owner.describe()} lists {name!r} but {partner.describe()} does not list {owner.name!r}",
        owner,
        list(levels_of[owner]).index(name),
    )


def _text_problem(text: str) -> FormatError:
    """The first problem in instance text that `model.parse_instance`
    refused, at its line and, where it helps, its column.  The text is
    read again line by line, every check in file order; then the `pref`
    lines go to `_list_problem`, at the line and column of the entry it
    names (`_groups` refused empty tie groups, which name no entry)."""
    try:
        doctors, hospitals, prefs, where = _read_lines(text)
    except FormatError as problem:
        return problem
    problem = _list_problem(doctors, hospitals, prefs)
    lineno, columns = where[problem.owner.name]
    return FormatError(str(problem), line=lineno, column=columns[problem.entry])


def _read_lines(
    text: str,
) -> tuple[tuple[str, ...], tuple[str, ...], dict[Vertex, PrefInput], dict[str, tuple[int, list[int]]]]:
    """The declared names, the tie groups of each `pref` line and, per
    `pref` line, its number and the column of each entry; FormatError for
    the first problem outside the lists themselves."""
    doctors: tuple[str, ...] | None = None
    hospitals: tuple[str, ...] | None = None
    pref_lines: list[tuple[str, int, list[list[str]], list[int]]] = []
    for lineno, words, body, offset in _lines(text):
        if words == ["doctors"]:
            if doctors is not None:
                raise FormatError("second 'doctors:' line", line=lineno)
            doctors = _name_list(body, lineno, offset, "doctor")
        elif words == ["hospitals"]:
            if hospitals is not None:
                raise FormatError("second 'hospitals:' line", line=lineno)
            hospitals = _name_list(body, lineno, offset, "hospital")
        elif len(words) == 2 and words[0] == "pref":
            if doctors is None or hospitals is None:
                raise FormatError("preference line before 'doctors:' and 'hospitals:'", line=lineno)
            name = words[1]
            if not _name_ok(name):
                raise FormatError(f"invalid name {name!r}", line=lineno)
            pref_lines.append((name, lineno, *_groups(body, lineno, offset)))
        else:
            raise FormatError("expected 'doctors:', 'hospitals:' or 'pref NAME:'", line=lineno, column=1)

    if doctors is None:
        raise FormatError("missing 'doctors:' line")
    if hospitals is None:
        raise FormatError("missing 'hospitals:' line")
    both = set(doctors) & set(hospitals)
    if both:
        raise FormatError(
            f"name {sorted(both)[0]!r} appears on both sides; the text format keeps the "
            "two name spaces disjoint"
        )

    dset, hset = set(doctors), set(hospitals)
    prefs: dict[Vertex, PrefInput] = {}
    where: dict[str, tuple[int, list[int]]] = {}
    for name, lineno, groups, columns in pref_lines:
        if name not in dset and name not in hset:
            raise FormatError(f"preference line for undeclared vertex {name!r}", line=lineno)
        if name in where:
            raise FormatError(
                f"second preference line for {name!r} (first on line {where[name][0]})",
                line=lineno,
            )
        where[name] = lineno, columns
        prefs[Vertex(DOCTOR if name in dset else HOSPITAL, name)] = groups

    for name in doctors + hospitals:
        if name not in where:
            side = "doctor" if name in dset else "hospital"
            raise FormatError(f"missing preference line for {side} {name!r}")
    return doctors, hospitals, prefs, where


def _name_list(body: str, lineno: int, offset: int, word: str) -> tuple[str, ...]:
    """The names of a `doctors:` or `hospitals:` line body; FormatError at
    the column of the first that is invalid or repeated."""
    tokens = list(_NAME_TOKEN.finditer(body))
    names = tuple(m[0] for m in tokens)
    if problem := _name_problem(names, word, f"duplicate {word} name"):
        raise FormatError(problem[1], line=lineno, column=offset + tokens[problem[0]].start() + 1)
    return names


def _groups(body: str, lineno: int, offset: int) -> tuple[list[list[str]], list[int]]:
    """The tie groups of a `pref` line body, best first, each name a group
    of its own unless parenthesized, and the 1-based column of each name
    in list order, from one scan of the body's tokens; FormatError at the
    column of the first token out of place, or of the '(' left open."""
    groups: list[list[str]] = []
    columns: list[int] = []
    group: list[str] | None = None  # the open tie group
    opened = 0  # the column of its '('
    for match in _PREF_TOKEN.finditer(body):
        token, column = match[0], offset + match.start() + 1
        problem = None
        if token == "(":
            if group is not None:
                problem = "nested tie group"
            group, opened = [], column
        elif token == ")":
            if group is None:
                problem = "unmatched ')'"
            elif not group:
                problem = "empty tie group"
            else:
                groups.append(group)
                group = None
        elif not _name_ok(token):  # a token holds no '#', space or parenthesis, so only ':' can be bad
            problem = f"invalid name {token!r}"
        else:
            columns.append(column)
            if group is None:
                groups.append([token])
            else:
                group.append(token)
        if problem:
            raise FormatError(problem, line=lineno, column=column)
    if group is not None:
        raise FormatError("unclosed tie group", line=lineno, column=opened)
    return groups, columns


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


def generate_instance(
    n_doctors: int, n_hospitals: int, density: float, tie_prob: float, seed: object
) -> Instance:
    """Random instance: same arguments, same instance, bit for bit.

    Each doctor-hospital pair becomes an edge with probability `density`;
    every preference list is a shuffled permutation whose adjacent
    entries merge into a tie with probability `tie_prob` per boundary.
    """
    if n_doctors < 0 or n_hospitals < 0:
        raise ValueError("vertex counts must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    if not 0.0 <= tie_prob <= 1.0:
        raise ValueError("tie probability must be within [0, 1]")
    import random

    rng = random.Random(seed)
    doctors = tuple(f"d{i}" for i in range(1, n_doctors + 1))
    hospitals = tuple(f"h{j}" for j in range(1, n_hospitals + 1))
    partners_d: dict[str, list[str]] = {d: [] for d in doctors}
    partners_h: dict[str, list[str]] = {h: [] for h in hospitals}
    for d in doctors:
        for h in hospitals:
            if rng.random() < density:
                partners_d[d].append(h)
                partners_h[h].append(d)

    def tie_up(partners: list[str]) -> list[list[str]]:
        rng.shuffle(partners)
        groups: list[list[str]] = []
        for name in partners:
            if groups and rng.random() < tie_prob:
                groups[-1].append(name)
            else:
                groups.append([name])
        return groups

    doctor_prefs = {d: tie_up(partners_d[d]) for d in doctors}
    hospital_prefs = {h: tie_up(partners_h[h]) for h in hospitals}
    return make_instance(doctors, hospitals, doctor_prefs, hospital_prefs)


def _cmd_gen(ns: SimpleNamespace) -> int:
    inst = generate_instance(ns.doctors, ns.hospitals, ns.density, ns.tie_prob, ns.seed)
    sys.stdout.write(serialize_instance(inst))
    print(
        f"generated {len(inst.doctors)} doctors, {len(inst.hospitals)} hospitals, "
        f"{len(inst.edges)} edges",
        file=sys.stderr,
    )
    return 0


def _cmd_reduce(ns: SimpleNamespace) -> int:
    from .cli import _read

    red = reduce_min_coverage(parse_coverage(_read(ns.file)))
    sys.stdout.write(serialize_instance(red.instance))
    sys.stdout.write(f"# q1={red.doctor_budget} q2={red.hospital_budget}\n")
    print(
        f"reduced to {len(red.instance.doctors)} doctors, "
        f"{len(red.instance.hospitals)} hospitals; budgets q1={red.doctor_budget} "
        f"q2={red.hospital_budget}",
        file=sys.stderr,
    )
    return 0


def _cmd_transpose(ns: SimpleNamespace) -> int:
    from .cli import _read

    sys.stdout.write(serialize_instance(transpose_instance(parse_instance(_read(ns.file)))))
    print(
        "sides swapped; deletion problems are side-specific, so solver answers "
        "on the transpose answer the doctor-side question",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    from .cli import _COMMANDS

    no_timing_help = "omit elapsed_ms from stats so outputs are byte-stable"
    parser = argparse.ArgumentParser(
        prog="superstab",
        description="Super-stable matchings with ties: existence, deletion minimization, "
        "and brute-force cross-checks.",
    )
    parser.add_argument("--no-timing", action="store_true", help=no_timing_help)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, help_line, takes_file, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if takes_file:
            p.add_argument("file")
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(run=run)
        # Accept --no-timing after the subcommand too.  SUPPRESS keeps an
        # omitted sub-level flag from clobbering a value set before the
        # subcommand, since absent attributes are not copied onto the
        # parent namespace.
        p.add_argument(
            "--no-timing", action="store_true", default=argparse.SUPPRESS, help=no_timing_help
        )
    return parser
