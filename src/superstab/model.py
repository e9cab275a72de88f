"""Bipartite matching instances with tied preferences.

Doctors and hospitals rank their incident edges with positive integers
(rank 1 is best, an equal rank is a tie, staying unmatched is worse than
any ranked edge).  A matching is super-stable when no edge outside it is
weakly preferred, by both of its endpoints at once, to whatever those
endpoints currently hold.

This module owns the data model, the instance text format and its
validation, induced subgraphs, the transpose transform, the choice scans
that define one closure round (each doctor's weakly best edges, each
hospital's strictly best one), and the super-stability predicate.  The
solvers, in the sibling modules, never run the choice scans: they are
the round definition the tests check the closure against, and what the
plain `extract_matching` and `critical_hospitals` rescan with.
Everything is immutable and side-effect free.

`Instance.rank` is the one rank store; `incident`, `doctor_rank`,
`hospital_rank` and the serializer's tie groups all derive from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

DOCTOR = "D"
HOSPITAL = "H"

_SIDE_WORD = {DOCTOR: "doctor", HOSPITAL: "hospital"}
_OTHER_SIDE = {DOCTOR: HOSPITAL, HOSPITAL: DOCTOR}


class Vertex(NamedTuple):
    side: str
    name: str

    def describe(self) -> str:
        return f"{_SIDE_WORD.get(self.side, self.side)} {self.name!r}"


class Edge(NamedTuple):
    doctor: str
    hospital: str


def doctor(name: str) -> Vertex:
    return Vertex(DOCTOR, name)


def hospital(name: str) -> Vertex:
    return Vertex(HOSPITAL, name)


def ordered_edges(edges: Iterable[Edge]) -> list[Edge]:
    """Edges in canonical order: by doctor name, then hospital name."""
    return sorted(edges)


class FormatError(ValueError):
    """Text that does not follow the instance or coverage file format."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)


# Names must survive the text format: one token, no grouping or delimiter
# chars.  `\s` matches exactly the characters `str.isspace` accepts.
_NOT_IN_NAME = re.compile(r"[\s()#:]")
# Tokens of a `pref` body (parentheses and names) and of a name line.
_PREF_TOKEN = re.compile(r"[()]|[^\s()]+")
_NAME_TOKEN = re.compile(r"\S+")


def _name_ok(name: object) -> bool:
    return isinstance(name, str) and bool(name) and not _NOT_IN_NAME.search(name)


@dataclass(frozen=True, eq=False)
class Instance:
    """An immutable preference instance.

    `rank` maps every vertex to a mapping from each of its incident
    edges to a positive rank; edges sharing a rank are tied.  Treat all
    fields, including the nested mappings, as frozen.
    """

    doctors: tuple[str, ...]
    hospitals: tuple[str, ...]
    edges: frozenset[Edge]
    rank: Mapping[Vertex, Mapping[Edge, int]]

    def __post_init__(self) -> None:
        _validate_instance(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.doctors == other.doctors
            and self.hospitals == other.hospitals
            and self.edges == other.edges
            and self.rank == other.rank
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        tables = tuple(
            (v, tuple(sorted(self.rank[v].items()))) for v in sorted(self.rank)
        )
        return hash((self.doctors, self.hospitals, self.edges, tables))

    @cached_property
    def doctor_set(self) -> frozenset[str]:
        return frozenset(self.doctors)

    @cached_property
    def hospital_set(self) -> frozenset[str]:
        return frozenset(self.hospitals)

    @cached_property
    def doctor_rank(self) -> dict[Edge, int]:
        """Each edge's rank on its doctor's list."""
        return self._side_rank(DOCTOR)

    @cached_property
    def hospital_rank(self) -> dict[Edge, int]:
        """Each edge's rank on its hospital's list."""
        return self._side_rank(HOSPITAL)

    def _side_rank(self, side: str) -> dict[Edge, int]:
        merged: dict[Edge, int] = {}
        for v, table in self.rank.items():
            if v.side == side:
                merged.update(table)
        return merged

    def vertices(self) -> Iterator[Vertex]:
        for d in self.doctors:
            yield Vertex(DOCTOR, d)
        for h in self.hospitals:
            yield Vertex(HOSPITAL, h)

    def incident(self, v: Vertex) -> frozenset[Edge]:
        try:
            return frozenset(self.rank[v])
        except KeyError:
            raise ValueError(f"unknown {v.describe()}") from None


def _unchecked(
    doctors: tuple[str, ...],
    hospitals: tuple[str, ...],
    edges: frozenset[Edge],
    rank: Mapping[Vertex, Mapping[Edge, int]],
) -> Instance:
    """An Instance from parts already known to be valid; skips `_validate_instance`."""
    inst = object.__new__(Instance)
    inst.__dict__.update(doctors=doctors, hospitals=hospitals, edges=edges, rank=rank)
    return inst


def _check_names(doctors: tuple[str, ...], hospitals: tuple[str, ...]) -> None:
    for word, names in (("doctor", doctors), ("hospital", hospitals)):
        seen: set[str] = set()
        for n in names:
            if not _name_ok(n):
                raise ValueError(f"invalid {word} name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate {word} name {n!r}")
            seen.add(n)


def _validate_instance(inst: Instance) -> None:
    _check_names(inst.doctors, inst.hospitals)
    dset = set(inst.doctors)
    hset = set(inst.hospitals)
    expected = {Vertex(DOCTOR, d) for d in inst.doctors} | {Vertex(HOSPITAL, h) for h in inst.hospitals}
    incident: dict[Vertex, set[Edge]] = {v: set() for v in expected}
    for e in inst.edges:
        if not isinstance(e, Edge):
            raise ValueError(f"edge {e!r} is not an Edge")
        if e.doctor not in dset or e.hospital not in hset:
            raise ValueError(f"edge {tuple(e)} has an undeclared endpoint")
        incident[Vertex(DOCTOR, e.doctor)].add(e)
        incident[Vertex(HOSPITAL, e.hospital)].add(e)
    if set(inst.rank) != expected:
        raise ValueError("preference table must cover every declared vertex exactly")
    for v, table in inst.rank.items():
        if set(table) != incident[v]:
            raise ValueError(f"{v.describe()} must rank exactly its incident edges")
        for r in table.values():
            if not isinstance(r, int) or isinstance(r, bool) or r < 1:
                raise ValueError(f"{v.describe()} has a non-positive rank {r!r}")


PrefInput = Sequence["str | Iterable[str]"]


class _ListError(ValueError):
    """A problem in one preference list: `owner` holds the list and `entry`
    is the 0-based position of the faulty entry, counted across tie groups
    (None when no single entry is at fault)."""

    def __init__(self, message: str, owner: Vertex, entry: int | None = None):
        super().__init__(message)
        self.owner = owner
        self.entry = entry


def _from_lists(
    doctors: tuple[str, ...], hospitals: tuple[str, ...], prefs: Mapping[Vertex, PrefInput]
) -> Instance:
    """Check one preference list per declared vertex and build the instance.

    The declared names must already be valid and unique.  Problems within
    a list come first, lists in `prefs` order and entries in list order;
    then the first one-sided listing in edge order, doctors' lists before
    hospitals'.  The first problem found raises _ListError, so which one
    is reported never depends on hashing.
    """
    partners = {DOCTOR: frozenset(hospitals), HOSPITAL: frozenset(doctors)}
    # Per list, partner name -> rank level, in entry order.
    levels_of: dict[Vertex, dict[str, int]] = {}
    for owner, raw in prefs.items():
        levels: dict[str, int] = {}
        for level, item in enumerate(raw, 1):
            group = [item] if isinstance(item, str) else list(item)
            if not group:
                raise _ListError(f"{owner.describe()} has an empty tie group", owner)
            for name in group:
                if not isinstance(name, str):
                    raise _ListError(
                        f"{owner.describe()} lists a non-string entry {name!r}", owner, len(levels)
                    )
                if name not in partners[owner.side]:
                    raise _ListError(
                        f"unknown {_SIDE_WORD[_OTHER_SIDE[owner.side]]} {name!r} "
                        f"in preference list of {owner.name!r}",
                        owner,
                        len(levels),
                    )
                if name in levels:
                    raise _ListError(
                        f"{owner.name!r} lists {name!r} more than once", owner, len(levels)
                    )
                levels[name] = level
        levels_of[owner] = levels

    # Each edge is built once, for its doctor, and looked up for its hospital.
    # When every lookup hits, equal entry counts mean every listing is mutual;
    # otherwise an ordered scan finds the first one-sided listing.
    edge_of: dict[str, dict[str, Edge]] = {}
    rank: dict[Vertex, dict[Edge, int]] = {}
    for d in doctors:
        levels = levels_of[Vertex(DOCTOR, d)]
        mine = edge_of[d] = {h: Edge(d, h) for h in levels}
        rank[Vertex(DOCTOR, d)] = dict(zip(mine.values(), levels.values()))
    edges = frozenset(e for mine in edge_of.values() for e in mine.values())
    try:
        for h in hospitals:
            levels = levels_of[Vertex(HOSPITAL, h)]
            rank[Vertex(HOSPITAL, h)] = {edge_of[d][h]: r for d, r in levels.items()}
        mutual = len(edges) == sum(len(rank[Vertex(HOSPITAL, h)]) for h in hospitals)
    except KeyError:
        mutual = False
    if not mutual:
        one_sided = []
        for owner, levels in levels_of.items():
            for name in levels:
                if owner.name not in levels_of[Vertex(_OTHER_SIDE[owner.side], name)]:
                    pair = (owner.name, name) if owner.side == DOCTOR else (name, owner.name)
                    one_sided.append((owner.side, pair, owner, name))
        _, _, owner, name = min(one_sided)
        partner = Vertex(_OTHER_SIDE[owner.side], name)
        raise _ListError(
            f"{owner.describe()} lists {name!r} but {partner.describe()} does not list {owner.name!r}",
            owner,
            list(levels_of[owner]).index(name),
        )
    return _unchecked(doctors, hospitals, edges, rank)


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


def _token_column(pattern: re.Pattern[str], body: str, offset: int, k: int) -> int:
    """1-based column of the `k`-th token `pattern` finds in a line body
    that starts `offset` characters into its line."""
    starts = [m.start() for m in pattern.finditer(body)]
    return offset + starts[k] + 1


def _scan_groups(body: str, lineno: int, offset: int) -> list[list[str]]:
    """Tokenize a preference line body into tie groups of names."""
    groups: list[list[str]] = []
    group: list[str] | None = None
    opened = 0
    colon = ":" in body  # a token holds no '#', space or parenthesis, so only ':' can be bad
    for k, token in enumerate(_PREF_TOKEN.findall(body)):
        if token == "(":
            if group is not None:
                problem = "nested tie group"
                break
            group = []
            opened = k
        elif token == ")":
            if group is None:
                problem = "unmatched ')'"
                break
            if not group:
                problem = "empty tie group"
                break
            groups.append(group)
            group = None
        elif colon and not _name_ok(token):
            problem = f"invalid name {token!r}"
            break
        elif group is None:
            groups.append([token])
        else:
            group.append(token)
    else:
        if group is None:
            return groups
        problem, k = "unclosed tie group", opened
    raise FormatError(problem, line=lineno, column=_token_column(_PREF_TOKEN, body, offset, k))


def _name_list(body: str, lineno: int, offset: int, word: str) -> tuple[str, ...]:
    names = _NAME_TOKEN.findall(body)
    seen: set[str] = set()
    for k, token in enumerate(names):
        if not _name_ok(token):
            problem = f"invalid {word} name {token!r}"
        elif token in seen:
            problem = f"duplicate {word} name {token!r}"
        else:
            seen.add(token)
            continue
        raise FormatError(problem, line=lineno, column=_token_column(_NAME_TOKEN, body, offset, k))
    return tuple(names)


def _entry_column(text: str, lineno: int, entry: int) -> int:
    """Column of the `entry`-th name (0-based, across tie groups) on the
    `pref` line `lineno` of `text`."""
    body, offset = next((b, o) for n, _, b, o in _lines(text) if n == lineno)
    names = [k for k, t in enumerate(_PREF_TOKEN.findall(body)) if t not in ("(", ")")]
    return _token_column(_PREF_TOKEN, body, offset, names[entry])


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    The format is line based: a `doctors:` line, a `hospitals:` line,
    then one `pref NAME:` line per declared vertex.  Preference entries
    read best to worst; parenthesized entries are tied at one level.
    `#` starts a comment and blank lines are skipped.  Problems raise
    FormatError with the offending line (and column where it helps).
    """
    doctors: tuple[str, ...] | None = None
    hospitals: tuple[str, ...] | None = None
    pref_lines: list[tuple[str, int, list[list[str]]]] = []

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
            pref_lines.append((name, lineno, _scan_groups(body, lineno, offset)))
        else:
            raise FormatError(
                "expected 'doctors:', 'hospitals:' or 'pref NAME:'", line=lineno, column=1
            )

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
    prefs: dict[Vertex, list[list[str]]] = {}
    line_of: dict[str, int] = {}
    for name, lineno, groups in pref_lines:
        if name not in dset and name not in hset:
            raise FormatError(f"preference line for undeclared vertex {name!r}", line=lineno)
        if name in line_of:
            raise FormatError(
                f"second preference line for {name!r} (first on line {line_of[name]})",
                line=lineno,
            )
        line_of[name] = lineno
        prefs[Vertex(DOCTOR if name in dset else HOSPITAL, name)] = groups

    for name in doctors + hospitals:
        if name not in line_of:
            side = "doctor" if name in dset else "hospital"
            raise FormatError(f"missing preference line for {side} {name!r}")

    try:
        return _from_lists(doctors, hospitals, prefs)
    except _ListError as exc:
        lineno = line_of[exc.owner.name]
        column = None if exc.entry is None else _entry_column(text, lineno, exc.entry)
        raise FormatError(str(exc), line=lineno, column=column) from None


def _pref_groups(inst: Instance, v: Vertex) -> list[list[str]]:
    partner = (lambda e: e.hospital) if v.side == DOCTOR else (lambda e: e.doctor)
    by_rank: dict[int, list[str]] = {}
    for e, r in inst.rank[v].items():
        by_rank.setdefault(r, []).append(partner(e))
    return [sorted(by_rank[r]) for r in sorted(by_rank)]


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; the parser reads it back verbatim.

    Tie groups are emitted best to worst with members sorted by name, so
    equal instances serialize to identical bytes.
    """
    def name_line(label: str, names: tuple[str, ...]) -> str:
        return f"{label}:" + ("" if not names else " " + " ".join(names))

    lines = [name_line("doctors", inst.doctors), name_line("hospitals", inst.hospitals)]
    for v in inst.vertices():
        parts = [
            f"({' '.join(g)})" if len(g) > 1 else g[0] for g in _pref_groups(inst, v)
        ]
        lines.append(f"pref {v.name}:" + ("" if not parts else " " + " ".join(parts)))
    return "\n".join(lines) + "\n"


def _removed_names(inst: Instance, removed: Iterable[Vertex]) -> tuple[set[str], set[str]]:
    """The doctor names and the hospital names of the vertices in `removed`.

    A member that is not a vertex of `inst` raises ValueError; of several,
    the one whose repr sorts first is named, so the message never depends
    on hashing.
    """
    known = {DOCTOR: inst.doctor_set, HOSPITAL: inst.hospital_set}
    names: dict[str, set[str]] = {DOCTOR: set(), HOSPITAL: set()}
    bad = []
    for v in removed:
        if isinstance(v, Vertex) and v.side in known and v.name in known[v.side]:
            names[v.side].add(v.name)
        else:
            bad.append(v)
    if bad:
        v = min(bad, key=repr)
        if not isinstance(v, Vertex) or v.side not in known:
            raise ValueError(f"unknown vertex {v!r}")
        raise ValueError(f"unknown {v.describe()}")
    return names[DOCTOR], names[HOSPITAL]


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
    removed = frozenset(removed)
    if not removed:
        return inst
    edges = induced_edges(inst, removed)
    return _unchecked(
        tuple(d for d in inst.doctors if Vertex(DOCTOR, d) not in removed),
        tuple(h for h in inst.hospitals if Vertex(HOSPITAL, h) not in removed),
        edges,
        {
            v: {e: r for e, r in table.items() if e in edges}
            for v, table in inst.rank.items()
            if v not in removed
        },
    )


def transpose_instance(inst: Instance) -> Instance:
    """Swap the two sides, preserving every preference."""
    flip = lambda e: Edge(e.hospital, e.doctor)
    rank = {
        Vertex(_OTHER_SIDE[v.side], v.name): {flip(e): r for e, r in table.items()}
        for v, table in inst.rank.items()
    }
    return _unchecked(inst.hospitals, inst.doctors, frozenset(flip(e) for e in inst.edges), rank)


def _best_edges(table: dict[Edge, int], pool: Iterable[Edge], end: int) -> list[list[Edge]]:
    """Per endpoint `e[end]` of the edges in `pool`, its best ones by `table`."""
    keep: dict[str, tuple[int, list[Edge]]] = {}
    for e in pool:
        try:
            r = table[e]
        except KeyError:
            raise ValueError(f"edge {tuple(e)} is not an edge of the instance") from None
        b = keep.get(e[end])
        if b is None or r < b[0]:
            keep[e[end]] = (r, [e])
        elif r == b[0]:
            b[1].append(e)
    return [es for _, es in keep.values()]


def all_doctor_choices(inst: Instance, pool: Iterable[Edge]) -> frozenset[Edge]:
    """Union of every doctor's weakly best edges within `pool`."""
    return frozenset(e for es in _best_edges(inst.doctor_rank, pool, 0) for e in es)


def all_hospital_choices(inst: Instance, pool: Iterable[Edge]) -> frozenset[Edge]:
    """Union of every hospital's held edge within `pool` (strict bests only)."""
    return frozenset(es[0] for es in _best_edges(inst.hospital_rank, pool, 1) if len(es) == 1)


def _assignment(
    pool: frozenset[Edge], matching: Iterable[Edge]
) -> tuple[dict[str, Edge], dict[str, Edge], frozenset[Edge]]:
    """Each side's partner in `matching`, which must be a matching of `pool`.

    Otherwise ValueError names, as `_removed_names` does, the edge outside
    `pool` whose repr sorts first, or else says that two edges share an
    endpoint, so the message never depends on hashing.
    """
    matching = frozenset(matching)
    by_d: dict[str, Edge] = {}
    by_h: dict[str, Edge] = {}
    for e in matching:
        if e not in pool or e.doctor in by_d or e.hospital in by_h:
            break
        by_d[e.doctor] = e
        by_h[e.hospital] = e
    else:
        return by_d, by_h, matching
    outside = [e for e in matching if e not in pool]
    if outside:
        e = min(outside, key=repr)
        raise ValueError(f"matching edge {tuple(e)} is not in the induced graph")
    raise ValueError("two matching edges share an endpoint")


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
    by_d, by_h, matching = _assignment(pool, matching)
    dr = inst.doctor_rank
    hr = inst.hospital_rank
    out: list[Edge] = []
    for e in pool:
        if e in matching:
            continue
        md = by_d.get(e.doctor)
        if md is not None and dr[md] < dr[e]:
            continue
        mh = by_h.get(e.hospital)
        if mh is not None and hr[mh] < hr[e]:
            continue
        out.append(e)
    return frozenset(out)


def is_super_stable(
    inst: Instance, removed: Iterable[Vertex], matching: Iterable[Edge]
) -> bool:
    """True when `matching` has no blocking edge in the graph minus `removed`."""
    return not blocking_edges(inst, removed, matching)


__all__ = [
    "DOCTOR",
    "HOSPITAL",
    "Vertex",
    "Edge",
    "doctor",
    "hospital",
    "ordered_edges",
    "FormatError",
    "Instance",
    "make_instance",
    "parse_instance",
    "serialize_instance",
    "induced_edges",
    "induced_instance",
    "transpose_instance",
    "all_doctor_choices",
    "all_hospital_choices",
    "blocking_edges",
    "is_super_stable",
]
