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

The checks that every build runs are bulk checks, in C; they say only
that something is wrong.  The code that then names the first problem,
with its line and column, is in `_diagnose`, which good input never
loads.

An instance's integer core is its one store (see `Instance`); the
solvers and the serializer read it by edge id.  `edges`, `rank`,
`doctor_rank` and `hospital_rank` are views of it, built on first read,
and `incident` reads `rank`.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

DOCTOR = "D"
HOSPITAL = "H"

_SIDE_WORD = {DOCTOR: "doctor", HOSPITAL: "hospital"}


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


class CapExceeded(RuntimeError):
    """An exhaustive search would exceed its configured cap.  Public as
    `oracle.CapExceeded`; defined here so the two-side solver can raise it
    without loading the oracle."""


class _Record:
    """Fields named in `_fields`, given in order or by name, that compare,
    hash and print as those of a frozen dataclass do; assigning raises
    AttributeError."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object, **named: object) -> None:
        if len(values) > len(self._fields) or sorted(named) != sorted(self._fields[len(values) :]):
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(self._fields)}")
        named.update(zip(self._fields, values))
        for name in self._fields:  # one at a time, in order, so instances share their key layout
            object.__setattr__(self, name, named[name])

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# Names must survive the text format: one token, no grouping or delimiter
# chars.  `\s` matches exactly the characters `str.isspace` accepts.
_NOT_IN_NAME = re.compile(r"[\s()#:]")
# Tokens of a name line; the items of a `pref` body (a tie group's inside,
# or a name).
_NAME_TOKEN = re.compile(r"\S+")
_PREF_ITEM = re.compile(r"\(([^()]*)\)|([^\s()]+)")


def _name_ok(name: object) -> bool:
    return isinstance(name, str) and bool(name) and not _NOT_IN_NAME.search(name)


# One list as `_build` reads it: the partner names in list order and the
# rank of each.
_Entries = tuple[Sequence[str], Sequence[int]]


class Instance(_Record):
    """An immutable preference instance.

    Its store is an integer core.  Doctors and hospitals are indexed in
    declaration order, and each edge has an id: by doctor, in the order
    of the doctor's list.  Per edge id the core keeps the doctor index
    (`_ed`), the hospital index (`_eh`) and the edge's rank on the
    doctor's and on the hospital's list (`_dl`, `_hl`).  Doctor i's ids
    run from `_first[i]` up to `_first[i + 1]`, and `_groups[i]` holds
    them in tie groups, best first, once a closure has needed them;
    `_by_h[j]` lists hospital j's ids in the order of its list.

    `edges`, `rank`, `doctor_rank` and `hospital_rank` are views of the
    core, built on first read.  `rank` maps every vertex to a mapping
    from each of its incident edges to a positive rank; edges sharing a
    rank are tied.  Treat the instance and every view as frozen.
    """

    _fields = ("doctors", "hospitals", "edges", "rank")

    def __init__(
        self,
        doctors: tuple[str, ...],
        hospitals: tuple[str, ...],
        edges: frozenset[Edge],
        rank: Mapping[Vertex, Mapping[Edge, int]],
    ) -> None:
        fields = self.__dict__
        fields.update(doctors=doctors, hospitals=hospitals, edges=edges, rank=rank)
        _validate_instance(self)
        del fields["edges"], fields["rank"]  # rebuilt from the core when read
        fields.update(_build(doctors, hospitals, *_table_lists(rank, doctors, hospitals)).__dict__)

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
    def _groups(self) -> list[list[list[int]]]:
        """Per doctor, its ids in tie groups, best first, each in id order;
        built when a closure first needs them."""
        first, rank, groups = self._first, self._dl, []
        for a, b in zip(first, first[1:]):
            by_rank: dict[int, list[int]] = {}
            for e in range(a, b):
                by_rank.setdefault(rank[e], []).append(e)
            groups.append(list(map(by_rank.__getitem__, sorted(by_rank))))
        return groups

    @cached_property
    def _edge(self) -> tuple[Edge, ...]:
        """The Edge of each edge id."""
        pairs = zip(map(self.doctors.__getitem__, self._ed), map(self.hospitals.__getitem__, self._eh))
        return tuple(map(tuple.__new__, repeat(Edge), pairs))

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self._edge)

    @cached_property
    def rank(self) -> dict[Vertex, dict[Edge, int]]:
        edge, first = self._edge, self._first
        rank = {}
        for i, d in enumerate(self.doctors):
            rank[Vertex(DOCTOR, d)] = dict(zip(edge[first[i] : first[i + 1]], self._dl[first[i] : first[i + 1]]))
        for h, ids in zip(self.hospitals, self._by_h):
            rank[Vertex(HOSPITAL, h)] = dict(zip(map(edge.__getitem__, ids), map(self._hl.__getitem__, ids)))
        return rank

    @cached_property
    def doctor_set(self) -> frozenset[str]:
        return frozenset(self.doctors)

    @cached_property
    def hospital_set(self) -> frozenset[str]:
        return frozenset(self.hospitals)

    @cached_property
    def doctor_rank(self) -> dict[Edge, int]:
        """Each edge's rank on its doctor's list."""
        return dict(zip(self._edge, self._dl))

    @cached_property
    def hospital_rank(self) -> dict[Edge, int]:
        """Each edge's rank on its hospital's list."""
        return dict(zip(self._edge, self._hl))

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


def _build(
    doctors: tuple[str, ...],
    hospitals: tuple[str, ...],
    doctor_lists: Sequence[_Entries],
    hospital_lists: Sequence[_Entries],
) -> Instance | None:
    """The instance with these lists, one per declared doctor and hospital
    in declaration order, built without `_validate_instance`; or None when
    a list names an unknown partner or a partner twice, or some listing
    is one-sided.

    The checks run in bulk, in C: a set-subset check for the hospitals
    the doctors name, one id lookup per hospital entry for the doctors
    the hospitals name and for mutual listing, and length comparisons
    for duplicates.  On None, `_from_lists` finds the first problem.
    """
    partners = list(chain.from_iterable(map(itemgetter(0), doctor_lists)))
    if not set(hospitals).issuperset(partners):
        return None
    sizes = list(map(len, map(itemgetter(0), doctor_lists)))
    first = [0, *accumulate(sizes)]
    # Per doctor name, the edge id of each hospital it lists.
    ids = map(dict, map(zip, map(itemgetter(0), doctor_lists), map(range, first, first[1:])))
    id_of = dict(zip(doctors, ids))
    try:
        by_h = [
            list(map(dict.__getitem__, map(id_of.__getitem__, names), repeat(h)))
            for h, (names, _) in zip(hospitals, hospital_lists)
        ]
    except KeyError:
        return None
    hl = dict(zip(chain.from_iterable(by_h), chain.from_iterable(map(itemgetter(1), hospital_lists))))
    if not len(partners) == sum(map(len, id_of.values())) == len(hl) == sum(map(len, by_h)):
        return None
    h_index = dict(zip(hospitals, count()))
    inst = object.__new__(Instance)
    inst.__dict__.update(
        doctors=doctors,
        hospitals=hospitals,
        _ed=list(chain.from_iterable(map(repeat, range(len(sizes)), sizes))),
        _eh=list(map(h_index.__getitem__, partners)),
        _dl=list(chain.from_iterable(map(itemgetter(1), doctor_lists))),
        _hl=list(map(hl.__getitem__, range(len(partners)))),
        _first=first,
        _by_h=by_h,
    )
    return inst


def _table_lists(
    rank: Mapping[Vertex, Mapping[Edge, int]], doctors: tuple[str, ...], hospitals: tuple[str, ...]
) -> list[list[_Entries]]:
    """The doctors' and the hospitals' lists in the rank tables, in
    declaration order, as `_build` reads them."""
    out = []
    for side, names, partner in ((DOCTOR, doctors, itemgetter(1)), (HOSPITAL, hospitals, itemgetter(0))):
        tables = map(rank.__getitem__, map(Vertex, repeat(side), names))
        out.append([(list(map(partner, t)), list(t.values())) for t in tables])
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


def _from_lists(
    doctors: tuple[str, ...], hospitals: tuple[str, ...], prefs: Mapping[Vertex, PrefInput]
) -> Instance:
    """Check one preference list per declared vertex and build the instance.

    The declared names must already be valid and unique.  Lists whose
    tie groups are all non-empty and hold only strings go to the bulk
    checks of `_build`.  Only when those fail are the lists scanned entry
    by entry, by `_diagnose._list_problem`, to raise `_diagnose._ListError`
    for the first problem, which never depends on hashing.
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

    from ._diagnose import _list_problem

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
        from ._diagnose import _token_column

        raise FormatError(problem, line=lineno, column=_token_column(_NAME_TOKEN, body, offset, k))
    return tuple(names)


def _pref_entries(body: str, lineno: int, offset: int) -> tuple[_Entries, PrefInput]:
    """The names of a preference line body in list order and the rank
    level of each; and the line as a preference list.

    A body without ':' splits in C: by whitespace when it has no
    parentheses, else into the items of one regex (a tie group or a
    name), which are well formed when the items are all that is not
    whitespace and no tie group is empty.  Otherwise the token scanner,
    `_diagnose._scan_groups`, names the first problem.
    """
    if ":" not in body and "(" not in body and ")" not in body:
        names = body.split()
        return (names, range(1, len(names) + 1)), names
    groups = [[name] if name else tied.split() for tied, name in _PREF_ITEM.findall(body)]
    if ":" in body or not all(groups) or _PREF_ITEM.sub("", body).strip():
        from ._diagnose import _scan_groups

        groups = _scan_groups(body, lineno, offset)
    return _entries(groups), groups


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
    pref_lines: list[tuple[str, int, tuple[_Entries, PrefInput]]] = []

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
            pref_lines.append((name, lineno, _pref_entries(body, lineno, offset)))
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
    lists: dict[str, _Entries] = {}
    prefs: dict[Vertex, PrefInput] = {}
    line_of: dict[str, int] = {}
    for name, lineno, (entries, raw) in pref_lines:
        if name not in dset and name not in hset:
            raise FormatError(f"preference line for undeclared vertex {name!r}", line=lineno)
        if name in line_of:
            raise FormatError(
                f"second preference line for {name!r} (first on line {line_of[name]})",
                line=lineno,
            )
        line_of[name] = lineno
        lists[name] = entries
        prefs[Vertex(DOCTOR if name in dset else HOSPITAL, name)] = raw

    for name in doctors + hospitals:
        if name not in line_of:
            side = "doctor" if name in dset else "hospital"
            raise FormatError(f"missing preference line for {side} {name!r}")

    inst = _build(doctors, hospitals, list(map(lists.__getitem__, doctors)), list(map(lists.__getitem__, hospitals)))
    if inst is not None:
        return inst
    from ._diagnose import _text_problem

    raise _text_problem(text, doctors, hospitals, prefs, line_of)


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance; the parser reads it back verbatim.

    Tie groups are emitted best to worst with members sorted by name, so
    equal instances serialize to identical bytes.
    """
    def name_line(label: str, names: tuple[str, ...]) -> str:
        return f"{label}:" + ("" if not names else " " + " ".join(names))

    lines = [name_line("doctors", inst.doctors), name_line("hospitals", inst.hospitals)]
    for v, (names, ranks) in zip(inst.vertices(), chain(*_lists(inst))):
        by_rank: dict[int, list[str]] = {}
        for name, r in zip(names, ranks):
            by_rank.setdefault(r, []).append(name)
        groups = map(sorted, map(by_rank.__getitem__, sorted(by_rank)))
        parts = [f"({' '.join(g)})" if len(g) > 1 else g[0] for g in groups]
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
    doctors = tuple(d for d in inst.doctors if Vertex(DOCTOR, d) not in removed)
    hospitals = tuple(h for h in inst.hospitals if Vertex(HOSPITAL, h) not in removed)
    rank = {v: {e: r for e, r in table.items() if e in edges} for v, table in inst.rank.items()}
    return _build(doctors, hospitals, *_table_lists(rank, doctors, hospitals))


def transpose_instance(inst: Instance) -> Instance:
    """Swap the two sides, preserving every preference."""
    doctor_lists, hospital_lists = _lists(inst)
    return _build(inst.hospitals, inst.doctors, hospital_lists, doctor_lists)


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
