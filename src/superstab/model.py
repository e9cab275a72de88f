"""Bipartite matching instances with tied preferences.

Doctors and hospitals rank their incident edges with positive integers
(rank 1 is best, an equal rank is a tie, staying unmatched is worse than
any ranked edge).  A matching is super-stable when no edge outside it is
weakly preferred, by both of its endpoints at once, to whatever those
endpoints currently hold.

This module owns the data model and the instance text format: the
vertex, edge and error types, `Instance` and its builder `_build`, the
text reader and `_removed_names`, which is what `check`, `solve1`,
`closure`, `solve2` and `verify --mode problem1` run.  Everything is
immutable and side-effect free.  Every vertex or edge argument passes
`_checked`: a pair of strings naming a vertex, or an edge, of the
instance, whatever its tuple type; of several bad ones, the error whose
message sorts first is raised.

The Python-object side, which only library callers, tests and the cold
commands run, is in `_objects`: `make_instance`, `serialize_instance`,
`Instance(...)`'s validation, induced subgraphs, the transpose, the
choice scans that define one closure round (each doctor's weakly best
edges, each hospital's strictly best one), and the blocking-edge and
super-stability predicates.  Every command compiles what it imports, so
the hot ones compile none of that.  Each of those names that `__all__`
here lists is read from `_objects` on first access (PEP 562).

`parse_instance` reads good text in one pass, and every build looks each
list entry up once, by one dict per hospital; both say only that
something is wrong.  The code that then names the first problem, with
its line and column, is in `_objects` too, which good input never loads.

An instance's integer core is its one store (see `Instance`); the
solvers and the serializer read it by edge id.  `edges`, `rank`,
`doctor_rank` and `hospital_rank` are views of it, built on first read,
and `incident` reads `rank`.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, count, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import _lazy

# Each name of `__all__` that this file does not define is read from
# `_objects` on first access.
__getattr__ = _lazy(globals(), listed="_objects")

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
    run from `_first[i]` up to `_first[i + 1]`; `_by_h[j]` lists
    hospital j's ids in the order of its list.  Every list is in rank
    order, best first, so a tie group is a run of equal rank: of `_dl`
    in a doctor's ids, of `_hl` in `_by_h[j]`.

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
        from ._objects import _table_lists, _validate_instance

        _validate_instance(doctors, hospitals, edges, rank)
        # `edges` and `rank` are rebuilt from the core when read.
        lists = _table_lists(rank, doctors, hospitals)
        self.__dict__.update(_build(doctors, hospitals, *lists).__dict__)

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
        _checked([v], lambda v: _pair(v) and v in self.rank, _unknown)
        return frozenset(self.rank[v])


def _build(
    doctors: tuple[str, ...],
    hospitals: tuple[str, ...],
    doctor_lists: Sequence[_Entries],
    hospital_lists: Sequence[_Entries],
) -> Instance | None:
    """The instance with these lists, one per declared doctor and hospital
    in declaration order, built without `_validate_instance`; or None when
    a list names an unknown partner or a partner twice, or some listing
    is one-sided.  The names on each side must be unique and every rank
    positive.  Each list must be in rank order, best first; the core keeps
    that order (see `Instance`).

    Each list entry is looked up once.  A doctor's entries map through the
    hospital index, and fill one dict per hospital index, from each doctor
    name that lists it to the edge id.  Each hospital's entries map through
    its own dict, and their ranks are scattered into `_hl` by edge id.  An
    unknown partner, or a hospital listing a doctor that does not list it,
    fails a lookup.  Otherwise the hospital entries must number the edges
    and leave no rank of `_hl` at 0: then they meet each edge exactly once,
    so no list names a partner twice and every listing is mutual.  On None,
    `_objects._list_problem` names the first problem.
    """
    partners = list(chain.from_iterable(map(itemgetter(0), doctor_lists)))
    try:
        eh = list(map(dict(zip(hospitals, count())).__getitem__, partners))
    except KeyError:
        return None
    sizes = list(map(len, map(itemgetter(0), doctor_lists)))
    first = [0, *accumulate(sizes)]
    # Per hospital index, the edge id of each doctor name that lists it.
    id_of: list[dict[str, int]] = [{} for _ in hospitals]
    for d, start, stop in zip(doctors, first, first[1:]):
        for e in range(start, stop):
            id_of[eh[e]][d] = e
    try:
        by_h = [list(map(ids.__getitem__, names)) for ids, (names, _) in zip(id_of, hospital_lists)]
    except KeyError:
        return None
    if sum(map(len, by_h)) != len(eh):
        return None
    hl = [0] * len(eh)
    for ids, (_, ranks) in zip(by_h, hospital_lists):
        for e, r in zip(ids, ranks):
            hl[e] = r
    if 0 in hl:
        return None
    inst = object.__new__(Instance)
    inst.__dict__.update(
        doctors=doctors,
        hospitals=hospitals,
        _ed=list(chain.from_iterable(map(repeat, range(len(sizes)), sizes))),
        _eh=eh,
        _dl=list(chain.from_iterable(map(itemgetter(1), doctor_lists))),
        _hl=hl,
        _first=first,
        _by_h=by_h,
    )
    return inst


def _pref_list(body: str) -> _Entries | None:
    """The names of a `pref` line body in list order and the rank level of
    each, or None when its tie groups are not well formed.  The body is
    read one tie group at a time: split on '(', each piece after the first
    holds one group, closed by its first ')', and the names that follow it,
    which rank alone.  A ')' anywhere else, a group left open and an empty
    one are refused; a second '(' inside a group leaves it open.  A name is
    not checked here: one holding ':' is no declared name, so `_build`
    refuses it."""
    head, *groups = body.split("(")
    if ")" in head:
        return None
    names = head.split()
    level = len(names)  # the last level given
    levels = list(range(1, level + 1))
    for group in groups:
        inside, closed, after = group.partition(")")
        tied, alone = inside.split(), after.split()
        if not (closed and tied) or ")" in after:
            return None
        names += tied
        levels += [level + 1] * len(tied)
        names += alone
        levels += range(level + 2, level + 2 + len(alone))
        level += 1 + len(alone)
    return names, levels


def _read_instance(text: str) -> Instance | None:
    """The instance of good text, read in one pass; None at the first sign
    of a problem."""
    doctors = hospitals = None
    bodies: dict[str, str] = {}
    prefs = 0  # `pref` lines read
    for line in text.splitlines():
        if "#" in line:
            line = line[: line.index("#")]
        head, sep, body = line.partition(":")
        words = head.split()
        if sep and len(words) == 2 and words[0] == "pref":
            bodies[words[1]] = body
            prefs += 1
        elif not sep:
            if words:
                return None
        elif prefs or ":" in body or "(" in body or ")" in body:
            return None
        elif words == ["doctors"] and doctors is None:
            doctors = tuple(body.split())
        elif words == ["hospitals"] and hospitals is None:
            hospitals = tuple(body.split())
        else:
            return None
    if doctors is None or hospitals is None:
        return None
    names = doctors + hospitals
    # Names unique across both sides, each with exactly one `pref` line.
    if not len(names) == len(bodies) == prefs or bodies.keys() != set(names):
        return None
    lists = list(map(_pref_list, map(bodies.__getitem__, names)))
    if None in lists:
        return None
    return _build(doctors, hospitals, lists[: len(doctors)], lists[len(doctors) :])


def parse_instance(text: str) -> Instance:
    """Parse the instance text format.

    The format is line based: a `doctors:` line, a `hospitals:` line,
    then one `pref NAME:` line per declared vertex.  Preference entries
    read best to worst; parenthesized entries are tied at one level.
    `#` starts a comment and blank lines are skipped.  Problems raise
    FormatError with the offending line (and column where it helps).

    Good text is read in one pass over its lines, each `pref` body split
    in C, one tie group at a time, and built by `_build`.  Text that fails any of
    these checks goes to `_objects._text_problem`, which reads it again
    line by line to name its first problem.
    """
    inst = _read_instance(text)
    if inst is not None:
        return inst
    from ._objects import _text_problem

    raise _text_problem(text)


def _pair(m: object) -> bool:
    """Whether `m` is a pair of strings, as every well-formed Vertex and
    Edge is, and so may be hashed."""
    return isinstance(m, tuple) and len(m) == 2 and isinstance(m[0], str) and isinstance(m[1], str)


def _checked(members: Iterable, ok: Callable[[object], bool], error: Callable[[object], Exception]) -> list:
    """`members` as a list, once `ok` has accepted each; else, of the
    refused members' errors, the one whose message sorts first, which no
    hashing changes.  A test that hashes a member asks `_pair` first, so a
    member that cannot be hashed is refused, not a TypeError."""
    members = list(members)
    refused = [m for m in members if not ok(m)]
    if refused:
        raise min(map(error, refused), key=str)
    return members


def _removed_names(inst: Instance, removed: Iterable[Vertex]) -> tuple[set[str], set[str]]:
    """The doctor names and the hospital names of the vertices in `removed`;
    ValueError, by `_checked`, for a member that is not a vertex of `inst`."""
    known = {DOCTOR: inst.doctor_set, HOSPITAL: inst.hospital_set}
    removed = _checked(removed, lambda v: _pair(v) and v[1] in known.get(v[0], ()), _unknown)
    return {n for side, n in removed if side == DOCTOR}, {n for side, n in removed if side == HOSPITAL}


def _unknown(v: object) -> ValueError:
    """The error for `v`, which is not a vertex of the instance at hand: a
    2-tuple whose first item is a side is named by its side word."""
    if isinstance(v, tuple) and len(v) == 2 and v[0] in (DOCTOR, HOSPITAL):  # a tuple test: `v[0]` may not hash
        return ValueError(f"unknown {_SIDE_WORD[v[0]]} {v[1]!r}")
    return ValueError(f"unknown vertex {v!r}")


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
