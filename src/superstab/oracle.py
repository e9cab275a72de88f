"""Exhaustive ground truth for desk-scale instances.

Everything here enumerates, in iterative walks that no recursion limit
bounds: `_walk` takes or leaves each edge in turn, and `_least_blocking`
settles one doctor at a time.  Nothing shares logic with the fixed-point
solver, which is the point; use these to cross-check it, never for real
workloads.  Hard caps guard against runaway searches and raise
CapExceeded instead of truncating silently.

Minimum hospital deletion takes one walk.  For a matching M of G, let
B(M) be the hospitals of the edges that block M in G.  Deleting
hospitals keeps the order of the remaining ranks, so M is super-stable
in G minus a hospital set S exactly when S holds none of M's hospitals
and all of B(M).  Such an S holds a B(M) that works too, so the first
hit of a scan over hospital subsets by size, in sorted name order, is
the least B(M) by size, then sorted names, over the matchings M that
leave all of B(M) unmatched.

The walk settles the doctors in name order, each on one edge m or on
none.  Each other edge e the doctor ranks no worse than m (each edge,
with none) demands that its hospital end unmatched, and so in B(M), or
matched by an edge it ranks strictly above e.  A branch is cut by a
demand on a hospital holding an edge it ranks no higher than e, by
taking an edge that its hospital ranks no higher than a demand there,
and by more demanded hospitals unmatched and out of every later
doctor's reach, so sure to be in B(M), than the best set so far holds.
The cuts drop only infeasible matchings and worse sets; at a leaf, B(M)
is the demanded hospitals left unmatched.

Two-side deletion is a loop over doctor subsets D', each running that
walk on G minus D', whose ranks keep their order too.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .model import (
    CapExceeded,
    Edge,
    Instance,
    Vertex,
    doctor,
    hospital,
    induced_edges,
    ordered_edges,
)

CAP_ENV = "SUPERSTAB_ORACLE_CAP"


def _cap_exceeded(count: int, what: str, search: str, keyword: str, cap: int) -> CapExceeded:
    return CapExceeded(
        f"{count} {what} exceed the {search} cap of {cap}; raise {keyword}, "
        f"or set {CAP_ENV} for `superstab verify`"
    )


def _walk(pool: list[Edge], ranks: tuple[dict, dict] | None = None) -> Iterator[tuple[dict, dict]]:
    """Visit every matching within `pool` once, and yield it as
    (doctor -> edge, hospital -> edge).  Each edge is left out before it
    is taken.

    The dicts are live: read them before resuming.  Given the doctor and
    hospital rank tables, skip every branch that leaves out an edge whose
    endpoints are both matched elsewhere and neither strictly prefers its
    partner: that edge blocks every matching below, at a matched hospital.
    """
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
        md = by_d.get(e.doctor)
        mh = by_h.get(e.hospital)
        if md is None and mh is None:
            stack.append((i + 1, len(by_d), e))
        if (
            md is None or mh is None or ranks is None
            or ranks[0][md] < ranks[0][e] or ranks[1][mh] < ranks[1][e]
        ):
            stack.append((i + 1, len(by_d), None))


def _super_stable(pool: list[Edge], ranks: tuple[dict, dict], by_d: dict, by_h: dict) -> bool:
    """Whether no edge in `pool` blocks the matching."""
    dr, hr = ranks
    for e in pool:
        md = by_d.get(e.doctor)
        if md == e or (md is not None and dr[md] < dr[e]):
            continue
        mh = by_h.get(e.hospital)
        if mh is None or hr[e] <= hr[mh]:
            return False
    return True


def all_matchings(inst: Instance, deleted: Iterable[Vertex] = ()) -> Iterator[frozenset[Edge]]:
    """Yield every matching of the graph minus `deleted`, each exactly once."""
    for by_d, _ in _walk(ordered_edges(induced_edges(inst, deleted))):
        yield frozenset(by_d.values())


def count_matchings(inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int = 20) -> int:
    """How many matchings the graph minus `deleted` has."""
    pool = _check_edge_cap(inst, deleted, max_edges)
    return sum(1 for _ in _walk(ordered_edges(pool)))


def _check_edge_cap(inst: Instance, deleted: Iterable[Vertex], max_edges: int | None) -> frozenset[Edge]:
    pool = induced_edges(inst, deleted)
    if max_edges is not None and len(pool) > max_edges:
        raise _cap_exceeded(len(pool), "edges", "enumeration", "max_edges", max_edges)
    return pool


def enumerate_super_stable(
    inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int | None = 20
) -> list[frozenset[Edge]]:
    """Every super-stable matching of the graph minus `deleted`.

    Deterministic order.  Membership is exactly `is_super_stable`; the
    search walks all matchings and keeps the ones with no blocking edge.
    """
    pool = ordered_edges(_check_edge_cap(inst, deleted, max_edges))
    ranks = (inst.doctor_rank, inst.hospital_rank)
    return [
        frozenset(by_d.values())
        for by_d, by_h in _walk(pool, ranks)
        if _super_stable(pool, ranks, by_d, by_h)
    ]


def _least_blocking(inst: Instance, pool: list[Edge]) -> list[str]:
    """The least B(M) by size, then sorted names, over the matchings M
    within `pool` that leave B(M) unmatched, in one walk: the first hit
    of a scan over hospital subsets by size in sorted name order.  The
    module docstring gives the walk and its cut rules."""
    dr, hr = inst.doctor_rank, inst.hospital_rank
    by_d: dict[str, list[tuple[int, int, str]]] = {}
    last: dict[str, int] = {}  # hospital -> the index of the last doctor that reaches it
    for e in pool:
        by_d.setdefault(e.doctor, []).append((dr[e], hr[e], e.hospital))
        last[e.hospital] = len(by_d) - 1
    rows = [sorted(row) for row in by_d.values()]
    best = sorted(inst.hospitals)  # deleting them all leaves the empty matching
    # Entries: next doctor, hospital -> rank of its partner, -> least rank demanded.
    stack: list[tuple[int, dict, dict]] = [(0, {}, {})]
    while stack and best:
        i, held, least = stack.pop()
        found = [h for h in least if h not in held and last[h] < i]
        if len(found) > len(best):
            continue
        if i == len(rows):
            best = min(best, sorted(found), key=lambda b: (len(b), b))
            continue
        row = rows[i]
        for k in range(len(row), -1, -1):  # takes pop first, best rank first; none last
            hold, end = held, len(row)
            if k < end:
                rank, r, h = row[k]
                if h in held or least.get(h, r + 1) <= r:
                    continue
                hold = {**held, h: r}
                end = next((j for j in range(k + 1, end) if row[j][0] > rank), end)
            need = dict(least)
            for j in range(end):
                _, r, h = row[j]
                if j != k and need.get(h, r + 1) > r:  # a stricter demand is already met
                    if held.get(h, 0) >= r:  # ranks start at 1
                        break
                    need[h] = r
            else:
                stack.append((i + 1, hold, need))
    return best


def oracle_min_hospital_deletion(
    inst: Instance, *, max_hospitals: int = 12
) -> tuple[int, frozenset[Vertex]]:
    """Smallest hospital set whose removal leaves a super-stable matching;
    of those, the first in sorted name order (`_least_blocking` on G)."""
    if len(inst.hospitals) > max_hospitals:
        raise _cap_exceeded(
            len(inst.hospitals), "hospitals", "subset-search", "max_hospitals", max_hospitals
        )
    best = _least_blocking(inst, ordered_edges(inst.edges))
    return len(best), frozenset(hospital(n) for n in best)


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
    if doctor_budget < 0 or hospital_budget < 0:
        raise ValueError("budgets must be non-negative")
    total_vertices = len(inst.doctors) + len(inst.hospitals)
    if total_vertices > max_vertices:
        raise _cap_exceeded(
            total_vertices, "vertices", "subset-search", "max_vertices", max_vertices
        )
    names = sorted(inst.doctors)
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


__all__ = [
    "CapExceeded",
    "all_matchings",
    "count_matchings",
    "enumerate_super_stable",
    "oracle_min_hospital_deletion",
    "oracle_two_side_deletion",
]
