"""Exhaustive ground truth for desk-scale instances.

Everything here enumerates: matchings by binary include/exclude over the
edge list, in one iterative walk that no recursion limit bounds.  Nothing
shares logic with the fixed-point solver, which is the point; use these
to cross-check it, never for real workloads.  Hard caps guard against
runaway searches and raise CapExceeded instead of truncating silently.

Minimum hospital deletion takes one walk.  For a matching M of G, let
B(M) be the hospitals of the edges that block M in G.  Deleting
hospitals keeps the order of the remaining ranks, so M is super-stable
in G minus a hospital set S exactly when S holds none of M's hospitals
and all of B(M).  The minimum is the least |B(M)| over matchings M that
leave all of B(M) unmatched, and each feasible set of that size is one.

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


def _walk(
    pool: list[Edge], ranks: tuple[dict, dict] | None = None, take_first: bool = False
) -> Iterator[tuple[dict, dict]]:
    """Visit every matching within `pool` once, and yield it as
    (doctor -> edge, hospital -> edge).  Each edge is left out before it
    is taken, or, with `take_first`, taken first: searches that stop at
    the first hit meet large matchings sooner.

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
        take = md is None and mh is None
        if take and not take_first:
            stack.append((i + 1, len(by_d), e))
        if (
            md is None or mh is None or ranks is None
            or ranks[0][md] < ranks[0][e] or ranks[1][mh] < ranks[1][e]
        ):
            stack.append((i + 1, len(by_d), None))
        if take and take_first:
            stack.append((i + 1, len(by_d), e))


def _blocking_hospitals(
    pool: list[Edge], ranks: tuple[dict, dict], by_d: dict, by_h: dict, limit: int
) -> set[str] | None:
    """B(M): the hospitals of the edges in `pool` that block the matching.

    None as soon as a blocking edge's hospital is matched, or B(M) has
    more than `limit` members.  With limit 0, a set comes back exactly
    when the matching is super-stable, and it is empty.
    """
    dr, hr = ranks
    out: set[str] = set()
    for e in pool:
        md = by_d.get(e.doctor)
        if md == e or (md is not None and dr[md] < dr[e]):
            continue
        mh = by_h.get(e.hospital)
        if mh is not None:
            if hr[mh] < hr[e]:
                continue
            return None
        out.add(e.hospital)
        if len(out) > limit:
            return None
    return out


def all_matchings(inst: Instance, deleted: Iterable[Vertex] = ()) -> Iterator[frozenset[Edge]]:
    """Yield every matching of the graph minus `deleted`, each exactly once."""
    for by_d, _ in _walk(ordered_edges(induced_edges(inst, deleted))):
        yield frozenset(by_d.values())


def count_matchings(inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int = 20) -> int:
    """How many matchings the graph minus `deleted` has."""
    _check_edge_cap(inst, deleted, max_edges)
    return sum(1 for _ in all_matchings(inst, deleted))


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
        if _blocking_hospitals(pool, ranks, by_d, by_h, 0) is not None
    ]


def _least_blocking(inst: Instance, pool: list[Edge]) -> list[str]:
    """The least B(M) by size, then sorted names, over the matchings M
    within `pool` that leave B(M) unmatched, in one walk: the first hit
    of a scan over hospital subsets by size in sorted name order."""
    ranks = (inst.doctor_rank, inst.hospital_rank)
    best = sorted(inst.hospitals)  # deleting them all leaves the empty matching
    for by_d, by_h in _walk(pool, ranks, True):
        found = _blocking_hospitals(pool, ranks, by_d, by_h, len(best))
        if found is not None and (len(found), sorted(found)) < (len(best), best):
            best = sorted(found)
            if not best:
                break
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
