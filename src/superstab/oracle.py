"""Exhaustive ground truth for desk-scale instances.

Everything here enumerates: matchings by binary include/exclude over the
edge list, deletion sets by subset size.  Nothing shares logic with the
fixed-point solver, which is the point; use these to cross-check it,
never for real workloads.  Hard caps guard against runaway searches and
raise CapExceeded instead of truncating silently.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .model import (
    Edge,
    Instance,
    Vertex,
    doctor,
    hospital,
    induced_edges,
    is_super_stable,
    ordered_edges,
)


class CapExceeded(RuntimeError):
    """An exhaustive search would exceed its configured cap."""


def all_matchings(inst: Instance, deleted: Iterable[Vertex] = ()) -> Iterator[frozenset[Edge]]:
    """Yield every matching of the graph minus `deleted`, each exactly once."""
    pool = ordered_edges(induced_edges(inst, deleted))
    used_d: set[str] = set()
    used_h: set[str] = set()
    chosen: list[Edge] = []

    def walk(i: int) -> Iterator[frozenset[Edge]]:
        if i == len(pool):
            yield frozenset(chosen)
            return
        e = pool[i]
        yield from walk(i + 1)
        if e.doctor not in used_d and e.hospital not in used_h:
            used_d.add(e.doctor)
            used_h.add(e.hospital)
            chosen.append(e)
            yield from walk(i + 1)
            used_d.discard(e.doctor)
            used_h.discard(e.hospital)
            chosen.pop()

    yield from walk(0)


def count_matchings(inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int = 20) -> int:
    """How many matchings the graph minus `deleted` has."""
    _check_edge_cap(inst, deleted, max_edges)
    return sum(1 for _ in all_matchings(inst, deleted))


def _check_edge_cap(inst: Instance, deleted: Iterable[Vertex], max_edges: int | None) -> frozenset[Edge]:
    pool = induced_edges(inst, deleted)
    if max_edges is not None and len(pool) > max_edges:
        raise CapExceeded(f"{len(pool)} edges exceed the enumeration cap of {max_edges}")
    return pool


def enumerate_super_stable(
    inst: Instance, deleted: Iterable[Vertex] = (), *, max_edges: int | None = 20
) -> list[frozenset[Edge]]:
    """Every super-stable matching of the graph minus `deleted`.

    Deterministic order.  Membership is exactly `is_super_stable`; the
    search walks all matchings and keeps the ones with no blocking edge.
    """
    pool = ordered_edges(_check_edge_cap(inst, deleted, max_edges))
    dr = inst.doctor_rank
    hr = inst.hospital_rank
    by_d: dict[str, Edge] = {}
    by_h: dict[str, Edge] = {}
    chosen: list[Edge] = []
    found: list[frozenset[Edge]] = []

    def leaf_is_stable() -> bool:
        for e in pool:
            md = by_d.get(e.doctor)
            if md == e:
                continue
            if md is not None and dr[md] < dr[e]:
                continue
            mh = by_h.get(e.hospital)
            if mh is not None and hr[mh] < hr[e]:
                continue
            return False
        return True

    def walk(i: int) -> None:
        if i == len(pool):
            if leaf_is_stable():
                found.append(frozenset(chosen))
            return
        e = pool[i]
        # Once both endpoints are matched elsewhere and neither strictly
        # prefers its partner, e blocks every completion of this branch.
        md = by_d.get(e.doctor)
        mh = by_h.get(e.hospital)
        if md is None or mh is None or dr[md] < dr[e] or hr[mh] < hr[e]:
            walk(i + 1)
        if e.doctor not in by_d and e.hospital not in by_h:
            by_d[e.doctor] = e
            by_h[e.hospital] = e
            chosen.append(e)
            walk(i + 1)
            del by_d[e.doctor]
            del by_h[e.hospital]
            chosen.pop()

    walk(0)
    return found


def _any_super_stable(inst: Instance, deleted: frozenset[Vertex]) -> bool:
    """Uncapped check: does the graph minus `deleted` have a super-stable matching?"""
    pool = ordered_edges(induced_edges(inst, deleted))
    dr = inst.doctor_rank
    hr = inst.hospital_rank
    by_d: dict[str, Edge] = {}
    by_h: dict[str, Edge] = {}

    def leaf_is_stable() -> bool:
        for e in pool:
            md = by_d.get(e.doctor)
            if md == e:
                continue
            if md is not None and dr[md] < dr[e]:
                continue
            mh = by_h.get(e.hospital)
            if mh is not None and hr[mh] < hr[e]:
                continue
            return False
        return True

    def walk(i: int) -> bool:
        if i == len(pool):
            return leaf_is_stable()
        e = pool[i]
        if e.doctor not in by_d and e.hospital not in by_h:
            by_d[e.doctor] = e
            by_h[e.hospital] = e
            hit = walk(i + 1)
            del by_d[e.doctor]
            del by_h[e.hospital]
            if hit:
                return True
        # Same exclusion prune as the enumerator; order here is free
        # because only the boolean matters, so try inclusions first.
        md = by_d.get(e.doctor)
        mh = by_h.get(e.hospital)
        if md is None or mh is None or dr[md] < dr[e] or hr[mh] < hr[e]:
            return walk(i + 1)
        return False

    return walk(0)


def oracle_min_hospital_deletion(
    inst: Instance, *, max_hospitals: int = 12
) -> tuple[int, frozenset[Vertex]]:
    """Smallest hospital set whose removal leaves a super-stable matching.

    Tries subsets by increasing size, names in sorted order, and returns
    the first hit, so the witness is deterministic.
    """
    if len(inst.hospitals) > max_hospitals:
        raise CapExceeded(
            f"{len(inst.hospitals)} hospitals exceed the subset-search cap of {max_hospitals}"
        )
    names = sorted(inst.hospitals)
    for size in range(len(names) + 1):
        for combo in combinations(names, size):
            removed = frozenset(hospital(n) for n in combo)
            if _any_super_stable(inst, removed):
                return size, removed
    raise AssertionError("removing every hospital always leaves the empty matching")


def oracle_two_side_deletion(
    inst: Instance,
    doctor_budget: int,
    hospital_budget: int,
    *,
    max_vertices: int = 14,
) -> frozenset[Vertex] | None:
    """Some vertex set within both budgets whose removal restores
    super-stability, or None.

    Subsets are tried by total size, then doctor count, then name order,
    so the first witness is deterministic.
    """
    if doctor_budget < 0 or hospital_budget < 0:
        raise ValueError("budgets must be non-negative")
    total_vertices = len(inst.doctors) + len(inst.hospitals)
    if total_vertices > max_vertices:
        raise CapExceeded(
            f"{total_vertices} vertices exceed the subset-search cap of {max_vertices}"
        )
    ds = sorted(inst.doctors)
    hs = sorted(inst.hospitals)
    q_d = min(doctor_budget, len(ds))
    q_h = min(hospital_budget, len(hs))
    for total in range(q_d + q_h + 1):
        for take_d in range(total + 1):
            take_h = total - take_d
            if take_d > q_d or take_h > q_h:
                continue
            for combo_d in combinations(ds, take_d):
                part = frozenset(doctor(n) for n in combo_d)
                for combo_h in combinations(hs, take_h):
                    removed = part | frozenset(hospital(n) for n in combo_h)
                    if _any_super_stable(inst, removed):
                        return removed
    return None


def _verify_enumeration(inst: Instance, deleted: Iterable[Vertex] = ()) -> bool:
    """Slow agreement check used by tests: the fused enumeration must equal
    filtering all matchings through the public predicate."""
    fused = enumerate_super_stable(inst, deleted, max_edges=None)
    plain = [m for m in all_matchings(inst, deleted) if is_super_stable(inst, deleted, m)]
    return fused == plain


__all__ = [
    "CapExceeded",
    "all_matchings",
    "count_matchings",
    "enumerate_super_stable",
    "oracle_min_hospital_deletion",
    "oracle_two_side_deletion",
]
