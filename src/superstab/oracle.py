"""Exhaustive ground truth for desk-scale instances.

Every oracle enumerates, in iterative walks that no recursion limit
bounds: `_objects._walk` leaves or takes each edge in turn, and
`_least_blocking` settles one doctor at a time.  `enumerate_super_stable`
asks `_objects._blocking` about every matching of the walk, the rule
that `blocking_edges` reads too.  Nothing shares logic with the
fixed-point solver, which is the point; use these to cross-check it,
never for real workloads.  Hard caps guard against runaway searches
and raise CapExceeded instead of truncating silently.

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

This module holds what `verify --mode problem1` runs: that walk, the
cap rule and the `verify` handler, which imports `cli` and `superstable`
where it runs.  The enumerators and `oracle_two_side_deletion` live in
`_objects`; `__all__` here lists them, read from there on first access.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

from . import _lazy
from .model import CapExceeded, Edge, Instance, Vertex, _removed_names, hospital, ordered_edges

# Each name of `__all__` that this file does not define, the enumerating
# oracles, is read from `_objects` on first access.
__getattr__ = _lazy(globals(), listed="_objects")

CAP_ENV = "SUPERSTAB_ORACLE_CAP"


def _cap_exceeded(count: int, what: str, search: str, keyword: str, cap: int) -> CapExceeded:
    return CapExceeded(
        f"{count} {what} exceed the {search} cap of {cap}; raise {keyword}, "
        f"or set {CAP_ENV} for `superstab verify`"
    )


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


def _oracle_caps(keyword: str) -> dict[str, int]:
    """The oracle keyword arguments for `verify`: `{keyword: cap}` when the
    cap variable is set, else none, so the oracle's own default holds."""
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return {}
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{CAP_ENV} must be non-negative")
    return {keyword: cap}


def _cmd_verify(ns: SimpleNamespace) -> int:
    """The `verify` command.  It looks up `parse_instance`,
    `oracle_min_hospital_deletion` and `solve_two_side_deletion` on `cli`,
    so a value set there, such as a tracing wrapper, is what it calls."""
    # `_cli` is the running `cli`, also when `python -m superstab.cli` runs it.
    from .cli import _cli, _emit, _finish_stats, _read
    from .superstable import exists_super_stable, solve_min_hospital_deletion

    inst = _cli.parse_instance(_read(ns.file))
    t0 = time.perf_counter()
    stats: dict = {}
    if ns.mode == "existence":
        from ._objects import count_matchings, enumerate_super_stable

        caps = _oracle_caps("max_edges")
        solver_yes = exists_super_stable(inst) is not None
        oracle_yes = bool(enumerate_super_stable(inst, **caps))
        agree = solver_yes == oracle_yes
        stats = {
            "solver_answer": "yes" if solver_yes else "no",
            "oracle_answer": "yes" if oracle_yes else "no",
            "search_space": count_matchings(inst, **caps),
        }
    elif ns.mode == "problem1":
        caps = _oracle_caps("max_hospitals")
        cert = solve_min_hospital_deletion(inst)
        oracle_min, _ = _cli.oracle_min_hospital_deletion(inst, **caps)
        agree = len(cert.critical) == oracle_min
        stats = {"solver_min": len(cert.critical), "oracle_min": oracle_min}
    else:
        from ._objects import oracle_two_side_deletion

        if ns.q1 is None or ns.q2 is None:
            raise ValueError("--mode problem2 needs --q1 and --q2")
        if ns.q1 < 0 or ns.q2 < 0:
            raise ValueError("--q1 and --q2 must be non-negative")
        caps = _oracle_caps("max_vertices")
        solver_witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
        oracle_witness = oracle_two_side_deletion(inst, ns.q1, ns.q2, **caps)
        agree = (solver_witness is None) == (oracle_witness is None)
        for witness in (solver_witness, oracle_witness):
            if witness is None:
                continue
            ds, hs = map(sorted, _removed_names(inst, witness))
            if len(ds) > ns.q1 or len(hs) > ns.q2 or exists_super_stable(inst, witness) is None:
                agree = False
        stats = {
            "solver_answer": "yes" if solver_witness is not None else "no",
            "oracle_answer": "yes" if oracle_witness is not None else "no",
        }
    payload = {
        "command": "verify",
        "mode": ns.mode,
        "answer": "yes" if agree else "no",
        "stats": _finish_stats(stats, t0, ns),
    }
    _emit(payload, "AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


__all__ = [
    "CapExceeded",
    "all_matchings",
    "count_matchings",
    "enumerate_super_stable",
    "oracle_min_hospital_deletion",
    "oracle_two_side_deletion",
]
