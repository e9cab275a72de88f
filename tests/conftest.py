from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from itertools import accumulate, chain, combinations, count, repeat
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import strategies as st

import superstab
from superstab.cli import generate_instance
from superstab._objects import _ListError, _from_lists, _walk
from superstab.model import (
    DOCTOR,
    HOSPITAL,
    Edge,
    FormatError,
    Instance,
    Vertex,
    all_doctor_choices,
    all_hospital_choices,
    doctor,
    hospital,
    induced_instance,
    is_super_stable,
    make_instance,
    parse_instance,
)
from superstab.oracle import all_matchings, enumerate_super_stable
from superstab.superstable import ClosureRound, _count, _loop, solve_min_hospital_deletion

STRICT_2X2_TEXT = """doctors: d1 d2
hospitals: h1 h2
pref d1: h1 h2
pref d2: h1 h2
pref h1: d1 d2
pref h2: d1 d2
"""

TIE_2X2_TEXT = """doctors: d1 d2
hospitals: h1 h2
pref d1: (h1 h2)
pref d2: (h1 h2)
pref h1: (d1 d2)
pref h2: (d1 d2)
"""

ONE_PAIR_TEXT = """doctors: d1
hospitals: h1
pref d1: h1
pref h1: d1
"""


def one_hospital_tie_text(n_doctors: int) -> str:
    """One hospital `h` that every doctor lists and that ties all of them."""
    names = " ".join(f"d{i}" for i in range(1, n_doctors + 1))
    prefs = "".join(f"pref d{i}: h\n" for i in range(1, n_doctors + 1))
    return f"doctors: {names}\nhospitals: h\n{prefs}pref h: ({names})\n"


def python_env(hash_seed: int) -> dict[str, str]:
    """The environment for a child `python` that imports this checkout's
    package, with PYTHONHASHSEED fixed."""
    src = str(Path(superstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)


def run_python(hash_seed: int, *args: str) -> subprocess.CompletedProcess:
    """Run `python ARGS` on this checkout's package with PYTHONHASHSEED fixed."""
    env = python_env(hash_seed)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


@pytest.fixture
def strict_2x2() -> Instance:
    return parse_instance(STRICT_2X2_TEXT)


@pytest.fixture
def tie_2x2() -> Instance:
    return parse_instance(TIE_2X2_TEXT)


@pytest.fixture
def one_pair() -> Instance:
    return parse_instance(ONE_PAIR_TEXT)


def sample_instances(count: int = 30, max_side: int = 3, seed: str = "unit") -> list[Instance]:
    """Small deterministic random instances for property loops."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(0, max_side)
        m = rng.randint(0, max_side)
        out.append(
            generate_instance(
                n, m, rng.uniform(0.3, 1.0), rng.uniform(0.0, 1.0), seed=f"{seed}-{i}"
            )
        )
    return out


def master_list_instance(n: int, seed: str = "master-list") -> Instance:
    """Every doctor ranks the hospitals in their declared order and every
    hospital ranks the doctors in reverse declared order; `seed` shuffles
    both declarations.  The closure takes n rounds, and the unique
    super-stable matching pairs hospitals[i] with doctors[n - 1 - i]."""
    rng = random.Random(seed)
    doctors = [f"d{i}" for i in range(n)]
    hospitals = [f"h{i}" for i in range(n)]
    rng.shuffle(doctors)
    rng.shuffle(hospitals)
    return make_instance(
        doctors,
        hospitals,
        {d: hospitals for d in doctors},
        {h: doctors[::-1] for h in hospitals},
    )


@st.composite
def instances(draw, max_doctors: int = 3, max_hospitals: int = 3, max_levels: int = 3):
    """Hypothesis strategy for small instances with arbitrary ties."""
    n = draw(st.integers(0, max_doctors))
    m = draw(st.integers(0, max_hospitals))
    doctors = [f"d{i}" for i in range(1, n + 1)]
    hospitals = [f"h{j}" for j in range(1, m + 1)]
    adjacency = [
        (d, h) for d in doctors for h in hospitals if draw(st.booleans())
    ]

    def groups_for(partners: list[str]) -> list[list[str]]:
        by_level: dict[int, list[str]] = {}
        for p in partners:
            by_level.setdefault(draw(st.integers(1, max_levels)), []).append(p)
        return [by_level[k] for k in sorted(by_level)]

    doctor_prefs = {
        d: groups_for([h for dd, h in adjacency if dd == d]) for d in doctors
    }
    hospital_prefs = {
        h: groups_for([d for d, hh in adjacency if hh == h]) for h in hospitals
    }
    return make_instance(doctors, hospitals, doctor_prefs, hospital_prefs)


def naive_is_super_stable(inst: Instance, removed, matching) -> bool:
    """Direct quantifier expansion of the definition, kept independent of
    the library's blocking-edge scan."""
    removed = frozenset(removed)
    gone_d = {v.name for v in removed if v.side == DOCTOR}
    gone_h = {v.name for v in removed if v.side == HOSPITAL}
    matching = set(matching)
    held: dict[Vertex, Edge] = {}
    for e in matching:
        held[Vertex(DOCTOR, e.doctor)] = e
        held[Vertex(HOSPITAL, e.hospital)] = e
    for e in inst.edges:
        if e.doctor in gone_d or e.hospital in gone_h or e in matching:
            continue
        d = Vertex(DOCTOR, e.doctor)
        h = Vertex(HOSPITAL, e.hospital)
        d_cur = held.get(d)
        h_cur = held.get(h)
        d_wants = d_cur is None or inst.rank[d][e] <= inst.rank[d][d_cur]
        h_wants = h_cur is None or inst.rank[h][e] <= inst.rank[h][h_cur]
        if d_wants and h_wants:
            return False
    return True


def verify_enumeration(inst: Instance, deleted=()) -> bool:
    """The enumeration must equal filtering all matchings through the
    public predicate, and through the naive one, which shares no code with
    the library's blocking rule."""
    listed = enumerate_super_stable(inst, deleted, max_edges=None)
    matchings = list(all_matchings(inst, deleted))
    plain = [m for m in matchings if is_super_stable(inst, deleted, m)]
    naive = [m for m in matchings if naive_is_super_stable(inst, deleted, m)]
    return listed == plain == naive


def reference_min_hospital_deletion(inst: Instance) -> tuple[int, frozenset[Vertex]]:
    """The minimum hospital deletion by its definition: hospital subsets by
    size, names in sorted order, each tested by filtering every matching of
    what is left through `is_super_stable`; the first hit wins."""
    names = sorted(inst.hospitals)
    for size in range(len(names) + 1):
        for combo in combinations(names, size):
            removed = frozenset(hospital(n) for n in combo)
            if any(is_super_stable(inst, removed, m) for m in all_matchings(inst, removed)):
                return size, removed
    raise AssertionError("removing every hospital always leaves the empty matching")


def _reference_blocking_hospitals(pool, ranks, by_d, by_h, limit: int) -> set[str] | None:
    """B(M): the hospitals of the edges in `pool` that block the matching;
    None as soon as a blocking edge's hospital is matched, or B(M) has
    more than `limit` members."""
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


def reference_least_blocking(inst: Instance, pool: list[Edge]) -> list[str]:
    """The least B(M) by size, then sorted names, over the matchings M
    within `pool` that leave B(M) unmatched, as `oracle._least_blocking`
    found it before its doctor-by-doctor walk: every matching of the edge
    walk, each with one scan of `pool` for B(M).  That walk took each
    edge before leaving it out; the order changes no least set."""
    ranks = (inst.doctor_rank, inst.hospital_rank)
    best = sorted(inst.hospitals)  # deleting them all leaves the empty matching
    for by_d, by_h in _walk(pool):
        found = _reference_blocking_hospitals(pool, ranks, by_d, by_h, len(best))
        if found is not None and (len(found), sorted(found)) < (len(best), best):
            best = sorted(found)
            if not best:
                break
    return best


def reference_exists_super_stable(inst: Instance, deleted=()) -> frozenset[Edge] | None:
    """Existence on a copy: the full solve of the instance without
    `deleted`, as `exists_super_stable` answered before it ran the loop on
    the original instance."""
    cert = solve_min_hospital_deletion(induced_instance(inst, deleted))
    return None if cert.critical else cert.matching


def shuffled_tables_twin(inst: Instance, rng: random.Random) -> Instance:
    """`Instance(...)` built from the rank tables of `inst`, with the tables
    and the entries of each in a shuffled order.  It equals `inst`, but
    tied edges may sit in another order in its core."""
    tables = [(v, list(table.items())) for v, table in inst.rank.items()]
    rng.shuffle(tables)
    for _, entries in tables:
        rng.shuffle(entries)
    return Instance(inst.doctors, inst.hospitals, inst.edges, {v: dict(entries) for v, entries in tables})


def rank_groups(inst: Instance, v: Vertex) -> list[list[str]]:
    """The partners `v` ranks in `inst.rank`, in tie groups best first,
    each group sorted by name."""
    by_rank: dict[int, list[str]] = {}
    for e, r in inst.rank[v].items():
        by_rank.setdefault(r, []).append(e.hospital if v.side == DOCTOR else e.doctor)
    return [sorted(by_rank[r]) for r in sorted(by_rank)]


def disjoint_union(parts: dict[str, Instance]) -> Instance:
    """One instance holding every part side by side, each vertex renamed
    to its part's tag followed by its old name; ranks carry over."""
    doctors: list[str] = []
    hospitals: list[str] = []
    prefs: dict[str, dict[str, list[list[str]]]] = {DOCTOR: {}, HOSPITAL: {}}
    for tag, inst in parts.items():
        doctors += [tag + d for d in inst.doctors]
        hospitals += [tag + h for h in inst.hospitals]
        for v in inst.vertices():
            prefs[v.side][tag + v.name] = [[tag + n for n in g] for g in rank_groups(inst, v)]
    return make_instance(doctors, hospitals, prefs[DOCTOR], prefs[HOSPITAL])


def reference_two_side_deletion(
    inst: Instance, doctor_budget: int, hospital_budget: int
) -> frozenset[Vertex] | None:
    """The two-side search on induced instances: doctor subsets by size,
    names in sorted order, each completed by the one-side solver on the
    instance without them; the first within the hospital budget wins."""
    names = sorted(inst.doctors)
    for size in range(min(doctor_budget, len(names)) + 1):
        for combo in combinations(names, size):
            removed = frozenset(doctor(n) for n in combo)
            cert = solve_min_hospital_deletion(induced_instance(inst, removed))
            if len(cert.critical) <= hospital_budget:
                return removed | cert.critical
    return None


def reference_first_hit(inst: Instance, names, lo: int, hi: int, hit):
    """The doctor walk of `hardness._first_hit` without its cut on the
    count, the reference for that cut: the first, in name order, of the
    smallest subsets of `names` with a size in (lo, hi] whose critical
    count `hit` accepts, or None.  It cuts only nodes that cannot reach a
    size above `lo` or below the smallest hit so far, so it hands `hit`
    every other subset."""
    propose, run, state = _loop(inst)
    index = {name: d for d, name in enumerate(inst.doctors)}
    order = [index[name] for name in names]
    n = len(order)
    found = None
    stack: list = [(0, (), None)]
    while stack:
        i, combo, saved = stack.pop()
        size = len(combo)
        if saved is not None:
            for now, then in zip(state, saved):
                now[:] = then
            run(list(propose(order[i])))
            i += 1
        if size < hi and i < n:
            if size + n - i - 1 > lo:
                stack.append((i, combo, [now[:] for now in state]))
            stack.append((i + 1, combo + (names[i],), None))
            continue
        if i < n:
            run([e for d in order[i:] for e in propose(d)])
        if hit(combo, _count(state)):
            found, hi = combo, size - 1
            if hi == lo:
                break
    return found


def reference_two_side_oracle(
    inst: Instance, doctor_budget: int, hospital_budget: int
) -> frozenset[Vertex] | None:
    """Two-side deletion by its definition: vertex sets by total size, then
    doctor count, then names in sorted order, each tested by filtering every
    matching of what is left through `is_super_stable`; the first hit wins."""
    ds = sorted(inst.doctors)
    hs = sorted(inst.hospitals)
    q_d = min(doctor_budget, len(ds))
    q_h = min(hospital_budget, len(hs))
    for total in range(q_d + q_h + 1):
        for take_d in range(max(0, total - q_h), min(total, q_d) + 1):
            for combo_d in combinations(ds, take_d):
                part = frozenset(doctor(n) for n in combo_d)
                for combo_h in combinations(hs, total - take_d):
                    removed = part | frozenset(hospital(n) for n in combo_h)
                    if any(is_super_stable(inst, removed, m) for m in all_matchings(inst, removed)):
                        return removed
    return None


def edge_log(inst: Instance, log):
    """The loop's log of edge ids (per round: the ids newly proposed, the
    ids newly forbidden) with each id turned into its Edge, read from the
    instance's core by doctor and hospital index."""

    def edge(e: int) -> Edge:
        return Edge(inst.doctors[inst._ed[e]], inst.hospitals[inst._eh[e]])

    return [([edge(e) for e in new], [edge(e) for e in lost]) for new, lost in log]


def reference_rounds(initial: frozenset[Edge], log) -> tuple[ClosureRound, ...]:
    """The rounds of one closure run, rebuilt eagerly from the loop's log
    mapped to edges (per round: the edges newly proposed, the edges newly
    forbidden; see `edge_log`), as `closure` built them before its trace
    became lazy."""
    rounds: list[ClosureRound] = []
    proposed: set[Edge] = set()
    forbidden = initial
    for index, (new, lost) in enumerate(log, 1):
        proposed.update(new)
        offered = frozenset(proposed)
        if lost:
            proposed.difference_update(lost)
            forbidden = forbidden.union(lost)
        held = frozenset(proposed) if lost else offered
        rounds.append(ClosureRound(index, offered, held, forbidden))
    return tuple(rounds)


def reference_tie_groups(inst: Instance, gone=()) -> dict[str, list[list[tuple[Edge, int]]]]:
    """The Edge-keyed tie groups that the loop read before it ran on edge
    ids: per doctor name, in the order of `inst.rank`, its tie groups best
    first, without the edges of the hospitals named in `gone`; each entry
    carries the edge's rank on the hospital's list.  The loop now reads
    each group as a run of equal rank in the core, so this is the only
    tie-group builder left, and the reference for those runs."""
    hospital_rank = inst.hospital_rank
    groups = {}
    for v, table in inst.rank.items():
        if v.side == HOSPITAL:
            continue
        by_rank: dict[int, list[tuple[Edge, int]]] = {}
        for e, r in table.items():
            if e.hospital not in gone:
                by_rank.setdefault(r, []).append((e, hospital_rank[e]))
        groups[v.name] = [by_rank[r] for r in sorted(by_rank)]
    return groups


def reference_fixed_point(groups, skip=()):
    """The Edge-keyed forbidding loop that `superstable._fixed_point` ran
    before it worked on edge ids, over `reference_tie_groups` with the
    doctors named in `skip` left out: the log (per round, the (edge, rank)
    entries newly proposed and the edges newly forbidden) and the critical
    count."""
    position: dict[str, int] = {}
    left: dict[str, int] = {}

    def propose(d: str):
        mine = groups[d]
        i = position.get(d, -1) + 1
        group = mine[i] if i < len(mine) else []
        position[d] = i
        left[d] = len(group)
        return group

    pool_best: dict = {}
    holds: dict = {}
    log = []
    new = [p for d in groups if d not in skip for p in propose(d)]
    while True:
        arrivals: dict = {}
        for p in new:
            arrivals.setdefault(p[0].hospital, []).append(p)
        lost = []
        for h, live in arrivals.items():
            b, c, t = pool_best.get(h, (None, 0, None))
            for e, r in live:
                if b is None or r < b:
                    b, c, t = r, 1, e
                elif r == b:
                    c += 1
            pool_best[h] = b, c, t
            if h in holds:
                live.append(holds.pop(h))
            for p in live:
                if c == 1 and p[0] == t:
                    holds[h] = p
                else:
                    lost.append(p[0])
        log.append((new, lost))
        if not lost:
            break
        new = []
        for e in lost:
            left[e.doctor] -= 1
            if not left[e.doctor]:
                new.extend(propose(e.doctor))
    return log, len(pool_best) - sum(i < len(groups[d]) for d, i in position.items())


def reference_outcome(log) -> tuple[frozenset[Edge], frozenset[Vertex]]:
    """The matching and the critical hospitals read from a log of
    `reference_fixed_point`, as `superstable._outcome` read them."""
    proposed = [e for new, _ in log for e, _ in new]
    lost = {e for _, forbade in log for e in forbade}
    matching = frozenset({e.doctor: e for e in sorted(proposed, reverse=True) if e not in lost}.values())
    wanted = {e.hospital for e in proposed} - {e.hospital for e in matching}
    return matching, frozenset(Vertex(HOSPITAL, h) for h in wanted)


def closure_trace_violations(inst: Instance, deleted, forbidden, trace) -> list[str]:
    """Check every mechanical property one closure run must satisfy."""
    bad: list[str] = []
    gone = {v.name for v in deleted}
    seed = frozenset(e for e in inst.edges if e.hospital in gone)
    if trace.initial_forbidden != seed:
        bad.append("initial forbidden set is not the deleted hospitals' edges")
    if not trace.rounds:
        bad.append("trace has no rounds")
        return bad
    if [r.index for r in trace.rounds] != list(range(1, len(trace.rounds) + 1)):
        bad.append("round indices are not 1..k")
    if len(trace.rounds) > len(inst.edges) + 1:
        bad.append("more rounds than edges plus one")
    prev = trace.initial_forbidden
    for r in trace.rounds:
        expect_proposed = all_doctor_choices(inst, inst.edges - prev)
        if r.proposed != expect_proposed:
            bad.append(f"round {r.index}: proposed set is wrong")
        expect_held = all_hospital_choices(inst, r.proposed | prev) & r.proposed
        if r.held != expect_held:
            bad.append(f"round {r.index}: held set is wrong")
        if r.forbidden != prev | (r.proposed - r.held):
            bad.append(f"round {r.index}: forbidden set is wrong")
        if not prev <= r.forbidden:
            bad.append(f"round {r.index}: forbidden set shrank")
        prev = r.forbidden
    last = trace.rounds[-1]
    if len(trace.rounds) >= 2 and last.forbidden != trace.rounds[-2].forbidden:
        bad.append("last round still changed the forbidden set")
    if len(trace.rounds) == 1 and last.forbidden != trace.initial_forbidden:
        bad.append("single-round trace changed the forbidden set")
    if forbidden != last.forbidden:
        bad.append("returned forbidden set differs from the trace result")

    redo = all_doctor_choices(inst, inst.edges - forbidden)
    held = all_hospital_choices(inst, redo | forbidden) & redo
    if forbidden | (redo - held) != forbidden:
        bad.append("re-feeding the fixed point grows it")

    # Forbidden edges a doctor lost (seeded ones aside) must be at least as
    # good for that doctor as anything it still has, at every stage.
    stages = [trace.initial_forbidden] + [r.forbidden for r in trace.rounds]
    for stage_no, stage in enumerate(stages):
        worst_lost: dict[str, int] = {}
        best_left: dict[str, int] = {}
        dr = inst.doctor_rank
        for e in stage:
            if e in seed:
                continue
            worst_lost[e.doctor] = max(worst_lost.get(e.doctor, 0), dr[e])
        for e in inst.edges - stage:
            r = dr[e]
            if e.doctor not in best_left or r < best_left[e.doctor]:
                best_left[e.doctor] = r
        for d, worst in worst_lost.items():
            if d in best_left and worst > best_left[d]:
                bad.append(f"stage {stage_no}: doctor {d!r} lost a worse edge than one it kept")
    return bad


# The tokens of a `pref` body: parentheses and names.
_REFERENCE_PREF_TOKEN = re.compile(r"[()]|[^\s()]+")


def reference_pref_list(body: str) -> tuple[list[str], list[int]] | None:
    """The token reader that `model._pref_list` replaced: one loop over the
    regex tokens of a `pref` body that tracks the open tie group.  The
    names in list order and the rank level of each, or None when a group
    is nested, empty, left open or closed without being opened."""
    names: list[str] = []
    levels: list[int] = []
    level, start = 0, -1  # start: where the open tie group's names begin; -1 outside one
    for token in _REFERENCE_PREF_TOKEN.findall(body):
        if token == "(":
            if start >= 0:
                return None
            level, start = level + 1, len(names)
        elif token == ")":
            if start < 0 or start == len(names):
                return None
            start = -1
        else:
            if start < 0:
                level += 1
            names.append(token)
            levels.append(level)
    return None if start >= 0 else (names, levels)


def reference_build(doctors, hospitals, doctor_lists, hospital_lists) -> Instance | None:
    """The builder that `model._build` replaced: per doctor a dict from
    each hospital it lists to the edge id, each hospital entry joined by
    name through two lookups, `_hl` built through a dict, and length
    comparisons for duplicates.  The instance with these lists, or None
    when a list names an unknown partner or a partner twice, or some
    listing is one-sided."""
    partners = list(chain.from_iterable(map(itemgetter(0), doctor_lists)))
    if not set(hospitals).issuperset(partners):
        return None
    sizes = list(map(len, map(itemgetter(0), doctor_lists)))
    first = [0, *accumulate(sizes)]
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


def _reference_name_ok(name: str) -> bool:
    return bool(name) and not any(c.isspace() or c in "()#:" for c in name)


def _reference_scan_entries(body: str, lineno: int, offset: int) -> list[list[tuple[str, int]]]:
    """Tokenize a preference line body into tie groups with column info."""
    groups: list[list[tuple[str, int]]] = []
    open_group: list[tuple[str, int]] | None = None
    open_col = 0
    i = 0
    while i < len(body):
        c = body[i]
        col = offset + i + 1
        if c.isspace():
            i += 1
        elif c == "(":
            if open_group is not None:
                raise FormatError("nested tie group", line=lineno, column=col)
            open_group = []
            open_col = col
            i += 1
        elif c == ")":
            if open_group is None:
                raise FormatError("unmatched ')'", line=lineno, column=col)
            if not open_group:
                raise FormatError("empty tie group", line=lineno, column=col)
            groups.append(open_group)
            open_group = None
            i += 1
        else:
            j = i
            while j < len(body) and not body[j].isspace() and body[j] not in "()":
                j += 1
            token = body[i:j]
            if not _reference_name_ok(token):
                raise FormatError(f"invalid name {token!r}", line=lineno, column=col)
            if open_group is None:
                groups.append([(token, col)])
            else:
                open_group.append((token, col))
            i = j
    if open_group is not None:
        raise FormatError("unclosed tie group", line=lineno, column=open_col)
    return groups


def _reference_name_list(body: str, lineno: int, offset: int, word: str) -> tuple[str, ...]:
    names: list[str] = []
    seen: set[str] = set()
    i = 0
    while i < len(body):
        if body[i].isspace():
            i += 1
            continue
        j = i
        while j < len(body) and not body[j].isspace():
            j += 1
        token = body[i:j]
        col = offset + i + 1
        if not _reference_name_ok(token):
            raise FormatError(f"invalid {word} name {token!r}", line=lineno, column=col)
        if token in seen:
            raise FormatError(f"duplicate {word} name {token!r}", line=lineno, column=col)
        seen.add(token)
        names.append(token)
        i = j
    return tuple(names)


def reference_parse_instance(text: str) -> Instance:
    """The character-by-character parser that `parse_instance` replaced:
    it records every entry's column and keeps them all for the error path.
    The list checks are the library's `_from_lists`, whose failures the
    library's `_objects._list_problem` names."""
    doctors: tuple[str, ...] | None = None
    hospitals: tuple[str, ...] | None = None
    pref_lines: list[tuple[str, int, list[list[tuple[str, int]]]]] = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise FormatError("expected ':'", line=lineno, column=len(line.rstrip()) + 1)
        words = head.split()
        offset = len(head) + 1
        if words == ["doctors"]:
            if doctors is not None:
                raise FormatError("second 'doctors:' line", line=lineno)
            doctors = _reference_name_list(body, lineno, offset, "doctor")
        elif words == ["hospitals"]:
            if hospitals is not None:
                raise FormatError("second 'hospitals:' line", line=lineno)
            hospitals = _reference_name_list(body, lineno, offset, "hospital")
        elif len(words) == 2 and words[0] == "pref":
            if doctors is None or hospitals is None:
                raise FormatError("preference line before 'doctors:' and 'hospitals:'", line=lineno)
            name = words[1]
            if not _reference_name_ok(name):
                raise FormatError(f"invalid name {name!r}", line=lineno)
            pref_lines.append((name, lineno, _reference_scan_entries(body, lineno, offset)))
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
    columns: dict[Vertex, list[int]] = {}
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
        v = Vertex(DOCTOR if name in dset else HOSPITAL, name)
        prefs[v] = [[t for t, _ in g] for g in groups]
        columns[v] = [col for g in groups for _, col in g]

    for name in doctors + hospitals:
        if name not in line_of:
            side = "doctor" if name in dset else "hospital"
            raise FormatError(f"missing preference line for {side} {name!r}")

    try:
        return _from_lists(doctors, hospitals, prefs)
    except _ListError as exc:
        column = None if exc.entry is None else columns[exc.owner][exc.entry]
        raise FormatError(str(exc), line=line_of[exc.owner.name], column=column) from None
