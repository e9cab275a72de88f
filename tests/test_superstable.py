from __future__ import annotations

import logging
import random
import tracemalloc
from itertools import chain, combinations, islice, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closure_trace_violations,
    disjoint_union,
    edge_log,
    instances,
    master_list_instance,
    naive_is_super_stable,
    reference_exists_super_stable,
    reference_fixed_point,
    reference_outcome,
    reference_rounds,
    reference_tie_groups,
    sample_instances,
    shuffled_tables_twin,
)
from superstab.cli import generate_instance
from superstab.hardness import CoverageInstance, reduce_min_coverage, solve_two_side_deletion
from superstab.model import (
    HOSPITAL,
    Edge,
    Instance,
    Vertex,
    all_doctor_choices,
    doctor,
    hospital,
    induced_instance,
    is_super_stable,
    parse_instance,
    serialize_instance,
    transpose_instance,
)
from superstab.oracle import enumerate_super_stable, oracle_min_hospital_deletion
from superstab.superstable import (
    ClosureRound,
    ClosureTrace,
    _fixed_point,
    _outcome,
    closure,
    critical_hospitals,
    exists_super_stable,
    extract_matching,
    solve_min_hospital_deletion,
)

log = logging.getLogger("superstab.tests")


def edges(*pairs):
    return frozenset(Edge(d, h) for d, h in pairs)


def hospital_subsets(inst):
    names = inst.hospitals
    return chain.from_iterable(combinations(names, k) for k in range(len(names) + 1))


def as_hospitals(names):
    return frozenset(hospital(n) for n in names)


def test_closure_strict_rounds(strict_2x2):
    forbidden, trace = closure(strict_2x2)
    assert forbidden == edges(("d2", "h1"))
    assert trace.initial_forbidden == frozenset()
    assert trace.iterations == 2
    r1, r2 = trace.rounds
    assert r1.proposed == edges(("d1", "h1"), ("d2", "h1"))
    assert r1.held == edges(("d1", "h1"))
    assert r1.forbidden == edges(("d2", "h1"))
    assert r2.proposed == edges(("d1", "h1"), ("d2", "h2"))
    assert r2.held == edges(("d1", "h1"), ("d2", "h2"))
    assert r2.forbidden == r1.forbidden
    assert trace.result == forbidden


def test_closure_tie_rounds(tie_2x2):
    forbidden, trace = closure(tie_2x2)
    assert forbidden == tie_2x2.edges
    assert trace.iterations == 2
    r1, r2 = trace.rounds
    assert r1.proposed == tie_2x2.edges
    assert r1.held == frozenset()
    assert r1.forbidden == tie_2x2.edges
    assert r2.proposed == frozenset()
    assert r2.held == frozenset()


def test_closure_with_everything_deleted_stops_at_once(strict_2x2):
    forbidden, trace = closure(strict_2x2, as_hospitals(["h1", "h2"]))
    assert forbidden == strict_2x2.edges
    assert trace.initial_forbidden == strict_2x2.edges
    assert trace.iterations == 1
    assert trace.rounds[0].proposed == frozenset()


def test_closure_one_pair(one_pair):
    forbidden, trace = closure(one_pair)
    assert forbidden == frozenset()
    assert trace.iterations == 1
    assert trace.rounds[0].proposed == edges(("d1", "h1"))
    assert trace.rounds[0].held == edges(("d1", "h1"))


def test_closure_rejects_bad_deletions(strict_2x2):
    with pytest.raises(ValueError, match="hospitals only"):
        closure(strict_2x2, {doctor("d1")})
    with pytest.raises(ValueError, match="unknown hospital 'h9'"):
        closure(strict_2x2, {hospital("h9")})


def test_deletion_errors_name_the_member_whose_message_sorts_first(strict_2x2):
    bad = {hospital("zz"), hospital("h9"), hospital("h8"), hospital("h1")}
    with pytest.raises(ValueError, match="^unknown hospital 'h8'$"):
        closure(strict_2x2, bad)
    with pytest.raises(ValueError, match="^closure deletes hospitals only, got \\('D', 'd1'\\)$"):
        closure(strict_2x2, bad | {doctor("d1"), Vertex("X", "h1")})
    with pytest.raises(ValueError, match="^unknown doctor 'd9'$"):
        exists_super_stable(strict_2x2, bad | {doctor("d9"), doctor("d1")})
    # "unknown hospital" sorts before "unknown vertex"; a plain pair is a vertex.
    with pytest.raises(ValueError, match="^unknown hospital 'h8'$"):
        exists_super_stable(strict_2x2, bad | {"h0"})
    with pytest.raises(ValueError, match="^unknown doctor 'd0'$"):
        exists_super_stable(strict_2x2, bad | {("D", "d0"), "h0"})
    with pytest.raises(ValueError, match="^unknown hospital 'h0'$"):
        closure(strict_2x2, bad | {("H", "h0")})


def test_rescans_take_edges_of_the_instance_only():
    inst = parse_instance("doctors: d1\nhospitals: h1 h2\npref d1: h1\npref h1: d1\npref h2:\n")
    cert = solve_min_hospital_deletion(inst)
    assert critical_hospitals(inst, cert.forbidden, cert.matching) == frozenset()
    assert critical_hospitals(inst, cert.forbidden, ()) == {hospital("h1")}
    # A pair that is no edge neither wants its hospital nor fills one.
    with pytest.raises(ValueError, match=r"^forbidden edge \('nobody', 'h2'\) is not an edge of the instance$"):
        critical_hospitals(inst, {*cert.forbidden, ("nobody", "h2")}, cert.matching)
    with pytest.raises(ValueError, match=r"^matching edge \('nobody', 'h1'\) is not an edge of the instance$"):
        critical_hospitals(inst, cert.forbidden, [("nobody", "h1")])
    with pytest.raises(ValueError, match=r"^forbidden edge \('nobody', 'h1'\) is not an edge of the instance$"):
        extract_matching(inst, [("nobody", "h1")])


def test_rescans_check_each_given_edge_once(monkeypatch):
    # Each member that a caller passes is checked once; the pool a rescan
    # builds from `inst.edges` is not checked again.
    from superstab import _objects

    check, seen = _objects._edges_given, []

    def counting(inst, members, *what):
        members = list(members)
        seen.append(len(members))
        return check(inst, members, *what)

    monkeypatch.setattr(_objects, "_edges_given", counting)
    inst = generate_instance(12, 12, 0.4, 0.6, seed="check-once")
    forbidden, _ = closure(inst)
    assert forbidden and inst.edges - forbidden
    matching = extract_matching(inst, forbidden)
    assert seen == [len(forbidden)]
    critical_hospitals(inst, forbidden, matching)
    assert seen == [len(forbidden), len(forbidden), len(matching)]
    all_doctor_choices(inst, inst.edges - forbidden)
    assert seen[3:] == [len(inst.edges - forbidden)]


def test_empty_trace_result_falls_back_to_the_seed():
    trace = ClosureTrace(edges(("d1", "h1")), log=[])
    assert trace.iterations == 0
    assert trace.result == edges(("d1", "h1"))


def test_closure_mechanics_on_fixtures(strict_2x2, tie_2x2, one_pair):
    for inst in (strict_2x2, tie_2x2, one_pair):
        for names in hospital_subsets(inst):
            deleted = as_hospitals(names)
            forbidden, trace = closure(inst, deleted)
            assert closure_trace_violations(inst, deleted, forbidden, trace) == []


def test_closure_mechanics_on_samples():
    for inst in sample_instances(25, seed="closure-mech"):
        for names in hospital_subsets(inst):
            deleted = as_hospitals(names)
            forbidden, trace = closure(inst, deleted)
            assert closure_trace_violations(inst, deleted, forbidden, trace) == []


def partly_forbidden_groups(inst, trace) -> int:
    """Rounds x doctors where a doctor proposes along a tie group that
    already lost an edge to a hospital's rejection."""
    hits = 0
    for prev, cur in zip(trace.rounds, trace.rounds[1:]):
        lost = prev.forbidden - trace.initial_forbidden
        for e in cur.proposed:
            d = doctor(e.doctor)
            rank = inst.rank[d][e]
            hits += any(f.doctor == e.doctor and inst.rank[d][f] == rank for f in lost)
    return hits


def test_closure_mechanics_on_larger_samples():
    rng = random.Random("closure-large")
    partly = 0
    for i in range(40):
        n, m = rng.randint(4, 12), rng.randint(4, 12)
        inst = generate_instance(n, m, rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.9), seed=f"large-{i}")
        deleted = as_hospitals(h for h in inst.hospitals if rng.random() < 0.2)
        forbidden, trace = closure(inst, deleted)
        assert closure_trace_violations(inst, deleted, forbidden, trace) == []
        partly += partly_forbidden_groups(inst, trace)
    # The sample must reach tie groups that rejections have only thinned.
    assert partly > 0


def test_closure_on_a_master_list_takes_one_round_per_doctor():
    n = 120
    inst = master_list_instance(n)
    doctors, hospitals = inst.doctors, inst.hospitals
    cert = solve_min_hospital_deletion(inst)
    assert cert.trace.iterations == n
    assert cert.matching == edges(*((doctors[n - 1 - i], hospitals[i]) for i in range(n)))
    assert cert.critical == frozenset()
    assert closure_trace_violations(inst, set(), cert.forbidden, cert.trace) == []


def log_samples(twins: bool = True):
    """Seeded random instances up to 8x8 with tie 0, 0.3, 0.7 and 1,
    master-list instances and small coverage reductions; then, unless
    `twins` is false, the `Instance(...)` twins of `twin_pairs()`."""
    rng = random.Random("closure-log")
    for i in range(160):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        tie = (0.0, 0.3, 0.7, 1.0)[i % 4]
        yield generate_instance(n, m, rng.uniform(0.3, 1.0), tie, seed=f"log-{i}")
    for n in (1, 2, 7, 30):
        yield master_list_instance(n, seed=f"log-{n}")
    for i in range(24):
        ground = tuple(f"e{j}" for j in range(1, rng.randint(2, 5) + 1))
        fams = tuple(
            frozenset(rng.sample(ground, rng.randint(1, len(ground))))
            for _ in range(rng.randint(2, 5))
        )
        yield reduce_min_coverage(CoverageInstance(ground, fams, 1, 0)).instance
    if twins:
        yield from (twin for _, twin in twin_pairs())


def twin_pairs():
    """One in six of the other `log_samples()`, each with its twin built by
    `Instance(...)` from its rank tables in a shuffled order."""
    rng = random.Random("closure-log-twins")
    for inst in islice(log_samples(twins=False), 0, None, 6):
        yield inst, shuffled_tables_twin(inst, rng)


def test_twins_from_shuffled_tables_answer_as_their_originals():
    """The twin's certificate, closure rounds, two-side witnesses and text
    are those of the original, though its tied edges may sit in another
    order in the core."""
    rng = random.Random("closure-log-twins-deletions")
    reordered = 0
    for inst, twin in twin_pairs():
        assert twin == inst
        assert serialize_instance(twin) == serialize_instance(inst)
        assert solve_min_hospital_deletion(twin) == solve_min_hospital_deletion(inst)
        deleted = as_hospitals(h for h in inst.hospitals if rng.random() < 0.3)
        assert closure(twin, deleted)[1].rounds == closure(inst, deleted)[1].rounds
        for q2 in range(3):
            assert solve_two_side_deletion(twin, 2, q2) == solve_two_side_deletion(inst, 2, q2)
        reordered += twin._eh != inst._eh or twin._by_h != inst._by_h
    assert reordered >= 10, reordered


def test_trace_equality_reads_the_log_not_the_rounds(monkeypatch):
    """Traces are equal exactly when their initial sets and rounds are, and
    so are certificates when their fields are; deciding it builds no round."""
    rng = random.Random("trace-equality")
    certificates, traces = [], []
    for inst, twin in twin_pairs():
        deleted = as_hospitals(h for h in inst.hospitals if rng.random() < 0.3)
        certificates += [solve_min_hospital_deletion(inst), solve_min_hospital_deletion(twin)]
        traces += [closure(inst)[1], closure(twin, deleted)[1], closure(inst, deleted)[1]]
    traces += [cert.trace for cert in certificates]
    old = {id(t): (t.initial_forbidden, t.rounds) for t in traces}

    def refuse(trace):
        raise AssertionError("ClosureTrace.rounds read")

    monkeypatch.setattr(ClosureTrace, "rounds", property(refuse))
    seen = {True: 0, False: 0}  # pairs of distinct traces, by their equality
    for i, a in enumerate(traces):
        assert a == a
        for b in traces[i + 1 : i + 8]:
            assert (a == b) == (old[id(a)] == old[id(b)])
            seen[a == b] += 1
    fields = lambda cert: (cert.forbidden, cert.matching, cert.critical, old[id(cert.trace)])
    for a, b in zip(certificates, certificates[1:]):
        assert (a == b) == (fields(a) == fields(b))
    assert min(seen.values()) > 50, seen
    # Against another type a trace defers, as a certificate and an instance do.
    cert = certificates[0]
    assert cert == mock.ANY and cert.trace == mock.ANY and inst == mock.ANY
    assert cert.trace != cert.forbidden and (cert.trace == cert.forbidden) is False


def test_solver_reads_from_the_log_what_the_rescans_and_the_eager_rounds_give():
    rng = random.Random("closure-log-deletions")
    for inst in log_samples():
        cert = solve_min_hospital_deletion(inst)
        trace = cert.trace
        assert "rounds" not in trace.__dict__
        assert cert.matching == extract_matching(inst, cert.forbidden)
        assert cert.critical == critical_hospitals(inst, cert.forbidden, cert.matching)
        choices = all_doctor_choices(inst, inst.edges - cert.forbidden)
        first = {}
        for e in sorted(choices):
            first.setdefault(e.doctor, e)
        assert cert.matching == frozenset(first.values())
        assert trace.result == cert.forbidden
        assert trace.rounds == reference_rounds(trace.initial_forbidden, edge_log(inst, trace._log))
        assert trace.iterations == len(trace.rounds)

        deleted = as_hospitals(h for h in inst.hospitals if rng.random() < 0.3)
        forbidden, trace = closure(inst, deleted)
        assert forbidden == trace.result
        assert trace.rounds == reference_rounds(trace.initial_forbidden, edge_log(inst, trace._log))
        assert trace.iterations == len(trace.rounds)


def rounds_from_changes(trace: ClosureTrace) -> tuple[ClosureRound, ...]:
    """Every round's sets, rebuilt from `changes()` alone as a streaming
    reader keeps them: the held set carried over plus the new proposals,
    then minus the new losses, which join the forbidden set."""
    held, forbidden = set(), set(trace.initial_forbidden)
    out = []
    for index, new, lost in trace.changes():
        assert not set(new) & (held | forbidden), "an edge is proposed twice"
        held.update(new)
        proposed = frozenset(held)
        assert set(lost) <= proposed, "a forbidden edge was never proposed"
        held.difference_update(lost)
        forbidden.update(lost)
        out.append(ClosureRound(index, proposed, frozenset(held), frozenset(forbidden)))
    return tuple(out)


def assert_changes_rebuild_the_rounds(inst, deleted):
    forbidden, trace = closure(inst, deleted)
    rebuilt = rounds_from_changes(trace)
    assert "rounds" not in trace.__dict__
    assert rebuilt == trace.rounds == reference_rounds(trace.initial_forbidden, edge_log(inst, trace._log))
    assert rebuilt[-1].forbidden == forbidden
    # Each walk hands out lists of its own.
    for _, new, lost in trace.changes():
        new.clear()
        lost.clear()
    assert rounds_from_changes(trace) == rebuilt


def test_changes_rebuild_exactly_the_rounds():
    rng = random.Random("closure-changes")
    for inst in log_samples():
        assert_changes_rebuild_the_rounds(inst, frozenset())
        assert_changes_rebuild_the_rounds(
            inst, as_hospitals(h for h in inst.hospitals if rng.random() < 0.3)
        )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_changes_rebuild_exactly_the_rounds_property(data):
    inst = data.draw(instances(max_doctors=5, max_hospitals=5))
    mask = data.draw(st.lists(st.booleans(), min_size=len(inst.hospitals), max_size=len(inst.hospitals)))
    assert_changes_rebuild_the_rounds(
        inst, as_hospitals(h for h, drop in zip(inst.hospitals, mask) if drop)
    )


def assert_loop_matches_the_edge_keyed_reference(inst, gone, skips):
    """The loop on edge ids gives, for the hospitals named in `gone` and
    each doctor set in `skips`, the Edge-keyed reference's log (mapped to
    edges, in order), critical count and outcome; and `closure` yields the
    reference log's rounds from `changes()`."""
    reference = reference_tie_groups(inst, gone)
    for skip in skips:
        log, count = _fixed_point(inst, skip, gone)
        expect_log, expect_count = reference_fixed_point(reference, skip)
        assert edge_log(inst, log) == [([e for e, _ in new], lost) for new, lost in expect_log]
        assert count == expect_count, (inst, gone, skip)
        assert _outcome(inst, log) == reference_outcome(expect_log)
    _, trace = closure(inst, as_hospitals(gone))
    expect_log, _ = reference_fixed_point(reference)
    assert list(trace.changes()) == [
        (index, [e for e, _ in new], lost) for index, (new, lost) in enumerate(expect_log, 1)
    ]


def test_loop_on_edge_ids_matches_the_edge_keyed_reference():
    rng = random.Random("edge-keyed-loop")
    runs = 0
    for inst in log_samples():
        names = sorted(inst.doctors)
        if len(names) <= 5:
            skips = list(chain.from_iterable(combinations(names, k) for k in range(len(names) + 1)))
        else:
            skips = [()] + [tuple(d for d in names if rng.random() < 0.4) for _ in range(12)]
        for gone in ((), tuple(h for h in inst.hospitals if rng.random() < 0.3)):
            assert_loop_matches_the_edge_keyed_reference(inst, gone, skips)
            runs += len(skips)
    assert runs > 3000


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_loop_on_edge_ids_matches_the_edge_keyed_reference_property(data):
    inst = data.draw(instances(max_doctors=5, max_hospitals=5))
    gone = data.draw(st.lists(st.sampled_from(inst.hospitals), unique=True)) if inst.hospitals else []
    skip = data.draw(st.lists(st.sampled_from(inst.doctors), unique=True)) if inst.doctors else []
    assert_loop_matches_the_edge_keyed_reference(inst, tuple(gone), [(), tuple(skip)])


def assert_the_loop_ends_are_the_optimal_super_stable_matchings(inst):
    """The closure's matching is the doctor-optimal super-stable matching
    and the transpose's, flipped back, the hospital-optimal one: no doctor
    (hospital) prefers its partner in any other super-stable matching
    that `enumerate_super_stable` finds.  Returns whether one exists."""
    stable = enumerate_super_stable(inst, max_edges=16)
    cert = solve_min_hospital_deletion(inst)
    assert bool(stable) == (not cert.critical)
    if not stable:
        return False
    flipped = solve_min_hospital_deletion(transpose_instance(inst)).matching
    ends = {
        "doctor": (cert.matching, inst.doctor_rank, 0),
        "hospital": (frozenset(Edge(e.hospital, e.doctor) for e in flipped), inst.hospital_rank, 1),
    }
    for side, (end, rank, at) in ends.items():
        assert end in stable, side
        best = {e[at]: rank[e] for e in end}
        for matching in stable:
            for e in matching:
                assert best.get(e[at], len(inst.edges) + 1) <= rank[e], (side, inst, matching)
    return True


def test_the_loop_ends_are_the_optimal_super_stable_matchings():
    rng = random.Random("optimal-ends")
    solvable = 0
    for i in range(600):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        inst = generate_instance(n, m, rng.uniform(0.4, 1.0), (0.0, 0.3, 0.6)[i % 3], seed=f"ends-{i}")
        solvable += assert_the_loop_ends_are_the_optimal_super_stable_matchings(inst)
    assert solvable > 200


@given(instances(max_doctors=4, max_hospitals=4))
@settings(max_examples=150, deadline=None)
def test_the_loop_ends_are_the_optimal_super_stable_matchings_property(inst):
    assert_the_loop_ends_are_the_optimal_super_stable_matchings(inst)


def unique_exactly_when_the_loop_ends_coincide(inst):
    """Whether `inst`'s super-stable matching is unique, or None when it
    has none, after asserting that it is unique exactly when the closure's
    matching equals the transpose's mapped back; checked against
    `enumerate_super_stable`."""
    stable = enumerate_super_stable(inst, max_edges=16)
    if not stable:
        return None
    doctor_end = solve_min_hospital_deletion(inst).matching
    flipped = solve_min_hospital_deletion(transpose_instance(inst)).matching
    hospital_end = frozenset(Edge(e.hospital, e.doctor) for e in flipped)
    assert (len(stable) == 1) == (doctor_end == hospital_end), (inst, stable)
    return len(stable) == 1


def test_super_stable_matching_is_unique_exactly_when_the_loop_ends_coincide():
    # Ties make a second super-stable matching rare, so most lists are strict.
    rng = random.Random("unique-ends")
    seen = []
    for i in range(600):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        inst = generate_instance(n, m, rng.uniform(0.6, 1.0), (0.0, 0.0, 0.2)[i % 3], seed=f"unique-{i}")
        seen.append(unique_exactly_when_the_loop_ends_coincide(inst))
    assert seen.count(True) > 400 and seen.count(False) >= 30, (seen.count(True), seen.count(False))


@given(instances(max_doctors=4, max_hospitals=4))
@settings(max_examples=150, deadline=None)
def test_super_stable_matching_is_unique_exactly_when_the_loop_ends_coincide_property(inst):
    unique_exactly_when_the_loop_ends_coincide(inst)


def test_solver_memory_grows_with_the_edges_not_the_rounds():
    peaks = []
    for n in (80, 160):
        inst = master_list_instance(n, seed="memory")
        tracemalloc.start()
        try:
            solve_min_hospital_deletion(inst)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # Doubling n takes 4x the edges and 2x the rounds, so keeping every
    # round's sets would take about 8x the memory; the log takes about 4x.
    assert peaks[1] <= 5 * peaks[0], peaks


@given(st.data())
@settings(max_examples=60)
def test_closure_mechanics_property(data):
    inst = data.draw(instances())
    mask = data.draw(st.lists(st.booleans(), min_size=len(inst.hospitals), max_size=len(inst.hospitals)))
    deleted = as_hospitals(h for h, drop in zip(inst.hospitals, mask) if drop)
    forbidden, trace = closure(inst, deleted)
    assert closure_trace_violations(inst, deleted, forbidden, trace) == []


def test_forbidden_edges_avoid_every_super_stable_matching():
    for inst in sample_instances(25, seed="closure-disjoint"):
        for names in hospital_subsets(inst):
            deleted = as_hospitals(names)
            forbidden, _ = closure(inst, deleted)
            for matching in enumerate_super_stable(inst, deleted, max_edges=None):
                assert not (matching & forbidden)


def test_forbidden_seeded_closure_contains_the_unseeded_one():
    grew, shrank = 0, 0
    for inst in sample_instances(25, seed="closure-seeded"):
        base, _ = closure(inst)
        for names in hospital_subsets(inst):
            forbidden, _ = closure(inst, as_hospitals(names))
            assert base <= forbidden
            if names:
                subsets = [
                    closure(inst, as_hospitals(sub))[0]
                    for sub in combinations(names, len(names) - 1)
                ]
                grew += sum(1 for s in subsets if s <= forbidden)
                shrank += sum(1 for s in subsets if not (s <= forbidden))
    # One-step monotonicity holds on every sample seen so far, but only the
    # empty-seed containment is guaranteed, so the rest is just logged.
    log.info("one-step containment held %d times, failed %d times", grew, shrank)


def test_extract_matching_examples(strict_2x2, tie_2x2, one_pair):
    assert extract_matching(strict_2x2, edges(("d2", "h1"))) == edges(("d1", "h1"), ("d2", "h2"))
    assert extract_matching(tie_2x2, tie_2x2.edges) == frozenset()
    assert extract_matching(one_pair, frozenset()) == edges(("d1", "h1"))


def test_extract_matching_rejects_unfinished_forbidden_sets(strict_2x2):
    with pytest.raises(ValueError, match="'h1' is chosen by several doctors"):
        extract_matching(strict_2x2, frozenset())


def test_extract_matching_breaks_ties_toward_smaller_hospital_names():
    inst = parse_instance(
        "doctors: d1\nhospitals: h1 h2\npref d1: (h2 h1)\npref h1: d1\npref h2: d1\n"
    )
    forbidden, _ = closure(inst)
    assert forbidden == frozenset()
    assert extract_matching(inst, forbidden) == edges(("d1", "h1"))


def test_critical_hospitals_examples(strict_2x2, tie_2x2, one_pair):
    assert critical_hospitals(strict_2x2, edges(("d2", "h1")), edges(("d1", "h1"), ("d2", "h2"))) == frozenset()
    assert critical_hospitals(tie_2x2, tie_2x2.edges, frozenset()) == as_hospitals(["h1", "h2"])
    assert critical_hospitals(one_pair, frozenset(), edges(("d1", "h1"))) == frozenset()


def test_unwanted_hospitals_are_never_critical():
    inst = parse_instance(
        "doctors: d1\nhospitals: h1 h2\npref d1: h1\npref h1: d1\npref h2:\n"
    )
    forbidden, _ = closure(inst)
    matching = extract_matching(inst, forbidden)
    assert matching == edges(("d1", "h1"))
    assert critical_hospitals(inst, forbidden, matching) == frozenset()


def test_every_tie_breaking_choice_leaves_the_same_deletion_count():
    for inst in sample_instances(20, seed="extract-choices"):
        cert = solve_min_hospital_deletion(inst)
        pool = inst.edges - cert.forbidden
        per_doctor: dict[str, list[Edge]] = {}
        for e in sorted(pool):
            d = doctor(e.doctor)
            best = min(r for f, r in inst.rank[d].items() if f in pool)
            if inst.rank[d][e] == best:
                per_doctor.setdefault(e.doctor, []).append(e)
        variants = 1
        for options in per_doctor.values():
            variants *= len(options)
        if variants > 64:
            continue
        for picks in product(*per_doctor.values()) if per_doctor else [()]:
            alt = frozenset(picks)
            crit = critical_hospitals(inst, cert.forbidden, alt)
            assert len(crit) == len(cert.critical)


def test_solver_examples(strict_2x2, tie_2x2):
    cert = solve_min_hospital_deletion(strict_2x2)
    assert cert.critical == frozenset()
    assert cert.matching == edges(("d1", "h1"), ("d2", "h2"))
    assert cert.forbidden == edges(("d2", "h1"))

    cert = solve_min_hospital_deletion(tie_2x2)
    assert cert.critical == as_hospitals(["h1", "h2"])
    assert cert.matching == frozenset()
    assert cert.forbidden == tie_2x2.edges


def test_solver_minimum_matches_the_oracle_on_samples():
    for inst in sample_instances(30, seed="solve-oracle"):
        cert = solve_min_hospital_deletion(inst)
        size, _ = oracle_min_hospital_deletion(inst)
        assert len(cert.critical) == size


@given(instances())
@settings(max_examples=60)
def test_solver_minimum_matches_the_oracle_property(inst):
    cert = solve_min_hospital_deletion(inst)
    size, _ = oracle_min_hospital_deletion(inst)
    assert len(cert.critical) == size


def test_solver_matching_is_super_stable_after_the_deletions():
    for inst in sample_instances(30, seed="solve-residual"):
        cert = solve_min_hospital_deletion(inst)
        assert is_super_stable(inst, cert.critical, cert.matching)
        assert naive_is_super_stable(inst, cert.critical, cert.matching)
        sub = induced_instance(inst, cert.critical)
        assert is_super_stable(sub, set(), cert.matching)


def test_solver_matchings_are_super_stable_past_the_oracle_caps():
    """Far above what the oracles can enumerate, the naive checker, which
    shares no code with the solver, still judges its matchings."""
    for inst in [
        generate_instance(400, 400, 0.025, 0.8, seed="large-0"),
        generate_instance(400, 400, 0.025, 0.8, seed="large-1"),
        master_list_instance(200),
    ]:
        cert = solve_min_hospital_deletion(inst)
        assert naive_is_super_stable(inst, cert.critical, cert.matching)
    inst = generate_instance(20, 20, 0.3, 0.6, seed="0")
    for q1, q2 in [(8, 1), (7, 2)]:
        witness = solve_two_side_deletion(inst, q1, q2)
        assert witness is not None, (q1, q2)
        matching = exists_super_stable(inst, witness)
        assert matching is not None and naive_is_super_stable(inst, witness, matching)


def test_exists_examples(strict_2x2, tie_2x2, one_pair):
    assert exists_super_stable(strict_2x2) == edges(("d1", "h1"), ("d2", "h2"))
    assert exists_super_stable(tie_2x2) is None
    assert exists_super_stable(one_pair) == edges(("d1", "h1"))


def test_exists_returns_the_empty_matching_not_none(tie_2x2):
    got = exists_super_stable(tie_2x2, as_hospitals(["h1", "h2"]))
    assert got == frozenset()
    assert got is not None
    got = exists_super_stable(tie_2x2, {doctor("d1"), doctor("d2")})
    assert got == frozenset()


def test_exists_accepts_mixed_side_deletions(tie_2x2):
    got = exists_super_stable(tie_2x2, {doctor("d1"), hospital("h2")})
    assert got == edges(("d2", "h1"))
    assert is_super_stable(tie_2x2, {doctor("d1"), hospital("h2")}, got)


def test_exists_agrees_with_enumeration_under_deletions():
    for inst in sample_instances(20, seed="exists-oracle"):
        removals = [frozenset()]
        if inst.hospitals:
            removals.append(frozenset({hospital(inst.hospitals[0])}))
        if inst.doctors:
            removals.append(frozenset({doctor(inst.doctors[0])}))
        if inst.doctors and inst.hospitals:
            removals.append(frozenset({doctor(inst.doctors[-1]), hospital(inst.hospitals[-1])}))
        for removed in removals:
            got = exists_super_stable(inst, removed)
            found = enumerate_super_stable(inst, removed, max_edges=None)
            assert (got is not None) == bool(found)
            if got is not None:
                assert got in found


def assert_one_run_equals_the_induced_instance(inst, removed):
    """`exists_super_stable` equals the solve on the induced instance, and a
    closure with hospitals deleted forbids, beyond their edges, what the
    closure of the instance without them forbids, in as many rounds."""
    assert exists_super_stable(inst, removed) == reference_exists_super_stable(inst, removed)
    gone = frozenset(v for v in removed if v.side == HOSPITAL)
    forbidden, trace = closure(inst, gone)
    sub_forbidden, sub_trace = closure(induced_instance(inst, gone))
    assert forbidden - trace.initial_forbidden == sub_forbidden
    assert trace.iterations == sub_trace.iterations


def test_exists_equals_the_induced_instance_solve_on_mixed_deletions():
    rng = random.Random("exists-induced")
    cases = solvable = 0
    for i in range(3000):
        n, m = rng.randint(0, 9), rng.randint(0, 9)
        tie = (0.0, 0.3, 0.7, 1.0)[i % 4]
        inst = generate_instance(n, m, rng.uniform(0.2, 1.0), tie, seed=f"exists-{i}")
        p = rng.choice((0.0, 0.15, 0.4))
        removed = frozenset(v for v in inst.vertices() if rng.random() < p)
        assert_one_run_equals_the_induced_instance(inst, removed)
        cases += 1
        solvable += exists_super_stable(inst, removed) is not None
    assert cases == 3000
    assert 300 < solvable < 2700


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_exists_equals_the_induced_instance_solve_property(data):
    inst = data.draw(instances(max_doctors=5, max_hospitals=5))
    vertices = list(inst.vertices())
    mask = data.draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
    assert_one_run_equals_the_induced_instance(
        inst, frozenset(v for v, drop in zip(vertices, mask) if drop)
    )


@given(instances(max_doctors=6, max_hospitals=6), instances(max_doctors=6, max_hospitals=6))
@settings(max_examples=150, deadline=None)
def test_critical_set_of_a_disjoint_union_is_the_union_of_critical_sets(a, b):
    union = disjoint_union({"a": a, "b": b})
    expect = {
        hospital(tag + v.name)
        for tag, inst in (("a", a), ("b", b))
        for v in solve_min_hospital_deletion(inst).critical
    }
    assert solve_min_hospital_deletion(union).critical == expect


def forbidden_without(inst, skip=(), gone=()):
    """The edges the loop forbids on `inst` without the doctors `skip` and
    the hospitals `gone`, and the critical count."""
    log, count = _fixed_point(inst, skip, gone)
    return {inst._edge[e] for _, lost in log for e in lost}, count


@given(instances(max_doctors=6, max_hospitals=6), st.data())
@settings(max_examples=200, deadline=None)
def test_skipping_more_doctors_forbids_a_subset_property(inst, data):
    """F(G - D'') is a subset of F(G - D') when D' is a subset of D'':
    the lemma that lets the two-side walk resume the loop."""
    more = data.draw(st.sets(st.sampled_from(inst.doctors)) if inst.doctors else st.just(set()))
    fewer = data.draw(st.sets(st.sampled_from(sorted(more))) if more else st.just(set()))
    gone = data.draw(st.sets(st.sampled_from(inst.hospitals)) if inst.hospitals else st.just(set()))
    assert forbidden_without(inst, more, gone)[0] <= forbidden_without(inst, fewer, gone)[0]


@given(instances(max_doctors=6, max_hospitals=6), st.data())
@settings(max_examples=200, deadline=None)
def test_declaration_order_does_not_change_the_answers_property(inst, data):
    """Declaring the doctors and the hospitals in another order renumbers
    the core, and so changes the order in which arrivals reach the loop;
    the forbidden set, the critical set and the count stay the same."""
    twin = Instance(
        tuple(data.draw(st.permutations(inst.doctors), label="doctors")),
        tuple(data.draw(st.permutations(inst.hospitals), label="hospitals")),
        inst.edges,
        inst.rank,
    )
    assert closure(twin)[0] == closure(inst)[0]
    assert solve_min_hospital_deletion(twin).critical == solve_min_hospital_deletion(inst).critical
    skip = data.draw(st.sets(st.sampled_from(inst.doctors)) if inst.doctors else st.just(set()))
    gone = data.draw(st.sets(st.sampled_from(inst.hospitals)) if inst.hospitals else st.just(set()))
    assert forbidden_without(twin, skip, gone) == forbidden_without(inst, skip, gone)
    assert closure(twin, as_hospitals(gone))[0] == closure(inst, as_hospitals(gone))[0]


def test_deeper_rounds_example():
    text = (
        "doctors: d1 d2 d3\n"
        "hospitals: h1 h2 h3\n"
        "pref d1: h1 h2 h3\n"
        "pref d2: h1 h2\n"
        "pref d3: h2 h3\n"
        "pref h1: d2 d1\n"
        "pref h2: d3 (d1 d2)\n"
        "pref h3: d1 d3\n"
    )
    inst = parse_instance(text)
    forbidden, trace = closure(inst)
    assert closure_trace_violations(inst, set(), forbidden, trace) == []
    cert = solve_min_hospital_deletion(inst)
    size, _ = oracle_min_hospital_deletion(inst)
    assert len(cert.critical) == size
    assert is_super_stable(inst, cert.critical, cert.matching)
