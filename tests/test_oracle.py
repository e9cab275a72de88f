from __future__ import annotations

import gc
import random
import time
import weakref
from itertools import combinations, compress, count, islice, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    instances,
    naive_is_super_stable,
    one_hospital_tie_text,
    reference_least_blocking,
    reference_min_hospital_deletion,
    reference_two_side_oracle,
    sample_instances,
    verify_enumeration,
)
from superstab.cli import generate_instance
from superstab.hardness import solve_two_side_deletion
from superstab.model import (
    Edge,
    Instance,
    doctor,
    hospital,
    induced_edges,
    induced_instance,
    is_super_stable,
    make_instance,
    ordered_edges,
    parse_instance,
    transpose_instance,
)
from superstab.oracle import (
    CapExceeded,
    _least_blocking,
    all_matchings,
    count_matchings,
    enumerate_super_stable,
    oracle_min_hospital_deletion,
    oracle_two_side_deletion,
)
from superstab.superstable import closure, exists_super_stable, solve_min_hospital_deletion


def edges(*pairs):
    return frozenset(Edge(d, h) for d, h in pairs)


def test_matching_counts(strict_2x2, one_pair):
    assert count_matchings(strict_2x2) == 7
    assert count_matchings(one_pair) == 2
    assert count_matchings(parse_instance("doctors:\nhospitals:\n")) == 1


def test_matching_count_under_deletions(strict_2x2):
    assert count_matchings(strict_2x2, {hospital("h1")}) == 3
    assert count_matchings(strict_2x2, {hospital("h1"), hospital("h2")}) == 1
    assert count_matchings(strict_2x2, {doctor("d1")}) == 3


def test_matching_count_reads_a_one_pass_deletion_iterable_once(strict_2x2):
    assert count_matchings(strict_2x2, iter([hospital("h1")])) == 3


def test_all_matchings_are_distinct_and_valid(strict_2x2):
    seen = list(all_matchings(strict_2x2))
    assert len(seen) == len(set(seen)) == 7
    for m in seen:
        assert len({e.doctor for e in m}) == len(m)
        assert len({e.hospital for e in m}) == len(m)


def test_all_matchings_is_deterministic(tie_2x2):
    assert list(all_matchings(tie_2x2)) == list(all_matchings(tie_2x2))


def test_walk_yields_the_matching_subsets_in_product_order():
    """The walk leaves each edge out before it takes it, so it must yield
    the subsets of the ordered edges that are matchings, in the order of
    `product((False, True), repeat=n)`, and nothing else."""
    cases = 0
    for inst in sample_instances(60, max_side=4):
        if len(inst.edges) > 12:
            continue
        deletions = [frozenset()]
        if inst.doctors:
            deletions.append(frozenset({doctor(inst.doctors[0])}))
        if inst.hospitals:
            deletions.append(frozenset({hospital(inst.hospitals[-1])}))
        for deleted in deletions:
            pool = ordered_edges(induced_edges(inst, deleted))
            want = []
            for picks in product((False, True), repeat=len(pool)):
                subset = list(compress(pool, picks))
                if len({e.doctor for e in subset}) == len({e.hospital for e in subset}) == len(subset):
                    want.append(frozenset(subset))
            assert list(all_matchings(inst, deleted)) == want, (inst, deleted)
            assert count_matchings(inst, deleted, max_edges=None) == len(want)
            cases += 1
    assert cases >= 100, cases


def test_enumerate_frozen_values(strict_2x2, tie_2x2, one_pair):
    assert enumerate_super_stable(strict_2x2) == [edges(("d1", "h1"), ("d2", "h2"))]
    assert enumerate_super_stable(tie_2x2) == []
    assert enumerate_super_stable(one_pair) == [edges(("d1", "h1"))]


def test_enumeration_leaves_each_edge_out_before_taking_it():
    inst = parse_instance(
        "doctors: d1 d2\nhospitals: h1 h2\n"
        "pref d1: h1 h2\npref d2: h2 h1\npref h1: d2 d1\npref h2: d1 d2\n"
    )
    assert list(all_matchings(inst)) == [
        edges(),
        edges(("d2", "h2")),
        edges(("d2", "h1")),
        edges(("d1", "h2")),
        edges(("d1", "h2"), ("d2", "h1")),
        edges(("d1", "h1")),
        edges(("d1", "h1"), ("d2", "h2")),
    ]
    assert enumerate_super_stable(inst) == [
        edges(("d1", "h2"), ("d2", "h1")),
        edges(("d1", "h1"), ("d2", "h2")),
    ]


def test_enumerate_respects_deletions(tie_2x2):
    got = enumerate_super_stable(tie_2x2, {doctor("d1"), hospital("h2")})
    assert got == [edges(("d2", "h1"))]


def test_enumeration_members_pass_the_naive_checker():
    for inst in sample_instances(20, seed="oracle-members"):
        for m in enumerate_super_stable(inst, max_edges=None):
            assert naive_is_super_stable(inst, set(), m)


def test_enumeration_equals_filtering_every_matching():
    for inst in sample_instances(25, seed="oracle-fused"):
        assert verify_enumeration(inst)
        if inst.hospitals:
            assert verify_enumeration(inst, {hospital(inst.hospitals[0])})
        if inst.doctors and inst.hospitals:
            assert verify_enumeration(inst, {doctor(inst.doctors[-1]), hospital(inst.hospitals[-1])})


@given(instances())
@settings(max_examples=50)
def test_enumeration_equals_filtering_every_matching_property(inst):
    assert verify_enumeration(inst)


def test_pruned_existence_equals_plain_filtering():
    for inst in sample_instances(40, max_side=4, seed="oracle-any"):
        removals = [frozenset()]
        if inst.hospitals:
            removals.append(frozenset({hospital(inst.hospitals[0])}))
        if inst.doctors:
            removals.append(frozenset({doctor(inst.doctors[0])}))
        for removed in removals:
            plain = any(
                is_super_stable(inst, removed, m) for m in all_matchings(inst, removed)
            )
            assert (oracle_min_hospital_deletion(induced_instance(inst, removed))[0] == 0) == plain


@given(instances())
@settings(max_examples=60)
def test_pruned_existence_equals_plain_filtering_property(inst):
    plain = any(is_super_stable(inst, set(), m) for m in all_matchings(inst))
    assert (oracle_min_hospital_deletion(inst)[0] == 0) == plain


def test_caps_raise_instead_of_truncating(strict_2x2):
    def cap_message(search, keyword):
        return f"{search} cap of \\d+; raise {keyword}, or set SUPERSTAB_ORACLE_CAP"

    with pytest.raises(CapExceeded, match=cap_message("enumeration", "max_edges")):
        count_matchings(strict_2x2, max_edges=3)
    with pytest.raises(CapExceeded, match=cap_message("enumeration", "max_edges")):
        enumerate_super_stable(strict_2x2, max_edges=3)
    with pytest.raises(CapExceeded, match=cap_message("subset-search", "max_hospitals")):
        oracle_min_hospital_deletion(strict_2x2, max_hospitals=1)
    with pytest.raises(CapExceeded, match=cap_message("subset-search", "max_vertices")):
        oracle_two_side_deletion(strict_2x2, 0, 0, max_vertices=3)
    assert enumerate_super_stable(strict_2x2, max_edges=None)


def test_min_deletion_examples(strict_2x2, tie_2x2, one_pair):
    assert oracle_min_hospital_deletion(strict_2x2) == (0, frozenset())
    assert oracle_min_hospital_deletion(tie_2x2) == (2, frozenset({hospital("h1"), hospital("h2")}))
    assert oracle_min_hospital_deletion(one_pair) == (0, frozenset())


def test_min_deletion_witness_is_the_lexicographically_first():
    inst = parse_instance(
        "doctors: d1\nhospitals: h1 h2\npref d1: (h1 h2)\npref h1: d1\npref h2: d1\n"
    )
    assert oracle_min_hospital_deletion(inst) == (1, frozenset({hospital("h1")}))


def test_min_deletion_equals_the_subset_reference():
    sample = sample_instances(300, max_side=6, seed="oracle-reference")
    answers = [
        (oracle_min_hospital_deletion(inst), reference_min_hospital_deletion(inst))
        for inst in sample
        if len(inst.edges) <= 16
    ]
    assert len(answers) > 250
    assert {size for (size, _), _ in answers} >= {0, 1, 2, 3, 4}
    for got, want in answers:
        assert got == want


@given(instances(max_doctors=4, max_hospitals=4))
@settings(max_examples=80)
def test_min_deletion_equals_the_subset_reference_property(inst):
    assert oracle_min_hospital_deletion(inst) == reference_min_hospital_deletion(inst)


def without_doctors(inst: Instance, gone) -> list[Edge]:
    """The oracle's pool for `inst` without the doctors in `gone`."""
    return [e for e in ordered_edges(inst.edges) if e.doctor not in gone]


def test_doctor_walk_equals_the_matching_scan():
    sizes = set()
    for inst in sample_instances(120, max_side=6, seed="least-blocking"):
        gone_sets = [()] + [c for k in (1, 2) for c in combinations(inst.doctors, k)]
        for gone in gone_sets:
            pool = without_doctors(inst, gone)
            got = _least_blocking(inst, pool)
            assert got == reference_least_blocking(inst, pool), (inst, gone)
            sizes.add(len(got))
    assert sizes >= {0, 1, 2, 3, 4}


@given(instances(max_doctors=6, max_hospitals=6), st.data())
@settings(max_examples=100, deadline=None)
def test_doctor_walk_equals_the_matching_scan_property(inst, data):
    gone = data.draw(st.sets(st.sampled_from(inst.doctors), max_size=2)) if inst.doctors else set()
    pool = without_doctors(inst, gone)
    assert _least_blocking(inst, pool) == reference_least_blocking(inst, pool)


def twelve_by_twelve(n_edges: int, seed: str) -> Instance:
    """12 doctors and 12 hospitals joined by `n_edges` random pairs; on
    every list, adjacent entries tie with probability 0.5."""
    rng = random.Random(seed)
    doctors = [f"d{i}" for i in range(1, 13)]
    hospitals = [f"h{j}" for j in range(1, 13)]
    pairs = rng.sample([(d, h) for d in doctors for h in hospitals], n_edges)

    def tie_up(partners: list[str]) -> list[list[str]]:
        rng.shuffle(partners)
        groups: list[list[str]] = []
        for name in partners:
            if groups and rng.random() < 0.5:
                groups[-1].append(name)
            else:
                groups.append([name])
        return groups

    return make_instance(
        doctors,
        hospitals,
        {d: tie_up([h for dd, h in pairs if dd == d]) for d in doctors},
        {h: tie_up([d for d, hh in pairs if hh == h]) for h in hospitals},
    )


def test_min_deletion_oracle_is_quick_on_twelve_by_twelve():
    # Walking every matching edge by edge took 30 s at 60 edges and 183 s
    # at 80 edges on instances like these.
    start = time.perf_counter()
    for n_edges in (60, 80, 100):
        cases = (twelve_by_twelve(n_edges, f"{n_edges}-{i}") for i in count())
        for inst in islice((c for c in cases if solve_min_hospital_deletion(c).critical), 3):
            size, witness = oracle_min_hospital_deletion(inst)
            assert size == len(solve_min_hospital_deletion(inst).critical) >= 1
            assert exists_super_stable(inst, witness) is not None
    assert time.perf_counter() - start < 5


def test_walks_do_not_recurse_once_per_edge():
    inst = parse_instance(one_hospital_tie_text(1200))
    assert count_matchings(inst, max_edges=None) == 1201
    assert enumerate_super_stable(inst, max_edges=None) == []
    assert oracle_min_hospital_deletion(inst) == (1, frozenset({hospital("h")}))


@given(instances())
@settings(max_examples=60)
def test_existence_is_symmetric_under_transpose(inst):
    flipped = transpose_instance(inst)
    assert (exists_super_stable(inst) is None) == (exists_super_stable(flipped) is None)
    flip = lambda m: frozenset(Edge(e.hospital, e.doctor) for e in m)
    assert {flip(m) for m in enumerate_super_stable(inst)} == set(enumerate_super_stable(flipped))


def test_min_deletion_witness_actually_works():
    for inst in sample_instances(25, seed="oracle-min"):
        size, removed = oracle_min_hospital_deletion(inst)
        assert len(removed) == size
        assert exists_super_stable(inst, removed) is not None
        for v in removed:
            assert v.name in inst.hospital_set


def test_two_side_examples(tie_2x2):
    assert oracle_two_side_deletion(tie_2x2, 0, 2) == frozenset(
        {hospital("h1"), hospital("h2")}
    )
    assert oracle_two_side_deletion(tie_2x2, 2, 0) == frozenset({doctor("d1"), doctor("d2")})
    assert oracle_two_side_deletion(tie_2x2, 0, 1) is None
    assert oracle_two_side_deletion(tie_2x2, 1, 0) is None
    assert oracle_two_side_deletion(tie_2x2, 1, 1) == frozenset({doctor("d1"), hospital("h1")})


def test_two_side_prefers_smaller_sets_then_fewer_doctors(strict_2x2):
    assert oracle_two_side_deletion(strict_2x2, 2, 2) == frozenset()


def test_two_side_rejects_negative_budgets(tie_2x2):
    with pytest.raises(ValueError, match="non-negative"):
        oracle_two_side_deletion(tie_2x2, -1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        oracle_two_side_deletion(tie_2x2, 0, -1)


def test_two_side_zero_budgets_mirror_existence():
    for inst in sample_instances(20, seed="oracle-zero"):
        witness = oracle_two_side_deletion(inst, 0, 0)
        has = exists_super_stable(inst) is not None
        assert (witness is not None) == has
        if witness is not None:
            assert witness == frozenset()


def test_two_side_answers_grow_with_the_budgets():
    for inst in sample_instances(15, seed="oracle-mono"):
        hits = {
            (q1, q2): oracle_two_side_deletion(inst, q1, q2) is not None
            for q1 in range(3)
            for q2 in range(3)
        }
        for (q1, q2), hit in hits.items():
            if hit:
                for r1 in range(q1, 3):
                    for r2 in range(q2, 3):
                        assert hits[(r1, r2)]


def test_two_side_witness_respects_budgets():
    for inst in sample_instances(15, seed="oracle-budget"):
        for q1 in range(3):
            for q2 in range(3):
                witness = oracle_two_side_deletion(inst, q1, q2)
                if witness is None:
                    continue
                assert sum(1 for v in witness if v.side == "D") <= q1
                assert sum(1 for v in witness if v.side == "H") <= q2
                assert exists_super_stable(inst, witness) is not None


def test_no_entry_keeps_an_instance_alive():
    # No process-global cache keeps an instance alive: each entry's result
    # is held while the instance it came from is dropped and collected.
    text = (Path(__file__).parent / "data" / "tie.ssm").read_text()
    kept = {doctor("d2"), hospital("h2")}
    for entry, args in (
        (oracle_min_hospital_deletion, ()),
        (closure, ()),
        (solve_min_hospital_deletion, ()),
        (exists_super_stable, (kept,)),
        (solve_two_side_deletion, (1, 1)),
        (induced_instance, (kept,)),
        (transpose_instance, ()),
        (enumerate_super_stable, (kept,)),
        (oracle_two_side_deletion, (1, 1)),
    ):
        inst = parse_instance(text)
        ref = weakref.ref(inst)
        result = entry(inst, *args)
        del inst
        gc.collect()
        assert ref() is None, entry.__name__
        assert result, entry.__name__
    assert oracle_min_hospital_deletion(parse_instance(text)) == (2, frozenset({hospital("h1"), hospital("h2")}))


def two_side_oracle_samples():
    rng = random.Random("two-side-oracle")
    for i in range(200):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        tie = (0.0, 0.3, 0.7, 1.0)[i % 4]
        inst = generate_instance(n, m, rng.uniform(0.3, 1.0), tie, seed=f"two-side-{i}")
        yield inst, rng.randint(0, 3), rng.randint(0, 3)
    yield generate_instance(7, 7, 0.6, 0.6, seed="ts-4"), 2, 2


def test_two_side_witness_equals_the_subset_scan():
    answers = set()
    for inst, q1, q2 in two_side_oracle_samples():
        got = oracle_two_side_deletion(inst, q1, q2)
        assert got == reference_two_side_oracle(inst, q1, q2), (inst, q1, q2)
        answers.add(None if got is None else tuple(sum(v.side == s for v in got) for s in "DH"))
    assert None in answers
    assert any(d and h for d, h in answers - {None})
    assert len(answers) >= 8


@given(instances(max_doctors=4, max_hospitals=4), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_two_side_witness_equals_the_subset_scan_property(inst, q1, q2):
    assert oracle_two_side_deletion(inst, q1, q2) == reference_two_side_oracle(inst, q1, q2)


@given(instances(max_doctors=5, max_hospitals=5))
@settings(max_examples=100, deadline=None)
def test_least_doctor_deletion_is_the_transposed_critical_count(inst):
    # With no hospital budget the least witness is the least doctor set;
    # answers only grow with the budget, so its size is the least q1.
    witness = oracle_two_side_deletion(inst, len(inst.doctors), 0)
    least = len(witness)
    assert least == len(solve_min_hospital_deletion(transpose_instance(inst)).critical)
    assert least == 0 or oracle_two_side_deletion(inst, least - 1, 0) is None


@given(instances(max_doctors=5, max_hospitals=5))
@settings(max_examples=100, deadline=None)
def test_super_stable_matchings_all_match_the_same_vertices(inst):
    covered = {
        frozenset(doctor(e.doctor) for e in m) | frozenset(hospital(e.hospital) for e in m)
        for m in enumerate_super_stable(inst, max_edges=None)
    }
    assert len(covered) <= 1
