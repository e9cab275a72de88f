from __future__ import annotations

import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import instances, naive_is_super_stable, sample_instances
from superstab.model import Edge, doctor, hospital, parse_instance
from superstab.oracle import (
    CapExceeded,
    _verify_enumeration,
    all_matchings,
    count_matchings,
    enumerate_super_stable,
    oracle_min_hospital_deletion,
    oracle_two_side_deletion,
)
from superstab.superstable import exists_super_stable


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


def test_all_matchings_are_distinct_and_valid(strict_2x2):
    seen = list(all_matchings(strict_2x2))
    assert len(seen) == len(set(seen)) == 7
    for m in seen:
        assert len({e.doctor for e in m}) == len(m)
        assert len({e.hospital for e in m}) == len(m)


def test_all_matchings_is_deterministic(tie_2x2):
    assert list(all_matchings(tie_2x2)) == list(all_matchings(tie_2x2))


def test_enumerate_frozen_values(strict_2x2, tie_2x2, one_pair):
    assert enumerate_super_stable(strict_2x2) == [edges(("d1", "h1"), ("d2", "h2"))]
    assert enumerate_super_stable(tie_2x2) == []
    assert enumerate_super_stable(one_pair) == [edges(("d1", "h1"))]


def test_enumerate_respects_deletions(tie_2x2):
    got = enumerate_super_stable(tie_2x2, {doctor("d1"), hospital("h2")})
    assert got == [edges(("d2", "h1"))]


def test_enumeration_members_pass_the_naive_checker():
    for inst in sample_instances(20, seed="oracle-members"):
        for m in enumerate_super_stable(inst, max_edges=None):
            assert naive_is_super_stable(inst, set(), m)


def test_fused_walk_equals_plain_filtering():
    for inst in sample_instances(25, seed="oracle-fused"):
        assert _verify_enumeration(inst)
        if inst.hospitals:
            assert _verify_enumeration(inst, {hospital(inst.hospitals[0])})


@given(instances())
@settings(max_examples=50)
def test_fused_walk_equals_plain_filtering_property(inst):
    assert _verify_enumeration(inst)


def test_pruned_existence_equals_plain_filtering():
    from superstab.model import is_super_stable
    from superstab.oracle import _any_super_stable

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
            assert _any_super_stable(inst, removed) == plain


@given(instances())
@settings(max_examples=60)
def test_pruned_existence_equals_plain_filtering_property(inst):
    from superstab.model import is_super_stable
    from superstab.oracle import _any_super_stable

    plain = any(is_super_stable(inst, set(), m) for m in all_matchings(inst))
    assert _any_super_stable(inst, frozenset()) == plain


def test_caps_raise_instead_of_truncating(strict_2x2):
    with pytest.raises(CapExceeded, match="enumeration cap"):
        count_matchings(strict_2x2, max_edges=3)
    with pytest.raises(CapExceeded, match="enumeration cap"):
        enumerate_super_stable(strict_2x2, max_edges=3)
    with pytest.raises(CapExceeded, match="subset-search cap"):
        oracle_min_hospital_deletion(strict_2x2, max_hospitals=1)
    with pytest.raises(CapExceeded, match="subset-search cap"):
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


def test_oracle_keeps_no_instance_alive():
    text = (Path(__file__).parent / "data" / "tie.ssm").read_text()
    inst = parse_instance(text)
    ref = weakref.ref(inst)
    assert oracle_min_hospital_deletion(inst) == (2, frozenset({hospital("h1"), hospital("h2")}))
    del inst
    gc.collect()
    assert ref() is None
