from __future__ import annotations

import random
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstab.cli import generate_instance
from superstab.hardness import (
    CoverageInstance,
    _first_hit,
    oracle_min_coverage,
    parse_coverage,
    reduce_min_coverage,
    solve_two_side_deletion,
)
from superstab.model import Edge, FormatError, doctor, hospital, induced_instance, make_instance
from superstab.oracle import CapExceeded, oracle_two_side_deletion
from superstab.superstable import (
    _fixed_point,
    _outcome,
    exists_super_stable,
    solve_min_hospital_deletion,
)

from conftest import instances, reference_two_side_deletion, sample_instances

COVER_TEXT = """ground: a b
set A: a
set B: a b
x: 1
y: 1
"""


def edges(*pairs):
    return frozenset(Edge(d, h) for d, h in pairs)


def cover(ground, families, picks, limit):
    return CoverageInstance(tuple(ground), tuple(frozenset(f) for f in families), picks, limit)


def test_coverage_instance_validation():
    with pytest.raises(ValueError, match="invalid ground element name"):
        cover(["a(b"], [], 0, 0)
    with pytest.raises(ValueError, match="duplicate ground element"):
        cover(["a", "a"], [], 0, 0)
    with pytest.raises(ValueError, match="not a ground element"):
        cover(["a"], [{"b"}], 0, 0)
    with pytest.raises(ValueError, match="picks must be between"):
        cover(["a"], [{"a"}], 2, 0)
    with pytest.raises(ValueError, match="picks must be between"):
        cover(["a"], [{"a"}], -1, 0)
    with pytest.raises(ValueError, match="cover_limit must be between"):
        cover(["a"], [{"a"}], 1, 2)


def test_parse_coverage_roundtrip():
    cov = parse_coverage(COVER_TEXT)
    assert cov.ground == ("a", "b")
    assert cov.families == (frozenset({"a"}), frozenset({"a", "b"}))
    assert cov.picks == 1
    assert cov.cover_limit == 1


def test_parse_coverage_comments_and_blanks():
    text = "# intro\nground: a   # trailing\n\nset A:\nx: 0\ny: 1\n"
    cov = parse_coverage(text)
    assert cov.ground == ("a",)
    assert cov.families == (frozenset(),)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("ground a\nx: 0\ny: 0\n", "expected ':'"),
        ("x: 0\ny: 0\n", "missing 'ground:'"),
        ("ground:\ny: 0\n", "missing 'x:'"),
        ("ground:\nx: 0\n", "missing 'y:'"),
        ("ground: a\nground: b\nx: 0\ny: 0\n", "second 'ground:'"),
        ("set A: a\nground: a\nx: 0\ny: 0\n", "before 'ground:'"),
        ("ground: a\nset A(: a\nx: 0\ny: 0\n", "invalid set name"),
        ("ground: a\nset A: a\nset A: a\nx: 1\ny: 0\n", "duplicate set name"),
        ("ground: a\nset A: b\nx: 0\ny: 0\n", "not in the ground set"),
        ("ground: a\nset A: a a\nx: 0\ny: 0\n", "duplicate set member"),
        ("ground: a a\nx: 0\ny: 0\n", "duplicate ground element"),
        # The ground line's own check comes first: `CoverageInstance` alone
        # would report the stray member of line 2 instead.
        ("ground: a a\nset S: b\nx: 0\ny: 0\n", "^line 1: duplicate ground element 'a'$"),
        ("ground: a\nx: two\ny: 0\n", "'x:' needs an integer"),
        ("ground: a\nx: 0\nx: 1\ny: 0\n", "second 'x:'"),
        ("ground: a\nx: 0\ny: 0\ny: 1\n", "second 'y:'"),
        ("ground: a\nwhat: 1\nx: 0\ny: 0\n", "expected 'ground:'"),
        ("ground: a\nx: 5\ny: 0\n", "picks must be between"),
        ("ground: a\nx: 0\ny: 9\n", "cover_limit must be between"),
    ],
)
def test_parse_coverage_errors(text, needle):
    with pytest.raises(FormatError, match=needle):
        parse_coverage(text)


def test_reduction_frozen_shape():
    red = reduce_min_coverage(parse_coverage(COVER_TEXT))
    inst = red.instance
    assert inst.doctors == ("T1", "T2")
    assert inst.hospitals == ("s1", "s2", "t1", "t2")
    assert inst.edges == edges(
        ("T1", "s1"), ("T1", "t1"), ("T2", "s1"), ("T2", "s2"), ("T2", "t2")
    )
    assert red.doctor_budget == 1
    assert red.hospital_budget == 1
    assert red.doctor_of == {1: doctor("T1"), 2: doctor("T2")}
    assert red.slot_of == {1: hospital("t1"), 2: hospital("t2")}
    for v in inst.vertices():
        assert set(inst.rank[v].values()) <= {1}


def test_reduction_is_deterministic():
    a = reduce_min_coverage(parse_coverage(COVER_TEXT)).instance
    b = reduce_min_coverage(parse_coverage(COVER_TEXT)).instance
    assert a == b


def test_reduction_ground_names_are_positional():
    red = reduce_min_coverage(cover(["zz", "aa"], [{"aa"}], 1, 0))
    # zz came first, so it is s1; the family member aa maps to s2.
    assert red.instance.edges == edges(("T1", "s2"), ("T1", "t1"))


def test_reduction_worked_example_end_to_end():
    red = reduce_min_coverage(parse_coverage(COVER_TEXT))
    witness = solve_two_side_deletion(red.instance, red.doctor_budget, red.hospital_budget)
    assert witness == frozenset({doctor("T2"), hospital("t1")})
    assert exists_super_stable(red.instance, witness) is not None
    assert oracle_min_coverage(parse_coverage(COVER_TEXT))


def test_empty_family_covers_nothing():
    yes = cover([], [set()], 1, 0)
    assert oracle_min_coverage(yes)
    red = reduce_min_coverage(yes)
    assert red.instance.doctors == ("T1",)
    assert red.instance.hospitals == ("t1",)
    assert solve_two_side_deletion(red.instance, red.doctor_budget, red.hospital_budget) == frozenset()


def test_single_member_family_cannot_meet_a_zero_limit():
    no = cover(["a"], [{"a"}], 1, 0)
    assert not oracle_min_coverage(no)
    red = reduce_min_coverage(no)
    assert red.doctor_budget == 0
    assert red.hospital_budget == 0
    assert solve_two_side_deletion(red.instance, 0, 0) is None


def test_zero_picks_always_cover():
    assert oracle_min_coverage(cover(["a", "b"], [{"a"}, {"b"}], 0, 0))
    assert oracle_min_coverage(cover(["a"], [], 0, 1))


def test_oracle_min_coverage_cap():
    cov = cover(["a"], [set()] * 3, 0, 0)
    with pytest.raises(CapExceeded) as err:
        oracle_min_coverage(cov, max_families=2)
    assert str(err.value) == "3 families exceed the subset-search cap of 2; raise max_families"


def test_solver_frozen_witnesses(tie_2x2):
    assert solve_two_side_deletion(tie_2x2, 1, 1) == frozenset({doctor("d1"), hospital("h2")})
    assert solve_two_side_deletion(tie_2x2, 0, 2) == frozenset(
        {hospital("h1"), hospital("h2")}
    )
    assert solve_two_side_deletion(tie_2x2, 2, 0) == frozenset({doctor("d1"), doctor("d2")})
    assert solve_two_side_deletion(tie_2x2, 0, 1) is None
    assert solve_two_side_deletion(tie_2x2, 1, 0) is None


def test_solver_zero_budgets_mirror_existence(strict_2x2, tie_2x2):
    assert solve_two_side_deletion(strict_2x2, 0, 0) == frozenset()
    assert solve_two_side_deletion(tie_2x2, 0, 0) is None


def test_solver_rejects_negative_budgets(tie_2x2):
    with pytest.raises(ValueError, match="non-negative"):
        solve_two_side_deletion(tie_2x2, -1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        solve_two_side_deletion(tie_2x2, 0, -1)


def test_solver_and_oracle_refuse_a_non_integer_doctor_budget():
    # Three doctors tied on one hospital: without deleting it, two doctors must go.
    names = ["d1", "d2", "d3"]
    inst = make_instance(names, ["h1"], {d: ["h1"] for d in names}, {"h1": [names]})
    for search in (solve_two_side_deletion, oracle_two_side_deletion):
        for budgets in ((1.5, 0), (0, 1.5)):
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
                search(inst, *budgets)
        assert search(inst, 0, True) == search(inst, 0, 1) == frozenset({hospital("h1")})
    assert solve_two_side_deletion(inst, 1, 0) is None is oracle_two_side_deletion(inst, 1, 0)
    two = frozenset({doctor("d1"), doctor("d2")})
    assert solve_two_side_deletion(inst, 2, 0) == two == oracle_two_side_deletion(inst, 2, 0)


def test_solver_doctor_cap(strict_2x2):
    with pytest.raises(CapExceeded) as err:
        solve_two_side_deletion(strict_2x2, 0, 0, max_doctors=1)
    assert str(err.value) == "2 doctors exceed the subset-search cap of 1; raise max_doctors"


def test_full_budgets_always_find_a_witness():
    for inst in sample_instances(20, seed="hardness-full"):
        witness = solve_two_side_deletion(inst, len(inst.doctors), len(inst.hospitals))
        assert witness is not None
        assert exists_super_stable(inst, witness) is not None


def test_solver_witnesses_are_valid_and_match_the_oracle():
    for inst in sample_instances(20, seed="hardness-agree"):
        for q1 in range(3):
            for q2 in range(3):
                got = solve_two_side_deletion(inst, q1, q2)
                expect = oracle_two_side_deletion(inst, q1, q2)
                assert (got is None) == (expect is None)
                if got is None:
                    continue
                assert sum(1 for v in got if v.side == "D") <= q1
                assert sum(1 for v in got if v.side == "H") <= q2
                assert exists_super_stable(inst, got) is not None


def all_coverage_instances(max_ground: int, max_families: int):
    for n in range(max_ground + 1):
        ground = tuple(chr(ord("a") + i) for i in range(n))
        subsets = [
            frozenset(pick)
            for size in range(n + 1)
            for pick in combinations(ground, size)
        ]
        for m in range(max_families + 1):
            for fams in product(subsets, repeat=m):
                yield ground, fams


def test_coverage_and_deletion_answers_coincide_everywhere_small():
    checked = 0
    for ground, fams in all_coverage_instances(2, 2):
        for picks in range(len(fams) + 1):
            for limit in range(len(ground) + 1):
                cov = cover(ground, fams, picks, limit)
                red = reduce_min_coverage(cov)
                want = oracle_min_coverage(cov)
                via_solver = (
                    solve_two_side_deletion(
                        red.instance, red.doctor_budget, red.hospital_budget
                    )
                    is not None
                )
                via_oracle = (
                    oracle_two_side_deletion(
                        red.instance, red.doctor_budget, red.hospital_budget
                    )
                    is not None
                )
                assert want == via_solver == via_oracle
                checked += 1
    assert checked > 100


def critical_count_samples():
    """Strict and tied random instances up to 7x7, plus small coverage
    reductions, all seeded."""
    rng = random.Random("two-side-count")
    for i in range(160):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        tie = (0.0, 0.3, 0.7, 1.0)[i % 4]
        yield generate_instance(n, m, rng.uniform(0.3, 1.0), tie, seed=f"count-{i}")
    for i in range(24):
        ground = [f"e{j}" for j in range(1, rng.randint(2, 5) + 1)]
        fams = [rng.sample(ground, rng.randint(1, len(ground))) for _ in range(rng.randint(2, 5))]
        yield reduce_min_coverage(cover(ground, fams, 1, 0)).instance


def test_loop_critical_count_equals_the_induced_solver_on_every_doctor_subset():
    subsets = 0
    counts = set()
    for inst in critical_count_samples():
        names = sorted(inst.doctors)
        for combo in chain.from_iterable(combinations(names, k) for k in range(len(names) + 1)):
            sub = induced_instance(inst, [doctor(n) for n in combo])
            cert = solve_min_hospital_deletion(sub)
            expect = len(cert.critical)
            log, count = _fixed_point(inst, combo)
            assert count == expect, (inst, combo)
            assert _outcome(inst, log) == (cert.matching, cert.critical), (inst, combo)
            counts.add(expect)
            subsets += 1
    assert subsets > 6000
    assert len(counts) >= 4


@given(instances(max_doctors=5, max_hospitals=5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_solver_witness_equals_the_induced_scan_property(inst, q1, q2):
    assert solve_two_side_deletion(inst, q1, q2) == reference_two_side_deletion(inst, q1, q2)


def assert_walk_matches_fresh_runs(inst, lo=-1, hi=None):
    """One walk of `_first_hit` over the sizes (lo, hi], where no subset is
    a hit, reaches every subset of those sizes once and reads the count a
    fresh run gives it.  Returns how many subsets it reached."""
    names = sorted(inst.doctors)
    hi = len(names) if hi is None else hi
    seen = []
    _first_hit(inst, names, lo, hi, lambda combo, count: seen.append((combo, count)))
    for size in range(lo + 1, hi + 1):
        # Each size in name order, so the first hit of a size is the scan's.
        assert [combo for combo, _ in seen if len(combo) == size] == list(combinations(names, size))
    assert len(seen) == sum(1 for combo, _ in seen if lo < len(combo) <= hi)
    for combo, count in seen:
        assert count == _fixed_point(inst, combo)[1], (inst, combo)
    return len(seen)


def test_walk_count_equals_a_fresh_run_on_every_doctor_subset():
    subsets = 0
    for inst in critical_count_samples():
        subsets += assert_walk_matches_fresh_runs(inst)
        n = len(inst.doctors)
        for lo, hi in ((-1, 0), (0, 1), (1, 3), (3, 7)):
            if lo < n:
                assert_walk_matches_fresh_runs(inst, lo, min(hi, n))
    assert subsets > 6000


@given(instances(max_doctors=6, max_hospitals=5), st.data())
@settings(max_examples=120, deadline=None)
def test_walk_count_equals_a_fresh_run_on_every_doctor_subset_property(inst, data):
    assert_walk_matches_fresh_runs(inst)
    n = len(inst.doctors)
    lo = data.draw(st.integers(-1, n - 1), label="lo")
    assert_walk_matches_fresh_runs(inst, lo, data.draw(st.integers(lo + 1, n), label="hi"))


def test_walk_stops_early_on_twenty_doctors():
    # The smallest critical counts by doctor subset size are 7, 6 and 4 for
    # sizes 0, 1 and 2, so these budgets hit first at sizes 1 and 2.
    inst = generate_instance(20, 12, 0.2, 0.5, seed="twenty-0")
    for q2, size in ((6, 1), (4, 2)):
        got = solve_two_side_deletion(inst, 20, q2)
        assert got == reference_two_side_deletion(inst, 20, q2)
        assert sum(1 for v in got if v.side == "D") == size


def test_the_hits_run_gives_the_matching_of_the_graph_without_the_witness():
    """Per doctor subset D', the run on G - D' and the run on G - D' - C,
    C its critical set, end in the same matching.  Every edge to C is
    forbidden by the end of the first run, and lies only in the pool of
    its hospital in C.  So the first run's final state, less the pools of
    C, is a fixed point of the second run's loop, and by the monotonicity
    of the loop the least one: both runs hold the same edges."""
    pairs = 0
    for inst in critical_count_samples():
        names = sorted(inst.doctors)
        for combo in chain.from_iterable(combinations(names, k) for k in range(len(names) + 1)):
            matching, critical = _outcome(inst, _fixed_point(inst, combo)[0])
            assert matching == exists_super_stable(inst, {doctor(n) for n in combo} | critical)
            pairs += 1
    assert pairs > 6000
