from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given

import superstab.model

from conftest import (
    ONE_PAIR_TEXT,
    STRICT_2X2_TEXT,
    TIE_2X2_TEXT,
    instances,
    naive_is_super_stable,
    run_python,
    sample_instances,
)
from superstab.model import (
    DOCTOR,
    HOSPITAL,
    Edge,
    FormatError,
    Instance,
    Vertex,
    all_doctor_choices,
    all_hospital_choices,
    blocking_edges,
    doctor,
    hospital,
    induced_edges,
    induced_instance,
    is_super_stable,
    make_instance,
    ordered_edges,
    parse_instance,
    serialize_instance,
    transpose_instance,
)
from superstab.oracle import all_matchings


def edges(*pairs):
    return frozenset(Edge(d, h) for d, h in pairs)


def test_parse_strict_shape():
    inst = parse_instance(STRICT_2X2_TEXT)
    assert inst.doctors == ("d1", "d2")
    assert inst.hospitals == ("h1", "h2")
    assert inst.edges == edges(("d1", "h1"), ("d1", "h2"), ("d2", "h1"), ("d2", "h2"))
    assert inst.rank_of(doctor("d1"), Edge("d1", "h1")) == 1
    assert inst.rank_of(doctor("d1"), Edge("d1", "h2")) == 2
    assert inst.rank_of(hospital("h2"), Edge("d2", "h2")) == 2


def test_parse_ties_share_a_rank():
    inst = parse_instance(TIE_2X2_TEXT)
    for v in inst.vertices():
        assert {inst.rank_of(v, e) for e in inst.incident(v)} == {1}


def test_parse_mixed_groups_and_comments():
    text = """# a comment line
doctors: d1 d2 d3
hospitals: h1 h2

pref d1: h1 (h2)      # singleton group in parens
pref d2: (h2 h1)
pref d3:
pref h1: d1 (d2)
pref h2: (d1 d2)
"""
    inst = parse_instance(text)
    assert inst.rank_of(doctor("d1"), Edge("d1", "h2")) == 2
    assert inst.rank_of(doctor("d2"), Edge("d2", "h1")) == 1
    assert inst.rank_of(doctor("d2"), Edge("d2", "h2")) == 1
    assert inst.incident(doctor("d3")) == frozenset()


def test_parse_empty_instance():
    inst = parse_instance("doctors:\nhospitals:\n")
    assert inst.doctors == ()
    assert inst.hospitals == ()
    assert inst.edges == frozenset()


@pytest.mark.parametrize(
    "text,needle",
    [
        ("doctors d1\nhospitals:\n", "expected ':'"),
        ("doctors: d1\nhospitals: h1\nwhat x: y\n", "expected 'doctors:'"),
        ("doctors: d1 d1\nhospitals:\n", "duplicate doctor name 'd1'"),
        ("doctors: d1\ndoctors: d2\nhospitals:\n", "second 'doctors:'"),
        ("hospitals: h1\n", "missing 'doctors:'"),
        ("doctors: d1\n", "missing 'hospitals:'"),
        ("pref d1: h1\ndoctors: d1\nhospitals: h1\npref h1: d1\n", "before 'doctors:'"),
        ("doctors: d1\nhospitals: h1\npref d1: ((h1))\npref h1: d1\n", "nested tie group"),
        ("doctors: d1\nhospitals: h1\npref d1: h1)\npref h1: d1\n", r"unmatched '\)'"),
        ("doctors: d1\nhospitals: h1\npref d1: (h1\npref h1: d1\n", "unclosed tie group"),
        ("doctors: d1\nhospitals: h1\npref d1: () h1\npref h1: d1\n", "empty tie group"),
        ("doctors: d1\nhospitals: h1\npref d1: h1 h1\npref h1: d1\n", "more than once"),
        ("doctors: d1\nhospitals: h1\npref d1: h9\npref h1: d1\n", "unknown hospital 'h9'"),
        ("doctors: d1\nhospitals: h1\npref d2: h1\npref h1: d1\n", "undeclared vertex 'd2'"),
        (
            "doctors: d1\nhospitals: h1\npref d1: h1\npref d1: h1\npref h1: d1\n",
            "second preference line for 'd1'",
        ),
        ("doctors: d1\nhospitals: h1\npref d1: h1\n", "missing preference line for hospital 'h1'"),
        ("doctors: d1\nhospitals: h1\npref d1: h1\npref h1:\n", "does not list"),
        ("doctors: d1\nhospitals: h1\npref d1:\npref h1: d1\n", "does not list"),
        ("doctors: x\nhospitals: x\npref x: x\n", "appears on both sides"),
    ],
)
def test_parse_errors(text, needle):
    with pytest.raises(FormatError, match=needle):
        parse_instance(text)


def test_parse_error_carries_position():
    with pytest.raises(FormatError) as info:
        parse_instance("doctors: d1\nhospitals: h1\npref d1: h1 h1\npref h1: d1\n")
    assert info.value.line == 3
    assert info.value.column == 13
    assert "line 3, column 13" in str(info.value)


def test_parse_asymmetry_points_at_the_one_sided_entry():
    text = "doctors: d1 d2\nhospitals: h1\npref d1: h1\npref d2: h1\npref h1: d1\n"
    with pytest.raises(FormatError) as info:
        parse_instance(text)
    assert "doctor 'd2' lists 'h1'" in str(info.value)
    assert info.value.line == 4


def test_make_instance_accepts_names_and_groups():
    inst = make_instance(
        ["d1", "d2"],
        ["h1", "h2"],
        {"d1": ["h1", ["h2"]], "d2": [["h1", "h2"]]},
        {"h1": ["d1", "d2"], "h2": [["d1", "d2"]]},
    )
    assert inst.rank_of(doctor("d1"), Edge("d1", "h2")) == 2
    assert inst.rank_of(doctor("d2"), Edge("d2", "h2")) == 1


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(doctor_prefs={"d1": ["h1"]}, hospital_prefs={}), "does not list"),
        (dict(doctor_prefs={"d1": ["h9"]}, hospital_prefs={}), "unknown hospital"),
        (dict(doctor_prefs={"d9": ["h1"]}, hospital_prefs={}), "undeclared doctor"),
        (dict(doctor_prefs={"d1": ["h1", "h1"]}, hospital_prefs={"h1": ["d1"]}), "more than once"),
        (dict(doctor_prefs={"d1": [[]]}, hospital_prefs={}), "empty tie group"),
    ],
)
def test_make_instance_rejects(kwargs, needle):
    with pytest.raises(ValueError, match=needle):
        make_instance(["d1"], ["h1"], **kwargs)


def test_make_instance_reports_list_problems_before_one_sided_entries():
    with pytest.raises(ValueError, match="unknown doctor 'd9'"):
        make_instance(["d1"], ["h1", "h2"], {"d1": ["h1"]}, {"h2": ["d9"]})


def test_make_instance_error_does_not_depend_on_hash_seed():
    # Six one-sided doctor entries; the first in sorted order is reported.
    code = (
        "from superstab.model import make_instance\n"
        "n = 6\n"
        "try:\n"
        "    make_instance([f'd{i}' for i in range(n)], [f'h{i}' for i in range(n)],\n"
        "                  {f'd{i}': [f'h{i}'] for i in range(n)}, {})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    outs = {run_python(seed, "-c", code).stdout for seed in (0, 1)}
    assert outs == {b"doctor 'd0' lists 'h0' but hospital 'h0' does not list 'd0'\n"}


def test_public_constructors_skip_revalidation(monkeypatch):
    def refuse(inst):
        raise AssertionError("_validate_instance called")

    monkeypatch.setattr(superstab.model, "_validate_instance", refuse)
    inst = parse_instance(STRICT_2X2_TEXT)
    made = make_instance(["d1"], ["h1"], {"d1": ["h1"]}, {"h1": ["d1"]})
    sub = induced_instance(inst, {hospital("h1")})
    assert sub.edges == edges(("d1", "h2"), ("d2", "h2"))
    assert transpose_instance(inst).doctors == ("h1", "h2")
    assert made.edges == edges(("d1", "h1"))
    with pytest.raises(AssertionError, match="_validate_instance called"):
        Instance(made.doctors, made.hospitals, made.edges, made.rank)


def test_instance_validation_rejects_bad_ranks():
    e = Edge("d1", "h1")
    with pytest.raises(ValueError, match="non-positive rank"):
        Instance(("d1",), ("h1",), frozenset({e}), {doctor("d1"): {e: 0}, hospital("h1"): {e: 1}})
    with pytest.raises(ValueError, match="exactly its incident edges"):
        Instance(("d1",), ("h1",), frozenset({e}), {doctor("d1"): {}, hospital("h1"): {e: 1}})
    with pytest.raises(ValueError, match="cover every declared vertex"):
        Instance(("d1",), ("h1",), frozenset({e}), {doctor("d1"): {e: 1}})
    with pytest.raises(ValueError, match="undeclared endpoint"):
        Instance(
            ("d1",),
            ("h1",),
            frozenset({Edge("d1", "h9")}),
            {doctor("d1"): {Edge("d1", "h9"): 1}, hospital("h1"): {}},
        )


def test_instance_equality_and_hash():
    a = parse_instance(STRICT_2X2_TEXT)
    b = parse_instance(STRICT_2X2_TEXT)
    c = parse_instance(TIE_2X2_TEXT)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_serialize_is_canonical_for_parsed_text():
    for text in (STRICT_2X2_TEXT, TIE_2X2_TEXT, ONE_PAIR_TEXT):
        assert serialize_instance(parse_instance(text)) == text


def test_serialize_sorts_tie_group_members():
    text = "doctors: d1\nhospitals: h1 h2\npref d1: (h2 h1)\npref h1: d1\npref h2: d1\n"
    assert "pref d1: (h1 h2)" in serialize_instance(parse_instance(text))


def test_serialize_handles_rank_gaps():
    e1, e2 = Edge("d1", "h1"), Edge("d1", "h2")
    inst = Instance(
        ("d1",),
        ("h1", "h2"),
        frozenset({e1, e2}),
        {
            doctor("d1"): {e1: 1, e2: 7},
            hospital("h1"): {e1: 1},
            hospital("h2"): {e2: 1},
        },
    )
    text = serialize_instance(inst)
    assert "pref d1: h1 h2" in text
    assert serialize_instance(parse_instance(text)) == text


@given(instances())
def test_roundtrip_parse_serialize_parse(inst):
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


@given(instances())
def test_preference_relation_is_total_and_transitive(inst):
    for v in inst.vertices():
        incident = sorted(inst.incident(v))
        for e, f in combinations(incident, 2):
            assert inst.weakly_prefers(v, e, f) or inst.weakly_prefers(v, f, e)
        for e in incident:
            for f in incident:
                for g in incident:
                    if inst.weakly_prefers(v, e, f) and inst.weakly_prefers(v, f, g):
                        assert inst.weakly_prefers(v, e, g)
        for e in incident:
            assert inst.weakly_prefers(v, e, None)
            assert inst.strictly_prefers(v, e, None)


def test_induced_drops_hospital_and_keeps_rank_values(strict_2x2):
    sub = induced_instance(strict_2x2, {hospital("h1")})
    assert sub.doctors == ("d1", "d2")
    assert sub.hospitals == ("h2",)
    assert sub.edges == edges(("d1", "h2"), ("d2", "h2"))
    assert sub.rank_of(doctor("d1"), Edge("d1", "h2")) == 2


def test_induced_with_nothing_removed_is_identical(strict_2x2):
    assert induced_instance(strict_2x2, set()) == strict_2x2


def test_induced_can_remove_everything_a_side_has(tie_2x2):
    sub = induced_instance(tie_2x2, {hospital("h1"), hospital("h2")})
    assert sub.doctors == ("d1", "d2")
    assert sub.hospitals == ()
    assert sub.edges == frozenset()
    assert sub.incident(doctor("d1")) == frozenset()


def test_induced_mixed_sides(strict_2x2):
    sub = induced_instance(strict_2x2, {doctor("d1"), hospital("h2")})
    assert sub.doctors == ("d2",)
    assert sub.hospitals == ("h1",)
    assert sub.edges == edges(("d2", "h1"))


def test_induced_rejects_unknown_vertex(strict_2x2):
    with pytest.raises(ValueError, match="unknown hospital 'h9'"):
        induced_instance(strict_2x2, {hospital("h9")})
    with pytest.raises(ValueError, match="unknown vertex"):
        induced_edges(strict_2x2, {Vertex("X", "h1")})


def test_transpose_swaps_sides():
    inst = parse_instance("doctors: d1\nhospitals: h1 h2\npref d1: (h1 h2)\npref h1: d1\npref h2: d1\n")
    flipped = transpose_instance(inst)
    assert flipped.doctors == ("h1", "h2")
    assert flipped.hospitals == ("d1",)
    assert flipped.edges == edges(("h1", "d1"), ("h2", "d1"))
    assert flipped.rank_of(hospital("d1"), Edge("h1", "d1")) == 1


@given(instances())
def test_transpose_is_an_involution(inst):
    assert transpose_instance(transpose_instance(inst)) == inst


def test_choice_rejects_unknown_vertex_or_foreign_edge(strict_2x2):
    with pytest.raises(ValueError, match="not an edge of the instance"):
        all_doctor_choices(strict_2x2, {Edge("d1", "h9")})


def test_all_doctor_choices_examples(strict_2x2, tie_2x2):
    assert all_doctor_choices(strict_2x2, strict_2x2.edges) == edges(("d1", "h1"), ("d2", "h1"))
    assert all_doctor_choices(tie_2x2, tie_2x2.edges) == tie_2x2.edges
    assert all_doctor_choices(strict_2x2, frozenset()) == frozenset()


def test_all_hospital_choices_examples(strict_2x2, tie_2x2, one_pair):
    assert all_hospital_choices(strict_2x2, strict_2x2.edges) == edges(("d1", "h1"), ("d1", "h2"))
    assert all_hospital_choices(tie_2x2, tie_2x2.edges) == frozenset()
    assert all_hospital_choices(one_pair, one_pair.edges) == edges(("d1", "h1"))


@given(instances())
def test_choices_agree_with_their_definitions(inst):
    pool = inst.edges
    chosen_d = all_doctor_choices(inst, pool)
    chosen_h = all_hospital_choices(inst, pool)
    for v in inst.vertices():
        mine = {e for e in pool if (e.doctor if v.side == DOCTOR else e.hospital) == v.name}
        if v.side == DOCTOR:
            expect = {e for e in mine if all(inst.weakly_prefers(v, e, f) for f in mine)}
            assert chosen_d & mine == expect
            assert bool(mine) == bool(expect)
        else:
            expect = {
                e for e in mine if all(inst.strictly_prefers(v, e, f) for f in mine if f != e)
            }
            assert len(expect) <= 1
            assert chosen_h & mine == expect


def test_blocking_edges_examples(strict_2x2, tie_2x2):
    stable = edges(("d1", "h1"), ("d2", "h2"))
    assert blocking_edges(strict_2x2, set(), stable) == frozenset()
    assert blocking_edges(tie_2x2, set(), stable) == edges(("d1", "h2"), ("d2", "h1"))
    assert blocking_edges(strict_2x2, set(), frozenset()) == strict_2x2.edges


def test_blocking_respects_removed_vertices(tie_2x2):
    assert blocking_edges(tie_2x2, {hospital("h2"), doctor("d2")}, edges(("d1", "h1"))) == frozenset()


def test_blocking_rejects_invalid_matchings(strict_2x2):
    with pytest.raises(ValueError, match="share an endpoint"):
        blocking_edges(strict_2x2, set(), edges(("d1", "h1"), ("d1", "h2")))
    with pytest.raises(ValueError, match="not in the induced graph"):
        blocking_edges(strict_2x2, {hospital("h1")}, edges(("d1", "h1")))


def test_is_super_stable_examples(strict_2x2, tie_2x2, one_pair):
    assert is_super_stable(strict_2x2, set(), edges(("d1", "h1"), ("d2", "h2")))
    assert not is_super_stable(tie_2x2, set(), edges(("d1", "h1"), ("d2", "h2")))
    assert is_super_stable(one_pair, set(), edges(("d1", "h1")))
    assert not is_super_stable(one_pair, set(), frozenset())


@given(instances())
def test_is_super_stable_matches_direct_definition(inst):
    for matching in all_matchings(inst):
        assert is_super_stable(inst, set(), matching) == naive_is_super_stable(
            inst, set(), matching
        )


def test_is_super_stable_matches_direct_definition_under_removal():
    for inst in sample_instances(12, seed="model-removal"):
        removals = [set()]
        if inst.hospitals:
            removals.append({hospital(inst.hospitals[0])})
        if inst.doctors and inst.hospitals:
            removals.append({doctor(inst.doctors[0]), hospital(inst.hospitals[-1])})
        for removed in removals:
            for matching in all_matchings(inst, removed):
                assert is_super_stable(inst, removed, matching) == naive_is_super_stable(
                    inst, removed, matching
                )


def test_ordered_edges_is_doctor_major():
    shuffled = [Edge("d2", "h1"), Edge("d1", "h2"), Edge("d1", "h1"), Edge("d10", "h1")]
    assert ordered_edges(shuffled) == [
        Edge("d1", "h1"),
        Edge("d1", "h2"),
        Edge("d10", "h1"),
        Edge("d2", "h1"),
    ]


def test_vertex_and_edge_are_plain_tuples():
    assert tuple(doctor("d1")) == (DOCTOR, "d1")
    assert tuple(hospital("h1")) == (HOSPITAL, "h1")
    assert tuple(Edge("d1", "h1")) == ("d1", "h1")
