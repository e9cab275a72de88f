from __future__ import annotations

import random
import re
from dataclasses import make_dataclass
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import superstab
import superstab.model

from conftest import (
    ONE_PAIR_TEXT,
    STRICT_2X2_TEXT,
    TIE_2X2_TEXT,
    instances,
    naive_is_super_stable,
    reference_parse_instance,
    reference_build,
    reference_pref_list,
    run_python,
    sample_instances,
    shuffled_tables_twin,
)
from superstab.cli import generate_instance
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
    _build,
    _pref_list,
    ordered_edges,
    parse_instance,
    serialize_instance,
    transpose_instance,
)
from superstab.hardness import CoverageInstance, ReductionOutput, parse_coverage, reduce_min_coverage
from superstab.oracle import all_matchings, count_matchings
from superstab._objects import _lists
from superstab.superstable import (
    ClosureRound,
    DeletionCertificate,
    closure,
    critical_hospitals,
    exists_super_stable,
    extract_matching,
    solve_min_hospital_deletion,
)

DATA = Path(__file__).resolve().parent / "data"


def edges(*pairs):
    return frozenset(Edge(d, h) for d, h in pairs)


def test_parse_strict_shape():
    inst = parse_instance(STRICT_2X2_TEXT)
    assert inst.doctors == ("d1", "d2")
    assert inst.hospitals == ("h1", "h2")
    assert inst.edges == edges(("d1", "h1"), ("d1", "h2"), ("d2", "h1"), ("d2", "h2"))
    assert inst.rank[doctor("d1")][Edge("d1", "h1")] == 1
    assert inst.rank[doctor("d1")][Edge("d1", "h2")] == 2
    assert inst.rank[hospital("h2")][Edge("d2", "h2")] == 2


def test_parse_ties_share_a_rank():
    inst = parse_instance(TIE_2X2_TEXT)
    for v in inst.vertices():
        assert set(inst.rank[v].values()) == {1}


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
    assert inst.rank[doctor("d1")][Edge("d1", "h2")] == 2
    assert inst.rank[doctor("d2")][Edge("d2", "h1")] == 1
    assert inst.rank[doctor("d2")][Edge("d2", "h2")] == 1
    assert inst.incident(doctor("d3")) == frozenset()


def test_parse_empty_instance():
    inst = parse_instance("doctors:\nhospitals:\n")
    assert inst.doctors == ()
    assert inst.hospitals == ()
    assert inst.edges == frozenset()


PARSE_ERRORS = [
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
]


@pytest.mark.parametrize("text,needle", PARSE_ERRORS)
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


# Characters the parser treats specially, whitespace beyond ASCII that
# `str.isspace` accepts (U+001C also ends a line), and a non-ASCII letter.
FUZZ_CHARS = "()#:\t\x1c\u3000\u00e9"


def _mutate(text: str, rng: random.Random) -> str:
    """One to three single-character inserts, deletes or replacements.
    Each edit picks a line first, so the short header lines are hit as
    often as the long preference lines."""
    for _ in range(rng.randint(1, 3)):
        lines = text.splitlines(keepends=True) or [""]
        k = rng.randrange(len(lines))
        i = sum(map(len, lines[:k])) + rng.randrange(len(lines[k]) + 1)
        c = rng.choice(FUZZ_CHARS if rng.random() < 0.5 else text or " ")
        kind = rng.randrange(3)
        text = text[:i] + ("" if kind == 1 else c) + text[i + (kind != 0):]
    return text


def _outcome(parse, text: str):
    try:
        return serialize_instance(parse(text))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def test_parser_matches_the_character_scanner_on_mutated_files():
    """Mutations of valid files, and of texts that already fail with one of
    the `PARSE_ERRORS` kinds, parse to the same instance or the same error
    (type, message, line and column) with both parsers."""
    files = [path.read_text() for path in sorted(DATA.glob("*.ssm"))]
    files.append(serialize_instance(generate_instance(30, 30, 0.3, 0.5, seed="fuzz-30")))
    failing = [text for text, _ in PARSE_ERRORS]
    rng = random.Random("parser-fuzz")
    parsed, errors = 0, []
    for n in range(2000):
        text = _mutate(rng.choice(files if n % 2 else failing), rng)
        got = _outcome(parse_instance, text)
        assert got == _outcome(reference_parse_instance, text), text
        if isinstance(got, tuple):
            errors.append(got)
        else:
            parsed += 1
    assert parsed >= 20
    assert {kind for kind, *_ in errors} == {FormatError}
    for _, needle in PARSE_ERRORS:
        assert any(re.search(needle, message) for _, message, _, _ in errors), needle
    for needle in ("unknown (doctor|hospital)", "more than once", "does not list"):
        assert any(
            re.search(needle, message) and column is not None for _, message, _, column in errors
        ), needle


# What a drawn edit may insert: each piece breaks, or keeps, one rule of
# the format.  Hypothesis draws the first ones most often.
FUZZ_PIECES = [" () ", " ( ", " ) ", " (h1) ", " (d1 ", " h1) ", "pref d1:", "doctors: d1\n", "\n", " ", "1", *FUZZ_CHARS]


@settings(max_examples=300)
@given(instances(max_doctors=4, max_hospitals=4).filter(lambda inst: inst.edges), st.data())
def test_parser_matches_the_character_scanner_on_drawn_edits(inst, data):
    """The hypothesis twin of the mutation test: one or two drawn edits
    of a drawn instance's text parse to the same instance or the same
    error (type, message, line and column) with both parsers.  An edit
    inserts, deletes or replaces at a drawn place on a drawn line (counted
    from its end, as Hypothesis favours small numbers), swaps two lines,
    or renames a vertex everywhere by appending a character."""
    text = serialize_instance(inst)
    for _ in range(data.draw(st.integers(1, 2))):
        lines = text.splitlines(keepends=True) or [""]
        k = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.integers(0, 4))
        if kind == 3:
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[j], lines[k] = lines[k], lines[j]
            text = "".join(lines)
        elif kind == 4:
            name = data.draw(st.sampled_from(inst.doctors + inst.hospitals))
            text = text.replace(name, name + data.draw(st.sampled_from(FUZZ_CHARS)))
        else:  # insert, delete or replace
            end = sum(map(len, lines[: k + 1])) - (lines[k][-1:] == "\n")
            i = end - data.draw(st.integers(0, len(lines[k].rstrip("\n"))))
            piece = data.draw(st.sampled_from(FUZZ_PIECES))
            text = text[:i] + ("" if kind == 1 else piece) + text[i + (kind != 0):]
    assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)


def dressed_text(inst: Instance, rng: random.Random, newline: str = "\n") -> str:
    """The text of `inst` as a person might write it: `pref` lines in a
    shuffled order, comments at line ends and on lines of their own, blank
    lines, runs of blanks and tabs, blanks inside and around a tie group,
    single names in parentheses, and `newline` ending each line."""
    lines = serialize_instance(inst).splitlines()
    prefs = lines[2:]
    rng.shuffle(prefs)
    out = ["# a comment line: (d1 h1)"]
    for line in lines[:2] + prefs:
        head, _, body = line.partition(":")
        tokens = re.findall(r"\([^()]*\)|\S+", body)
        if head.startswith("pref"):
            tokens = [f"({t})" if t[0] != "(" and rng.random() < 0.3 else t for t in tokens]
            tokens = [t.replace("(", "( ").replace(")", "\t)") if rng.random() < 0.3 else t for t in tokens]
        blank = rng.choice([" ", "  ", "\t", " \t "])
        line = head.replace(" ", blank) + rng.choice([":", " :", "\t:"]) + blank + blank.join(tokens)
        out.append(line + rng.choice(["", "", "  ", "  # note", "# (x y) : z # d1", "#"]))
        if rng.random() < 0.2:
            out.append(rng.choice(["", "   ", "\t", "# comment ((", "  # pref d1: h1"]))
    return newline.join(out) + rng.choice(["", newline])


def test_dressed_tie_heavy_texts_parse_as_the_character_scanner_does():
    rng = random.Random("dressed-texts")
    for i in range(60):
        shape = (rng.randint(0, 25), rng.randint(0, 25), rng.uniform(0.1, 0.6), rng.uniform(0.6, 1.0))
        inst = generate_instance(*shape, seed=f"dressed-{i}")
        text = dressed_text(inst, rng, "\r\n" if i % 2 else "\n")
        assert parse_instance(text) == reference_parse_instance(text) == inst, text


# What a `pref` body is drawn from: names (one holding ':', which
# `_build` refuses later), whole tie groups, lone parentheses, and blanks,
# Unicode ones included.
PREF_BODY_PIECES = [
    "a", "b7", "\u00e9", "x:y", "(a b)", "( \u00e9\t)", "(", ")", " ", "  ", "\t", "\xa0", "\u2028", "\x1c",
]


def _pref_outcome(read, body: str):
    entries = read(body)
    return None if entries is None else (list(entries[0]), list(entries[1]))


def test_pref_list_reads_bodies_as_the_token_reader_does():
    pinned = ["", " ", "a", "a b", "(a b) c", "(a)(b)", "a(b)c", "( a\t)  b (c d)", "x:y (a)"]
    refused = ["(", ")", "()", "( )", "(a", "a)", "((a))", "(a (b) c)", "(a) b) c", ") (a", "(a)(", "(a) (b"]
    for body in pinned + refused:
        assert _pref_outcome(_pref_list, body) == _pref_outcome(reference_pref_list, body), body
        assert (reference_pref_list(body) is None) == (body in refused), body
    rng = random.Random("pref-list")
    outcomes = {"plain": 0, "grouped": 0, "refused": 0}
    for _ in range(20000):
        body = "".join(rng.choice(PREF_BODY_PIECES) for _ in range(rng.randrange(16)))
        got = _pref_outcome(_pref_list, body)
        assert got == _pref_outcome(reference_pref_list, body), body
        outcomes["refused" if got is None else "grouped" if "(" in body else "plain"] += 1
    assert min(outcomes.values()) >= 1000, outcomes


@given(st.lists(st.sampled_from(PREF_BODY_PIECES), max_size=24).map("".join))
def test_pref_list_reads_drawn_bodies_as_the_token_reader_does(body):
    assert _pref_outcome(_pref_list, body) == _pref_outcome(reference_pref_list, body)


# Faults that `_build` must refuse, one list at a time: a name that is no
# partner (unknown, or of the list's own side), an entry listed twice, an
# entry dropped from one side only, and an entry replaced by another of the
# same list, so that it is listed twice and the replaced one not at all.
# "unlink" drops one edge from both sides, which leaves the lists good.
SPOILS = ["unknown", "duplicate", "one-sided", "twice-not-once"]


def _spoil(doctors, hospitals, lists, rng, kind, side=None) -> bool:
    """Put a fault of `kind` into one of `lists`, the doctors' and the
    hospitals' lists as `_build` takes them, in place; False when no list
    fits it.  `side` (0 doctors, 1 hospitals) fixes the side."""
    sides = [side] if side is not None else rng.sample([0, 1], 2)
    for at in sides:
        need = {"unknown": 0, "twice-not-once": 2}.get(kind, 1)
        owners = [k for k, (names, _) in enumerate(lists[at]) if len(names) >= need]
        if not owners:
            continue
        k = rng.choice(owners)
        names, ranks = lists[at][k]
        if kind == "unknown":
            names.append(rng.choice(["zz", *(doctors, hospitals)[at]]))
            ranks.append(len(names))
        elif kind == "duplicate":
            i = rng.randrange(len(names))
            names.insert(i, names[i])
            ranks.insert(i, ranks[i])
        elif kind == "twice-not-once":
            i, j = rng.sample(range(len(names)), 2)
            names[i] = names[j]
        else:
            i = rng.randrange(len(names))
            partner = names.pop(i)
            ranks.pop(i)
            partners, own = (hospitals, doctors)[at], (doctors, hospitals)[at][k]
            if kind == "unlink" and partner in partners:
                other_names, other_ranks = lists[1 - at][partners.index(partner)]
                if own in other_names:
                    other_ranks.pop(other_names.index(own))
                    other_names.remove(own)
        return True
    return False


def _copied_lists(inst):
    return [[(list(names), list(ranks)) for names, ranks in side] for side in _lists(inst)]


def _build_outcome(build, doctors, hospitals, lists):
    """What a builder makes of these lists: None, or the new instance's core."""
    inst = build(doctors, hospitals, *lists)
    return None if inst is None else inst.__dict__


def test_build_matches_the_reference_builder_on_good_and_spoiled_lists():
    rng = random.Random("build")
    refused = {(kind, side): 0 for kind in SPOILS for side in (0, 1)}
    built = 0
    for inst in sample_instances(150, max_side=6, seed="build"):
        names = inst.doctors, inst.hospitals
        good = _build_outcome(_build, *names, _copied_lists(inst))
        assert good is not None and good == _build_outcome(reference_build, *names, _copied_lists(inst))
        for kind, side in refused:
            lists = _copied_lists(inst)
            if _spoil(*names, lists, rng, kind, side):
                assert _build_outcome(_build, *names, lists) is None, (kind, side, lists)
                assert _build_outcome(reference_build, *names, lists) is None, (kind, side, lists)
                refused[kind, side] += 1
        # A few faults, or unlinked edges, at once: the two builders agree.
        lists = _copied_lists(inst)
        for kind in rng.choices([*SPOILS, "unlink", "unlink"], k=rng.randint(1, 3)):
            _spoil(*names, lists, rng, kind)
        outcome = _build_outcome(_build, *names, lists)
        assert outcome == _build_outcome(reference_build, *names, lists), lists
        built += outcome is not None
    assert min(refused.values()) >= 50 and built >= 20, (refused, built)


@given(
    instances(max_doctors=4, max_hospitals=4),
    st.randoms(use_true_random=False),
    st.lists(st.sampled_from([*SPOILS, "unlink"]), max_size=3),
)
def test_build_matches_the_reference_builder_on_drawn_lists(inst, rng, kinds):
    names = inst.doctors, inst.hospitals
    lists = _copied_lists(inst)
    spoiled = [kind for kind in kinds if _spoil(*names, lists, rng, kind)]
    outcome = _build_outcome(_build, *names, lists)
    assert outcome == _build_outcome(reference_build, *names, lists)
    if len(spoiled) == 1 and spoiled != ["unlink"]:
        assert outcome is None


@given(instances(), st.randoms(use_true_random=False))
def test_pref_line_order_does_not_change_the_instance_or_its_closure(inst, rng):
    lines = serialize_instance(inst).splitlines(keepends=True)
    header, prefs = lines[:2], lines[2:]
    rng.shuffle(prefs)
    again = parse_instance("".join(header + prefs))
    assert again == inst
    assert closure(again) == closure(inst)


def test_make_instance_accepts_names_and_groups():
    inst = make_instance(
        ["d1", "d2"],
        ["h1", "h2"],
        {"d1": ["h1", ["h2"]], "d2": [["h1", "h2"]]},
        {"h1": ["d1", "d2"], "h2": [["d1", "d2"]]},
    )
    assert inst.rank[doctor("d1")][Edge("d1", "h2")] == 2
    assert inst.rank[doctor("d2")][Edge("d2", "h2")] == 1


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


NAME_ERRORS = [
    (
        lambda: parse_instance("doctors: d1 d:x\nhospitals:\n"),
        "line 1, column 13: invalid doctor name 'd:x'",
    ),
    (
        lambda: parse_instance("doctors: d1\nhospitals: h1  h2 h1\n"),
        "line 2, column 19: duplicate hospital name 'h1'",
    ),
    (
        lambda: parse_instance("doctors: d1\nhospitals: h1\npref d(1: h1\n"),
        "line 3: invalid name 'd(1'",
    ),
    (
        lambda: parse_instance("doctors: d(1\nhospitals:\npref d(1:\n"),
        "line 1, column 10: invalid doctor name 'd(1'",
    ),
    (lambda: make_instance(["d1", "d 2"], ["h1"]), "invalid doctor name 'd 2'"),
    (lambda: make_instance(["d1"], ["h1", "h1"]), "duplicate hospital name 'h1'"),
    (lambda: Instance(("d1", "d1"), (), frozenset(), {}), "duplicate doctor name 'd1'"),
    (
        lambda: parse_coverage("ground: s1 s(1\nx: 0\ny: 0\n"),
        "line 1: invalid ground element name 's(1'",
    ),
    (
        lambda: parse_coverage("ground: s1 s2 s1\nx: 0\ny: 0\n"),
        "line 1: duplicate ground element 's1'",
    ),
    (
        lambda: parse_coverage("ground: s1\nset T1: s1 s)\nx: 0\ny: 0\n"),
        "line 2: invalid set member name 's)'",
    ),
    (
        lambda: parse_coverage("ground: s1\nset T1: s1 s1\nx: 0\ny: 0\n"),
        "line 2: duplicate set member 's1'",
    ),
    (
        lambda: parse_coverage("ground: s1\nset T(1: s1\nx: 0\ny: 0\n"),
        "line 2: invalid set name 'T(1'",
    ),
    (
        lambda: parse_coverage("ground: s1\nset T1: s1\nset T1:\nx: 0\ny: 0\n"),
        "line 3: duplicate set name 'T1'",
    ),
    (lambda: CoverageInstance(("s1", ""), (), 0, 0), "invalid ground element name ''"),
    (lambda: CoverageInstance(("s1", "s1"), (), 0, 0), "duplicate ground element 's1'"),
]


@pytest.mark.parametrize("build,message", NAME_ERRORS, ids=[message for _, message in NAME_ERRORS])
def test_name_errors_pin_message_line_and_column(build, message):
    # Text readers raise FormatError with the position in the message and
    # in `line` and `column`; the constructors raise a plain ValueError.
    with pytest.raises(ValueError) as info:
        build()
    exc = info.value
    assert str(exc) == message
    where = re.match(r"line (\d+)(?:, column (\d+))?: ", message)
    if where:
        line, column = (None if g is None else int(g) for g in where.groups())
        assert (type(exc), exc.line, exc.column) == (FormatError, line, column)
    else:
        assert type(exc) is ValueError


def _delete_a_record_field():
    round_ = ClosureRound(index=1, proposed=frozenset(), held=frozenset(), forbidden=frozenset())
    del round_.index


# Each row is (test id, call, error type, message).  Ids are fixed, so a
# changed message renames no test: a row once keyed by its message keeps
# that text as its id, and newer rows are named by entry point and input.
RARE_ERRORS = [
    (
        "doctor 'd1' lists a non-string entry 5",
        lambda: make_instance(["d1"], ["h1"], {"d1": [["h1", 5]]}, {"h1": ["d1"]}),
        ValueError,
        "doctor 'd1' lists a non-string entry 5",
    ),
    (
        "'int' object is not iterable",
        lambda: make_instance(["d1"], ["h1"], {"d1": [5]}), TypeError, "'int' object is not iterable",
    ),
    # An earlier list's problem is met before the item that is not iterable.
    (
        "doctor 'd1' has an empty tie group",
        lambda: make_instance(["d1", "d2"], ["h1"], {"d1": [[]], "d2": [5]}),
        ValueError,
        "doctor 'd1' has an empty tie group",
    ),
    (
        "line 3: second 'hospitals:' line",
        lambda: parse_instance("doctors: d1\nhospitals: h1\nhospitals: h1\n"),
        FormatError,
        "line 3: second 'hospitals:' line",
    ),
    (
        "unknown doctor 'zz'",
        lambda: parse_instance(STRICT_2X2_TEXT).incident(doctor("zz")), ValueError, "unknown doctor 'zz'",
    ),
    (
        "unknown vertex ('D', 'zz')",
        lambda: parse_instance(STRICT_2X2_TEXT).incident(("D", "zz")), ValueError, "unknown doctor 'zz'",
    ),
    (
        "unknown vertex 'h1'",
        lambda: parse_instance(STRICT_2X2_TEXT).incident("h1"), ValueError, "unknown vertex 'h1'",
    ),
    ("unknown vertex 5", lambda: parse_instance(STRICT_2X2_TEXT).incident(5), ValueError, "unknown vertex 5"),
    (
        "unknown vertex ['D', 'd1']",
        lambda: parse_instance(STRICT_2X2_TEXT).incident(["D", "d1"]), ValueError, "unknown vertex ['D', 'd1']",
    ),
    (
        "unknown vertex {'D': 'd1'}",
        lambda: parse_instance(STRICT_2X2_TEXT).incident({"D": "d1"}), ValueError, "unknown vertex {'D': 'd1'}",
    ),
    # Members that cannot be hashed are checked before any member is hashed.
    (
        "closure deletes hospitals only, got ['H', 'h1']",
        lambda: closure(parse_instance(STRICT_2X2_TEXT), [["H", "h1"]]),
        ValueError,
        "closure deletes hospitals only, got ['H', 'h1']",
    ),
    (
        "unknown vertex ['H', 'h1']",
        lambda: induced_instance(parse_instance(STRICT_2X2_TEXT), [["H", "h1"]]),
        ValueError,
        "unknown vertex ['H', 'h1']",
    ),
    # Every public function that takes vertices or edges checks each member
    # as `model._checked` does: an edge given as a list, or a vertex or edge
    # with a list for a name, is named by ValueError.
    (
        "matching edge ['d1', 'h1'] is not in the induced graph0",
        lambda: blocking_edges(_strict(), (), [["d1", "h1"]]),
        ValueError,
        "matching edge ['d1', 'h1'] is not in the induced graph",
    ),
    (
        "unknown doctor ['x']0",
        lambda: blocking_edges(_strict(), [Vertex("D", ["x"])], ()), ValueError, "unknown doctor ['x']",
    ),
    (
        "matching edge ['d1', 'h1'] is not in the induced graph1",
        lambda: is_super_stable(_strict(), (), [["d1", "h1"]]),
        ValueError,
        "matching edge ['d1', 'h1'] is not in the induced graph",
    ),
    (
        "matching edge ('d1', ['x']) is not in the induced graph",
        lambda: is_super_stable(_strict(), (), [Edge("d1", ["x"])]),
        ValueError,
        "matching edge ('d1', ['x']) is not in the induced graph",
    ),
    (
        "edge ['d1', 'h1'] is not an edge of the instance0",
        lambda: all_doctor_choices(_strict(), [["d1", "h1"]]),
        ValueError,
        "edge ['d1', 'h1'] is not an edge of the instance",
    ),
    (
        "edge ('D', ['x']) is not an edge of the instance",
        lambda: all_doctor_choices(_strict(), [Vertex("D", ["x"])]),
        ValueError,
        "edge ('D', ['x']) is not an edge of the instance",
    ),
    (
        "edge ['d1', 'h1'] is not an edge of the instance1",
        lambda: all_hospital_choices(_strict(), [["d1", "h1"]]),
        ValueError,
        "edge ['d1', 'h1'] is not an edge of the instance",
    ),
    (
        "edge ('d1', ['x']) is not an edge of the instance",
        lambda: all_hospital_choices(_strict(), [Edge("d1", ["x"])]),
        ValueError,
        "edge ('d1', ['x']) is not an edge of the instance",
    ),
    # `extract_matching` and `critical_hospitals` take edges of the instance only.
    (
        "forbidden edge None is not an Edge",
        lambda: extract_matching(_strict(), [None]),
        ValueError,
        "forbidden edge None is not an edge of the instance",
    ),
    (
        "forbidden edge 5 is not an Edge",
        lambda: extract_matching(_strict(), [5]),
        ValueError,
        "forbidden edge 5 is not an edge of the instance",
    ),
    (
        "forbidden edge ('a', 'b') is not an Edge",
        lambda: extract_matching(_strict(), ["ab"]),
        ValueError,
        "forbidden edge 'ab' is not an edge of the instance",
    ),
    (
        "forbidden edge ('H', 'h1') is not an Edge",
        lambda: extract_matching(_strict(), [hospital("h1")]),
        ValueError,
        "forbidden edge ('H', 'h1') is not an edge of the instance",
    ),
    (
        "forbidden edge ('H', ['x']) is not an Edge",
        lambda: extract_matching(_strict(), [Vertex("H", ["x"])]),
        ValueError,
        "forbidden edge ('H', ['x']) is not an edge of the instance",
    ),
    (
        "extract_matching-non-edge-pair",
        lambda: extract_matching(_strict(), [("d1", "h9")]),
        ValueError,
        "forbidden edge ('d1', 'h9') is not an edge of the instance",
    ),
    (
        "forbidden edge ['d1', 'h1'] is not an Edge",
        lambda: critical_hospitals(_strict(), [["d1", "h1"]], ()),
        ValueError,
        "forbidden edge ['d1', 'h1'] is not an edge of the instance",
    ),
    (
        "critical_hospitals-non-edge-forbidden-pair",
        lambda: critical_hospitals(_strict(), [("d1", "h9")], ()),
        ValueError,
        "forbidden edge ('d1', 'h9') is not an edge of the instance",
    ),
    (
        "matching edge ('H', ['x']) is not an Edge",
        lambda: critical_hospitals(_strict(), (), [Vertex("H", ["x"])]),
        ValueError,
        "matching edge ('H', ['x']) is not an edge of the instance",
    ),
    (
        "matching edge ('H', 'h1') is not an Edge",
        lambda: critical_hospitals(_strict(), (), [hospital("h1")]),
        ValueError,
        "matching edge ('H', 'h1') is not an edge of the instance",
    ),
    # A plain pair is read as the vertex it names, and named by its side word.
    (
        "closure-plain-doctor-pair",
        lambda: closure(_strict(), [("D", "d1")]),
        ValueError,
        "closure deletes hospitals only, got ('D', 'd1')",
    ),
    (
        "exists_super_stable-plain-unknown-pair",
        lambda: exists_super_stable(_strict(), [("H", "zz")]),
        ValueError,
        "unknown hospital 'zz'",
    ),
    (
        "unknown doctor ['x']1",
        lambda: exists_super_stable(_strict(), [Vertex("D", ["x"])]), ValueError, "unknown doctor ['x']",
    ),
    (
        "unknown hospital ['x']0",
        lambda: closure(_strict(), [Vertex("H", ["x"])]), ValueError, "unknown hospital ['x']",
    ),
    (
        "unknown hospital ['x']1",
        lambda: induced_edges(_strict(), [Vertex("H", ["x"])]), ValueError, "unknown hospital ['x']",
    ),
    (
        "unknown doctor ['x']2",
        lambda: count_matchings(_strict(), [Vertex("D", ["x"])]), ValueError, "unknown doctor ['x']",
    ),
    (
        "edge ('d1', ['x']) has an undeclared endpoint",
        lambda: Instance(("d1", "d2"), ("h1", "h2"), [*_strict().edges, Edge("d1", ["x"])], _strict().rank),
        ValueError,
        "edge ('d1', ['x']) has an undeclared endpoint",
    ),
    # A Vertex and its plain pair print alike, so either may be the one named.
    (
        "closure-doctor-Vertex",
        lambda: closure(_strict(), [doctor("d1")]),
        ValueError,
        "closure deletes hospitals only, got ('D', 'd1')",
    ),
    (
        "closure-doctor-Vertex-and-pair",
        lambda: closure(_strict(), {doctor("d1"), ("D", "d1")}),
        ValueError,
        "closure deletes hospitals only, got ('D', 'd1')",
    ),
    (
        "incident-Vertex-unknown-side",
        lambda: _strict().incident(Vertex("X", "h1")), ValueError, "unknown vertex ('X', 'h1')",
    ),
    (
        "induced_edges-Vertex-and-pair-unknown-side",
        lambda: induced_edges(_strict(), {Vertex("X", "h1"), ("X", "h1")}),
        ValueError,
        "unknown vertex ('X', 'h1')",
    ),
    (
        "Instance-Vertex-as-edge",
        lambda: Instance(("d1", "d2"), ("h1", "h2"), [*_strict().edges, hospital("h1")], _strict().rank),
        ValueError,
        "edge ('H', 'h1') is not an Edge",
    ),
    ("cannot delete field 'index'", _delete_a_record_field, AttributeError, "cannot delete field 'index'"),
]


def _strict() -> Instance:
    return parse_instance(STRICT_2X2_TEXT)


@pytest.mark.parametrize("build,kind,message", [row[1:] for row in RARE_ERRORS], ids=[row[0] for row in RARE_ERRORS])
def test_rare_errors_pin_their_type_and_message(build, kind, message):
    with pytest.raises(kind) as info:
        build()
    assert str(info.value) == message


def test_a_plain_pair_of_names_counts_as_its_edge():
    inst = parse_instance((DATA / "tie.ssm").read_text())
    forbidden, _ = closure(inst)
    for matching in ([], [Edge("d1", "h1")], sorted(extract_matching(inst, forbidden))):
        plain = [tuple(e) for e in matching]
        assert blocking_edges(inst, (), plain) == blocking_edges(inst, (), matching)
        assert critical_hospitals(inst, [tuple(e) for e in forbidden], plain) == critical_hospitals(
            inst, forbidden, matching
        )


def test_a_plain_pair_of_names_counts_as_its_vertex():
    rng = random.Random("plain-vertex")
    for i in range(60):
        inst = generate_instance(5, 5, 0.5, 0.4, seed=f"plain-vertex-{i}")
        vertices = list(inst.vertices())
        for v in vertices:
            assert inst.incident(tuple(v)) == inst.incident(v)
        for _ in range(5):
            removed = rng.sample(vertices, rng.randint(0, 4))
            plain = [tuple(v) for v in removed]
            assert exists_super_stable(inst, plain) == exists_super_stable(inst, removed)
            assert induced_edges(inst, plain) == induced_edges(inst, removed)
            assert induced_instance(inst, plain) == induced_instance(inst, removed)
            assert count_matchings(inst, plain) == count_matchings(inst, removed)
            hospitals = [v for v in removed if v.side == HOSPITAL]
            assert closure(inst, [tuple(v) for v in hospitals]) == closure(inst, hospitals)


def test_an_edge_error_names_the_same_edge_whatever_the_types_and_order():
    inst = parse_instance((DATA / "tie.ssm").read_text())
    for pool in ([Edge("d1", "h9"), ("d9", "h9")], [("d9", "h9"), Edge("d1", "h9")]):
        for members in (pool, [tuple(e) if type(e) is Edge else Edge(*e) for e in pool]):
            for scan in (all_doctor_choices, all_hospital_choices):
                with pytest.raises(ValueError, match=r"^edge \('d1', 'h9'\) is not an edge of the instance$"):
                    scan(inst, members)


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
    def refuse(*args):
        raise AssertionError("_validate_instance called")

    monkeypatch.setattr("superstab._objects._validate_instance", refuse)
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


def core_rank_lists(inst):
    """The ranks along each list of the core of `inst`: `_dl` over each
    doctor's ids, then `_hl` over each `_by_h[j]`."""
    first = inst._first
    doctor_lists = [inst._dl[a:b] for a, b in zip(first, first[1:])]
    return doctor_lists + [[inst._hl[e] for e in ids] for ids in inst._by_h]


@given(instances(max_doctors=4, max_hospitals=4), st.randoms(use_true_random=False))
def test_every_builder_keeps_each_core_list_in_rank_order(inst, rng):
    twin = shuffled_tables_twin(inst, rng)
    removed = [v for v in inst.vertices() if rng.random() < 0.3]
    ground = tuple(f"e{j}" for j in range(1, rng.randint(1, 4) + 1))
    families = tuple(
        frozenset(rng.sample(ground, rng.randint(0, len(ground)))) for _ in range(rng.randint(1, 4))
    )
    built = {
        "parse_instance": parse_instance(serialize_instance(inst)),
        "make_instance": inst,
        "Instance": twin,
        "induced_instance": induced_instance(twin, removed),
        "transpose_instance": transpose_instance(twin),
        "reduce_min_coverage": reduce_min_coverage(CoverageInstance(ground, families, 0, 0)).instance,
        "generate_instance": generate_instance(
            rng.randint(0, 5), rng.randint(0, 5), rng.random(), rng.random(), seed=rng.random()
        ),
    }
    for builder, out in built.items():
        assert all(ranks == sorted(ranks) for ranks in core_rank_lists(out)), builder


@given(instances())
def test_roundtrip_parse_serialize_parse(inst):
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert serialize_instance(again) == text


def test_induced_drops_hospital_and_keeps_rank_values(strict_2x2):
    sub = induced_instance(strict_2x2, {hospital("h1")})
    assert sub.doctors == ("d1", "d2")
    assert sub.hospitals == ("h2",)
    assert sub.edges == edges(("d1", "h2"), ("d2", "h2"))
    assert sub.rank[doctor("d1")][Edge("d1", "h2")] == 2


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


def test_induced_names_the_unknown_vertex_whose_message_sorts_first(strict_2x2):
    bad = [hospital("zz"), hospital("h9"), hospital("h8"), doctor("d1")]
    for removed in (bad, bad[::-1], set(bad)):
        with pytest.raises(ValueError, match="^unknown hospital 'h8'$"):
            induced_edges(strict_2x2, removed)
        with pytest.raises(ValueError, match="^unknown hospital 'h8'$"):
            induced_instance(strict_2x2, removed)
    # "unknown hospital" sorts before "unknown vertex", whatever the type.
    with pytest.raises(ValueError, match="^unknown hospital 'h8'$"):
        induced_edges(strict_2x2, bad + [Vertex("A", "h1"), Vertex("X", "h1"), "h0"])
    with pytest.raises(ValueError, match="^unknown vertex \\('A', 'h1'\\)$"):
        induced_edges(strict_2x2, [Vertex("X", "h1"), Vertex("A", "h1")])
    for removed in ([hospital("h8"), ("H", "h0")], [("H", "h8"), hospital("h0")]):
        with pytest.raises(ValueError, match="^unknown hospital 'h0'$"):
            induced_instance(strict_2x2, removed)


def test_package_lists_every_module_name_once():
    modules = (superstab.model, superstab.superstable, superstab.oracle, superstab.hardness)
    names = superstab.__all__
    assert len(names) == len(set(names))
    assert names == [n for m in modules for n in m.__all__] + ["__version__"]
    for name in names:
        assert getattr(superstab, name) is not None, name
        owner = next((m for m in modules if name in m.__all__), superstab)
        assert getattr(superstab, name) is getattr(owner, name), name
    # A fresh import of a module loads the private module that holds a name
    # of its only when that name is first read.
    private = ["superstab._objects", "superstab._writer", "superstab._commands"]
    for module, name, loads in (
        ("model", "make_instance", ["superstab._objects"]),
        ("superstable", "extract_matching", ["superstab._objects"]),
        ("hardness", "parse_coverage", ["superstab._objects"]),
        ("oracle", "count_matchings", ["superstab._objects"]),
        ("cli", "generate_instance", ["superstab._commands"]),
    ):
        code = (
            f"import sys, superstab.{module} as m\n"
            f"print([p for p in {private!r} if p in sys.modules])\n"
            f"m.{name}\n"
            f"print([p for p in {private!r} if p in sys.modules])\n"
        )
        out = run_python(0, "-S", "-c", code)
        assert out.stdout.decode() == f"[]\n{loads!r}\n", (module, out.stderr)
    # `oracle` holds what `verify --mode problem1` runs, and loads no `cli`.
    code = (
        "import sys, superstab.oracle as m\n"
        "m.oracle_min_hospital_deletion\n"
        f"print([p for p in {['superstab.cli', *private]!r} if p in sys.modules])\n"
    )
    out = run_python(0, "-S", "-c", code)
    assert out.stdout == b"[]\n", out.stderr


def test_modules_resolve_only_the_names_read_on_them():
    # A name that no code reads on a module raises AttributeError there,
    # naming that module, and loads no private module.
    private = [f"superstab.{m}" for m in ("_objects", "_writer", "_commands")]
    for module, name in (
        ("cli", "count_matchings"),
        ("cli", "parse_coverage"),
        ("model", "_validate_instance"),
        ("model", "extract_matching"),
        ("superstable", "make_instance"),
    ):
        code = (
            f"import sys, superstab.{module} as m\n"
            "try:\n"
            f"    m.{name}\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
            f"print([p for p in {private!r} if p in sys.modules])\n"
        )
        out = run_python(0, "-S", "-c", code)
        assert out.stdout.decode() == f"module 'superstab.{module}' has no attribute {name!r}\n[]\n", out.stderr
    # The names that the benchmark tracer reads on a module whose `__all__`
    # does not list them are the object side's own.
    from superstab import _objects

    for module, name in (
        ("superstable", "all_doctor_choices"),
        ("superstable", "all_hospital_choices"),
        ("superstable", "induced_instance"),
        ("hardness", "induced_instance"),
    ):
        assert name not in getattr(superstab, module).__all__
        assert getattr(getattr(superstab, module), name) is getattr(_objects, name), (module, name)


def test_transpose_swaps_sides():
    inst = parse_instance("doctors: d1\nhospitals: h1 h2\npref d1: (h1 h2)\npref h1: d1\npref h2: d1\n")
    flipped = transpose_instance(inst)
    assert flipped.doctors == ("h1", "h2")
    assert flipped.hospitals == ("d1",)
    assert flipped.edges == edges(("h1", "d1"), ("h2", "d1"))
    assert flipped.rank[hospital("d1")][Edge("h1", "d1")] == 1


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
            expect = {e for e in mine if all(inst.rank[v][e] <= inst.rank[v][f] for f in mine)}
            assert chosen_d & mine == expect
            assert bool(mine) == bool(expect)
        else:
            expect = {
                e for e in mine if all(inst.rank[v][e] < inst.rank[v][f] for f in mine if f != e)
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


def test_blocking_error_does_not_depend_on_hash_seed():
    # Of several edges outside the graph, the one whose message sorts first
    # is named, also when another cannot be hashed or the set mixes types,
    # and an edge outside the graph is named before a shared endpoint.
    path = str(Path(__file__).parent / "data" / "tie.ssm")
    code = (
        "import sys\n"
        "from superstab.model import Edge, blocking_edges, parse_instance\n"
        "inst = parse_instance(open(sys.argv[1]).read())\n"
        "cases = [\n"
        "    [Edge('d1', 'h9'), Edge('d2', 'h8'), Edge('d9', 'h1')],\n"
        "    [Edge('d1', 'h1'), Edge('d1', 'h2'), Edge('d9', 'h2')],\n"
        "    [Edge('d1', 'h1'), ['d1', 'h1'], Edge('d9', 'h2')],\n"
        "    [*{('d9', 'h9'), Edge('d2', 'h8'), 'd1h1', ('d0', 'h0')}, ['d1', 'h1']],\n"
        "]\n"
        "for matching in cases:\n"
        "    try:\n"
        "        blocking_edges(inst, (), matching)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    for seed in range(6):
        run = run_python(seed, "-c", code, path)
        assert run.stdout == (
            b"matching edge ('d1', 'h9') is not in the induced graph\n"
            b"matching edge ('d9', 'h2') is not in the induced graph\n"
            b"matching edge ('d9', 'h2') is not in the induced graph\n"
            b"matching edge 'd1h1' is not in the induced graph\n"
        ), (seed, run.stderr)


def test_instance_and_choice_errors_do_not_depend_on_hash_seed():
    # Of several edges that are not Edges, have an undeclared endpoint or
    # lie outside the instance, the one whose message sorts first is named,
    # also when another cannot be hashed or the set mixes plain tuples,
    # Edges or Vertexes and strings; so is a vertex of a deleted set.
    path = str(Path(__file__).parent / "data" / "tie.ssm")
    code = (
        "import sys\n"
        "from superstab.model import Edge, Instance, Vertex, all_doctor_choices, all_hospital_choices, parse_instance\n"
        "from superstab.superstable import critical_hospitals, exists_super_stable\n"
        "inst = parse_instance(open(sys.argv[1]).read())\n"
        "foreign = {Edge('d2', 'h8'), Edge('d1', 'h9'), Edge('d9', 'h1'), Edge('d3', 'h3')}\n"
        "unhashable = [*foreign, ['d0', 'h0']]\n"
        "mixed = [*{('d9', 'h9'), Edge('d1', 'h9'), 'd0', Vertex('H', 'h0')}, ['d0', 'h0']]\n"
        "calls = [\n"
        "    lambda: Instance(inst.doctors, inst.hospitals, inst.edges | foreign, inst.rank),\n"
        "    lambda: Instance(inst.doctors, inst.hospitals, inst.edges | foreign | {('d2', 'h7')}, inst.rank),\n"
        "    lambda: all_doctor_choices(inst, inst.edges | foreign),\n"
        "    lambda: all_hospital_choices(inst, inst.edges | foreign),\n"
        "    lambda: Instance(inst.doctors, inst.hospitals, [*inst.edges, *unhashable], inst.rank),\n"
        "    lambda: all_doctor_choices(inst, [*inst.edges, *unhashable]),\n"
        "    lambda: critical_hospitals(inst, [None, ['d1', 'h1']], ()),\n"
        "    lambda: exists_super_stable(inst, [Vertex('H', 'h9'), Vertex('D', ['x'])]),\n"
        "    lambda: Instance(inst.doctors, inst.hospitals, [*inst.edges, *mixed], inst.rank),\n"
        "    lambda: all_hospital_choices(inst, [*inst.edges, *mixed]),\n"
        "    lambda: critical_hospitals(inst, mixed, ()),\n"
        "    lambda: all_doctor_choices(inst, [*{('d9', 'h9'), Edge('d1', 'h9'), Vertex('H', 'h0')}, ['d0', 'h0']]),\n"
        "    lambda: exists_super_stable(inst, [*{('H', 'h9'), Vertex('D', 'd9'), 'd0', ('D', 'd8')}, ['D', 'd1']]),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    for seed in range(6):
        run = run_python(seed, "-c", code, path)
        assert run.stdout == (
            b"edge ('d1', 'h9') has an undeclared endpoint\n"
            b"edge ('d1', 'h9') has an undeclared endpoint\n"
            b"edge ('d1', 'h9') is not an edge of the instance\n"
            b"edge ('d1', 'h9') is not an edge of the instance\n"
            b"edge ('d1', 'h9') has an undeclared endpoint\n"
            b"edge ('d1', 'h9') is not an edge of the instance\n"
            b"forbidden edge None is not an edge of the instance\n"
            b"unknown doctor ['x']\n"
            b"edge 'd0' is not an Edge\n"
            b"edge 'd0' is not an edge of the instance\n"
            b"forbidden edge 'd0' is not an edge of the instance\n"
            b"edge ('H', 'h0') is not an edge of the instance\n"
            b"unknown doctor 'd8'\n"
        ), (seed, run.stderr)


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


def _modules_loaded(*cli_args: str) -> tuple[int | None, set[str]]:
    """The exit code of one `main(cli_args)` run, when given, and the
    modules loaded by a fresh `import superstab.cli` and that run, without
    `site`.

    -S leaves out `site`, whose `.pth` files may load `inspect` or `random`
    on their own (through `importlib.resources` on 3.13), so only the
    package's own imports are seen."""
    code = (
        "import sys\n"
        "from superstab.cli import main\n"
        f"code = main({list(cli_args)!r}) if {list(cli_args)!r} else None\n"
        "print(code, ' '.join(sorted(sys.modules)))"
    )
    out = run_python(0, "-S", "-c", code)
    assert out.returncode == 0, out.stderr
    code, *modules = out.stdout.decode().splitlines()[-1].split()
    return None if code == "None" else int(code), set(modules)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect(tmp_path):
    lazy = {"superstab.hardness", "superstab.oracle", "random"}
    # The cold code of `model`, `superstable` and `hardness`, the closure
    # writer and the cold commands.
    cold = {"superstab._objects", "superstab._writer", "superstab._commands"}
    assert {"dataclasses", "inspect", *lazy, *cold} & _modules_loaded()[1] == set()
    tie = str(DATA / "tie.ssm")
    bad = tmp_path / "bad.ssm"
    bad.write_text("doctors: d1\nhospitals: h1\npref d1: (h1\npref h1: d1\n")
    # argparse, and the gettext it imports, load only for help and usage errors.
    parser = {"argparse", "gettext"}
    # Every row of the README's module table: a command line and what it
    # loads besides `cli`, `model` and `superstable`.  Bad input loads
    # `_objects`, which names its first problem.
    table = [
        (["check", tie], set()),
        (["solve1", tie, "--q", "1"], set()),
        (["closure", tie], {"superstab._writer"}),
        (["solve2", tie, "--q1", "1", "--q2", "1"], {"superstab.hardness"}),
        (["verify", tie, "--mode", "problem1"], {"superstab.oracle"}),
        (["verify", tie, "--mode", "existence"], {"superstab.oracle", "superstab._objects"}),
        (
            ["verify", tie, "--mode", "problem2", "--q1", "1", "--q2", "1"],
            {"superstab.hardness", "superstab.oracle", "superstab._objects"},
        ),
        (["transpose", tie], {"superstab._commands", "superstab._objects"}),
        (["reduce", str(DATA / "cover.cov")], {"superstab._commands", "superstab._objects"}),
        (
            ["gen", "--doctors", "3", "--hospitals", "3", "--density", "0.5", "--tie-prob", "0.5"],
            {"superstab._commands", "superstab._objects", "random"},
        ),
        (["--help"], {"superstab._commands", *parser}),
        (["check", str(bad)], {"superstab._objects"}),
    ]
    runs = {}
    for args, extra in table:
        code, modules = _modules_loaded(*args)
        runs[tuple(args)] = modules
        assert code in ((2,) if args[-1] == str(bad) else (0, 1)), args
        tracked = {m for m in modules if m.split(".")[0] in {"superstab", "random", *parser} or m == "json"}
        assert tracked == {"superstab", "superstab.cli", "superstab.model", "superstab.superstable", *extra}, args
        assert {"dataclasses", "inspect"} & modules == set(), args
    loaded = {args[0]: runs[tuple(args)] for args, _ in table[:5]}
    assert "superstab.oracle" not in loaded["solve2"]
    assert "superstab.hardness" not in loaded["verify"]
    for command, modules in loaded.items():
        assert parser & modules == set(), command
        if command != "closure":
            assert {"superstab._objects", "superstab._writer"} & modules == set(), command
    package = {m for m in loaded["closure"] if m.split(".")[0] == "superstab"}
    assert package == {"superstab", "superstab.cli", "superstab.model", "superstab.superstable", "superstab._writer"}
    # No command loads `json`: `cli._dumps` writes every JSON value.
    assert [args for args, modules in runs.items() if "json" in modules] == []
    assert parser <= runs[("--help",)]
    # The package loads its modules on first access; `dir` still lists every name.
    code = "import superstab; names = dir(superstab); print(set(superstab.__all__) <= set(names))"
    assert run_python(0, "-S", "-c", code).stdout == b"True\n"


def test_a_good_closure_run_never_loads_the_error_namer(tmp_path):
    good = tmp_path / "good.ssm"
    inst = generate_instance(40, 40, 0.2, 0.8, seed="no-diagnose")
    good.write_text(dressed_text(inst, random.Random("no-diagnose"), "\r\n"), encoding="utf-8")
    code, modules = _modules_loaded("closure", str(good), "--delete", "h1", "h2")
    assert code == 0 and "superstab._objects" not in modules
    bad = tmp_path / "bad.ssm"
    bad.write_text("doctors: d1\nhospitals: h1\npref d1: h1\npref h1:\n")
    code, modules = _modules_loaded("closure", str(bad))
    assert code == 2 and "superstab._objects" in modules


def test_package_names_load_through_the_import_statement():
    # Its hook, unlike `importlib`, shows in `-X importtime` and loads no module.
    code = "import sys, superstab; superstab.solve_two_side_deletion; print('importlib' in sys.modules)"
    out = run_python(0, "-S", "-X", "importtime", "-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout == b"False\n"
    assert "| superstab.hardness\n" in out.stderr.decode()


def _instance_eq(self, other):
    if not isinstance(other, type(self)):
        return NotImplemented
    return (
        self.doctors == other.doctors
        and self.hospitals == other.hospitals
        and self.edges == other.edges
        and self.rank == other.rank
    )


def _instance_hash(self):
    tables = tuple((v, tuple(sorted(self.rank[v].items()))) for v in sorted(self.rank))
    return hash((self.doctors, self.hospitals, self.edges, tables))


def _record_samples():
    """Per record class: its `@dataclass` twin, as each class was declared
    before it became a plain class, and a few values of the class."""
    covers = [
        CoverageInstance(("a", "b"), (frozenset({"a"}), frozenset({"a", "b"})), 1, 1),
        CoverageInstance(("a", "b"), (frozenset({"a"}), frozenset({"a", "b"})), 1, 2),
        CoverageInstance(("a", "b", "c"), (frozenset({"c"}),), 0, 0),
    ]
    insts = [parse_instance(text) for text in (STRICT_2X2_TEXT, TIE_2X2_TEXT, ONE_PAIR_TEXT, STRICT_2X2_TEXT)]
    certs = [solve_min_hospital_deletion(inst) for inst in insts]
    rounds = [r for inst in insts for r in closure(inst)[1].rounds]
    fields = {
        ClosureRound: ("index", "proposed", "held", "forbidden"),
        DeletionCertificate: ("forbidden", "matching", "critical", "trace"),
        CoverageInstance: ("ground", "families", "picks", "cover_limit"),
        ReductionOutput: ("instance", "doctor_budget", "hospital_budget", "doctor_of", "slot_of"),
    }
    values = {
        ClosureRound: rounds,
        DeletionCertificate: certs,
        CoverageInstance: covers,
        ReductionOutput: [reduce_min_coverage(c) for c in covers],
    }
    for cls, names in fields.items():
        yield make_dataclass(cls.__name__, names, frozen=True), names, values[cls]
    twin = make_dataclass(
        "Instance",
        ("doctors", "hospitals", "edges", "rank"),
        frozen=True,
        eq=False,
        namespace={"__eq__": _instance_eq, "__hash__": _instance_hash},
    )
    yield twin, ("doctors", "hospitals", "edges", "rank"), insts


def test_records_compare_hash_and_print_as_their_dataclass_twins():
    for twin, names, objs in _record_samples():
        twins = [twin(*(getattr(o, n) for n in names)) for o in objs]
        for o, t in zip(objs, twins):
            assert repr(o) == repr(t)
            try:
                expect = hash(t)
            except TypeError:
                with pytest.raises(TypeError):
                    hash(o)
            else:
                assert hash(o) == expect
            assert (o == tuple(getattr(o, n) for n in names)) is False
            assert o.__eq__(object()) is NotImplemented
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{names[0]}'$"):
                setattr(o, names[0], None)
            with pytest.raises(AttributeError):
                setattr(t, names[0], None)
        for (a, ta), (b, tb) in product(zip(objs, twins), repeat=2):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
        # An instance of a subclass with the same fields compares as with the twin.
        values = [getattr(objs[0], n) for n in names]
        sub, twin_sub = type("Sub", (type(objs[0]),), {}), type("Sub", (twin,), {})
        assert (sub(*values) == objs[0]) == (twin_sub(*values) == twins[0])
    # Fields can be given by name, as to the dataclasses.
    round_ = ClosureRound(index=1, proposed=frozenset(), held=frozenset(), forbidden=frozenset())
    assert round_ == ClosureRound(1, frozenset(), frozenset(), forbidden=frozenset())
    with pytest.raises(TypeError):
        ClosureRound(1, frozenset(), frozenset())
    with pytest.raises(TypeError):
        ClosureRound(1, frozenset(), frozenset(), frozenset(), index=2)
