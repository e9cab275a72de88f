from __future__ import annotations

import gc
import hashlib
import inspect
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superstab.cli
from conftest import (
    STRICT_2X2_TEXT,
    TIE_2X2_TEXT,
    one_hospital_tie_text,
    python_env,
    rank_groups,
    run_python,
)
from superstab.cli import _COMMANDS, _build_parser, _read_plain, generate_instance, main
from superstab.hardness import parse_coverage, reduce_min_coverage
from superstab.model import (
    Edge,
    doctor,
    hospital,
    is_super_stable,
    make_instance,
    ordered_edges,
    parse_instance,
    serialize_instance,
)
from superstab.oracle import enumerate_super_stable
from superstab.superstable import ClosureTrace, closure, solve_min_hospital_deletion
from test_hardness import COVER_TEXT


@pytest.fixture
def strict_file(tmp_path):
    path = tmp_path / "strict.ssm"
    path.write_text(STRICT_2X2_TEXT)
    return str(path)


@pytest.fixture
def tie_file(tmp_path):
    path = tmp_path / "tie.ssm"
    path.write_text(TIE_2X2_TEXT)
    return str(path)


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else None
    return rc, payload, captured


def as_matching(pairs):
    return frozenset(Edge(d, h) for d, h in pairs)


def test_check_yes(capsys, strict_file):
    rc, payload, captured = run_cli(capsys, "check", strict_file)
    assert rc == 0
    assert payload["command"] == "check"
    assert payload["answer"] == "yes"
    assert payload["matching"] == [["d1", "h1"], ["d2", "h2"]]
    assert payload["stats"]["iterations"] == 2
    assert payload["stats"]["forbidden_size"] == 1
    assert isinstance(payload["stats"]["elapsed_ms"], int)
    assert "found" in captured.err


def test_check_none(capsys, tie_file):
    rc, payload, captured = run_cli(capsys, "check", tie_file)
    assert rc == 1
    assert payload["answer"] == "none"
    assert "matching" not in payload
    assert "no super-stable matching" in captured.err


def test_no_timing_drops_elapsed_and_is_byte_stable(capsys, strict_file):
    rc, payload, captured = run_cli(capsys, "--no-timing", "check", strict_file)
    assert rc == 0
    assert "elapsed_ms" not in payload["stats"]
    first = captured.out
    rc, _, captured = run_cli(capsys, "--no-timing", "check", strict_file)
    assert captured.out == first


def test_no_timing_accepted_after_subcommand(capsys, strict_file):
    rc, _, captured = run_cli(capsys, "--no-timing", "check", strict_file)
    before = captured.out
    rc, payload, captured = run_cli(capsys, "check", strict_file, "--no-timing")
    assert rc == 0
    assert "elapsed_ms" not in payload["stats"]
    assert captured.out == before
    rc, payload, _ = run_cli(capsys, "check", "--no-timing", strict_file)
    assert rc == 0
    assert "elapsed_ms" not in payload["stats"]


def test_solve1_over_budget(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "solve1", tie_file, "--q", "1")
    assert rc == 1
    assert payload["answer"] == "no"
    assert payload["deleted_hospitals"] == ["h1", "h2"]
    assert payload["matching"] == []
    assert payload["stats"]["min_deletions"] == 2
    assert payload["stats"]["budget"] == 1


def test_solve1_within_budget(capsys, tie_file, strict_file):
    rc, payload, _ = run_cli(capsys, "solve1", tie_file, "--q", "2")
    assert rc == 0
    assert payload["answer"] == "yes"
    rc, payload, _ = run_cli(capsys, "solve1", strict_file, "--q", "0")
    assert rc == 0
    assert payload["deleted_hospitals"] == []
    assert as_matching(payload["matching"]) == {Edge("d1", "h1"), Edge("d2", "h2")}


def test_solve1_negative_budget(capsys, tie_file):
    rc, payload, captured = run_cli(capsys, "solve1", tie_file, "--q", "-1")
    assert rc == 2
    assert payload is None
    assert "error:" in captured.err


def test_solve2_yes_revalidates(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "solve2", tie_file, "--q1", "1", "--q2", "1")
    assert rc == 0
    assert payload["deleted_doctors"] == ["d1"]
    assert payload["deleted_hospitals"] == ["h2"]
    inst = parse_instance(TIE_2X2_TEXT)
    removed = {doctor("d1"), hospital("h2")}
    assert is_super_stable(inst, removed, as_matching(payload["matching"]))


def test_solve2_no(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "solve2", tie_file, "--q1", "0", "--q2", "1")
    assert rc == 1
    assert payload["answer"] == "no"
    assert "deleted_doctors" not in payload
    assert "matching" not in payload
    assert payload["stats"]["doctor_budget"] == 0
    assert payload["stats"]["hospital_budget"] == 1


def test_closure_json_matches_the_library(capsys, strict_file):
    rc, payload, _ = run_cli(capsys, "closure", strict_file, "--delete", "h1")
    assert rc == 0
    inst = parse_instance(STRICT_2X2_TEXT)
    forbidden, trace = closure(inst, {hospital("h1")})
    assert payload["deleted_hospitals"] == ["h1"]
    assert as_matching(payload["initial_forbidden"]) == trace.initial_forbidden
    assert as_matching(payload["forbidden"]) == forbidden
    assert len(payload["rounds"]) == trace.iterations
    for got, want in zip(payload["rounds"], trace.rounds):
        assert got["round"] == want.index
        assert as_matching(got["proposed"]) == want.proposed
        assert as_matching(got["held"]) == want.held
        assert as_matching(got["forbidden"]) == want.forbidden
    assert payload["stats"]["iterations"] == trace.iterations


def test_closure_pair_lists_are_sorted(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "closure", tie_file)
    assert rc == 0
    assert payload["forbidden"] == sorted(payload["forbidden"])
    assert payload["rounds"][0]["proposed"] == sorted(payload["rounds"][0]["proposed"])


def reference_pairs(edges):
    return [[e.doctor, e.hospital] for e in ordered_edges(edges)]


def reference_output(command, inst, deleted=(), q=0):
    """The --no-timing stdout as the stdlib's indenting encoder writes it,
    from a payload built the way the CLI has always built it."""
    if command == "closure":
        removed = frozenset(hospital(name) for name in deleted)
        forbidden, trace = closure(inst, removed)
        payload = {
            "command": "closure",
            "deleted_hospitals": sorted(v.name for v in removed),
            "initial_forbidden": reference_pairs(trace.initial_forbidden),
            "rounds": [
                {
                    "round": r.index,
                    "proposed": reference_pairs(r.proposed),
                    "held": reference_pairs(r.held),
                    "forbidden": reference_pairs(r.forbidden),
                }
                for r in trace.rounds
            ],
            "forbidden": reference_pairs(forbidden),
            "stats": {"iterations": trace.iterations, "forbidden_size": len(forbidden)},
        }
    else:
        cert = solve_min_hospital_deletion(inst)
        stats = {"iterations": cert.trace.iterations, "forbidden_size": len(cert.forbidden)}
        if command == "check":
            payload = {"command": "check", "answer": "none" if cert.critical else "yes"}
            if not cert.critical:
                payload["matching"] = reference_pairs(cert.matching)
            payload["stats"] = stats
        else:
            payload = {
                "command": "solve1",
                "answer": "yes" if len(cert.critical) <= q else "no",
                "deleted_hospitals": sorted(v.name for v in cert.critical),
                "matching": reference_pairs(cert.matching),
                "stats": {**stats, "min_deletions": len(cert.critical), "budget": q},
            }
    return json.dumps(payload, indent=2) + "\n"


def tie_trace_instance(n=400, n_edges=4000, tie_prob=0.8, seed="tie-trace"):
    """n doctors and n hospitals joined by `n_edges` random pairs, each
    list tied up as `generate_instance` does: the benchmark's tie-trace
    shape, with 8 closure rounds and a 1.9 MB round trace."""
    rng = random.Random(seed)
    doctors = [f"d{i}" for i in range(1, n + 1)]
    hospitals = [f"h{i}" for i in range(1, n + 1)]
    lists = {v: [] for v in doctors + hospitals}
    for k in rng.sample(range(n * n), n_edges):
        d, h = doctors[k // n], hospitals[k % n]
        lists[d].append(h)
        lists[h].append(d)

    def tie_up(names):
        rng.shuffle(names)
        groups = []
        for name in names:
            if groups and rng.random() < tie_prob:
                groups[-1].append(name)
            else:
                groups.append([name])
        return groups

    prefs = {v: tie_up(names) for v, names in lists.items()}
    return make_instance(
        doctors, hospitals, {d: prefs[d] for d in doctors}, {h: prefs[h] for h in hospitals}
    )


# Starts of names: ASCII and non-ASCII letters, a quote and a backslash.
LABEL_STARTS = ["d", "D", "h", "z", "\u00e9", "\u0414", '"', "\\", 'x"\\']


def relabelled(inst, rng):
    """`inst`, of at least two doctors and two hospitals, with every vertex
    renamed to a label from `LABEL_STARTS` and a number of one to three
    digits, the tie groups unchanged.  On each side, name order is neither
    declaration order nor length order: "d2" and "d10" are doctors, "h2"
    and "h10" hospitals."""
    fixed = {"d2", "d10", "h2", "h10"}
    labels = set(fixed)
    while len(labels) < len(inst.doctors) + len(inst.hospitals):
        labels.add(rng.choice(LABEL_STARTS) + str(rng.randrange(10 ** rng.randint(1, 3))))
    rest = sorted(labels - fixed)
    rng.shuffle(rest)
    k = len(inst.doctors) - 2
    doctors, hospitals = ["d2", "d10", *rest[:k]], ["h2", "h10", *rest[k:]]
    for names in (doctors, hospitals):
        rng.shuffle(names)
        if names == sorted(names):
            names.reverse()
    new = dict(zip(inst.doctors + inst.hospitals, doctors + hospitals))
    prefs = {new[v.name]: [[new[p] for p in g] for g in rank_groups(inst, v)] for v in inst.vertices()}
    return make_instance(doctors, hospitals, {d: prefs[d] for d in doctors}, {h: prefs[h] for h in hospitals})


def test_closure_bytes_match_the_stdlib_encoder(capsys, tmp_path):
    rng = random.Random("closure-bytes")
    shapes = [
        (rng.randint(0, 30), rng.randint(0, 30), rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0))
        for _ in range(40)
    ]
    shapes.append((200, 200, 0.05, 0.8))
    path = tmp_path / "gen.ssm"
    for i, shape in enumerate(shapes):
        inst = generate_instance(*shape, seed=f"closure-bytes-{i}")
        path.write_text(serialize_instance(inst))
        deleted = rng.sample(inst.hospitals, rng.randint(0, min(4, len(inst.hospitals))))
        delete_args = ["--delete", *deleted] if deleted or rng.random() < 0.5 else []
        rc, _, captured = run_cli(capsys, "--no-timing", "closure", str(path), *delete_args)
        assert rc == 0, captured.err
        assert captured.out == reference_output("closure", inst, deleted)
    some = generate_instance(12, 9, 0.6, 0.5, seed="closure-bytes-all-deleted")
    for inst, deleted in [
        (generate_instance(0, 0, 0.5, 0.5, seed="closure-bytes-empty"), []),
        (some, list(some.hospitals)),
        (tie_trace_instance(), []),
    ]:
        path.write_text(serialize_instance(inst))
        rc, _, captured = run_cli(capsys, "--no-timing", "closure", str(path), "--delete", *deleted)
        assert rc == 0, captured.err
        assert captured.out == reference_output("closure", inst, deleted)
    # Canonical order is name order, whatever order the names are declared in.
    for i in range(16):
        shape = (rng.randint(6, 25), rng.randint(6, 25), rng.uniform(0.1, 0.8), rng.uniform(0.0, 1.0))
        inst = relabelled(generate_instance(*shape, seed=f"closure-bytes-relabelled-{i}"), rng)
        for names in (inst.doctors, inst.hospitals):
            assert sorted(names) not in (list(names), sorted(names, key=len))
        deleted = rng.sample(inst.hospitals, rng.randint(2, 4))
        path.write_text(serialize_instance(inst), encoding="utf-8")
        rc, _, captured = run_cli(capsys, "--no-timing", "closure", str(path), "--delete", *deleted)
        assert rc == 0, captured.err
        assert captured.out == reference_output("closure", inst, deleted)


ESCAPES_TEXT = """doctors: d"1 d\\2 dé
hospitals: h\x011 hД h3
pref d"1: h\x011 hД
pref d\\2: hД h3
pref dé: h3 h\x011
pref h\x011: d"1 dé
pref hД: (d\\2 d"1)
pref h3: dé d\\2
"""


@pytest.mark.parametrize(
    "args, reference",
    [
        (["check"], {}),
        (["solve1", "--q", "1"], {"q": 1}),
        (["closure", "--delete", "hД"], {"deleted": ["hД"]}),
    ],
    ids=["check", "solve1", "closure"],
)
def test_names_are_escaped_like_the_stdlib_encoder(capsys, tmp_path, args, reference):
    path = tmp_path / "escapes.ssm"
    path.write_text(ESCAPES_TEXT, encoding="utf-8")
    inst = parse_instance(ESCAPES_TEXT)
    assert {'d"1', "d\\2", "dé"} == set(inst.doctors)
    assert {"h\x011", "hД", "h3"} == set(inst.hospitals)
    rc, _, captured = run_cli(capsys, "--no-timing", args[0], str(path), *args[1:])
    assert rc == 0, captured.err
    assert captured.out.isascii()
    assert captured.out == reference_output(args[0], inst, **reference)
    for quoted in ['"d\\"1"', '"d\\\\2"', '"d\\u00e9"', '"h\\u00011"', '"h\\u0414"']:
        assert quoted in captured.out


QUOTED_TEXT = """doctors: d"1 d\\2 dé
hospitals: h"1 h\\2 hД
pref d"1: (h"1 hД) h\\2
pref d\\2: h"1 (hД h\\2)
pref dé: (hД h"1)
pref h"1: (d"1 d\\2) dé
pref h\\2: d"1 d\\2
pref hД: (dé d"1 d\\2)
"""


@pytest.mark.parametrize(
    "options",
    [
        ["--no-timing"],
        ["--no-timing", "--delete", 'h"1'],
        ["--no-timing", "--delete", "h\\2", "hД"],
        ["--delete", 'h"1', "h\\2"],
    ],
    ids=["kept", "quote-deleted", "backslash-and-cyrillic-deleted", "timed"],
)
def test_closure_of_quoted_names_is_the_stdlib_encoders(capsys, tmp_path, options):
    path = tmp_path / "quoted.ssm"
    path.write_text(QUOTED_TEXT, encoding="utf-8")
    inst = parse_instance(QUOTED_TEXT)
    assert {'d"1', "d\\2", "dé", 'h"1', "h\\2", "hД"} <= set(inst.doctors + inst.hospitals)
    deleted = options[options.index("--delete") + 1 :] if "--delete" in options else []
    rc, payload, captured = run_cli(capsys, "closure", str(path), *options)
    assert rc == 0, captured.err
    out = captured.out
    assert out.isascii()
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    expected = json.loads(reference_output("closure", inst, deleted))
    if "--no-timing" not in options:
        assert isinstance(payload["stats"]["elapsed_ms"], int)
        out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
        expected["stats"]["elapsed_ms"] = 0
    assert out == json.dumps(expected, indent=2) + "\n"


def test_timing_adds_only_elapsed_ms(capsys, tie_file):
    _, _, untimed = run_cli(capsys, "--no-timing", "closure", tie_file)
    rc, timed, captured = run_cli(capsys, "closure", tie_file)
    assert rc == 0
    assert list(timed["stats"])[-1] == "elapsed_ms"
    assert isinstance(timed["stats"].pop("elapsed_ms"), int)
    assert json.dumps(timed, indent=2) + "\n" == untimed.out
    assert json.dumps(json.loads(captured.out), indent=2) + "\n" == captured.out


def test_closure_never_reads_the_rounds(capsys, tmp_path, monkeypatch):
    inst = generate_instance(30, 30, 0.3, 0.5, seed="closure-no-rounds")
    path = tmp_path / "gen.ssm"
    path.write_text(serialize_instance(inst))
    want = reference_output("closure", inst, ["h3"])

    def refuse(trace):
        raise AssertionError("ClosureTrace.rounds read")

    monkeypatch.setattr(ClosureTrace, "rounds", property(refuse))
    rc, _, captured = run_cli(capsys, "--no-timing", "closure", str(path), "--delete", "h3")
    assert rc == 0, captured.err
    assert captured.out == want


def test_closure_to_a_closed_reader_is_one_error_line(tmp_path):
    # The trace is far larger than a pipe's buffer, so a write fails.
    path = tmp_path / "big.ssm"
    path.write_text(serialize_instance(tie_trace_instance()))
    proc = subprocess.Popen(
        [sys.executable, "-m", "superstab.cli", "closure", str(path)],
        env=python_env(0),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, b"error: [Errno 32] Broken pipe\n")


def test_closure_rejects_unknown_hospital(capsys, strict_file):
    rc, _, captured = run_cli(capsys, "closure", strict_file, "--delete", "h9")
    assert rc == 2
    assert "unknown hospital" in captured.err


def test_unknown_hospital_error_does_not_depend_on_hash_seed():
    path = str(Path(__file__).parent / "data" / "tie.ssm")
    cmd = ["-m", "superstab.cli", "closure", path, "--delete", "h8", "h9", "zz"]
    for seed in range(6):
        run = run_python(seed, *cmd)
        assert (run.returncode, run.stdout, run.stderr) == (2, b"", b"error: unknown hospital 'h8'\n")


def test_verify_existence(capsys, strict_file, tie_file):
    rc, payload, captured = run_cli(capsys, "verify", strict_file, "--mode", "existence")
    assert rc == 0
    assert payload["answer"] == "yes"
    assert payload["stats"]["solver_answer"] == "yes"
    assert payload["stats"]["oracle_answer"] == "yes"
    assert payload["stats"]["search_space"] == 7
    assert "AGREE" in captured.err
    rc, payload, _ = run_cli(capsys, "verify", tie_file, "--mode", "existence")
    assert rc == 0
    assert payload["stats"]["solver_answer"] == "no"


def test_verify_problem1(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "verify", tie_file, "--mode", "problem1")
    assert rc == 0
    assert payload["stats"] == {
        "solver_min": 2,
        "oracle_min": 2,
        "elapsed_ms": payload["stats"]["elapsed_ms"],
    }


def test_verify_problem1_on_a_long_edge_list(capsys, tmp_path):
    path = tmp_path / "star.ssm"
    path.write_text(one_hospital_tie_text(1200))
    rc, payload, captured = run_cli(capsys, "--no-timing", "verify", str(path), "--mode", "problem1")
    assert rc == 0
    assert payload["stats"] == {"solver_min": 1, "oracle_min": 1}
    assert captured.err.strip() == "AGREE"


def test_verify_problem2(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "verify", tie_file, "--mode", "problem2", "--q1", "1", "--q2", "1")
    assert rc == 0
    assert payload["stats"]["solver_answer"] == "yes"
    assert payload["stats"]["oracle_answer"] == "yes"


def test_verify_problem2_agrees_on_no(capsys, tie_file):
    rc, payload, captured = run_cli(capsys, "verify", tie_file, "--mode", "problem2", "--q1", "0", "--q2", "1")
    assert rc == 0
    assert payload["stats"]["solver_answer"] == payload["stats"]["oracle_answer"] == "no"
    assert captured.err == "AGREE\n"


@pytest.mark.parametrize(
    "gen_args, edges, verify_args, stats, found",
    [
        (  # 19 edges: the existence oracle enumerates 624 matchings and keeps one
            ("5", "5", "0.8", "0", "5"), 19, ("--mode", "existence"),
            {"solver_answer": "yes", "oracle_answer": "yes", "search_space": 624}, 1,
        ),
        (  # 20 edges, the existence oracle's cap
            ("5", "5", "0.8", "0.5", "12"), 20, ("--mode", "existence"),
            {"solver_answer": "no", "oracle_answer": "no", "search_space": 725}, 0,
        ),
        (  # 14 vertices, the two-side oracle's cap
            ("7", "7", "0.4", "0.5", "1"), 20, ("--mode", "problem2", "--q1", "2", "--q2", "2"),
            {"solver_answer": "yes", "oracle_answer": "yes"}, None,
        ),
    ],
)
def test_verify_at_the_oracle_caps(capsys, tmp_path, gen_args, edges, verify_args, stats, found):
    flags = ("--doctors", "--hospitals", "--density", "--tie-prob", "--seed")
    rc, _, captured = run_cli(capsys, "gen", *(token for pair in zip(flags, gen_args) for token in pair))
    assert rc == 0
    assert captured.err == f"generated {gen_args[0]} doctors, {gen_args[1]} hospitals, {edges} edges\n"
    path = tmp_path / "capped.ssm"
    path.write_text(captured.out)
    rc, _, captured = run_cli(capsys, "--no-timing", "verify", str(path), *verify_args)
    expected = {"command": "verify", "mode": verify_args[1], "answer": "yes", "stats": stats}
    assert (rc, captured.out, captured.err) == (0, json.dumps(expected, indent=2) + "\n", "AGREE\n")
    if found is not None:
        assert len(enumerate_super_stable(parse_instance(path.read_text()))) == found


def test_verify_problem2_needs_budgets(capsys, tie_file):
    rc, _, captured = run_cli(capsys, "verify", tie_file, "--mode", "problem2")
    assert rc == 2
    assert "needs --q1 and --q2" in captured.err


def test_oracle_cap_env_is_honored(capsys, strict_file, monkeypatch):
    monkeypatch.setenv("SUPERSTAB_ORACLE_CAP", "0")
    rc, _, captured = run_cli(capsys, "verify", strict_file, "--mode", "existence")
    assert rc == 2
    assert "enumeration cap" in captured.err
    monkeypatch.setenv("SUPERSTAB_ORACLE_CAP", "not-a-number")
    rc, _, captured = run_cli(capsys, "verify", strict_file, "--mode", "existence")
    assert rc == 2
    assert "must be an integer" in captured.err
    monkeypatch.setenv("SUPERSTAB_ORACLE_CAP", "100")
    rc, _, _ = run_cli(capsys, "verify", strict_file, "--mode", "existence")
    assert rc == 0
    monkeypatch.setenv("SUPERSTAB_ORACLE_CAP", "0")
    rc, _, captured = run_cli(capsys, "verify", strict_file, "--mode", "problem1")
    assert rc == 2
    assert "subset-search cap" in captured.err


@pytest.mark.parametrize(
    "cap,args,message",
    [
        ("-1", ("verify", "--mode", "problem1"), "SUPERSTAB_ORACLE_CAP must be non-negative"),
        (None, ("solve2", "--q1", "-1", "--q2", "0"), "--q1 and --q2 must be non-negative"),
        (None, ("verify", "--mode", "problem2", "--q1", "0", "--q2", "-1"), "--q1 and --q2 must be non-negative"),
    ],
)
def test_negative_budgets_and_caps_exit_2(capsys, tie_file, monkeypatch, cap, args, message):
    if cap is not None:
        monkeypatch.setenv("SUPERSTAB_ORACLE_CAP", cap)
    rc, payload, captured = run_cli(capsys, args[0], tie_file, *args[1:])
    assert (rc, payload, captured.err) == (2, None, f"error: {message}\n")


def test_verify_problem2_disagrees_with_an_over_budget_witness(capsys, tie_file, monkeypatch):
    over = frozenset({doctor("d1"), doctor("d2"), hospital("h2")})
    monkeypatch.setattr(superstab.cli, "solve_two_side_deletion", lambda *args: over, raising=False)
    rc, payload, captured = run_cli(capsys, "verify", tie_file, "--mode", "problem2", "--q1", "1", "--q2", "1")
    assert rc == 1
    assert payload["answer"] == "no"
    assert payload["stats"]["solver_answer"] == "yes"
    assert captured.err == "DISAGREE\n"


def test_gen_is_deterministic(capsys):
    args = ["gen", "--doctors", "4", "--hospitals", "3", "--density", "0.7", "--tie-prob", "0.4", "--seed", "s1"]
    rc, _, captured = run_cli(capsys, *args)
    assert rc == 0
    first = captured.out
    rc, _, captured = run_cli(capsys, *args)
    assert captured.out == first
    rc, _, captured = run_cli(capsys, *(args[:-1] + ["s2"]))
    assert captured.out != first


@pytest.mark.parametrize(
    "args, edges, digest",
    [
        (("12", "12", "0.6", "0.5", "2"), 88, "8c5822f979dc0f9eac0aad1d410646df327c7d3a0651fde439ebfac6e0b9d1a9"),
        (("20", "20", "0.3", "0.6", "0"), 115, "029fd7862fdc9d421e8474bd4b77fe8fb8987d2840f18657b75c439a671e557c"),
    ],
)
def test_gen_writes_the_pinned_bytes(capsys, args, edges, digest):
    # Same input, same bytes, on every Python version: these are the files CI generates.
    flags = ("--doctors", "--hospitals", "--density", "--tie-prob", "--seed")
    rc, _, captured = run_cli(capsys, "gen", *(token for pair in zip(flags, args) for token in pair))
    assert rc == 0
    assert captured.err == f"generated {args[0]} doctors, {args[1]} hospitals, {edges} edges\n"
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_gen_full_density_no_ties_is_complete_and_strict(capsys):
    rc, _, captured = run_cli(
        capsys, "gen", "--doctors", "3", "--hospitals", "3", "--density", "1", "--tie-prob", "0"
    )
    assert rc == 0
    inst = parse_instance(captured.out)
    assert len(inst.edges) == 9
    for v in inst.vertices():
        ranks = list(inst.rank[v].values())
        assert sorted(ranks) == list(range(1, len(ranks) + 1))


@pytest.mark.parametrize(
    "bad",
    [
        ["--doctors", "-1", "--hospitals", "2", "--density", "0.5", "--tie-prob", "0"],
        ["--doctors", "2", "--hospitals", "2", "--density", "1.5", "--tie-prob", "0"],
        ["--doctors", "2", "--hospitals", "2", "--density", "0.5", "--tie-prob", "-0.1"],
    ],
)
def test_gen_rejects_bad_parameters(capsys, bad):
    rc, _, captured = run_cli(capsys, "gen", *bad)
    assert rc == 2
    assert "error:" in captured.err


def test_gen_check_pipeline_never_crashes(capsys, tmp_path):
    rng = random.Random("pipeline")
    path = tmp_path / "gen.ssm"
    for i in range(1000):
        n = rng.randint(0, 6)
        m = rng.randint(0, 6)
        inst = generate_instance(n, m, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), seed=f"p{i}")
        path.write_text(serialize_instance(inst))
        rc, payload, _ = run_cli(capsys, "check", str(path))
        assert rc in (0, 1)
        assert payload["answer"] in ("yes", "none")
        rc, payload, _ = run_cli(capsys, "solve1", str(path), "--q", "1")
        assert rc in (0, 1)


def test_gen_verify_pipeline_always_agrees(capsys, tmp_path):
    rng = random.Random("verify-pipeline")
    path = tmp_path / "gen.ssm"
    for i in range(150):
        n = rng.randint(0, 4)
        m = rng.randint(0, 4)
        inst = generate_instance(n, m, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), seed=f"v{i}")
        path.write_text(serialize_instance(inst))
        rc, payload, _ = run_cli(capsys, "verify", str(path), "--mode", "existence")
        assert rc == 0
        rc, payload, _ = run_cli(capsys, "verify", str(path), "--mode", "problem1")
        assert rc == 0


def test_transpose_twice_is_identity(capsys, strict_file, tmp_path):
    rc, _, captured = run_cli(capsys, "transpose", strict_file)
    assert rc == 0
    once = tmp_path / "once.ssm"
    once.write_text(captured.out)
    rc, _, captured = run_cli(capsys, "transpose", str(once))
    assert captured.out == STRICT_2X2_TEXT


def test_reduce_output_bytes(capsys, tmp_path):
    from superstab.hardness import parse_coverage, reduce_min_coverage

    path = tmp_path / "cover.cov"
    path.write_text(COVER_TEXT)
    rc, _, captured = run_cli(capsys, "reduce", str(path))
    assert rc == 0
    red = reduce_min_coverage(parse_coverage(COVER_TEXT))
    assert captured.out == serialize_instance(red.instance) + "# q1=1 q2=1\n"
    assert "budgets q1=1 q2=1" in captured.err


def test_reduce_output_parses_back(capsys, tmp_path):
    path = tmp_path / "cover.cov"
    path.write_text(COVER_TEXT)
    rc, _, captured = run_cli(capsys, "reduce", str(path))
    body = "".join(line for line in captured.out.splitlines(True) if not line.startswith("#"))
    inst = parse_instance(body)
    assert inst.doctors == ("T1", "T2")


def test_help_exits_zero(capsys):
    rc, _, captured = run_cli(capsys, "--help")
    assert rc == 0
    assert "superstab" in captured.out


def interrupted(ns):
    raise KeyboardInterrupt


@pytest.mark.parametrize("enabled", [True, False], ids=["from-enabled", "from-disabled"])
def test_main_restores_the_collectors_state(capsys, strict_file, tie_file, tmp_path, monkeypatch, enabled):
    """`main` runs each handler with the cyclic collector off and leaves it
    as it found it, on every way out."""
    inside = []
    check = superstab.cli._cmd_check
    monkeypatch.setattr(superstab.cli, "_cmd_check", lambda ns: inside.append(gc.isenabled()) or check(ns))
    command_lines = [
        (["check", strict_file], 0),
        (["check", tie_file], 1),
        (["check", str(tmp_path / "absent.ssm")], 2),
        (["--help"], 0),
        (["solve1", tie_file, "--q"], 2),  # a usage error, from argparse
    ]
    was = gc.isenabled()
    try:
        for argv, code in command_lines:
            (gc.enable if enabled else gc.disable)()
            assert main(argv) == code, argv
            assert gc.isenabled() is enabled, argv
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(superstab.cli, "_cmd_closure", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["closure", strict_file])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert inside == [False, False, False]


# Payloads as the commands build them, with names that `json.dumps`
# escapes: a quote, a backslash, control characters, and non-ASCII letters
# inside and outside the Basic Multilingual Plane.
PINNED_PAYLOADS = [
    {
        "command": "solve1",
        "answer": "yes",
        "deleted_hospitals": ['h"1', "h\\2", "h\x01", "h\u00e9"],
        "matching": [Edge("d\u2603", "h\U0001d11e"), Edge("d\n", "h\t\x7f")],
        "stats": {"iterations": 3, "forbidden_size": 0, "budget": -1, "elapsed_ms": 10**20},
    },
    {"command": "check", "answer": "none", "stats": {}},
    {"deleted_doctors": [], "deleted_hospitals": (), "matching": [[], {}, [[]]]},
    {"stats": {"nested": {"deeper": [1, ("a", {"b": []})], "empty": {}}, "\u00e9\u2603\U0001d11e": "\"\\"}},
    [],
    {},
    "",
    0,
]

# Trees of what `cli._dumps` writes: strings, ints, lists, tuples and dicts.
JSON_TREES = st.recursive(
    st.text() | st.integers(),
    lambda children: st.lists(children) | st.lists(children).map(tuple) | st.dictionaries(st.text(), children),
    max_leaves=24,
)

# What `cli._dumps` refuses: what `json.dumps` writes otherwise or not at all.
NOT_WRITTEN = [True, False, None, 1.5, {"a"}, {1: "a"}, {("a",): 1}, [None], {"stats": {"ok": True}}, b"a"]


def _dumps_differences(dumps) -> list:
    """The pinned payloads that `dumps` writes otherwise than `json.dumps`."""
    return [value for value in PINNED_PAYLOADS if dumps(value) != json.dumps(value, indent=2)]


def _refusals_missed(dumps) -> list:
    """The values of NOT_WRITTEN for which `dumps` raises no TypeError."""
    missed = []
    for value in NOT_WRITTEN:
        try:
            dumps(value)
        except TypeError:
            continue
        missed.append(value)
    return missed


def _dumps_mutant(old: str = "", new: str = "", **names):
    """`cli._dumps` with `old` replaced by `new` in its source, compiled
    over a copy of the module's names updated with `names`."""
    source = inspect.getsource(superstab.cli._dumps)
    if old:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    space = {**vars(superstab.cli), **names}
    exec(source, space)
    return space["_dumps"]


def test_dumps_writes_the_pinned_payloads_as_json_dumps_does():
    assert _dumps_differences(superstab.cli._dumps) == []


@given(JSON_TREES)
def test_dumps_writes_drawn_trees_as_json_dumps_does(value):
    assert superstab.cli._dumps(value) == json.dumps(value, indent=2)


def test_dumps_refuses_every_other_type():
    assert _refusals_missed(superstab.cli._dumps) == []


def test_the_dumps_checks_catch_its_mutants():
    assert _dumps_differences(_dumps_mutant()) == []
    assert _refusals_missed(_dumps_mutant()) == []
    # A pure-Python quoter, which escapes only quotes and backslashes.
    plain = lambda text: '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    assert _dumps_differences(_dumps_mutant(_quoted=plain))
    # One space too many per level.
    assert _dumps_differences(_dumps_mutant('inner = indent + "  "', 'inner = indent + "   "'))
    # A `bool` written as the `int` it is.
    assert _refusals_missed(_dumps_mutant(" and not isinstance(value, bool)", ""))


def test_main_leaves_no_cyclic_garbage_that_grows_with_the_input(capsys, tmp_path):
    """`gc.collect()` finds nothing after `main`, on a 400x400 file (4,000
    edges) as on `tests/data/tie.ssm`.  `solve2` and `verify` refuse the
    large file at their caps, after parsing it."""
    large = tmp_path / "large.ssm"
    large.write_text(serialize_instance(generate_instance(400, 400, 0.025, 0.8, seed="cyclic-garbage")))
    small = str(Path(__file__).resolve().parent / "data" / "tie.ssm")
    commands = [["check"], ["solve1", "--q", "1"], ["solve2", "--q1", "1", "--q2", "1"], ["closure"], ["verify", "--mode", "problem1"]]
    was = gc.isenabled()
    gc.disable()
    try:
        for command in commands:
            found = []
            # The first run of each file imports what the command loads.
            for path in (small, str(large), small, str(large)):
                gc.collect()
                main(["--no-timing", command[0], path, *command[1:]])
                found.append(gc.collect())
            capsys.readouterr()
            assert found == [0, 0, 0, 0], (command, found)
    finally:
        if was:
            gc.enable()


def test_unknown_command(capsys):
    rc, _, _ = run_cli(capsys, "frobnicate")
    assert rc == 2


def test_missing_and_malformed_files(capsys, tmp_path):
    rc, _, captured = run_cli(capsys, "check", str(tmp_path / "absent.ssm"))
    assert rc == 2
    assert "error:" in captured.err
    bad = tmp_path / "bad.ssm"
    bad.write_text("doctors: d1\n")
    rc, _, captured = run_cli(capsys, "check", str(bad))
    assert rc == 2
    assert "missing 'hospitals:'" in captured.err


FIVE_FAMILIES = """ground: a b c d e f
set A: a b
set B: b c d
set C: c d
set D: a e f
set E: d f
x: 3
y: 4
"""

EVERY_COMMAND = (["check"], ["solve1", "--q", "1"], ["solve2", "--q1", "0", "--q2", "2"], ["closure"])


@pytest.mark.parametrize(
    "name, commands",
    [
        pytest.param("tie.ssm", EVERY_COMMAND, id="tie.ssm"),
        pytest.param("strict.ssm", EVERY_COMMAND, id="strict.ssm"),
        # Many rounds over sets of edges, where the closure's walk order
        # would show if it leaked into the output.
        pytest.param("gen-30x30", (["closure"], ["solve1", "--q", "0"]), id="gen-30x30"),
        # The two-side walk over doctor subsets; the first hit has two doctors.
        pytest.param("reduce-cover", (["solve2", "--q1", "2", "--q2", "4"],), id="reduce-cover"),
    ],
)
def test_output_does_not_depend_on_hash_seed(name, commands, tmp_path):
    path = Path(__file__).parent / "data" / name
    if name.startswith("gen-"):
        path = tmp_path / name
        path.write_text(serialize_instance(generate_instance(30, 30, 0.3, 0.5, seed=name)))
    if name == "reduce-cover":
        path = tmp_path / name
        red = reduce_min_coverage(parse_coverage(FIVE_FAMILIES))
        path.write_text(serialize_instance(red.instance))
    for args in commands:
        cmd = ["-m", "superstab.cli", "--no-timing", args[0], str(path), *args[1:]]
        runs = [run_python(seed, *cmd) for seed in (0, 1)]
        assert runs[0].stdout.startswith(b"{"), runs[0].stderr
        assert runs[0].stdout == runs[1].stdout


def test_module_entry_point(strict_file):
    proc = subprocess.run(
        [sys.executable, "-m", "superstab.cli", "--no-timing", "check", strict_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["answer"] == "yes"
    # Both the plain reader and argparse read `sys.argv` when `main()` is
    # called without arguments, as the console script calls it.
    proc = subprocess.run(
        [sys.executable, "-m", "superstab.cli", "solve1", strict_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: superstab solve1")
    proc = subprocess.run(
        [sys.executable, "-m", "superstab.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: superstab")


# Every command and option name, and tokens that take the other branches
# of the plain reader or of argparse: abbreviations, `=`, help, `--`,
# values that start with `-`, and values that fail or pass a conversion.
ARGV_TOKENS = (
    *_COMMANDS,
    *sorted({flag for *_, options in _COMMANDS.values() for flag in options}),
    *("--no-timing", "--no-tim", "--q=1", "-h", "--", "-", "-1", "", " 3", "1e3"),
    *("existence", "problem1", "problem2", "bogus", "0", "2", "0.5"),
    *("a.ssm", "b.ssm", "h1", "h2"),
)
# Option values that may fail to convert, or start with `-`.
VALUE_TOKENS = (
    *("0", "2", " 3", "0.5", "1e3", "-1", ""),
    *("existence", "problem1", "problem2", "bogus", "h1"),
)


def plain_then_mutated_argv(rng: random.Random) -> list[str]:
    """A command with FILE, its required options and some others, each
    mostly with one value that converts, then up to three tokens inserted
    from `ARGV_TOKENS`, dropped or swapped, so that the argv lands on both
    sides of the plain shape."""
    command = rng.choice(list(_COMMANDS))
    _, _, takes_file, options = _COMMANDS[command]
    argv = ["--no-timing", command] if rng.random() < 0.5 else [command]
    if takes_file:
        argv.append(rng.choice(("a.ssm", "b.ssm")))
    flags = [flag for flag, spec in options.items() if spec.get("required") or rng.random() < 0.5]
    rng.shuffle(flags)
    for flag in flags:
        spec = options[flag]
        valid = spec.get("choices") or {int: ("0", "2", " 3"), float: ("0.5", "1e3")}.get(
            spec.get("type"), ("h1", "7")
        )
        values = rng.choices(valid, k=rng.randint(0, 2) if spec.get("nargs") else 1)
        argv += [flag, *(rng.choice(VALUE_TOKENS) if rng.random() < 0.2 else v for v in values)]
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(argv))
        move = rng.random()
        if move < 0.5:
            argv.insert(at, rng.choice(ARGV_TOKENS))
        elif argv and move < 0.75:
            del argv[at - 1]
        elif len(argv) > 1:
            i, j = rng.sample(range(len(argv)), 2)
            argv[i], argv[j] = argv[j], argv[i]
    return argv


def assert_reader_agrees_with_argparse(parser, argv: list[str]):
    """When the plain reader reads `argv`, argparse reads the same namespace
    from it; returns the reader's namespace, or None."""
    ns = _read_plain(argv)
    if ns is not None:
        try:
            want = parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"the reader accepts {argv!r}, argparse exits") from None
        assert vars(ns) == vars(want), argv
    return ns


def test_the_plain_reader_agrees_with_argparse():
    parser, rng = _build_parser(), random.Random(15)
    read = []
    for _ in range(50_000):
        for argv in (plain_then_mutated_argv(rng), rng.choices(ARGV_TOKENS, k=rng.randint(0, 8))):
            ns = assert_reader_agrees_with_argparse(parser, argv)
            if ns is not None:
                read.append(ns.command)
    assert len(read) > 10_000 and set(read) == set(_COMMANDS)


@given(
    st.lists(st.sampled_from(ARGV_TOKENS), max_size=10)
    | st.randoms(use_true_random=False).map(plain_then_mutated_argv)
)
@settings(max_examples=500, deadline=None)
def test_the_plain_reader_agrees_with_argparse_property(argv):
    assert_reader_agrees_with_argparse(_build_parser(), argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--no-timing", "closure", "FILE"],
        ["--no-timing", "solve1", "FILE", "--q", "0"],
        ["--no-timing", "solve2", "FILE", "--q1", "1", "--q2", "2"],
        ["--no-timing", "verify", "FILE", "--mode", "problem1"],
        ["closure", "FILE", "--delete", "h1", "h2", "--no-timing"],
        ["gen", "--doctors", "3", "--hospitals", "2", "--density", "0.5", "--tie-prob", "0"],
    ],
)
def test_the_plain_reader_reads_the_benchmark_shapes(argv):
    assert assert_reader_agrees_with_argparse(_build_parser(), argv) is not None
