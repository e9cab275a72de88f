from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import STRICT_2X2_TEXT, TIE_2X2_TEXT, run_python
from superstab.cli import generate_instance, main
from superstab.model import (
    Edge,
    doctor,
    hospital,
    is_super_stable,
    parse_instance,
    serialize_instance,
)
from superstab.superstable import closure
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


def test_closure_rejects_unknown_hospital(capsys, strict_file):
    rc, _, captured = run_cli(capsys, "closure", strict_file, "--delete", "h9")
    assert rc == 2
    assert "unknown hospital" in captured.err


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


def test_verify_problem2(capsys, tie_file):
    rc, payload, _ = run_cli(capsys, "verify", tie_file, "--mode", "problem2", "--q1", "1", "--q2", "1")
    assert rc == 0
    assert payload["stats"]["solver_answer"] == "yes"
    assert payload["stats"]["oracle_answer"] == "yes"


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


def test_gen_is_deterministic(capsys):
    args = ["gen", "--doctors", "4", "--hospitals", "3", "--density", "0.7", "--tie-prob", "0.4", "--seed", "s1"]
    rc, _, captured = run_cli(capsys, *args)
    assert rc == 0
    first = captured.out
    rc, _, captured = run_cli(capsys, *args)
    assert captured.out == first
    rc, _, captured = run_cli(capsys, *(args[:-1] + ["s2"]))
    assert captured.out != first


def test_gen_full_density_no_ties_is_complete_and_strict(capsys):
    rc, _, captured = run_cli(
        capsys, "gen", "--doctors", "3", "--hospitals", "3", "--density", "1", "--tie-prob", "0"
    )
    assert rc == 0
    inst = parse_instance(captured.out)
    assert len(inst.edges) == 9
    for v in inst.vertices():
        ranks = [inst.rank_of(v, e) for e in inst.incident(v)]
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


EVERY_COMMAND = (["check"], ["solve1", "--q", "1"], ["solve2", "--q1", "0", "--q2", "2"], ["closure"])


@pytest.mark.parametrize(
    "name, commands",
    [
        pytest.param("tie.ssm", EVERY_COMMAND, id="tie.ssm"),
        pytest.param("strict.ssm", EVERY_COMMAND, id="strict.ssm"),
        # Many rounds over sets of edges, where the closure's walk order
        # would show if it leaked into the output.
        pytest.param("gen-30x30", (["closure"], ["solve1", "--q", "0"]), id="gen-30x30"),
    ],
)
def test_output_does_not_depend_on_hash_seed(name, commands, tmp_path):
    path = Path(__file__).parent / "data" / name
    if name.startswith("gen-"):
        path = tmp_path / name
        path.write_text(serialize_instance(generate_instance(30, 30, 0.3, 0.5, seed=name)))
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
