"""The benchmark tracer patches functions by name; each must still exist,
and a traced CLI run must print what the plain CLI prints."""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import pytest

from conftest import run_python
from superstab.model import parse_instance
from superstab.superstable import closure

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
DATA = Path(__file__).resolve().parent / "data"


def test_tracer_targets_resolve():
    # Executed from source so that no bytecode is written next to it.
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer.__dict__)
    assert len(tracer.TARGETS) == 12
    for module, attr, *_ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


# The span each traced command must record.  `solve2` and `verify` call
# functions that `cli` imports on first use; a command that bound one
# before the tracer wrapped it would record no span.
SPAN = {
    "solve1": "superstable.closure",
    "closure": "superstable.closure",
    "solve2": "hardness.solve_two_side",
    "verify": "oracle.min_hospital_deletion",
}


@pytest.mark.parametrize(
    "args",
    [
        ["solve1", "tie.ssm", "--q", "1"],
        ["closure", "tie.ssm"],
        ["solve2", "tie.ssm", "--q1", "1", "--q2", "1"],
        ["verify", "tie.ssm", "--mode", "problem1"],
    ],
)
def test_traced_run_matches_the_plain_cli(args, tmp_path):
    path = str(DATA / args[1])
    cli_args = ["--no-timing", args[0], path, *args[2:]]
    out = tmp_path / "trace.json"
    traced = run_python(0, "-B", str(TRACER), "time", str(out), *cli_args)
    plain = run_python(0, "-m", "superstab.cli", *cli_args)
    assert traced.stdout.startswith(b"{"), traced.stderr
    assert (traced.stdout, traced.returncode) == (plain.stdout, plain.returncode)
    record = json.loads(out.read_text())
    assert record["spans"][SPAN[args[0]]][2] == 1  # [total s, self s, calls]
    if SPAN[args[0]] == "superstable.closure":
        rounds = closure(parse_instance(Path(path).read_text()))[1].iterations
        assert record["counts"]["superstable.rounds"] == rounds
