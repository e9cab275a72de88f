"""Tests of the benchmark itself.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly what run.py prints; runs every
workload once at smoke size, untraced and traced, and requires correct
answers and identical stdout digests from both; checks the master-list
closed form with the independent checker; and corrupts one matching edge
and one trace round to show that the checks count a failure.  Exits 0
when every test passes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import run
from checker import CheckFailed, check_super_stable, parse_prefs
from workloads import WORKLOADS, Output, make_master_list

SEED = 7


def test_benchmark_json_matches_run() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == run.END_TO_END
    assert [tuple(m.values()) for m in spec["per_layer"]] == run.PER_LAYER


def smoke(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert list(result["metrics"]) == [m[0] for m in expected]
    return json.loads(
        (run.OUT / "results" / f"{workload}-seed{SEED}-smoke-trace{trace}.json").read_text()
    )


def test_smoke_traced_and_untraced_agree() -> None:
    for name in WORKLOADS:
        untraced, traced = smoke(name, 0), smoke(name, 1)
        digests = [[f["stdout_sha256"] for f in r["inputs"]] for r in (untraced, traced)]
        assert digests[0] == digests[1], f"{name}: the tracer changed the CLI output"


def test_master_list_closed_form_is_super_stable() -> None:
    for seed in (1, 2):
        (case,) = make_master_list(random.Random(seed), {"sizes": (60,)})
        check_super_stable(parse_prefs(case.text), case.expect)


def first_output(runner: run.Runner, i: int) -> Output:
    sample = runner.invoke(i)
    assert runner.tally.failed == 0, runner.tally.failures
    stdout = (runner.scratch / "stdout").read_bytes()
    stderr = (runner.scratch / "stderr").read_bytes()
    return Output(sample.rc, stdout, stderr)


def counts_failure(workload_name: str, pick, corrupt) -> None:
    """Run the first case that `pick` accepts, corrupt its JSON output, and
    require a fresh runner, which has seen no other output, to count it."""
    workload = WORKLOADS[workload_name]
    case_dir = run.OUT / "cases" / f"selftest-{workload_name}"
    case_dir.mkdir(parents=True, exist_ok=True)
    (run.OUT / "scratch").mkdir(parents=True, exist_ok=True)
    cases, paths, _ = run.set_up(workload, SEED, True, case_dir)
    i = next(i for i, c in enumerate(cases) if pick(c))
    good = first_output(run.Runner(workload, cases, paths, run.OUT / "scratch", run.Tally()), i)
    payload = json.loads(good.stdout)
    corrupt(payload)
    bad = Output(good.rc, json.dumps(payload, indent=2).encode() + b"\n", good.stderr)
    fresh = run.Runner(workload, cases, paths, run.OUT / "scratch", run.Tally())
    fresh.tally.record("corrupted", fresh.judge(i, bad))
    assert fresh.tally.failed == 1, f"{workload_name}: a corrupted output passed the check"


def swap_partners(payload: dict) -> None:
    """Re-route one matching edge to the hospital of another."""
    m = payload["matching"]
    m[0][1] = m[1][1]


def test_corrupted_outputs_count_as_failures() -> None:
    counts_failure("master-list", lambda c: True, swap_partners)
    counts_failure("cover-two-side", lambda c: c.expect[0], swap_partners)

    def drop_forbidden(payload: dict) -> None:
        payload["rounds"][0]["forbidden"].pop()

    def hold_unproposed(payload: dict) -> None:
        held = payload["rounds"][0]["held"]
        held.append(next(e for e in payload["forbidden"] if e not in held))

    counts_failure("tie-trace", lambda c: True, drop_forbidden)
    counts_failure("tie-trace", lambda c: True, hold_unproposed)


def test_checker_rejects_non_matchings() -> None:
    prefs = parse_prefs(
        "doctors: d1 d2\nhospitals: h1 h2\npref d1: (h1 h2)\npref d2: h1\n"
        "pref h1: d2 d1\npref h2: d1\n"
    )
    check_super_stable(prefs, [["d1", "h2"], ["d2", "h1"]])
    for bad in ([["d1", "h1"], ["d1", "h2"]], [["d2", "h2"]], [["d1", "h2"]]):
        try:
            check_super_stable(prefs, bad)
        except CheckFailed:
            continue
        raise AssertionError(f"the checker accepted {bad}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
