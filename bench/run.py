"""Seeded end-to-end benchmark of the `superstab` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the CLI under test is the one in
`src/`.  Workloads are described in `workloads.py`.

Load model: a closed loop with one client.  This process generates every
input, then runs one CLI child at a time, each a fresh interpreter, so no
invocation sees caches warmed by another.  The children inherit the
environment minus PYTHONHASHSEED and SUPERSTAB_ORACLE_CAP, as a user's
shell would run them.  Every invocation passes `--no-timing`, and its
stdout is digested, checked by `checker.py`, and must be byte-identical
to every other invocation on the same file.

With `--trace 0`, invocations cycle through the workload's files for
`--seconds` (at least one full cycle), each one right after a run of the
fixed REFERENCE program, and the set-up is repeated every SETUP_EVERY
invocations.  With `--trace 1`, every step of the cycle runs the file
once untraced and once through `tracer.py`, then each file gets one
tracemalloc pass.  Timings are aggregated per file first (the median of
its invocations) and then over files (the median), so the instance mix
does not depend on where the time limit fell; counts are summed over
files and must repeat exactly.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the END_TO_END metrics with `--trace 0`, the
PER_LAYER ones with `--trace 1`.  `failed / attempted` is the share of
invocations that exited 2, timed out, failed the answer check or printed
other bytes than before.  The raw timings (RAW) are printed above that
line.  A full record (provenance, digests, failures) goes to
`bench/out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checker import CheckFailed, parse_prefs
from workloads import WORKLOADS, Output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
CLI = "import sys; from superstab.cli import main; sys.exit(main())"
# A fixed pure-Python program, independent of superstab, that runs just
# before every untraced invocation.  Its wall and CPU time read the host's
# speed at that moment, which on a shared machine drifts by tens of percent
# within seconds; the *_rel_* metrics divide by them.
REFERENCE = """
d, s = {}, set()
for i in range(60000):
    k = i * 7919 % 100003
    d[k] = d.get(k, 0) + 1
    s.add((k, i & 255))
sorted(s)
"""

# Untraced runs repeat the set-up after every SETUP_EVERY invocations, so
# that setup_s is a median over the whole run, like the other timings.
SETUP_EVERY = 4
CHILD_TIMEOUT_S = 30.0
# No invocation starts later than this into a run, so a run ends in time
# even when a slow program cannot finish its first cycle.
START_DEADLINE_S = 120.0

# (name, unit, better, bound): the metrics of `--trace 0`'s result line;
# BENCHMARK.json lists the same.  The *_rel_* timings divide each
# invocation by the REFERENCE run just before it: on a shared 2-vCPU host
# the raw medians of 25-second runs differed by up to 30%, the ratios by
# a few percent.
END_TO_END = [
    ("wall_rel_p50", "ratio", "lower", 0.2),
    ("wall_rel_tail", "ratio", "lower", 0.25),
    ("cpu_rel_p50", "ratio", "lower", 0.2),
    ("peak_rss_mib", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]
# Raw timings of `--trace 0`, printed and recorded but too dependent on the
# host's moment-to-moment speed to bound a change by.
RAW = [
    ("wall_s_p50", "s"),
    ("wall_s_tail", "s"),
    ("cpu_s_p50", "s"),
    ("ops_per_s", "1/s"),
]

TIMINGS = {
    "model.parse_instance_s": "model.parse_instance",
    "model.make_instance_s": "model.make_instance",
    "model.induced_instance_s": "model.induced_instance",
    "model.choice_scan_s": "model.choice_scan",
    "superstable.closure_s": "superstable.closure",
    "superstable.extract_matching_s": "superstable.extract_matching",
    "superstable.critical_hospitals_s": "superstable.critical_hospitals",
    "hardness.solve_two_side_s": "hardness.solve_two_side",
    "oracle.min_hospital_deletion_s": "oracle.min_hospital_deletion",
}
CALLS = {
    "model.induced_instance_calls": "model.induced_instance",
    "model.choice_scan_calls": "model.choice_scan",
    "superstable.closure_calls": "superstable.closure",
}
COUNTERS = [
    "model.choice_edges_scanned",
    "superstable.rounds",
    "superstable.trace_pairs",
    "superstable.forbidden_edges",
    "superstable.critical",
    "hardness.subsets_tried",
    "hardness.witnesses",
]

# (name, unit, better): what `--trace 1` prints; BENCHMARK.json lists the same.
PER_LAYER = (
    [
        ("cli.import_s", "s", "lower"),
        ("cli.main_s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.stdout_bytes", "bytes", "lower"),
    ]
    + [(name, "s", "lower") for name in TIMINGS]
    + [(name, "count", "lower") for name in CALLS]
    + [(name, "count", "lower") for name in COUNTERS if name != "hardness.witnesses"]
    + [
        ("superstable.closure_peak_mib", "MiB", "lower"),
        ("hardness.s_per_subset", "s", "lower"),
        ("hardness.hit_ratio", "ratio", "higher"),
        ("oracle.share", "ratio", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


@dataclass
class Sample:
    """One finished CLI invocation."""

    case: int
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    rc: int
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0
    layers: dict | None = None


@dataclass
class Tally:
    """How many invocations ran, how many failed, and why."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def flag(self, problem: str) -> None:
        """Count one more failed invocation, found after it was recorded."""
        self.failed += 1
        self.failures.append(problem)

    def record(self, where: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{where}: {p}" for p in problems]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env.pop("SUPERSTAB_ORACLE_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path):
    """Run one child to completion: (wall seconds, exit code, rusage).

    Per-child resources come from os.wait4: RUSAGE_CHILDREN would give a
    running maximum over all children instead of this child's peak.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage


class Runner:
    """Runs and checks the invocations of one workload and seed."""

    def __init__(self, workload, cases, paths: list[Path], scratch: Path, tally: Tally):
        self.workload = workload
        self.cases = cases
        self.paths = paths
        self.scratch = scratch
        self.tally = tally
        self.env = child_env()
        self.prefs = [parse_prefs(c.text) for c in cases]
        self.verdicts: dict[tuple, str | None] = {}
        self.first_digest: dict[int, str] = {}
        self.first_counts: dict[int, dict] = {}

    def argv(self, i: int) -> list[str]:
        case = self.cases[i]
        return ["--no-timing", case.command, str(self.paths[i]), *case.options]

    def invoke(self, i: int, mode: str | None = None) -> Sample:
        """Run case `i` untraced (mode None) or through the tracer
        (mode "time" or "memory"), and check what it printed."""
        out, err, layers_path = (self.scratch / n for n in ("stdout", "stderr", "layers.json"))
        layers_path.unlink(missing_ok=True)
        if mode is None:
            argv = [sys.executable, "-c", CLI, *self.argv(i)]
        else:
            argv = [sys.executable, str(TRACER), mode, str(layers_path), *self.argv(i)]
        wall, rc, usage = spawn(argv, self.env, out, err)
        stdout = out.read_bytes()
        cpu = usage.ru_utime + usage.ru_stime
        sample = Sample(i, mode is not None, wall, cpu, usage.ru_maxrss / 1024, rc)
        problems = self.judge(i, Output(rc, stdout, err.read_bytes()))
        if mode is not None:
            if layers_path.is_file():
                sample.layers = json.loads(layers_path.read_text())
            else:
                problems.append("the tracer wrote no layer report")
        if mode == "time" and sample.layers is not None:
            counts = {k: sample.layers["counts"].get(k, 0) for k in COUNTERS}
            counts["stdout_bytes"] = len(stdout)
            counts.update({k: sample.layers["spans"].get(v, [0, 0, 0])[2] for k, v in CALLS.items()})
            if self.first_counts.setdefault(i, counts) != counts:
                problems.append("layer counts differ from an earlier traced run")
        self.tally.record(f"{self.workload.name} file {i} ({mode or 'untraced'})", problems)
        return sample

    def judge(self, i: int, output: Output) -> list[str]:
        """What is wrong with one output of case `i`: a failed answer
        check, or stdout bytes that differ from the file's first output."""
        digest = sha256(output.stdout)
        key = (i, output.rc, digest, sha256(output.stderr))
        if key not in self.verdicts:
            self.verdicts[key] = self.check(i, output)
        problems = [] if self.verdicts[key] is None else [self.verdicts[key]]
        if self.first_digest.setdefault(i, digest) != digest:
            problems.append("stdout differs from an earlier invocation on the same file")
        return problems

    def check(self, i: int, output: Output) -> str | None:
        if output.rc < 0:
            return f"killed by signal {-output.rc} (timeout {CHILD_TIMEOUT_S:.0f} s)"
        try:
            self.workload.check(self.prefs[i], self.cases[i], output)
        except (CheckFailed, KeyError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of REFERENCE."""
        sink = self.scratch / "reference.out"
        wall, rc, usage = spawn([sys.executable, "-c", REFERENCE], self.env, sink, sink)
        if rc != 0:
            raise RuntimeError(f"the reference program exited with {rc}")
        return wall, usage.ru_utime + usage.ru_stime

    def loop(self, seconds: float, start: float, traced: bool, set_up_again=None) -> list[Sample]:
        """Cycle through the files until `seconds` have passed and every
        file ran at least once.  Untraced, each step runs REFERENCE and
        then the file, and every SETUP_EVERY steps `set_up_again` runs
        first.  Traced, each step runs the file untraced and through the
        tracer, in an order that alternates from cycle to cycle."""
        samples: list[Sample] = []
        step = 0
        while True:
            cycle, i = divmod(step, len(self.cases))
            elapsed = time.perf_counter() - start
            if (cycle >= 1 and elapsed >= seconds) or elapsed >= START_DEADLINE_S:
                return samples
            if traced:
                samples += [self.invoke(i, m) for m in ((None, "time"), ("time", None))[cycle % 2]]
            else:
                if set_up_again is not None and step % SETUP_EVERY == SETUP_EVERY - 1:
                    set_up_again()
                ref_wall_s, ref_cpu_s = self.reference()
                samples.append(self.invoke(i))
                samples[-1].ref_wall_s, samples[-1].ref_cpu_s = ref_wall_s, ref_cpu_s
            step += 1


def grouped(samples: list[Sample], value) -> list[list[float]]:
    """`value` of every sample, one list per file, in file order."""
    per_file: dict[int, list[float]] = {}
    for s in samples:
        per_file.setdefault(s.case, []).append(value(s))
    return [v for _, v in sorted(per_file.items())]


def file_median(samples: list[Sample], value) -> float:
    """The median over files of each file's median `value`."""
    return statistics.median(statistics.median(v) for v in grouped(samples, value))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile); with ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(samples: list[Sample], setup_s: float, info: dict) -> dict[str, float]:
    """The END_TO_END metrics; RAW ones and sample details go to `info`."""
    rel_tail, pct = tail([s.wall_s / s.ref_wall_s for s in samples])
    walls = grouped(samples, lambda s: s.wall_s)
    info.update(
        samples=len(samples),
        tail_percentile=round(pct, 2),
        file_wall_s=[statistics.median(v) for v in walls],
        raw={
            "wall_s_p50": file_median(samples, lambda s: s.wall_s),
            "wall_s_tail": tail([s.wall_s for s in samples])[0],
            "cpu_s_p50": file_median(samples, lambda s: s.cpu_s),
            "ops_per_s": len(walls) / sum(statistics.fmean(v) for v in walls),
        },
    )
    return {
        "wall_rel_p50": file_median(samples, lambda s: s.wall_s / s.ref_wall_s),
        "wall_rel_tail": rel_tail,
        "cpu_rel_p50": file_median(samples, lambda s: s.cpu_s / s.ref_cpu_s),
        "peak_rss_mib": max(s.maxrss_mib for s in samples),
        "setup_s": setup_s,
    }


def per_layer(untraced: list[Sample], traced: list[Sample], memory: list[Sample], counts: dict) -> dict:
    """`counts` maps each file to its exact counts from a traced run."""

    def span(s: Sample, name: str, column: int = 0) -> float:
        return s.layers["spans"].get(name, [0.0, 0.0, 0])[column]

    total = {k: sum(c[k] for c in counts.values()) for k in ["stdout_bytes", *CALLS, *COUNTERS]}
    subsets = total["hardness.subsets_tried"]
    out = {
        "cli.import_s": file_median(traced, lambda s: s.layers["import_s"]),
        "cli.main_s": file_median(traced, lambda s: span(s, "cli.main")),
        "cli.self_s": file_median(traced, lambda s: span(s, "cli.main", 1)),
        "cli.stdout_bytes": total["stdout_bytes"],
    }
    out.update({k: file_median(traced, lambda s, v=v: span(s, v)) for k, v in TIMINGS.items()})
    out.update({k: total[k] for k in CALLS})
    out.update({k: total[k] for k in COUNTERS if k != "hardness.witnesses"})
    out["superstable.closure_peak_mib"] = max(
        (s.layers["closure_peak_bytes"] / 2**20 for s in memory if s.layers), default=0.0
    )
    out["hardness.s_per_subset"] = file_median(
        traced,
        lambda s: span(s, "hardness.solve_two_side")
        / max(1, counts[s.case]["hardness.subsets_tried"]),
    )
    out["hardness.hit_ratio"] = total["hardness.witnesses"] / subsets if subsets else 0.0
    out["oracle.share"] = file_median(
        traced, lambda s: span(s, "oracle.min_hospital_deletion") / span(s, "cli.main")
    )
    out["trace.overhead_s"] = file_median(traced, lambda s: s.wall_s) - file_median(
        untraced, lambda s: s.wall_s
    )
    return out


def set_up(workload, seed: int, smoke: bool, case_dir: Path) -> tuple[list, list[Path], float]:
    """Generate the inputs and reference answers and write the files;
    return them, their paths and the seconds it took."""
    t0 = time.perf_counter()
    params = workload.smoke_params if smoke else workload.params
    cases = workload.make(random.Random(f"{workload.name}:{seed}"), params)
    paths = [case_dir / f"case{i:02d}.ssm" for i in range(len(cases))]
    for case, path in zip(cases, paths):
        path.write_text(case.text, encoding="utf-8")
    return cases, paths, time.perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "superstab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_with_earlier_runs(store: Path, record: dict, tally: Tally) -> None:
    """Stdout digests must also match earlier runs of the same source on
    the same inputs; the first run of a source records them."""
    if store.is_file():
        old = json.loads(store.read_text())
        if old["source"] == record["source"] and old["inputs"] == record["inputs"]:
            for i, (a, b) in enumerate(zip(old["stdout"], record["stdout"])):
                if a != b:
                    tally.flag(f"file {i}: stdout differs from an earlier run")
            return
    store.write_text(json.dumps(record, indent=1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    ns = ap.parse_args(argv)
    if not (SRC / "superstab" / "cli.py").is_file():
        print(f"error: {SRC / 'superstab' / 'cli.py'} is missing; run from a superstab "
              "source checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import superstab.cli  # noqa: F401  (import cost stays out of setup_s)

    workload = WORKLOADS[ns.workload]
    tag = f"{workload.name}-seed{ns.seed}" + ("-smoke" if ns.smoke else "")
    dirs = {name: OUT / name for name in ("cases", "scratch", "digests", "results")}
    dirs["cases"] /= tag
    for d in dirs.values():
        d.mkdir(parents=True, exist_ok=True)

    cases, paths, setup_s = set_up(workload, ns.seed, ns.smoke, dirs["cases"])
    setup_times = [setup_s]

    def set_up_again() -> None:
        again, _, seconds = set_up(workload, ns.seed, ns.smoke, dirs["cases"])
        if again != cases:
            raise RuntimeError(f"{workload.name}: two set-ups of seed {ns.seed} differ")
        setup_times.append(seconds)

    tally = Tally()
    runner = Runner(workload, cases, paths, dirs["scratch"], tally)
    info: dict = {}
    start = time.perf_counter()
    if ns.trace:
        samples = runner.loop(ns.seconds, start, traced=True)
        memory = [
            runner.invoke(i, "memory")
            for i in range(len(cases))
            if time.perf_counter() - start < START_DEADLINE_S
        ]
        untraced = [s for s in samples if not s.traced]
        traced = [s for s in samples if s.traced and s.layers is not None]
        metrics = per_layer(untraced, traced, memory, runner.first_counts)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        samples = runner.loop(ns.seconds, start, traced=False, set_up_again=set_up_again)
        info["setup_runs"] = len(setup_times)
        metrics = end_to_end(samples, statistics.median(setup_times), info)
        units = {name: unit for name, unit, _, _ in END_TO_END}
    info["measured_s"] = time.perf_counter() - start

    record = {
        "source": source_digest(),
        "inputs": [sha256(p.read_bytes()) for p in paths],
        "stdout": [runner.first_digest.get(i) for i in range(len(cases))],
    }
    compare_with_earlier_runs(dirs["digests"] / f"{tag}.json", record, tally)
    params = workload.smoke_params if ns.smoke else workload.params
    results = {
        "workload": workload.name,
        "why": workload.why,
        "params": params,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "load_model": "closed loop, one client, one fresh CLI process per invocation",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "source_sha256": record["source"],
        "inputs": [
            {"file": str(p.relative_to(ROOT)), "sha256": d, "argv": runner.argv(i),
             "stdout_sha256": record["stdout"][i]}
            for i, (p, d) in enumerate(zip(paths, record["inputs"]))
        ],
        **info,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (dirs["results"] / f"{tag}-trace{ns.trace}.json").write_text(json.dumps(results, indent=1))

    for problem in tally.failures[:10]:
        print(f"FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    if not ns.trace:
        for name, unit in RAW:
            print(f"{name:34s} {info['raw'][name]:14.6g} {unit}")
        print(f"the tails are p{info['tail_percentile']} of {info['samples']} invocations")
    print(f"failed_frac {results['failed_frac']:.4g} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
