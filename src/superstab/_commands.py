"""The command handlers and helpers that the hot commands never run.

`check`, `solve1`, `solve2` and `closure` run from `cli` alone, and
`verify` from `oracle`.  The handlers of `gen`, `reduce` and
`transpose`, with `generate_instance` and the argparse parser, live
here, so no benchmark workload compiles them; `cli` reads each from here
on first access (PEP 562).  `transpose` looks up `parse_instance` on
`cli` itself, so a value set there, such as a tracing wrapper, is what
it calls.  Every name from `_objects` is imported where it runs, so
`--help` does not load it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

# `_cli` is the running `cli`, also when `python -m superstab.cli` runs it.
from .cli import _COMMANDS, _NO_TIMING_HELP, _cli, _read
from .model import Instance


def generate_instance(
    n_doctors: int, n_hospitals: int, density: float, tie_prob: float, seed: object
) -> Instance:
    """Random instance: same arguments, same instance, bit for bit.

    Each doctor-hospital pair becomes an edge with probability `density`;
    every preference list is a shuffled permutation whose adjacent
    entries merge into a tie with probability `tie_prob` per boundary.
    """
    if n_doctors < 0 or n_hospitals < 0:
        raise ValueError("vertex counts must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    if not 0.0 <= tie_prob <= 1.0:
        raise ValueError("tie probability must be within [0, 1]")
    import random

    from ._objects import make_instance

    rng = random.Random(seed)
    doctors = tuple(f"d{i}" for i in range(1, n_doctors + 1))
    hospitals = tuple(f"h{j}" for j in range(1, n_hospitals + 1))
    partners_d: dict[str, list[str]] = {d: [] for d in doctors}
    partners_h: dict[str, list[str]] = {h: [] for h in hospitals}
    for d in doctors:
        for h in hospitals:
            if rng.random() < density:
                partners_d[d].append(h)
                partners_h[h].append(d)

    def tie_up(partners: list[str]) -> list[list[str]]:
        rng.shuffle(partners)
        groups: list[list[str]] = []
        for name in partners:
            if groups and rng.random() < tie_prob:
                groups[-1].append(name)
            else:
                groups.append([name])
        return groups

    doctor_prefs = {d: tie_up(partners_d[d]) for d in doctors}
    hospital_prefs = {h: tie_up(partners_h[h]) for h in hospitals}
    return make_instance(doctors, hospitals, doctor_prefs, hospital_prefs)


def _cmd_gen(ns: SimpleNamespace) -> int:
    from ._objects import serialize_instance

    inst = generate_instance(ns.doctors, ns.hospitals, ns.density, ns.tie_prob, ns.seed)
    sys.stdout.write(serialize_instance(inst))
    print(
        f"generated {len(inst.doctors)} doctors, {len(inst.hospitals)} hospitals, "
        f"{len(inst.edges)} edges",
        file=sys.stderr,
    )
    return 0


def _cmd_reduce(ns: SimpleNamespace) -> int:
    from ._objects import parse_coverage, reduce_min_coverage, serialize_instance

    red = reduce_min_coverage(parse_coverage(_read(ns.file)))
    sys.stdout.write(serialize_instance(red.instance))
    sys.stdout.write(f"# q1={red.doctor_budget} q2={red.hospital_budget}\n")
    print(
        f"reduced to {len(red.instance.doctors)} doctors, "
        f"{len(red.instance.hospitals)} hospitals; budgets q1={red.doctor_budget} "
        f"q2={red.hospital_budget}",
        file=sys.stderr,
    )
    return 0


def _cmd_transpose(ns: SimpleNamespace) -> int:
    from ._objects import serialize_instance, transpose_instance

    inst = _cli.parse_instance(_read(ns.file))
    sys.stdout.write(serialize_instance(transpose_instance(inst)))
    print(
        "sides swapped; deletion problems are side-specific, so solver answers "
        "on the transpose answer the doctor-side question",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="superstab",
        description="Super-stable matchings with ties: existence, deletion minimization, "
        "and brute-force cross-checks.",
    )
    parser.add_argument("--no-timing", action="store_true", help=_NO_TIMING_HELP)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, help_line, takes_file, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if takes_file:
            p.add_argument("file")
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(run=run)
        # Accept --no-timing after the subcommand too.  SUPPRESS keeps an
        # omitted sub-level flag from clobbering a value set before the
        # subcommand, since absent attributes are not copied onto the
        # parent namespace.
        p.add_argument(
            "--no-timing", action="store_true", default=argparse.SUPPRESS, help=_NO_TIMING_HELP
        )
    return parser
