"""The command handlers and helpers that the hot commands never run.

`check`, `solve1`, `solve2` and `closure` run from `cli` alone.  The
handlers of `verify`, `gen`, `reduce` and `transpose`, with
`generate_instance` and the argparse parser, live here, so those four
hot commands do not compile them; `cli` reads each from here on first
access (PEP 562).  The handlers look up `parse_instance`,
`solve_two_side_deletion` and `oracle_min_hospital_deletion` on `cli`
itself, so a value set there, such as a tracing wrapper, is what they
call.  Every other name from a module that not all of these commands
load (`oracle`, `_objects`) is imported where it runs, so each command
loads only its row of the README's table: `verify --mode problem1` does
not load `_objects`, and `gen` does not load `oracle`.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import argparse

# `_cli` is the running `cli`, also when `python -m superstab.cli` runs it.
from .cli import _COMMANDS, _NO_TIMING_HELP, _cli, _emit, _finish_stats, _read, _Timer
from .model import Instance, _removed_names
from .superstable import exists_super_stable, solve_min_hospital_deletion


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


def _oracle_caps(keyword: str) -> dict[str, int]:
    """The oracle keyword arguments for `verify`: `{keyword: cap}` when the
    cap variable is set, else none, so the oracle's own default holds."""
    from .oracle import CAP_ENV

    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return {}
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{CAP_ENV} must be non-negative")
    return {keyword: cap}


def _cmd_verify(ns: SimpleNamespace) -> int:
    inst = _cli.parse_instance(_read(ns.file))
    timer = _Timer()
    stats: dict = {}
    if ns.mode == "existence":
        from .oracle import count_matchings, enumerate_super_stable

        caps = _oracle_caps("max_edges")
        solver_yes = exists_super_stable(inst) is not None
        oracle_found = enumerate_super_stable(inst, **caps)
        oracle_yes = bool(oracle_found)
        agree = solver_yes == oracle_yes
        stats = {
            "solver_answer": "yes" if solver_yes else "no",
            "oracle_answer": "yes" if oracle_yes else "no",
            "search_space": count_matchings(inst, **caps),
        }
    elif ns.mode == "problem1":
        caps = _oracle_caps("max_hospitals")
        cert = solve_min_hospital_deletion(inst)
        oracle_min, _ = _cli.oracle_min_hospital_deletion(inst, **caps)
        agree = len(cert.critical) == oracle_min
        stats = {"solver_min": len(cert.critical), "oracle_min": oracle_min}
    else:
        from .oracle import oracle_two_side_deletion

        if ns.q1 is None or ns.q2 is None:
            raise ValueError("--mode problem2 needs --q1 and --q2")
        if ns.q1 < 0 or ns.q2 < 0:
            raise ValueError("--q1 and --q2 must be non-negative")
        caps = _oracle_caps("max_vertices")
        solver_witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
        oracle_witness = oracle_two_side_deletion(inst, ns.q1, ns.q2, **caps)
        agree = (solver_witness is None) == (oracle_witness is None)
        for witness in (solver_witness, oracle_witness):
            if witness is None:
                continue
            ds, hs = map(sorted, _removed_names(inst, witness))
            if len(ds) > ns.q1 or len(hs) > ns.q2 or exists_super_stable(inst, witness) is None:
                agree = False
        stats = {
            "solver_answer": "yes" if solver_witness is not None else "no",
            "oracle_answer": "yes" if oracle_witness is not None else "no",
        }
    payload = {
        "command": "verify",
        "mode": ns.mode,
        "answer": "yes" if agree else "no",
        "stats": _finish_stats(stats, timer, ns),
    }
    _emit(payload, "AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


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
