"""Command-line front end.

JSON results go to stdout for scripting; one-line human summaries go to
stderr.  Exit codes are uniform: 0 for yes/agree, 1 for no/none, 2 for
any error.  `gen`, `reduce` and `transpose` print file text instead of
JSON.

Each command loads only the modules it runs.  `model` and `superstable`
load with this module; `hardness` loads in `solve2`, `reduce` and
`verify --mode problem2`, `oracle` in `verify`, and `random` in `gen`.
The names this module uses from `hardness` and `oracle` are in `_LAZY`:
each is still an attribute of this module, imported on first access
(PEP 562), and the commands look it up on the module when they run, so
a value set on the module, such as a tracing wrapper, is what they call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import compress
from typing import Iterable, Sequence

from .model import (
    DOCTOR,
    Instance,
    Vertex,
    hospital,
    make_instance,
    ordered_edges,
    parse_instance,
    serialize_instance,
    transpose_instance,
)
from .superstable import (
    ClosureTrace,
    closure,
    exists_super_stable,
    solve_min_hospital_deletion,
)

# The module that defines each name that only some commands use.
_LAZY = {
    "parse_coverage": "hardness",
    "reduce_min_coverage": "hardness",
    "solve_two_side_deletion": "hardness",
    "CAP_ENV": "oracle",
    "count_matchings": "oracle",
    "enumerate_super_stable": "oracle",
    "oracle_min_hospital_deletion": "oracle",
    "oracle_two_side_deletion": "oracle",
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # not at the top: `site` may not have loaded it

    value = getattr(import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


# This module, as `python -m` runs it too; the commands read `_LAZY` names on it.
_cli = sys.modules[__name__]


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


def _split_names(removed: Iterable[Vertex]) -> tuple[list[str], list[str]]:
    ds = sorted(v.name for v in removed if v.side == DOCTOR)
    hs = sorted(v.name for v in removed if v.side != DOCTOR)
    return ds, hs


def _emit(payload: dict, note: str) -> None:
    print(json.dumps(payload, indent=2))
    print(note, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class _Timer:
    def __init__(self) -> None:
        self.t0 = time.perf_counter()

    def ms(self) -> int:
        return int(round((time.perf_counter() - self.t0) * 1000))


def _finish_stats(stats: dict, timer: _Timer, ns: argparse.Namespace) -> dict:
    if not ns.no_timing:
        stats["elapsed_ms"] = timer.ms()
    return stats


def _oracle_caps(defaults: dict[str, int]) -> dict[str, int]:
    cap_env = _cli.CAP_ENV
    raw = os.environ.get(cap_env)
    if raw is None:
        return defaults
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{cap_env} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{cap_env} must be non-negative")
    return {name: cap for name in defaults}


def _cmd_check(ns: argparse.Namespace) -> int:
    inst = parse_instance(_read(ns.file))
    timer = _Timer()
    cert = solve_min_hospital_deletion(inst)
    ok = not cert.critical
    payload: dict = {"command": "check", "answer": "yes" if ok else "none"}
    if ok:
        payload["matching"] = ordered_edges(cert.matching)
    payload["stats"] = _finish_stats(
        {"iterations": cert.trace.iterations, "forbidden_size": len(cert.forbidden)},
        timer,
        ns,
    )
    _emit(payload, "super-stable matching found" if ok else "no super-stable matching")
    return 0 if ok else 1


def _cmd_solve1(ns: argparse.Namespace) -> int:
    if ns.q < 0:
        raise ValueError("--q must be non-negative")
    inst = parse_instance(_read(ns.file))
    timer = _Timer()
    cert = solve_min_hospital_deletion(inst)
    ok = len(cert.critical) <= ns.q
    payload = {
        "command": "solve1",
        "answer": "yes" if ok else "no",
        "deleted_hospitals": sorted(v.name for v in cert.critical),
        "matching": ordered_edges(cert.matching),
        "stats": _finish_stats(
            {
                "iterations": cert.trace.iterations,
                "forbidden_size": len(cert.forbidden),
                "min_deletions": len(cert.critical),
                "budget": ns.q,
            },
            timer,
            ns,
        ),
    }
    _emit(
        payload,
        f"minimum hospital deletions: {len(cert.critical)} "
        f"({'within' if ok else 'over'} budget {ns.q})",
    )
    return 0 if ok else 1


def _cmd_solve2(ns: argparse.Namespace) -> int:
    if ns.q1 < 0 or ns.q2 < 0:
        raise ValueError("--q1 and --q2 must be non-negative")
    inst = parse_instance(_read(ns.file))
    timer = _Timer()
    witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
    payload: dict = {"command": "solve2", "answer": "yes" if witness is not None else "no"}
    if witness is not None:
        ds, hs = _split_names(witness)
        payload["deleted_doctors"] = ds
        payload["deleted_hospitals"] = hs
        matching = exists_super_stable(inst, witness)
        assert matching is not None
        payload["matching"] = ordered_edges(matching)
    payload["stats"] = _finish_stats({"doctor_budget": ns.q1, "hospital_budget": ns.q2}, timer, ns)
    _emit(
        payload,
        "deletion set found within budgets" if witness is not None else "no deletion set within budgets",
    )
    return 0 if witness is not None else 1


def _write_closure(
    inst: Instance, removed: frozenset[Vertex], trace: ClosureTrace, stats: dict
) -> None:
    """Write the closure payload as `json.dumps(payload, indent=2)` would,
    one round at a time, straight from the trace's log of edge ids.

    Each edge's `[doctor, hospital]` block is built once per depth that
    prints it, at the edge's position in canonical order, which is looked
    up by id, and a list of edges is one join over the blocks whose flag
    is set.  So each round costs O(|E|), and live memory beyond the round
    being written is O(|E|).
    """
    edge = inst._edge
    order = sorted(range(len(edge)), key=edge.__getitem__)
    at = dict(zip(order, range(len(order))))
    quoted = {name: json.dumps(name) for name in (*inst.doctors, *inst.hospitals)}

    def blocks(depth: int) -> list[str]:
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth + "]"
        return [f"[{inner}{quoted[edge[e][0]]},{inner}{quoted[edge[e][1]]}{close}" for e in order]

    def edges(items: list[str], flags: bytearray, pad: str) -> str:
        """The list of the flagged blocks, each on a line of its own after `pad`."""
        body = ("," + pad).join(compress(items, flags))
        return f"[{pad}{body}{pad[:-2]}]" if body else "[]"

    def indented(value: object) -> str:
        return json.dumps(value, indent=2).replace("\n", "\n  ")

    top, inside = blocks(2), blocks(4)
    top_pad, inside_pad = "\n" + "  " * 2, "\n" + "  " * 4
    held = bytearray(len(order))
    forbidden = bytearray(edge[e] in trace.initial_forbidden for e in order)
    write = sys.stdout.write
    write(
        f'{{\n  "command": "closure",\n'
        f'  "deleted_hospitals": {indented(sorted(v.name for v in removed))},\n'
        f'  "initial_forbidden": {edges(top, forbidden, top_pad)},\n'
        f'  "rounds": ['
    )
    # A run has at least one round, the last one forbidding nothing.
    sep = ""
    for index, (new, lost) in enumerate(trace._log, 1):
        for e in new:
            held[at[e]] = 1
        proposed = edges(inside, held, inside_pad)
        for e in lost:
            held[at[e]] = 0
            forbidden[at[e]] = 1
        write(
            f'{sep}\n    {{\n      "round": {index},\n      "proposed": {proposed},\n'
            f'      "held": {edges(inside, held, inside_pad) if lost else proposed},\n'
            f'      "forbidden": {edges(inside, forbidden, inside_pad)}\n    }}'
        )
        sep = ","
    write(
        f'\n  ],\n  "forbidden": {edges(top, forbidden, top_pad)},\n'
        f'  "stats": {indented(stats)}\n}}\n'
    )


def _cmd_closure(ns: argparse.Namespace) -> int:
    inst = parse_instance(_read(ns.file))
    removed = frozenset(hospital(name) for name in ns.delete)
    timer = _Timer()
    forbidden, trace = closure(inst, removed)
    stats = _finish_stats(
        {"iterations": trace.iterations, "forbidden_size": len(forbidden)}, timer, ns
    )
    _write_closure(inst, removed, trace, stats)
    print(f"closure fixed point after {trace.iterations} rounds", file=sys.stderr)
    return 0


def _cmd_verify(ns: argparse.Namespace) -> int:
    inst = parse_instance(_read(ns.file))
    timer = _Timer()
    stats: dict = {}
    if ns.mode == "existence":
        caps = _oracle_caps({"max_edges": 20})
        solver_yes = exists_super_stable(inst) is not None
        oracle_found = _cli.enumerate_super_stable(inst, max_edges=caps["max_edges"])
        oracle_yes = bool(oracle_found)
        agree = solver_yes == oracle_yes
        stats = {
            "solver_answer": "yes" if solver_yes else "no",
            "oracle_answer": "yes" if oracle_yes else "no",
            "search_space": _cli.count_matchings(inst, max_edges=caps["max_edges"]),
        }
    elif ns.mode == "problem1":
        caps = _oracle_caps({"max_hospitals": 12})
        cert = solve_min_hospital_deletion(inst)
        oracle_min, _ = _cli.oracle_min_hospital_deletion(inst, max_hospitals=caps["max_hospitals"])
        agree = len(cert.critical) == oracle_min
        stats = {"solver_min": len(cert.critical), "oracle_min": oracle_min}
    else:
        if ns.q1 is None or ns.q2 is None:
            raise ValueError("--mode problem2 needs --q1 and --q2")
        if ns.q1 < 0 or ns.q2 < 0:
            raise ValueError("--q1 and --q2 must be non-negative")
        caps = _oracle_caps({"max_vertices": 14})
        solver_witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
        oracle_witness = _cli.oracle_two_side_deletion(
            inst, ns.q1, ns.q2, max_vertices=caps["max_vertices"]
        )
        agree = (solver_witness is None) == (oracle_witness is None)
        for witness in (solver_witness, oracle_witness):
            if witness is None:
                continue
            ds, hs = _split_names(witness)
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


def _cmd_gen(ns: argparse.Namespace) -> int:
    inst = generate_instance(ns.doctors, ns.hospitals, ns.density, ns.tie_prob, ns.seed)
    sys.stdout.write(serialize_instance(inst))
    print(
        f"generated {len(inst.doctors)} doctors, {len(inst.hospitals)} hospitals, "
        f"{len(inst.edges)} edges",
        file=sys.stderr,
    )
    return 0


def _cmd_reduce(ns: argparse.Namespace) -> int:
    red = _cli.reduce_min_coverage(_cli.parse_coverage(_read(ns.file)))
    sys.stdout.write(serialize_instance(red.instance))
    sys.stdout.write(f"# q1={red.doctor_budget} q2={red.hospital_budget}\n")
    print(
        f"reduced to {len(red.instance.doctors)} doctors, "
        f"{len(red.instance.hospitals)} hospitals; budgets q1={red.doctor_budget} "
        f"q2={red.hospital_budget}",
        file=sys.stderr,
    )
    return 0


def _cmd_transpose(ns: argparse.Namespace) -> int:
    inst = parse_instance(_read(ns.file))
    sys.stdout.write(serialize_instance(transpose_instance(inst)))
    print(
        "sides swapped; deletion problems are side-specific, so solver answers "
        "on the transpose answer the doctor-side question",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superstab",
        description="Super-stable matchings with ties: existence, deletion minimization, "
        "and brute-force cross-checks.",
    )
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="omit elapsed_ms from stats so outputs are byte-stable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="does a super-stable matching exist?")
    p.add_argument("file")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("solve1", help="minimum hospital deletions against a budget")
    p.add_argument("file")
    p.add_argument("--q", type=int, required=True, help="hospital deletion budget")
    p.set_defaults(run=_cmd_solve1)

    p = sub.add_parser("solve2", help="two-side deletion within per-side budgets")
    p.add_argument("file")
    p.add_argument("--q1", type=int, required=True, help="doctor deletion budget")
    p.add_argument("--q2", type=int, required=True, help="hospital deletion budget")
    p.set_defaults(run=_cmd_solve2)

    p = sub.add_parser("closure", help="print the forbidding loop round by round")
    p.add_argument("file")
    p.add_argument("--delete", nargs="*", default=[], metavar="HOSPITAL")
    p.set_defaults(run=_cmd_closure)

    p = sub.add_parser("verify", help="cross-check the solver against the oracle")
    p.add_argument("file")
    p.add_argument("--mode", required=True, choices=["existence", "problem1", "problem2"])
    p.add_argument("--q1", type=int, default=None)
    p.add_argument("--q2", type=int, default=None)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("gen", help="emit a random instance deterministically")
    p.add_argument("--doctors", type=int, required=True)
    p.add_argument("--hospitals", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--tie-prob", type=float, required=True)
    p.add_argument("--seed", default="0")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("reduce", help="coverage data to a deletion instance")
    p.add_argument("file")
    p.set_defaults(run=_cmd_reduce)

    p = sub.add_parser("transpose", help="swap the doctor and hospital sides")
    p.add_argument("file")
    p.set_defaults(run=_cmd_transpose)

    # Accept --no-timing after the subcommand too.  SUPPRESS keeps an
    # omitted sub-level flag from clobbering a value set before the
    # subcommand, since absent attributes are not copied onto the
    # parent namespace.
    for p in sub.choices.values():
        p.add_argument(
            "--no-timing",
            action="store_true",
            default=argparse.SUPPRESS,
            help="omit elapsed_ms from stats so outputs are byte-stable",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return ns.run(ns)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
