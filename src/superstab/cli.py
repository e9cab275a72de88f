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

`argparse` loads only for `--help` and for command lines that the plain
reader declines.  A plain command line is the command, then its FILE
and each of its options at most once as `--name VALUE`, with no VALUE
starting with `-`, and `--no-timing` on its own anywhere between them.
The reader and the argparse parser are both built from `_COMMANDS`, and
the reader returns the namespace argparse would.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import compress
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import argparse

from .model import (
    Instance,
    Vertex,
    _removed_names,
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
    # The import statement's own hook, not `importlib`: it loads no module
    # of its own, and `-X importtime` lists what it imports.
    value = getattr(__import__(_LAZY[name], globals(), None, (name,), 1), name)
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


def _finish_stats(stats: dict, timer: _Timer, ns: SimpleNamespace) -> dict:
    if not ns.no_timing:
        stats["elapsed_ms"] = timer.ms()
    return stats


def _oracle_caps(keyword: str) -> dict[str, int]:
    """The oracle keyword arguments for `verify`: `{keyword: cap}` when the
    cap variable is set, else none, so the oracle's own default holds."""
    cap_env = _cli.CAP_ENV
    raw = os.environ.get(cap_env)
    if raw is None:
        return {}
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{cap_env} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"{cap_env} must be non-negative")
    return {keyword: cap}


def _cmd_check(ns: SimpleNamespace) -> int:
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


def _cmd_solve1(ns: SimpleNamespace) -> int:
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


def _cmd_solve2(ns: SimpleNamespace) -> int:
    if ns.q1 < 0 or ns.q2 < 0:
        raise ValueError("--q1 and --q2 must be non-negative")
    inst = parse_instance(_read(ns.file))
    timer = _Timer()
    witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
    payload: dict = {"command": "solve2", "answer": "yes" if witness is not None else "no"}
    if witness is not None:
        ds, hs = map(sorted, _removed_names(inst, witness))
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

    Canonical order sorts one integer per edge id: its doctor's place
    among the sorted doctor names times |H| plus its hospital's place
    among the sorted hospital names.  As names are unique on each side,
    that is the order `ordered_edges` gives their edges.  Each name is
    quoted once, each edge's `[doctor, hospital]` block is built once per
    depth that prints it, and a list of edges is one join over the blocks
    whose flag is set, written as it is rather than copied into a larger
    string.  The initial forbidden flags are the edges of the deleted
    hospitals, read from the core.  So each round costs O(|E|), and live
    memory beyond the list being written is O(|E|).
    """
    doctors, hospitals, ed, eh = inst.doctors, inst.hospitals, inst._ed, inst._eh
    n, d_place, h_place = len(hospitals), _places(doctors), _places(hospitals)
    key = [d_place[d] * n + h_place[h] for d, h in zip(ed, eh)]
    order = sorted(range(len(key)), key=key.__getitem__)
    at = dict(zip(order, range(len(order))))
    quoted_d, quoted_h = list(map(json.dumps, doctors)), list(map(json.dumps, hospitals))
    pairs = [(quoted_d[ed[e]], quoted_h[eh[e]]) for e in order]

    def blocks(depth: int) -> list[str]:
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth + "]"
        return [f"[{inner}{d},{inner}{h}{close}" for d, h in pairs]

    write = sys.stdout.write

    def put(items: list[str], flags: bytearray, pad: str) -> None:
        """Write the list of the flagged blocks, each on a line of its own
        after `pad`, without copying it into a string of its own first."""
        body = ("," + pad).join(compress(items, flags))
        if body:
            write(f"[{pad}")
            write(body)
            write(f"{pad[:-2]}]")
        else:
            write("[]")

    def indented(value: object) -> str:
        return json.dumps(value, indent=2).replace("\n", "\n  ")

    top, inside = blocks(2), blocks(4)
    top_pad, inside_pad = "\n" + "  " * 2, "\n" + "  " * 4
    held = bytearray(len(order))
    forbidden = bytearray(len(order))
    gone = {v.name for v in removed}
    for h, ids in zip(hospitals, inst._by_h):
        if h in gone:
            for e in ids:
                forbidden[at[e]] = 1
    write(f'{{\n  "command": "closure",\n  "deleted_hospitals": {indented(sorted(gone))},\n  "initial_forbidden": ')
    put(top, forbidden, top_pad)
    write(',\n  "rounds": [')
    # A run has at least one round, the last one forbidding nothing.
    sep = ""
    for index, (new, lost) in enumerate(trace._log, 1):
        for e in new:
            held[at[e]] = 1
        write(f'{sep}\n    {{\n      "round": {index},\n      "proposed": ')
        put(inside, held, inside_pad)
        for e in lost:
            held[at[e]] = 0
            forbidden[at[e]] = 1
        write(',\n      "held": ')
        put(inside, held, inside_pad)
        write(',\n      "forbidden": ')
        put(inside, forbidden, inside_pad)
        write("\n    }")
        sep = ","
    write('\n  ],\n  "forbidden": ')
    put(top, forbidden, top_pad)
    write(f',\n  "stats": {indented(stats)}\n}}\n')


def _places(names: tuple[str, ...]) -> list[int]:
    """Each name's place among the names in sorted order."""
    place = dict(zip(sorted(names), range(len(names))))
    return list(map(place.__getitem__, names))


def _cmd_closure(ns: SimpleNamespace) -> int:
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


def _cmd_verify(ns: SimpleNamespace) -> int:
    inst = parse_instance(_read(ns.file))
    timer = _Timer()
    stats: dict = {}
    if ns.mode == "existence":
        caps = _oracle_caps("max_edges")
        solver_yes = exists_super_stable(inst) is not None
        oracle_found = _cli.enumerate_super_stable(inst, **caps)
        oracle_yes = bool(oracle_found)
        agree = solver_yes == oracle_yes
        stats = {
            "solver_answer": "yes" if solver_yes else "no",
            "oracle_answer": "yes" if oracle_yes else "no",
            "search_space": _cli.count_matchings(inst, **caps),
        }
    elif ns.mode == "problem1":
        caps = _oracle_caps("max_hospitals")
        cert = solve_min_hospital_deletion(inst)
        oracle_min, _ = _cli.oracle_min_hospital_deletion(inst, **caps)
        agree = len(cert.critical) == oracle_min
        stats = {"solver_min": len(cert.critical), "oracle_min": oracle_min}
    else:
        if ns.q1 is None or ns.q2 is None:
            raise ValueError("--mode problem2 needs --q1 and --q2")
        if ns.q1 < 0 or ns.q2 < 0:
            raise ValueError("--q1 and --q2 must be non-negative")
        caps = _oracle_caps("max_vertices")
        solver_witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
        oracle_witness = _cli.oracle_two_side_deletion(inst, ns.q1, ns.q2, **caps)
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
    inst = generate_instance(ns.doctors, ns.hospitals, ns.density, ns.tie_prob, ns.seed)
    sys.stdout.write(serialize_instance(inst))
    print(
        f"generated {len(inst.doctors)} doctors, {len(inst.hospitals)} hospitals, "
        f"{len(inst.edges)} edges",
        file=sys.stderr,
    )
    return 0


def _cmd_reduce(ns: SimpleNamespace) -> int:
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


def _cmd_transpose(ns: SimpleNamespace) -> int:
    inst = parse_instance(_read(ns.file))
    sys.stdout.write(serialize_instance(transpose_instance(inst)))
    print(
        "sides swapped; deletion problems are side-specific, so solver answers "
        "on the transpose answer the doctor-side question",
        file=sys.stderr,
    )
    return 0


# Each command: its handler, its help line, whether it takes FILE, and
# each option's flag with the keyword arguments of `add_argument`.  This
# one table drives both the plain reader and the argparse parser.
_COMMANDS = {
    "check": (_cmd_check, "does a super-stable matching exist?", True, {}),
    "solve1": (_cmd_solve1, "minimum hospital deletions against a budget", True, {
        "--q": {"type": int, "required": True, "help": "hospital deletion budget"},
    }),
    "solve2": (_cmd_solve2, "two-side deletion within per-side budgets", True, {
        "--q1": {"type": int, "required": True, "help": "doctor deletion budget"},
        "--q2": {"type": int, "required": True, "help": "hospital deletion budget"},
    }),
    "closure": (_cmd_closure, "print the forbidding loop round by round", True, {
        "--delete": {"nargs": "*", "default": [], "metavar": "HOSPITAL"},
    }),
    "verify": (_cmd_verify, "cross-check the solver against the oracle", True, {
        "--mode": {"required": True, "choices": ["existence", "problem1", "problem2"]},
        "--q1": {"type": int, "default": None},
        "--q2": {"type": int, "default": None},
    }),
    "gen": (_cmd_gen, "emit a random instance deterministically", False, {
        "--doctors": {"type": int, "required": True},
        "--hospitals": {"type": int, "required": True},
        "--density": {"type": float, "required": True},
        "--tie-prob": {"type": float, "required": True},
        "--seed": {"default": "0"},
    }),
    "reduce": (_cmd_reduce, "coverage data to a deletion instance", True, {}),
    "transpose": (_cmd_transpose, "swap the doctor and hospital sides", True, {}),
}

_NO_TIMING_HELP = "omit elapsed_ms from stats so outputs are byte-stable"


def _read_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace `_build_parser().parse_args(argv)` returns, when argv
    has the plain shape; else None, and argparse reads argv.

    Plain means: the command, then its FILE and each of its options at
    most once as `--name VALUE`, where no VALUE starts with `-` and
    `--delete` takes the tokens up to the next one that does; and
    `--no-timing`, on its own, before the command or between any two of
    these."""
    tokens = list(argv)
    command = next((token for token in tokens if token != "--no-timing"), None)
    if command not in _COMMANDS:
        return None
    run, _, takes_file, options = _COMMANDS[command]
    given: dict[str, object] = {}
    at = tokens.index(command) + 1
    while at < len(tokens):
        token = tokens[at]
        at += 1
        if token == "--no-timing":
            continue
        if not token.startswith("-"):
            if not takes_file or "file" in given:
                return None
            given["file"] = token
        elif token not in options or token in given:
            return None
        elif options[token].get("nargs") == "*":
            end = at
            while end < len(tokens) and not tokens[end].startswith("-"):
                end += 1
            given[token], at = tokens[at:end], end
        elif at == len(tokens) or tokens[at].startswith("-"):
            return None
        else:
            spec = options[token]
            try:
                value = spec.get("type", str)(tokens[at])
            except ValueError:
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
            given[token], at = value, at + 1
    if takes_file and "file" not in given:
        return None
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    ns = SimpleNamespace(no_timing="--no-timing" in tokens, command=command, run=run)
    if takes_file:
        ns.file = given["file"]
    for flag, spec in options.items():
        setattr(ns, flag[2:].replace("-", "_"), given.get(flag, spec.get("default")))
    return ns


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


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ns = _read_plain(argv)
    if ns is None:
        try:
            ns = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
    try:
        return ns.run(ns)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
