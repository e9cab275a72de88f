"""Command-line front end.

JSON results go to stdout for scripting; one-line human summaries go to
stderr.  Exit codes are uniform: 0 for yes/agree, 1 for no/none, 2 for
any error.  `gen`, `reduce` and `transpose` print file text instead of
JSON.

Each command loads only the modules it runs, and compiles only the code
it runs: without cached bytecode every invocation compiles what it
imports.  This file keeps the plain reader, `main` and the handlers of
`check`, `solve1`, `solve2` and `closure`; `model` and `superstable`
load with it.  The rest loads on first use:

- `_writer`, the round-by-round writer, in `closure`;
- `hardness` in `solve2` and `verify --mode problem2`;
- `oracle`, with the handler of `verify`, in `verify`;
- `_objects` in `verify --mode existence` and `--mode problem2`, on bad
  input, and in `gen`, `reduce`, `transpose` and for the argparse
  parser, whose handlers, `generate_instance` and `_build_parser` it
  holds; and `random` in `gen`.

No command loads `json`.  `_dumps` writes every JSON value the package
prints, byte for byte as `json.dumps(value, indent=2)` would, and quotes
each string with `_quoted`, the C function `json.dumps` calls on one;
`_emit` prints its payload with `_dumps`.  The `closure` writer takes
both from here: it builds each edge's block once, at the rounds' depth,
and writes a top-level list as the same join with four spaces less
after each newline, which is exact because a quoted name holds no raw
newline.  `_dumps` stays here, not in `_writer`, so that the commands
other than `closure` compile no `_writer`.

`main` runs the command with the cyclic collector off and puts it back
as the caller had it, on every way out.  No command leaves cyclic
garbage: after `main`, `gc.collect()` finds nothing, on a 4-edge file as
on a 4,000-edge one.  So the collector's passes over the per-edge
containers a run keeps would free nothing; in a 4,000-edge `closure`
child they took about 2 ms (Python 3.11, shared 2-vCPU host).

The table below holds only the names read on this module: the handlers
and helpers kept elsewhere, `generate_instance`, and the two entry
points that `bench/tracer.py` wraps.  Each is imported on first access
(PEP 562), and the commands look it up on the module when they run, so
a value set on the module, such as a tracing wrapper, is what they call.
The handler of `verify`, in `oracle`, looks up `parse_instance` and
those two entry points on this module too.

`argparse` loads only for `--help` and for command lines that the plain
reader declines.  A plain command line is the command, then its FILE
and each of its options at most once as `--name VALUE`, with no VALUE
starting with `-`, and `--no-timing` on its own anywhere between them.
The reader and the argparse parser are both built from `_COMMANDS`, and
the reader returns the namespace argparse would.
"""

from __future__ import annotations

import gc
import sys
import time
from types import SimpleNamespace
from typing import Sequence

from _json import encode_basestring_ascii as _quoted

from . import _lazy
from .model import _removed_names, hospital, ordered_edges, parse_instance
from .superstable import closure, exists_super_stable, solve_min_hospital_deletion

# The module that defines each name that is read on this module.
__getattr__ = _lazy(
    globals(),
    {
        "solve_two_side_deletion": "hardness",
        "oracle_min_hospital_deletion": "oracle",
        "_cmd_verify": "oracle",
        "_write_closure": "_writer",
        **dict.fromkeys(
            ("_cmd_gen", "_cmd_reduce", "_cmd_transpose", "generate_instance", "_build_parser"), "_objects"
        ),
    }.get,
)

# This module, as `python -m` runs it too; the commands read the lazy names on it.
_cli = sys.modules[__name__]


def _dumps(value: object, indent: str = "") -> str:
    """`value` as `json.dumps(value, indent=2)` writes it, when `value` is a
    `str`, an `int` other than `bool`, or a list, tuple or `str`-keyed dict
    of such values, and `indent` is the indentation of the line it starts
    on; else TypeError.  Strings are quoted by the C function `json.dumps`
    calls on them."""
    if isinstance(value, str):
        return _quoted(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items, brackets = [_dumps(item, inner) for item in value], "[]"
    elif isinstance(value, dict):  # `_quoted` raises TypeError for a key that is no `str`
        items, brackets = [f"{_quoted(key)}: {_dumps(item, inner)}" for key, item in value.items()], "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    sep = ",\n" + inner
    return f"{brackets[0]}\n{inner}{sep.join(items)}\n{indent}{brackets[1]}"


def _emit(payload: dict, note: str) -> None:
    print(_dumps(payload))
    print(note, file=sys.stderr)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _finish_stats(stats: dict, t0: float, ns: SimpleNamespace) -> dict:
    if not ns.no_timing:
        stats["elapsed_ms"] = int(round((time.perf_counter() - t0) * 1000))
    return stats


def _cmd_check(ns: SimpleNamespace) -> int:
    inst = parse_instance(_read(ns.file))
    t0 = time.perf_counter()
    cert = solve_min_hospital_deletion(inst)
    ok = not cert.critical
    payload: dict = {"command": "check", "answer": "yes" if ok else "none"}
    if ok:
        payload["matching"] = ordered_edges(cert.matching)
    stats = {"iterations": cert.trace.iterations, "forbidden_size": len(cert.forbidden)}
    payload["stats"] = _finish_stats(stats, t0, ns)
    _emit(payload, "super-stable matching found" if ok else "no super-stable matching")
    return 0 if ok else 1


def _cmd_solve1(ns: SimpleNamespace) -> int:
    if ns.q < 0:
        raise ValueError("--q must be non-negative")
    inst = parse_instance(_read(ns.file))
    t0 = time.perf_counter()
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
            t0,
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
    t0 = time.perf_counter()
    witness = _cli.solve_two_side_deletion(inst, ns.q1, ns.q2)
    payload: dict = {"command": "solve2", "answer": "yes" if witness is not None else "no"}
    if witness is not None:
        ds, hs = map(sorted, _removed_names(inst, witness))
        payload["deleted_doctors"] = ds
        payload["deleted_hospitals"] = hs
        matching = exists_super_stable(inst, witness)
        assert matching is not None
        payload["matching"] = ordered_edges(matching)
    payload["stats"] = _finish_stats({"doctor_budget": ns.q1, "hospital_budget": ns.q2}, t0, ns)
    _emit(
        payload,
        "deletion set found within budgets" if witness is not None else "no deletion set within budgets",
    )
    return 0 if witness is not None else 1


def _cmd_closure(ns: SimpleNamespace) -> int:
    inst = parse_instance(_read(ns.file))
    removed = frozenset(hospital(name) for name in ns.delete)
    t0 = time.perf_counter()
    forbidden, trace = closure(inst, removed)
    stats = _finish_stats({"iterations": trace.iterations, "forbidden_size": len(forbidden)}, t0, ns)
    _cli._write_closure(inst, removed, trace, stats)
    print(f"closure fixed point after {trace.iterations} rounds", file=sys.stderr)
    return 0


# Each command: the name of its handler on this module, its help line, whether it takes FILE, and
# each option's flag with the keyword arguments of `add_argument`.  This
# one table drives both the plain reader and the argparse parser.
_COMMANDS = {
    "check": ("_cmd_check", "does a super-stable matching exist?", True, {}),
    "solve1": ("_cmd_solve1", "minimum hospital deletions against a budget", True, {
        "--q": {"type": int, "required": True, "help": "hospital deletion budget"},
    }),
    "solve2": ("_cmd_solve2", "two-side deletion within per-side budgets", True, {
        "--q1": {"type": int, "required": True, "help": "doctor deletion budget"},
        "--q2": {"type": int, "required": True, "help": "hospital deletion budget"},
    }),
    "closure": ("_cmd_closure", "print the forbidding loop round by round", True, {
        "--delete": {"nargs": "*", "default": [], "metavar": "HOSPITAL"},
    }),
    "verify": ("_cmd_verify", "cross-check the solver against the oracle", True, {
        "--mode": {"required": True, "choices": ["existence", "problem1", "problem2"]},
        "--q1": {"type": int, "default": None},
        "--q2": {"type": int, "default": None},
    }),
    "gen": ("_cmd_gen", "emit a random instance deterministically", False, {
        "--doctors": {"type": int, "required": True},
        "--hospitals": {"type": int, "required": True},
        "--density": {"type": float, "required": True},
        "--tie-prob": {"type": float, "required": True},
        "--seed": {"default": "0"},
    }),
    "reduce": ("_cmd_reduce", "coverage data to a deletion instance", True, {}),
    "transpose": ("_cmd_transpose", "swap the doctor and hospital sides", True, {}),
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


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code, with the cyclic
    collector off until it returns (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if argv is None:
            argv = sys.argv[1:]
        ns = _read_plain(argv)
        if ns is None:
            try:
                ns = _cli._build_parser().parse_args(argv)
            except SystemExit as exc:
                return 2 if exc.code else 0
        try:
            return getattr(_cli, ns.run)(ns)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    # `oracle`, `_objects` and `_writer` import names from this module; let them find the running one.
    sys.modules[__spec__.name] = _cli
    sys.exit(main())
