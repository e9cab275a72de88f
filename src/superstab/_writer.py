"""The `closure` command's writer, which only that command loads.

`closure` prints every round of the forbidding loop, and this writer
streams the JSON from the trace's log of edge ids; no other command runs
it, so no other command compiles it.  `cli` reads `_write_closure` from
here on first access (PEP 562).

It loads no `json`: it takes `_quoted` and `_dumps` from `cli`, the one
quoter and the one JSON writer of every command.  `_quoted` quotes each
name, and `_dumps` writes the two small values, `deleted_hospitals`
(names) and `stats` (`str` to `int`).  Each edge's block is built once,
at the rounds' depth, and a top-level list is re-indented from the same
join (see `_write_closure`).  Like every command, it runs inside
`cli.main`, with the cyclic collector off: the writer's per-edge lists
hold no cycles, so a collection would free nothing.
"""

from __future__ import annotations

import sys
from itertools import compress

from .cli import _dumps, _quoted
from .model import Instance, Vertex
from .superstable import ClosureTrace

# What follows each newline inside a list at the rounds' depth (8 spaces)
# and the 4 of them that a top-level list, two levels up, leaves out.
_PAD = "\n" + " " * 8
_SHIFT = "\n" + " " * 4


def _write_closure(
    inst: Instance, removed: frozenset[Vertex], trace: ClosureTrace, stats: dict
) -> None:
    """Write the closure payload as `json.dumps(payload, indent=2)` would,
    one round at a time, straight from the trace's log of edge ids.

    Canonical order sorts one integer per edge id: its doctor's place
    among the sorted doctor names times |H| plus its hospital's place
    among the sorted hospital names.  As names are unique on each side,
    that is the order `ordered_edges` gives their edges.  Each name is
    quoted once, and each edge's `[doctor, hospital]` block is built once,
    at the rounds' depth.  A list of edges is one join over the blocks
    whose flag is set, written as it is rather than copied into a larger
    string.  A top-level list is the same join with four spaces removed
    after each newline: a quoted name holds no raw newline, so every
    newline in the join is the indent's.  The final `forbidden` list is
    the last round's, as no flag changes after it.  The initial forbidden
    flags are the edges of the deleted hospitals, read from the core.  So
    each round costs O(|E|), and live memory beyond the list being
    written is O(|E|).
    """
    doctors, hospitals, ed, eh = inst.doctors, inst.hospitals, inst._ed, inst._eh
    n, d_place, h_place = len(hospitals), _places(doctors), _places(hospitals)
    key = [d_place[d] * n + h_place[h] for d, h in zip(ed, eh)]
    order = sorted(range(len(key)), key=key.__getitem__)
    at = [0] * len(order)  # each edge id's place in `order`
    for place, e in enumerate(order):
        at[e] = place
    quoted_d, quoted_h = list(map(_quoted, doctors)), list(map(_quoted, hospitals))
    inner = _PAD + "  "
    blocks = [f"[{inner}{quoted_d[ed[e]]},{inner}{quoted_h[eh[e]]}{_PAD}]" for e in order]
    join = ("," + _PAD).join
    write = sys.stdout.write

    def put(body: str, top: bool = False) -> None:
        """Write the list whose items' join is `body`, at the rounds' depth
        or, with `top`, at the top level."""
        if not body:
            write("[]")
        elif top:
            write(f"[{_SHIFT}")
            write(body.replace(_SHIFT, "\n"))
            write("\n  ]")
        else:
            write(f"[{_PAD}")
            write(body)
            write(f"{_PAD[:-2]}]")

    held = bytearray(len(order))
    forbidden = bytearray(len(order))
    gone = {v.name for v in removed}
    for h, ids in zip(hospitals, inst._by_h):
        if h in gone:
            for e in ids:
                forbidden[at[e]] = 1
    write('{\n  "command": "closure",\n  "deleted_hospitals": ')
    write(_dumps(sorted(gone), "  "))
    write(',\n  "initial_forbidden": ')
    put(join(compress(blocks, forbidden)), top=True)
    write(',\n  "rounds": [')
    # A run has at least one round, the last one forbidding nothing.
    sep = ""
    for index, (new, lost) in enumerate(trace._log, 1):
        for e in new:
            held[at[e]] = 1
        write(f'{sep}\n    {{\n      "round": {index},\n      "proposed": ')
        put(join(compress(blocks, held)))
        for e in lost:
            held[at[e]] = 0
            forbidden[at[e]] = 1
        write(',\n      "held": ')
        put(join(compress(blocks, held)))
        write(',\n      "forbidden": ')
        last = join(compress(blocks, forbidden))
        put(last)
        write("\n    }")
        sep = ","
    write('\n  ],\n  "forbidden": ')
    put(last, top=True)
    write(f',\n  "stats": {_dumps(stats, "  ")}\n}}\n')


def _places(names: tuple[str, ...]) -> list[int]:
    """Each name's place among the names in sorted order."""
    place = dict(zip(sorted(names), range(len(names))))
    return list(map(place.__getitem__, names))
