"""The `closure` command's writer, which only that command loads.

`closure` prints every round of the forbidding loop, and this writer
streams the JSON from the trace's log of edge ids; no other command runs
it, so no other command compiles it.  `cli` reads `_write_closure` from
here on first access (PEP 562).
"""

from __future__ import annotations

import json
import sys
from itertools import compress

from .model import Instance, Vertex
from .superstable import ClosureTrace


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
