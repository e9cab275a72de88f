"""Answer checks that never call the solver under test.

The benchmark judges every CLI output with the code in this file: a
small parser for the instance text format, a super-stability test, and
the invariants a closure trace must satisfy.  Only the standard library
is used, so a defect in `superstab` cannot hide itself by also breaking
the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class CheckFailed(Exception):
    """An output that is not a correct answer for its input."""


@dataclass(frozen=True)
class Prefs:
    """An instance as read from its text: `rank[name][partner]` is the
    level (1 is best) at which `name` lists `partner`."""

    doctors: tuple[str, ...]
    hospitals: tuple[str, ...]
    rank: dict[str, dict[str, int]]

    def edges(self) -> set[tuple[str, str]]:
        return {(d, h) for d in self.doctors for h in self.rank[d]}


def parse_prefs(text: str) -> Prefs:
    """Read the `doctors:` / `hospitals:` / `pref NAME:` instance format."""
    doctors: tuple[str, ...] = ()
    hospitals: tuple[str, ...] = ()
    rank: dict[str, dict[str, int]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        words = head.split()
        if words == ["doctors"]:
            doctors = tuple(body.split())
        elif words == ["hospitals"]:
            hospitals = tuple(body.split())
        elif len(words) == 2 and words[0] == "pref":
            table: dict[str, int] = {}
            level = 0
            in_tie = False
            for token in body.replace("(", " ( ").replace(")", " ) ").split():
                if token == "(":
                    in_tie = True
                    level += 1
                elif token == ")":
                    in_tie = False
                else:
                    level += 0 if in_tie else 1
                    table[token] = level
            rank[words[1]] = table
        else:
            raise CheckFailed(f"unreadable instance line {raw!r}")
    return Prefs(doctors, hospitals, rank)


def check_super_stable(
    prefs: Prefs,
    matching: list[list[str]],
    deleted_doctors: Iterable[str] = (),
    deleted_hospitals: Iterable[str] = (),
) -> None:
    """Raise CheckFailed unless `matching` is a super-stable matching of
    the instance minus the deleted vertices."""
    gone = set(deleted_doctors) | set(deleted_hospitals)
    partner: dict[str, str] = {}
    for pair in matching:
        d, h = pair
        if d in gone or h in gone:
            raise CheckFailed(f"matching edge {d}-{h} uses a deleted vertex")
        if h not in prefs.rank.get(d, {}):
            raise CheckFailed(f"matching edge {d}-{h} is not an edge of the instance")
        if d in partner or h in partner:
            raise CheckFailed(f"matching edge {d}-{h} shares an endpoint")
        partner[d] = h
        partner[h] = d
    for d, h in prefs.edges():
        if d in gone or h in gone or partner.get(d) == h:
            continue
        md, mh = partner.get(d), partner.get(h)
        d_wants = md is None or prefs.rank[d][h] <= prefs.rank[d][md]
        h_wants = mh is None or prefs.rank[h][d] <= prefs.rank[h][mh]
        if d_wants and h_wants:
            raise CheckFailed(f"edge {d}-{h} blocks the matching")


def check_closure_trace(prefs: Prefs, out: dict) -> None:
    """Raise CheckFailed unless `out`, the JSON of `superstab closure`,
    satisfies the invariants every forbidding-loop trace must keep."""
    edges = prefs.edges()
    as_set = lambda pairs: {tuple(p) for p in pairs}
    forbidden = as_set(out["initial_forbidden"])
    rounds = out["rounds"]
    if not rounds:
        raise CheckFailed("the trace has no rounds")
    added = None
    for expected_index, r in enumerate(rounds, 1):
        if r["round"] != expected_index:
            raise CheckFailed(f"round {r['round']} appears where round {expected_index} belongs")
        proposed, held = as_set(r["proposed"]), as_set(r["held"])
        if not proposed <= edges - forbidden:
            raise CheckFailed(f"round {expected_index} proposes a forbidden or unknown edge")
        if not held <= proposed:
            raise CheckFailed(f"round {expected_index} holds an edge nobody proposed")
        holders = [h for _, h in held]
        if len(holders) != len(set(holders)):
            raise CheckFailed(f"round {expected_index} has a hospital holding two edges")
        grown = as_set(r["forbidden"])
        if grown != forbidden | (proposed - held):
            raise CheckFailed(
                f"round {expected_index} forbidden set is not the previous one plus "
                "the proposals left unheld"
            )
        added = grown - forbidden
        forbidden = grown
    if added:
        raise CheckFailed("the last round still forbids new edges")
    if as_set(out["forbidden"]) != forbidden:
        raise CheckFailed("the top-level forbidden set differs from the last round")
