"""Name the first problem in input that failed a bulk check.

`model` builds instances and splits `pref` lines with checks that run in
bulk, in C, and say only that something is wrong.  When one of them
fails, the code here finds the first problem and says what and where it
is; good input never loads this module.
"""

from __future__ import annotations

import re
from typing import Mapping

from .model import DOCTOR, HOSPITAL, FormatError, PrefInput, Vertex, _SIDE_WORD, _lines, _name_ok

_OTHER_SIDE = {DOCTOR: HOSPITAL, HOSPITAL: DOCTOR}
# Tokens of a name line, and of a `pref` body: parentheses and names.
_NAME_TOKEN = re.compile(r"\S+")
_PREF_TOKEN = re.compile(r"[()]|[^\s()]+")


class _ListError(ValueError):
    """A problem in one preference list: `owner` holds the list and `entry`
    is the 0-based position of the faulty entry, counted across tie groups
    (None when no single entry is at fault)."""

    def __init__(self, message: str, owner: Vertex, entry: int | None = None):
        super().__init__(message)
        self.owner = owner
        self.entry = entry


def _list_problem(
    doctors: tuple[str, ...], hospitals: tuple[str, ...], prefs: Mapping[Vertex, PrefInput]
) -> _ListError:
    """The first problem in lists that `_build` refused, scanned entry by
    entry: problems within a list come first, lists in `prefs` order and
    entries in list order; then the first one-sided listing in edge order,
    doctors' lists before hospitals'.  So which one is reported never
    depends on hashing."""
    partners = {DOCTOR: frozenset(hospitals), HOSPITAL: frozenset(doctors)}
    # Per list, partner name -> rank level, in entry order.
    levels_of: dict[Vertex, dict[str, int]] = {}
    for owner, raw in prefs.items():
        levels: dict[str, int] = {}
        for level, item in enumerate(raw, 1):
            group = [item] if isinstance(item, str) else list(item)
            if not group:
                return _ListError(f"{owner.describe()} has an empty tie group", owner)
            for name in group:
                if not isinstance(name, str):
                    return _ListError(
                        f"{owner.describe()} lists a non-string entry {name!r}", owner, len(levels)
                    )
                if name not in partners[owner.side]:
                    return _ListError(
                        f"unknown {_SIDE_WORD[_OTHER_SIDE[owner.side]]} {name!r} "
                        f"in preference list of {owner.name!r}",
                        owner,
                        len(levels),
                    )
                if name in levels:
                    return _ListError(
                        f"{owner.name!r} lists {name!r} more than once", owner, len(levels)
                    )
                levels[name] = level
        levels_of[owner] = levels

    one_sided = []
    for owner, levels in levels_of.items():
        for name in levels:
            if owner.name not in levels_of[Vertex(_OTHER_SIDE[owner.side], name)]:
                pair = (owner.name, name) if owner.side == DOCTOR else (name, owner.name)
                one_sided.append((owner.side, pair, owner, name))
    _, _, owner, name = min(one_sided)
    partner = Vertex(_OTHER_SIDE[owner.side], name)
    return _ListError(
        f"{owner.describe()} lists {name!r} but {partner.describe()} does not list {owner.name!r}",
        owner,
        list(levels_of[owner]).index(name),
    )


def _text_problem(
    text: str,
    doctors: tuple[str, ...],
    hospitals: tuple[str, ...],
    prefs: Mapping[Vertex, PrefInput],
    line_of: Mapping[str, int],
) -> FormatError:
    """`_list_problem` of the `pref` lines of `text`, at its line and, when
    one entry is at fault, that entry's column."""
    problem = _list_problem(doctors, hospitals, prefs)
    lineno = line_of[problem.owner.name]
    column = None if problem.entry is None else _entry_column(text, lineno, problem.entry)
    return FormatError(str(problem), line=lineno, column=column)


def _token_column(pattern: re.Pattern[str], body: str, offset: int, k: int) -> int:
    """1-based column of the `k`-th token `pattern` finds in a line body
    that starts `offset` characters into its line."""
    starts = [m.start() for m in pattern.finditer(body)]
    return offset + starts[k] + 1


def _group_problem(body: str, lineno: int, offset: int) -> FormatError:
    """The first problem in a `pref` line body that `model._pref_entries`
    could not split, at its column.  Such a body always has one: a body
    whose tokens are names and closed, non-empty, unnested tie groups
    splits there, unless a name holds ':', which this scan reports."""
    size = None  # names in the open tie group; None outside one
    opened = 0
    colon = ":" in body  # a token holds no '#', space or parenthesis, so only ':' can be bad
    for k, token in enumerate(_PREF_TOKEN.findall(body)):
        if token == "(":
            if size is not None:
                problem = "nested tie group"
                break
            size, opened = 0, k
        elif token == ")":
            if size is None:
                problem = "unmatched ')'"
                break
            if not size:
                problem = "empty tie group"
                break
            size = None
        elif colon and not _name_ok(token):
            problem = f"invalid name {token!r}"
            break
        elif size is not None:
            size += 1
    else:  # no problem before the end, so a tie group is still open
        problem, k = "unclosed tie group", opened
    return FormatError(problem, line=lineno, column=_token_column(_PREF_TOKEN, body, offset, k))


def _entry_column(text: str, lineno: int, entry: int) -> int:
    """Column of the `entry`-th name (0-based, across tie groups) on the
    `pref` line `lineno` of `text`."""
    body, offset = next((b, o) for n, _, b, o in _lines(text) if n == lineno)
    names = [k for k, t in enumerate(_PREF_TOKEN.findall(body)) if t not in ("(", ")")]
    return _token_column(_PREF_TOKEN, body, offset, names[entry])
