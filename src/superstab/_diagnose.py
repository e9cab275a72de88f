"""Name the first problem in input that failed a bulk check.

`model` reads instance text in one pass and builds instances with checks
that run in bulk and say only that something is wrong.  When one of them
fails, the code here reads the input again, one check at a time in file
or list order, and says what the first problem is and where; good input
never loads this module.  `_text_problem` reads text line by line,
scanning each line's tokens once for its names and their columns, and
hands the lists to `_list_problem`, which scans them entry by entry.
"""

from __future__ import annotations

import re
from typing import Mapping

from ._objects import PrefInput, _lines, _name_ok, _name_problem
from .model import DOCTOR, HOSPITAL, FormatError, Vertex, _SIDE_WORD

_OTHER_SIDE = {DOCTOR: HOSPITAL, HOSPITAL: DOCTOR}
# The tokens of a name line, and of a `pref` body: parentheses and names.
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


def _text_problem(text: str) -> FormatError:
    """The first problem in instance text that `model.parse_instance`
    refused, at its line and, where it helps, its column.  The text is
    read again line by line, every check in file order; then the `pref`
    lines go to `_list_problem`, at the line and column of the entry it
    names (`_groups` refused empty tie groups, which name no entry)."""
    try:
        doctors, hospitals, prefs, where = _read_lines(text)
    except FormatError as problem:
        return problem
    problem = _list_problem(doctors, hospitals, prefs)
    lineno, columns = where[problem.owner.name]
    return FormatError(str(problem), line=lineno, column=columns[problem.entry])


def _read_lines(
    text: str,
) -> tuple[tuple[str, ...], tuple[str, ...], dict[Vertex, PrefInput], dict[str, tuple[int, list[int]]]]:
    """The declared names, the tie groups of each `pref` line and, per
    `pref` line, its number and the column of each entry; FormatError for
    the first problem outside the lists themselves."""
    doctors: tuple[str, ...] | None = None
    hospitals: tuple[str, ...] | None = None
    pref_lines: list[tuple[str, int, list[list[str]], list[int]]] = []
    for lineno, words, body, offset in _lines(text):
        if words == ["doctors"]:
            if doctors is not None:
                raise FormatError("second 'doctors:' line", line=lineno)
            doctors = _name_list(body, lineno, offset, "doctor")
        elif words == ["hospitals"]:
            if hospitals is not None:
                raise FormatError("second 'hospitals:' line", line=lineno)
            hospitals = _name_list(body, lineno, offset, "hospital")
        elif len(words) == 2 and words[0] == "pref":
            if doctors is None or hospitals is None:
                raise FormatError("preference line before 'doctors:' and 'hospitals:'", line=lineno)
            name = words[1]
            if not _name_ok(name):
                raise FormatError(f"invalid name {name!r}", line=lineno)
            pref_lines.append((name, lineno, *_groups(body, lineno, offset)))
        else:
            raise FormatError("expected 'doctors:', 'hospitals:' or 'pref NAME:'", line=lineno, column=1)

    if doctors is None:
        raise FormatError("missing 'doctors:' line")
    if hospitals is None:
        raise FormatError("missing 'hospitals:' line")
    both = set(doctors) & set(hospitals)
    if both:
        raise FormatError(
            f"name {sorted(both)[0]!r} appears on both sides; the text format keeps the "
            "two name spaces disjoint"
        )

    dset, hset = set(doctors), set(hospitals)
    prefs: dict[Vertex, PrefInput] = {}
    where: dict[str, tuple[int, list[int]]] = {}
    for name, lineno, groups, columns in pref_lines:
        if name not in dset and name not in hset:
            raise FormatError(f"preference line for undeclared vertex {name!r}", line=lineno)
        if name in where:
            raise FormatError(
                f"second preference line for {name!r} (first on line {where[name][0]})",
                line=lineno,
            )
        where[name] = lineno, columns
        prefs[Vertex(DOCTOR if name in dset else HOSPITAL, name)] = groups

    for name in doctors + hospitals:
        if name not in where:
            side = "doctor" if name in dset else "hospital"
            raise FormatError(f"missing preference line for {side} {name!r}")
    return doctors, hospitals, prefs, where


def _name_list(body: str, lineno: int, offset: int, word: str) -> tuple[str, ...]:
    """The names of a `doctors:` or `hospitals:` line body; FormatError at
    the column of the first that is invalid or repeated."""
    tokens = list(_NAME_TOKEN.finditer(body))
    names = tuple(m[0] for m in tokens)
    if problem := _name_problem(names, word, f"duplicate {word} name"):
        raise FormatError(problem[1], line=lineno, column=offset + tokens[problem[0]].start() + 1)
    return names


def _groups(body: str, lineno: int, offset: int) -> tuple[list[list[str]], list[int]]:
    """The tie groups of a `pref` line body, best first, each name a group
    of its own unless parenthesized, and the 1-based column of each name
    in list order, from one scan of the body's tokens; FormatError at the
    column of the first token out of place, or of the '(' left open."""
    groups: list[list[str]] = []
    columns: list[int] = []
    group: list[str] | None = None  # the open tie group
    opened = 0  # the column of its '('
    for match in _PREF_TOKEN.finditer(body):
        token, column = match[0], offset + match.start() + 1
        problem = None
        if token == "(":
            if group is not None:
                problem = "nested tie group"
            group, opened = [], column
        elif token == ")":
            if group is None:
                problem = "unmatched ')'"
            elif not group:
                problem = "empty tie group"
            else:
                groups.append(group)
                group = None
        elif not _name_ok(token):  # a token holds no '#', space or parenthesis, so only ':' can be bad
            problem = f"invalid name {token!r}"
        else:
            columns.append(column)
            if group is None:
                groups.append([token])
            else:
                group.append(token)
        if problem:
            raise FormatError(problem, line=lineno, column=column)
    if group is not None:
        raise FormatError("unclosed tie group", line=lineno, column=opened)
    return groups, columns
