"""Schensted row insertion and dual (column) insertion with full bumping
routes.

Row insertion bumps the leftmost entry strictly greater than the incoming
value; column insertion bumps the topmost entry greater than or equal to
it, which keeps columns strict and rows weak.  Column insertion runs as row
insertion on the transposed tableau, bumping the leftmost entry greater
than or equal to the value.  Routes record one cell per visited row (resp.
column), ending at the newly created cell.
"""

from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .partitions import Cell, require_ints
from .tableaux import Tableau, Word, require_ssyt, transpose


class InsertionResult(NamedTuple):
    tableau: Tableau
    route: tuple[Cell, ...]
    new_cell: Cell


def _checked_rows(t, word) -> tuple[Tableau, Word]:
    """Validate a tableau and a word once, for the unchecked folds."""
    return require_ssyt(t), require_ints(word, "inserted values", 1)


def _row_bump(
    t: Tableau, x: int, weak: bool = False
) -> tuple[Tableau, tuple[Cell, ...]]:
    """Row-insert x into t, bumping the leftmost entry greater than x, or
    greater than or equal to x when weak; returns the new tableau, which
    shares the rows the route does not reach with t, and the bumping route.
    The weak bump on the transpose is column insertion."""
    find = bisect_left if weak else bisect_right
    rows = []
    route = []
    for i, row in enumerate(t):
        pos = find(row, x)
        route.append((i + 1, pos + 1))
        if pos == len(row):
            rows.append(row + (x,))
            return (*rows, *t[i + 1:]), tuple(route)
        rows.append(row[:pos] + (x,) + row[pos + 1:])
        x = row[pos]
    rows.append((x,))
    route.append((len(rows), 1))
    return tuple(rows), tuple(route)


def _row_fold(
    t: Tableau, letters, weak: bool = False
) -> tuple[Tableau, list[tuple[Cell, ...]]]:
    """row_insert_word without its checks: t must be semistandard and the
    letters positive integers, as for cached_ssyt tableaux and words."""
    routes = []
    for x in letters:
        t, route = _row_bump(t, x, weak)
        routes.append(route)
    return t, routes


def row_insert_word(t, word) -> tuple[Tableau, list[tuple[Cell, ...]]]:
    """Left-to-right fold of Schensted row insertion over the word; returns
    the final tableau and one bumping route per letter."""
    return _row_fold(*_checked_rows(t, word))


def _column_fold(t: Tableau, letters) -> tuple[Tableau, list[tuple[Cell, ...]]]:
    """column_insert_word without its checks, as _row_fold: the weak row
    fold on the transpose, routes swapped back to (row, column)."""
    result, routes = _row_fold(transpose(t), letters, weak=True)
    return transpose(result), [tuple((i, j) for j, i in route) for route in routes]


def column_insert_word(word, t) -> tuple[Tableau, list[tuple[Cell, ...]]]:
    """Fold of column insertion applying word[0] first, word[-1] last."""
    return _column_fold(*_checked_rows(t, word))


def row_insert(t, x: int) -> InsertionResult:
    """Insert x by Schensted row bumping; returns the new tableau, the
    bumping route, and the created cell."""
    result, (route,) = row_insert_word(t, (x,))
    return InsertionResult(result, route, route[-1])


def column_insert(x: int, t) -> InsertionResult:
    """Insert x by dual Schensted column bumping (bump the topmost entry
    greater than or equal to x)."""
    result, (route,) = column_insert_word((x,), t)
    return InsertionResult(result, route, route[-1])
