"""Integer partitions, Young-diagram cells, and strip-growth index sets.

Partitions are plain tuples of weakly decreasing positive integers with no
trailing zeros; the empty partition is ``()``.  Cells are 1-indexed
``(row, col)`` pairs, row 1 at the top.
"""

from functools import cache
from itertools import combinations

Partition = tuple[int, ...]
Cell = tuple[int, int]


def is_int(x) -> bool:
    """An int and not a bool: the one kind of number that counts, sizes,
    parts and entries take."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_ints(values, what: str, lo: int, hi: int | None = None) -> tuple[int, ...]:
    """values as a tuple; a ValueError unless each is an int (is_int) >= lo,
    and <= hi when hi is given.  The one check of the integer arguments:
    counts, sizes, levels, indices, parts, entries and letters.  A scalar
    passes a 1-tuple."""
    t = tuple(values)
    for x in t:
        # type() first: plain ints skip the call
        if type(x) is not int and not is_int(x) or x < lo or hi is not None and x > hi:
            bound = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise ValueError(f"{what} must be integers {bound}, got {x!r}")
    return t


def as_partition(parts) -> Partition:
    """Normalize an iterable of ints to a partition tuple, stripping
    trailing zeros.  A zero left after that is followed by a larger part,
    which the weakly-decreasing test rejects."""
    t = require_ints(parts, "partition parts", 0)
    while t and t[-1] == 0:
        t = t[:-1]
    for a, b in zip(t, t[1:]):
        if a < b:
            raise ValueError(f"parts must weakly decrease, got {t}")
    return t


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram: result[j] = #{i : p[i] >= j+1}."""
    p = as_partition(p)
    if not p:
        return ()
    out = [0] * p[0]
    for part in p:
        for j in range(part):
            out[j] += 1
    return tuple(out)


def cells(p: Partition) -> list[Cell]:
    """All diagram cells in row-major order (row, then column, ascending)."""
    p = as_partition(p)
    return [(i + 1, j + 1) for i, part in enumerate(p) for j in range(part)]


def corners(p: Partition) -> list[Cell]:
    """Cells with no neighbor to the right or below, top row first."""
    p = as_partition(p)
    out = []
    for i, part in enumerate(p):
        if i + 1 == len(p) or p[i + 1] < part:
            out.append((i + 1, part))
    return out


def contains(outer: Partition, inner: Partition) -> bool:
    """True when the diagram of inner fits inside the diagram of outer."""
    outer, inner = as_partition(outer), as_partition(inner)
    if len(inner) > len(outer):
        return False
    return all(a <= b for a, b in zip(inner, outer))


def is_horizontal_strip(outer: Partition, inner: Partition) -> bool:
    """True when outer/inner has at most one cell per column: a vertical
    strip between the conjugates."""
    return is_vertical_strip(conjugate(outer), conjugate(inner))


def is_vertical_strip(outer: Partition, inner: Partition) -> bool:
    """True when outer/inner has at most one cell per row."""
    outer, inner = as_partition(outer), as_partition(inner)
    if not contains(outer, inner):
        return False
    padded = inner + (0,) * (len(outer) - len(inner))
    return all(a - b in (0, 1) for a, b in zip(outer, padded))


def vertical_strip_rows(p: Partition, n: int) -> list[tuple[int, ...]]:
    """All n-element row-index sets whose simultaneous growth by one cell
    keeps the sequence a partition (equivalently: adds a vertical strip).

    Returned in lexicographic order.  Row indices may exceed the current
    length (missing parts count as 0), but never length + n.
    """
    p = as_partition(p)
    require_ints((n,), "strip size", 1)
    out = []
    for ks in combinations(range(1, len(p) + n + 1), n):
        if _grown_or_none(p, ks) is not None:
            out.append(ks)
    return out


def _grown_or_none(p: Partition, rows) -> Partition | None:
    top = max(rows)
    grown = list(p) + [0] * (top - len(p))
    for k in rows:
        grown[k - 1] += 1
    # a zero followed by a positive part (a gap row) fails this check too
    for a, b in zip(grown, grown[1:]):
        if a < b:
            return None
    return tuple(grown)


def grow_rows(p: Partition, rows) -> Partition:
    """Add one cell to each listed row (1-indexed, distinct); error when the
    result is not weakly decreasing."""
    p = as_partition(p)
    return _grow(p, rows, p, "row")


def _grow(parts: Partition, index, p: Partition, noun: str) -> Partition:
    """parts, the rows or columns (noun) of p, grown at each index."""
    given = require_ints(index, f"{noun} set", 1)
    if not given or len(set(given)) != len(given):
        raise ValueError(f"{noun} set must be nonempty and distinct, got {given}")
    grown = _grown_or_none(parts, tuple(sorted(given)))
    if grown is None:
        raise ValueError(f"growing {noun}s {given} of {p} does not give a partition")
    return grown


def horizontal_strip_cols(p: Partition, m: int) -> list[tuple[int, ...]]:
    """Column-index sets adding a horizontal strip of size m; the vertical
    analogue applied to the conjugate shape."""
    return vertical_strip_rows(conjugate(p), m)


def grow_cols(p: Partition, cols) -> Partition:
    """Add one cell to each listed column; conjugate of grow_rows."""
    p = as_partition(p)
    return conjugate(_grow(conjugate(p), cols, p, "column"))


@cache
def _partitions_of(n: int, max_part: int) -> tuple[Partition, ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def all_partitions(n: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of n in descending lexicographic order."""
    require_ints((n,), "size", 0)
    ps = list(_partitions_of(n, n if n else 1))
    if max_length is not None:
        require_ints((max_length,), "max length", 0)
        ps = [p for p in ps if len(p) <= max_length]
    return ps
