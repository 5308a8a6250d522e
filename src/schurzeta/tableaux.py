"""Semistandard Young tableaux, skew tableaux, reading words, and the
combinatorial Littlewood-Richardson coefficient.

A tableau is a tuple of row tuples of positive integers (rows weakly
increase left to right, columns strictly increase top to bottom).  Skew
tableaux carry outer/inner shapes plus the entries of the skew cells only.
A straight shape is the skew shape over the empty inner shape: one filler
enumerates both, and one check tests both.
"""

from collections import Counter
from functools import cache
from typing import NamedTuple

from .partitions import Partition, as_partition, contains

Tableau = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


class SkewTableau(NamedTuple):
    outer: Partition
    inner: Partition
    rows: tuple[tuple[int, ...], ...]  # rows[i] fills columns inner[i]+1 .. outer[i]


def shape_of(t: Tableau) -> Partition:
    return tuple(map(len, t))


def transpose(rows) -> tuple[tuple, ...]:
    """The conjugate filling: row j lists column j top to bottom.  Works
    for tableaux and variable tableaux alike; the row lengths must weakly
    decrease, so the result has the conjugate shape."""
    shape = shape_of(rows)
    if list(shape) != sorted(shape, reverse=True):
        raise ValueError(f"row lengths must weakly decrease, got {shape}")
    cols = [[] for _ in range(shape[0] if shape else 0)]
    for row in rows:
        for col, x in zip(cols, row):
            col.append(x)
    return tuple(map(tuple, cols))


def as_tableau(rows) -> Tableau:
    t = tuple(tuple(int(x) for x in row) for row in rows)
    as_partition(shape_of(t))
    return t


def is_ssyt(t) -> bool:
    """Row-weak / column-strict check, including shape validity."""
    try:
        t = as_tableau(t)
    except (ValueError, TypeError):
        return False
    return _semistandard(t)


def _semistandard(rows, inner: Partition = ()) -> bool:
    """Whether integer rows, row i filling columns inner[i]+1 onwards
    (inner padded with zeros), are positive, weakly increase along each
    row and strictly down each column.  The shapes are not checked."""
    for row in rows:
        for a, b in zip(row, row[1:]):
            if b < a:
                return False
        if row and row[0] < 1:
            return False
    below = rows[1:]
    if inner:
        # drop the cells of each lower row that sit below the inner shape
        pad = inner + (0,) * (len(rows) - len(inner))
        below = [row[p - q:] for row, p, q in zip(below, pad, pad[1:])]
    for upper, lower in zip(rows, below):
        for a, b in zip(upper, lower):
            if b <= a:
                return False
    return True


def is_skew_ssyt(st: SkewTableau) -> bool:
    outer, inner = as_partition(st.outer), as_partition(st.inner)
    if not contains(outer, inner):
        return False
    try:
        rows = tuple(tuple(int(x) for x in row) for row in st.rows)
    except (ValueError, TypeError):
        return False
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    if shape_of(rows) != tuple(o - i for o, i in zip(outer, inner_pad)):
        return False
    return _semistandard(rows, inner)


def _skew_fillings(outer: Partition, inner: Partition, n: int, weight=None) -> list[Tableau]:
    """Rows of every skew SSYT of outer/inner (inner inside outer) with
    entries in 1..n, of the given weight when one is given, in row-major
    lexicographic order.

    The skew cells fill one flat list in row-major order.  Each cell
    holds the indices of its left neighbour and of the cell above (-1,
    whose value 0 bounds nothing, when there is none) and the stop of its
    range: one past n less the skew cells below it in its column."""
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    index: dict[tuple[int, int], int] = {}
    cells, bounds = [], []
    for i, (a, b) in enumerate(zip(inner_pad, outer)):
        bounds.append((len(cells), len(cells) + b - a))
        for j in range(a, b):
            index[i, j] = len(cells)
            below = sum(1 for k in range(i + 1, len(outer)) if inner_pad[k] <= j < outer[k])
            top = n - below if weight is None else min(n - below, len(weight))
            cells.append((index.get((i, j - 1), -1), index.get((i - 1, j), -1), top + 1))
    size = len(cells)
    vals = [0] * (size + 1)
    # room[v]: how many more v's the weight allows
    room = None if weight is None else [0, *weight]
    out = []

    def fill(k: int) -> None:
        if k == size:
            out.append(tuple([tuple(vals[a:b]) for a, b in bounds]))
            return
        left, up, stop = cells[k]
        lo = vals[up] + 1
        if vals[left] > lo:
            lo = vals[left]
        # no room test per value without a weight: cached_ssyt's hot loop
        if room is None:
            for v in range(lo, stop):
                vals[k] = v
                fill(k + 1)
            return
        for v in range(lo, stop):
            if room[v] > 0:
                vals[k] = v
                room[v] -= 1
                fill(k + 1)
                room[v] += 1

    if weight is None or sum(weight) == size:
        fill(0)
    return out


@cache
def cached_ssyt(shape: Partition, n: int) -> tuple[Tableau, ...]:
    """All SSYT of the given shape with entries in 1..n, row-major
    lexicographic order: the skew fillings over the empty inner shape.
    Cached; treat the result as immutable."""
    return tuple(_skew_fillings(as_partition(shape), (), n))


def enumerate_ssyt(shape, n: int) -> list[Tableau]:
    """Materialized list of SSYT of shape with entries <= n."""
    if n < 0:
        raise ValueError(f"largest entry must be >= 0, got {n}")
    return list(cached_ssyt(as_partition(shape), n))


def enumerate_skew_ssyt(outer, inner, n: int, weight=None) -> list[SkewTableau]:
    """All skew SSYT of shape outer/inner over 1..n, optionally restricted
    to a given weight vector, a tuple of integers >= 0."""
    outer, inner = as_partition(outer), as_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    if weight is not None and not (
        isinstance(weight, tuple)
        and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in weight)
    ):
        raise ValueError(f"weight must be a tuple of integers >= 0, got {weight!r}")
    return [SkewTableau(outer, inner, rows) for rows in _skew_fillings(outer, inner, n, weight)]


def reading_word(t) -> Word:
    """Concatenate rows bottom to top, each left to right."""
    rows = t.rows if isinstance(t, SkewTableau) else t
    word = []
    for row in reversed(rows):
        word.extend(row)
    return tuple(word)


def weight(t) -> tuple[int, ...]:
    """Multiplicity vector of the entries, trimmed of trailing zeros."""
    rows = t.rows if isinstance(t, SkewTableau) else t
    counts: list[int] = []
    for row in rows:
        for v in row:
            if v > len(counts):
                counts.extend([0] * (v - len(counts)))
            counts[v - 1] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def is_yamanouchi(word) -> bool:
    """In every suffix, letter i occurs at least as often as letter i+1."""
    word = tuple(word)
    counts: dict[int, int] = {}
    for v in reversed(word):
        counts[v] = counts.get(v, 0) + 1
        if v > 1 and counts[v] > counts.get(v - 1, 0):
            return False
    return True


def lr_coefficient(mu, nu, lam) -> int:
    """Number of skew SSYT of shape lam/mu with weight nu whose reading
    word is Yamanouchi (lr_fillings); 0 on size mismatch or when mu is not
    inside lam."""
    nu = as_partition(nu)
    return lr_fillings(lam, mu)[nu]


def lr_fillings(outer, inner) -> Counter:
    """Counter nu -> the number of skew SSYT of shape outer/inner with
    weight nu whose reading word is Yamanouchi; empty when inner is not
    inside outer.

    The cells are filled in reverse reading order, rows top to bottom and
    each row right to left, so every partial filling holds a suffix of the
    reading word.  A cell takes a value at most its right neighbour and
    greater than the cell above, both filled before it, and a value v > 1
    is skipped once its count would exceed the count of v - 1: every
    partial filling is then a Yamanouchi suffix, and every complete one
    is counted."""
    outer, inner = as_partition(outer), as_partition(inner)
    out: Counter = Counter()
    if not contains(outer, inner):
        return out
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    order = [
        (i, j)
        for i in range(len(outer))
        for j in range(outer[i] - 1, inner_pad[i] - 1, -1)
    ]
    grid: dict[tuple[int, int], int] = {}
    # counts[v] for the letters v = 1 .. len(counts) - 1 placed so far,
    # each at least 1 and at most the count before it; index 0 is unused
    counts = [0]

    def fill(idx: int) -> None:
        if idx == len(order):
            out[tuple(counts[1:])] += 1
            return
        i, j = order[idx]
        lo = grid.get((i - 1, j), 0) + 1
        hi = min(grid.get((i, j + 1), len(counts)), len(counts))
        for v in range(lo, hi + 1):
            # a new letter always fits: the letter before it occurs
            if v == len(counts):
                counts.append(0)
            elif v > 1 and counts[v] == counts[v - 1]:
                continue
            counts[v] += 1
            grid[i, j] = v
            fill(idx + 1)
            counts[v] -= 1
            if not counts[v]:
                counts.pop()
        grid.pop((i, j), None)

    fill(0)
    return out
