"""Semistandard Young tableaux, skew tableaux, reading words, and the
combinatorial Littlewood-Richardson coefficient.

A tableau is a tuple of row tuples of positive integers (rows weakly
increase left to right, columns strictly increase top to bottom).  Skew
tableaux carry outer/inner shapes plus the entries of the skew cells only.
"""

from collections import Counter
from functools import cache
from typing import NamedTuple

from .partitions import Partition, as_partition, conjugate, contains

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


def _semistandard(t: Tableau) -> bool:
    """is_ssyt of a tableau that as_tableau has already normalized."""
    for row in t:
        for a, b in zip(row, row[1:]):
            if b < a:
                return False
        if row and row[0] < 1:
            return False
    for upper, lower in zip(t, t[1:]):
        for a, b in zip(upper, lower):
            if b <= a:
                return False
    return True


def is_skew_ssyt(st: SkewTableau) -> bool:
    outer, inner = as_partition(st.outer), as_partition(st.inner)
    if not contains(outer, inner):
        return False
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    if tuple(len(r) for r in st.rows) != tuple(o - i for o, i in zip(outer, inner_pad)):
        return False
    grid = {}
    for i, row in enumerate(st.rows):
        for off, v in enumerate(row):
            if v < 1:
                return False
            grid[(i, inner_pad[i] + off)] = v
    for (i, j), v in grid.items():
        if (i, j - 1) in grid and v < grid[(i, j - 1)]:
            return False
        if (i - 1, j) in grid and v <= grid[(i - 1, j)]:
            return False
    return True


@cache
def cached_ssyt(shape: Partition, n: int) -> tuple[Tableau, ...]:
    """All SSYT of the given shape with entries in 1..n, row-major
    lexicographic order.  Cached; treat the result as immutable."""
    shape = as_partition(shape)
    if not shape:
        return ((),)
    if len(shape) > n:
        return ()
    conj = conjugate(shape)
    rows = [[0] * part for part in shape]
    order = [(i, j) for i, part in enumerate(shape) for j in range(part)]
    out = []

    def fill(idx: int) -> None:
        if idx == len(order):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = order[idx]
        lo = 1
        if j > 0:
            lo = rows[i][j - 1]
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        # leave room for the strictly increasing column below
        hi = n - (conj[j] - 1 - i)
        for v in range(lo, hi + 1):
            rows[i][j] = v
            fill(idx + 1)

    fill(0)
    return tuple(out)


def enumerate_ssyt(shape, n: int) -> list[Tableau]:
    """Materialized list of SSYT of shape with entries <= n."""
    if n < 0:
        raise ValueError(f"largest entry must be >= 0, got {n}")
    return list(cached_ssyt(as_partition(shape), n))


def enumerate_skew_ssyt(outer, inner, n: int, weight=None) -> list[SkewTableau]:
    """All skew SSYT of shape outer/inner over 1..n, optionally restricted
    to a given weight vector."""
    outer, inner = as_partition(outer), as_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    quota = list(weight) if weight is not None else None
    if quota is not None and sum(quota) != sum(outer) - sum(inner):
        return []
    order = [
        (i, j)
        for i in range(len(outer))
        for j in range(inner_pad[i], outer[i])
    ]
    grid = {}
    counts = [0] * (len(quota) if quota is not None else 0)
    out = []

    def below(i: int, j: int) -> int:
        c = 0
        k = i + 1
        while k < len(outer) and inner_pad[k] <= j < outer[k]:
            c += 1
            k += 1
        return c

    def fill(idx: int) -> None:
        if idx == len(order):
            rows = tuple(
                tuple(grid[(i, j)] for j in range(inner_pad[i], outer[i]))
                for i in range(len(outer))
            )
            out.append(SkewTableau(outer, inner, rows))
            return
        i, j = order[idx]
        lo = 1
        if (i, j - 1) in grid:
            lo = grid[(i, j - 1)]
        if (i - 1, j) in grid:
            lo = max(lo, grid[(i - 1, j)] + 1)
        hi = n - below(i, j)
        if quota is not None:
            hi = min(hi, len(quota))
        for v in range(lo, hi + 1):
            if quota is not None and counts[v - 1] >= quota[v - 1]:
                continue
            grid[(i, j)] = v
            if quota is not None:
                counts[v - 1] += 1
            fill(idx + 1)
            del grid[(i, j)]
            if quota is not None:
                counts[v - 1] -= 1

    fill(0)
    return out


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
    word is Yamanouchi; 0 on size mismatch or when mu is not inside lam."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    if not contains(lam, mu) or sum(lam) != sum(mu) + sum(nu):
        return 0
    fillings = enumerate_skew_ssyt(lam, mu, len(nu) if nu else 1, weight=nu)
    return sum(1 for st in fillings if is_yamanouchi(reading_word(st)))


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
