"""Semistandard Young tableaux, reading words, Kostka numbers, and the
Littlewood-Richardson coefficient read from the crystal.

A tableau is a tuple of row tuples of positive integers (rows weakly
increase left to right, columns strictly increase top to bottom).  One
filler enumerates the tableaux of a straight shape, and one check tests
them; no skew shape is filled.
"""

from functools import cache

from .partitions import Partition, as_partition, cells, conjugate, contains, require_ints

Tableau = tuple[tuple[int, ...], ...]
Word = tuple[int, ...]


def shape_of(t: Tableau) -> Partition:
    return tuple(map(len, t))


def transpose(rows) -> tuple[tuple, ...]:
    """The conjugate filling: row j lists column j top to bottom.  Works
    for tableaux and variable tableaux alike.  Unchecked: the row lengths
    must weakly decrease, as in every checked or generated tableau, and
    the result then has the conjugate shape."""
    cols = [[] for _ in range(len(rows[0]) if rows else 0)]
    for row in rows:
        for col, x in zip(cols, row):
            col.append(x)
    return tuple(map(tuple, cols))


def _int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """rows as tuples; a ValueError unless rows is an iterable of rows and
    every entry an int >= 1."""
    try:
        t = tuple(map(tuple, rows))
    except TypeError:
        raise ValueError(f"tableau rows must be iterables, got {rows!r}") from None
    # one check of all entries; sum of a few row tuples is cheaper than chain
    require_ints(sum(t, ()), "tableau entries", 1)
    return t


def as_tableau(rows) -> Tableau:
    """rows as a tableau (_int_rows), trailing empty rows dropped as
    as_partition drops trailing zeros; a ValueError unless the row lengths
    then weakly decrease."""
    t = _int_rows(rows)
    while t and not t[-1]:
        t = t[:-1]
    as_partition(shape_of(t))
    return t


def require_ssyt(rows) -> Tableau:
    """rows as a tableau (as_tableau); a ValueError unless it is
    semistandard.  The one check of a tableau argument."""
    t = as_tableau(rows)
    if not _semistandard(t):
        raise ValueError(f"not a semistandard tableau: {t}")
    return t


def is_ssyt(t) -> bool:
    """Whether require_ssyt accepts t."""
    try:
        require_ssyt(t)
    except ValueError:
        return False
    return True


def _semistandard(rows) -> bool:
    """Whether rows of ints >= 1 (_int_rows) weakly increase along each row
    and strictly down each column.  The shape is not checked."""
    for row in rows:
        for a, b in zip(row, row[1:]):
            if b < a:
                return False
    for upper, lower in zip(rows, rows[1:]):
        for a, b in zip(upper, lower):
            if b <= a:
                return False
    return True


def _fillings(shape: Partition, n: int) -> list[Tableau]:
    """Every SSYT of shape with entries in 1..n, in row-major
    lexicographic order.

    The cells fill one flat list in row-major order.  Each cell holds the
    indices of its left neighbour and of the cell above (-1, whose value 0
    bounds nothing, when there is none) and the stop of its range: one
    past n less the cells below it in its column."""
    cols = conjugate(shape)
    cells, bounds = [], []
    for i, part in enumerate(shape):
        start = len(cells)
        for j in range(part):
            left = start + j - 1 if j else -1
            up = bounds[-1][0] + j if i else -1
            # cols[j] - i - 1 cells below
            cells.append((left, up, n + i + 2 - cols[j]))
        bounds.append((start, start + part))
    size = len(cells)
    vals = [0] * (size + 1)
    out = []

    def fill(k: int) -> None:
        if k == size:
            out.append(tuple([tuple(vals[a:b]) for a, b in bounds]))
            return
        left, up, stop = cells[k]
        lo = vals[up] + 1
        if vals[left] > lo:
            lo = vals[left]
        for v in range(lo, stop):
            vals[k] = v
            fill(k + 1)

    fill(0)
    return out


@cache
def cached_ssyt(shape: Partition, n: int) -> tuple[Tableau, ...]:
    """All SSYT of the given shape with entries in 1..n, row-major
    lexicographic order (_fillings).  Cached; treat the result as
    immutable.  Unchecked: its callers pass an int n >= 0, checked before
    the lookup, where 1.0 and True would hit the entry of 1."""
    return tuple(_fillings(as_partition(shape), n))


def enumerate_ssyt(shape, n: int) -> list[Tableau]:
    """Materialized list of SSYT of shape with entries <= n."""
    require_ints((n,), "largest entry", 0)
    return list(cached_ssyt(as_partition(shape), n))


def reading_word(t) -> Word:
    """Concatenate rows bottom to top, each left to right."""
    word = []
    for row in reversed(t):
        word.extend(row)
    return tuple(word)


@cache
def cached_reading_words(shape: Partition, n: int) -> tuple[Word, ...]:
    """The reading words of cached_ssyt(shape, n), in its order.  Cached
    and unchecked like it."""
    return tuple(map(reading_word, cached_ssyt(shape, n)))


def weight(t) -> tuple[int, ...]:
    """Multiplicity vector of the entries 1 .. the largest, ints >= 1."""
    rows = _int_rows(t)
    counts: list[int] = []
    for row in rows:
        for v in row:
            if v > len(counts):
                counts.extend([0] * (v - len(counts)))
            counts[v - 1] += 1
    return tuple(counts)


def lr_coefficient(mu, nu, lam) -> int:
    """c^lam_(mu, nu), read from crystal.decompose_product over len(lam)
    letters; 0, with no tableau enumerated, on a size mismatch, when mu
    or nu is not inside lam, or when lam has more rows than both."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    if sum(lam) != sum(mu) + sum(nu) or len(lam) > len(mu) + len(nu):
        return 0
    if not (contains(lam, mu) and contains(lam, nu)):
        return 0
    # crystal imports this module, so the import waits for the first call
    from .crystal import decompose_product

    return decompose_product(mu, nu, max(1, len(lam)))[lam]


@cache
def kostka(shape: Partition, content: Partition) -> int:
    """The Kostka number K(shape, content): the number of SSYT of the
    shape with content[i] entries equal to i + 1.  Unchecked: both must
    be partitions; K is symmetric in the content, so a caller holding a
    composition sorts it first.  The cells of the largest letter form a
    horizontal strip of content[-1] cells, at most shape[i] - shape[i+1]
    of them in row i, so K sums K(inner, content[:-1]) over the
    partitions inner that such a strip leaves.  Cached; no tableau is
    enumerated."""
    if not content or len(shape) > len(content):
        return int(not shape)
    # (rows kept so far, strip cells still to remove)
    states = [((), content[-1])]
    for a, b in zip(shape, (*shape[1:], 0)):
        states = [
            ((*kept, a - r), left - r)
            for kept, left in states
            for r in range(min(left, a - b) + 1)
        ]
    rest = content[:-1]
    return sum(
        kostka(tuple([p for p in kept if p]), rest)
        for kept, left in states
        if not left
    )


def count_ssyt(shape, n: int) -> int:
    """The number of SSYT of shape with entries <= n, checked as
    enumerate_ssyt checks, by the hook-content formula: the product over
    the cells (i, j) of (n + j - i) / hook(i, j), 0 past n rows, exact."""
    require_ints((n,), "largest entry", 0)
    shape = as_partition(shape)
    cols = conjugate(shape)
    top = bottom = 1
    for i, j in cells(shape):
        top *= n + j - i
        bottom *= shape[i - 1] - j + cols[j - 1] - i + 1
    return top // bottom
