import sys
from itertools import product

import pytest

from schurzeta import tableaux
from schurzeta.crystal import decompose_product
from schurzeta.partitions import all_partitions, as_partition, cells, conjugate, contains
from schurzeta.tableaux import (
    SkewTableau,
    cached_ssyt,
    enumerate_skew_ssyt,
    enumerate_ssyt,
    is_skew_ssyt,
    is_ssyt,
    is_yamanouchi,
    lr_coefficient,
    lr_fillings,
    reading_word,
    shape_of,
    transpose,
    weight,
)
from schurzeta.zeta import grid_vars


def skew_oracle(st):
    """Definitional skew SSYT test: place every entry in its cell and compare
    each cell with its left neighbour and the cell above it."""
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


def skew_fillings(outer, inner, values):
    """Every filling of the cells of outer/inner by the values, rows of the
    skew cells only, in row-major lexicographic order."""
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    lengths = [o - i for o, i in zip(outer, inner_pad)]
    for flat in product(values, repeat=sum(lengths)):
        rows, start = [], 0
        for length in lengths:
            rows.append(flat[start:start + length])
            start += length
        yield tuple(rows)


def skew_pairs(max_size):
    """(outer, inner) for every outer of size <= max_size and every inner
    inside it."""
    for size in range(max_size + 1):
        for outer in all_partitions(size):
            for a in range(size + 1):
                for inner in all_partitions(a):
                    if contains(outer, inner):
                        yield outer, inner


def compositions(total, parts):
    """Every vector of parts nonnegative integers summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def brute_ssyt(shape, n):
    """Oracle: filter every filling of the diagram by the SSYT predicate."""
    spots = cells(shape)
    out = []
    for filling in product(range(1, n + 1), repeat=len(spots)):
        rows = [[0] * part for part in shape]
        for (i, j), v in zip(spots, filling):
            rows[i - 1][j - 1] = v
        t = tuple(tuple(r) for r in rows)
        if is_ssyt(t):
            out.append(t)
    return sorted(out, key=lambda t: [v for row in t for v in row])


def test_is_ssyt_examples():
    assert is_ssyt(((1, 1), (2,)))
    assert not is_ssyt(((1, 2), (1,)))
    assert not is_ssyt(((2, 1),))
    assert is_ssyt(())


def test_enumerate_ssyt_examples():
    assert enumerate_ssyt((1, 1), 2) == [((1,), (2,))]
    assert enumerate_ssyt((2,), 2) == [((1, 1),), ((1, 2),), ((2, 2),)]
    assert len(enumerate_ssyt((2, 1), 3)) == 8
    assert enumerate_ssyt((1, 1, 1), 2) == []
    assert enumerate_ssyt((), 3) == [()]
    with pytest.raises(ValueError):
        enumerate_ssyt((), -1)


def test_enumerate_ssyt_matches_brute_force():
    # 4-row shapes at n = 4 leave no room in their first column
    for size in range(1, 6):
        for shape in all_partitions(size):
            for n in (1, 2, 3, 4):
                assert enumerate_ssyt(shape, n) == brute_ssyt(shape, n), (shape, n)


def padded_weight(st, parts):
    """The weight of st as a vector of the given length, or None when an
    entry exceeds it."""
    w = weight(st)
    if len(w) > parts:
        return None
    return w + (0,) * (parts - len(w))


def test_enumerate_skew_ssyt_matches_brute_force():
    for outer, inner in skew_pairs(5):
        size = sum(outer) - sum(inner)
        for n in (0, 1, 2, 3):
            brute = [
                SkewTableau(outer, inner, rows)
                for rows in skew_fillings(outer, inner, range(1, n + 1))
                if skew_oracle(SkewTableau(outer, inner, rows))
            ]
            assert enumerate_skew_ssyt(outer, inner, n) == brute, (outer, inner, n)
            for parts in range(n + 1):
                for w in compositions(size, parts):
                    want = [st for st in brute if padded_weight(st, parts) == w]
                    got = enumerate_skew_ssyt(outer, inner, n, weight=w)
                    assert got == want, (outer, inner, n, w)
            assert enumerate_skew_ssyt(outer, inner, n, weight=(size + 1,)) == []


def test_fillings_have_no_dead_ends():
    # each cell's range leaves room for the column below it, so when some
    # tableau exists every partial filling the search visits completes
    fill_calls = 0

    def profile(frame, event, arg):
        nonlocal fill_calls
        code = frame.f_code
        if event == "call" and code.co_name == "fill" and code.co_filename == tableaux.__file__:
            fill_calls += 1

    for outer, inner in skew_pairs(5):
        for n in (1, 2, 3, 4):
            fill_calls = 0
            sys.setprofile(profile)
            try:
                found = enumerate_skew_ssyt(outer, inner, n)
            finally:
                sys.setprofile(None)
            size = sum(outer) - sum(inner)
            if found:
                assert fill_calls <= 1 + size * len(found), (outer, inner, n)


def test_semistandard_checks_match_the_oracle():
    for outer, inner in skew_pairs(5):
        for rows in skew_fillings(outer, inner, range(4)):
            st = SkewTableau(outer, inner, rows)
            expected = skew_oracle(st)
            assert is_skew_ssyt(st) == expected, st
            if not inner:
                assert is_ssyt(rows) == expected, rows


def test_is_skew_ssyt_rejects_non_integer_entries():
    assert not is_skew_ssyt(SkewTableau((2,), (), ((1, "a"),)))
    assert not is_skew_ssyt(SkewTableau((2, 1), (1,), ((None,), (2,))))
    assert not is_ssyt(((1, "a"),))


def test_enumeration_monotone_and_clean():
    for size in range(1, 6):
        for shape in all_partitions(size):
            previous: set = set()
            for n in range(1, 6):
                tabs = enumerate_ssyt(shape, n)
                assert len(set(tabs)) == len(tabs)
                assert all(is_ssyt(t) for t in tabs)
                current = set(tabs)
                assert previous <= current
                previous = current


def test_enumerate_skew_examples():
    assert len(enumerate_skew_ssyt((1,), (1,), 3)) == 1
    assert len(enumerate_skew_ssyt((2, 1), (1,), 2, weight=(1, 1))) == 2
    only = enumerate_skew_ssyt((2,), (), 2, weight=(2,))
    assert len(only) == 1 and only[0].rows == ((1, 1),)
    with pytest.raises(ValueError):
        enumerate_skew_ssyt((1,), (2,), 3)


@pytest.mark.parametrize(
    "bad", [(2, -1), (1.0,), (True,), [1], (1, "1")], ids=str
)
def test_enumerate_skew_ssyt_rejects_a_weight_not_of_nonnegative_integers(bad):
    # only the weight's sum used to be compared with the skew size, so
    # (2, -1) gave the one tableau of (1,) of weight (1,)
    with pytest.raises(ValueError, match="weight"):
        enumerate_skew_ssyt((1,), (), 2, weight=bad)


def test_skew_enumeration_validates():
    for st in enumerate_skew_ssyt((3, 2, 1), (1, 1), 3):
        assert is_skew_ssyt(st)


def test_reading_word_examples():
    skew = SkewTableau((5, 3, 1), (1,), ((1, 1, 2, 3), (2, 2, 3), (3,)))
    assert is_skew_ssyt(skew)
    assert reading_word(skew) == (3, 2, 2, 3, 1, 1, 2, 3)
    assert reading_word(((1, 1), (2,))) == (2, 1, 1)
    assert reading_word(()) == ()


def test_weight_examples():
    assert weight(((1, 1), (2,))) == (2, 1)
    assert weight(()) == ()
    assert weight(((1, 2), (2,))) == (1, 2)


def test_yamanouchi_examples():
    assert is_yamanouchi((2, 1))
    assert not is_yamanouchi((1, 2))
    assert not is_yamanouchi((3, 2, 2, 3, 1, 1, 2, 3))
    assert is_yamanouchi(())


def test_lr_coefficient_examples():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0


def test_lr_fillings_examples():
    assert lr_fillings((3, 2, 1), (2, 1)) == {
        (3,): 1, (2, 1): 2, (1, 1, 1): 1
    }
    assert lr_fillings((2,), (2,)) == {(): 1}
    assert lr_fillings((1,), (2,)) == {}


def yamanouchi_oracle(mu, nu, lam):
    """Definitional LR coefficient: the skew SSYT of shape lam/mu with
    weight nu whose reading word is Yamanouchi; 0 on size mismatch or when
    mu is not inside lam."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    if not contains(lam, mu) or sum(lam) != sum(mu) + sum(nu):
        return 0
    fillings = enumerate_skew_ssyt(lam, mu, len(nu) if nu else 1, weight=nu)
    return sum(1 for st in fillings if is_yamanouchi(reading_word(st)))


def test_lr_fillings_match_the_yamanouchi_oracle():
    # every triple of criterion 4: sizes 1..4 at most 4 rows
    triples = [
        (mu, nu, lam)
        for a in range(1, 5)
        for b in range(1, 5)
        for mu in all_partitions(a, max_length=4)
        for nu in all_partitions(b, max_length=4)
        for lam in all_partitions(a + b, max_length=4)
    ]
    assert len(triples) == 1162
    # every triple of total size <= 6, empty shapes and inner shapes not
    # inside included
    triples += [
        (mu, nu, lam)
        for size in range(7)
        for lam in all_partitions(size)
        for a in range(size + 1)
        for mu in all_partitions(a)
        for nu in all_partitions(size - a)
    ]
    assert any(not mu for mu, _, _ in triples)
    assert any(not contains(lam, mu) for mu, _, lam in triples)
    fillings = {}
    for mu, nu, lam in triples:
        if (lam, mu) not in fillings:
            fillings[lam, mu] = lr_fillings(lam, mu)
        expected = yamanouchi_oracle(mu, nu, lam)
        assert fillings[lam, mu][nu] == expected == lr_coefficient(mu, nu, lam), (mu, nu, lam)
    for (lam, mu), counts in fillings.items():
        assert all(sum(nu) == sum(lam) - sum(mu) for nu in counts)
    # a size mismatch is 0, not an error
    assert lr_coefficient((1,), (2,), (2,)) == 0


def test_lr_symmetry_with_crystal_referee():
    for a in range(1, 4):
        for b in range(1, 4):
            for mu in all_partitions(a, max_length=4):
                for nu in all_partitions(b, max_length=4):
                    counts = decompose_product(mu, nu, 4)
                    for lam in all_partitions(a + b, max_length=4):
                        c = lr_coefficient(mu, nu, lam)
                        assert c == lr_coefficient(nu, mu, lam)
                        assert c == counts.get(lam, 0)


def test_lr_cardinality_identity():
    # sum over lam of c * |B_lam| = |B_mu| * |B_nu|, counting both sides
    # of the product decomposition
    for a in range(1, 5):
        for b in range(1, 5):
            for mu in all_partitions(a, max_length=4):
                for nu in all_partitions(b, max_length=4):
                    for n in (2, 4):
                        lhs = len(cached_ssyt(mu, n)) * len(cached_ssyt(nu, n))
                        rhs = sum(
                            lr_coefficient(mu, nu, lam) * len(cached_ssyt(lam, n))
                            for lam in all_partitions(a + b)
                        )
                        assert lhs == rhs, (mu, nu, n)


def test_shape_of():
    assert shape_of(((1, 2), (2,))) == (2, 1)
    assert shape_of(()) == ()


def test_transpose_is_an_involution_onto_the_conjugate_shape():
    for size in range(5):
        for lam in all_partitions(size):
            fillings = [grid_vars(lam, "x"), *cached_ssyt(lam, 4)]
            for t in fillings:
                flipped = transpose(t)
                assert shape_of(flipped) == conjugate(lam)
                assert transpose(flipped) == t
                assert all(
                    flipped[j - 1][i - 1] == t[i - 1][j - 1] for i, j in cells(lam)
                )
    assert transpose(((1, 2), (3,))) == ((1, 3), (2,))
    with pytest.raises(ValueError):
        transpose(((1,), (2, 3)))
