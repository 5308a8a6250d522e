from itertools import product

import pytest

from schurzeta.crystal import decompose_product
from schurzeta.partitions import all_partitions, cells, conjugate
from schurzeta.tableaux import (
    SkewTableau,
    cached_ssyt,
    enumerate_skew_ssyt,
    enumerate_ssyt,
    is_skew_ssyt,
    is_ssyt,
    is_yamanouchi,
    lr_coefficient,
    reading_word,
    shape_of,
    transpose,
    weight,
)
from schurzeta.zeta import grid_vars


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
    for shape in [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]:
        for n in (1, 2, 3):
            assert enumerate_ssyt(shape, n) == brute_ssyt(shape, n)


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
