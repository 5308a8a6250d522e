import sys
from collections import Counter
from itertools import product

import pytest

from schurzeta import crystal, tableaux
from schurzeta.crystal import decompose_product, rr
from schurzeta.insertion import column_insert, row_insert
from schurzeta.partitions import all_partitions, as_partition, cells, conjugate, contains
from schurzeta.tableaux import (
    cached_ssyt,
    count_ssyt,
    enumerate_ssyt,
    is_ssyt,
    kostka,
    lr_coefficient,
    reading_word,
    shape_of,
    transpose,
)
from schurzeta.zeta import grid_vars


def skew_oracle(outer, inner, rows):
    """Definitional skew SSYT test of rows filling the cells of outer/inner:
    place every entry in its cell and compare each cell with its left
    neighbour and the cell above it."""
    outer, inner = as_partition(outer), as_partition(inner)
    if not contains(outer, inner):
        return False
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    if tuple(len(r) for r in rows) != tuple(o - i for o, i in zip(outer, inner_pad)):
        return False
    grid = {}
    for i, row in enumerate(rows):
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


def skew_fillings(outer, inner, flats):
    """Each flat filling of the cells of outer/inner, in row-major order, as
    rows of the skew cells only."""
    inner_pad = inner + (0,) * (len(outer) - len(inner))
    lengths = [o - i for o, i in zip(outer, inner_pad)]
    for flat in flats:
        rows, start = [], 0
        for length in lengths:
            rows.append(tuple(flat[start:start + length]))
            start += length
        yield tuple(rows)


def arrangements(letters):
    """Every distinct ordering of the sorted tuple letters, each once."""
    if not letters:
        yield ()
    for k, x in enumerate(letters):
        if k and x == letters[k - 1]:
            continue
        for rest in arrangements(letters[:k] + letters[k + 1:]):
            yield (x, *rest)


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


def test_trailing_empty_rows_are_dropped_as_trailing_zeros_are():
    assert tableaux.as_tableau([[1], []]) == ((1,),)
    assert tableaux.require_ssyt([[1, 2], [], []]) == ((1, 2),)
    assert tableaux.require_ssyt([[]]) == ()
    # an empty row above a nonempty one is no tableau
    with pytest.raises(ValueError, match="weakly decrease"):
        tableaux.as_tableau([[1], [], [2]])


def test_enumerate_ssyt_examples():
    assert enumerate_ssyt((1, 1), 2) == [((1,), (2,))]
    assert enumerate_ssyt((2,), 2) == [((1, 1),), ((1, 2),), ((2, 2),)]
    assert len(enumerate_ssyt((2, 1), 3)) == 8
    assert enumerate_ssyt((1, 1, 1), 2) == []
    assert enumerate_ssyt((), 3) == [()]
    with pytest.raises(ValueError):
        enumerate_ssyt((), -1)


def test_enumerate_ssyt_matches_brute_force():
    # a column of n cells has one filling, and a longer one none
    for size in range(6):
        for shape in all_partitions(size):
            for n in (0, 1, 2, 3, 4):
                assert enumerate_ssyt(shape, n) == brute_ssyt(shape, n), (shape, n)


def test_ssyt_counts_match_the_hook_content_formula():
    # prod (n + content) / hook over the cells, for shapes past brute force,
    # columns longer than n among them
    for size in range(9):
        for shape in all_partitions(size):
            cols = conjugate(shape)
            for n in range(7):
                num = den = 1
                for i, j in cells(shape):
                    num *= n + j - i
                    den *= shape[i - 1] - j + cols[j - 1] - i + 1
                assert len(cached_ssyt(shape, n)) == num // den, (shape, n)
    assert len(cached_ssyt((2, 2, 1, 1), 4)) == 6
    assert len(cached_ssyt((1, 1, 1, 1, 1), 4)) == 0
    assert len(cached_ssyt((3, 3, 2), 5)) == 315
    assert len(cached_ssyt((4, 1, 1, 1), 5)) == 160


def test_fillings_have_no_dead_ends():
    # each cell's range leaves room for the column below it, so when some
    # tableau exists every partial filling the search visits completes
    fill_calls = 0

    def profile(frame, event, arg):
        nonlocal fill_calls
        code = frame.f_code
        if event == "call" and code.co_name == "fill" and code.co_filename == tableaux.__file__:
            fill_calls += 1

    for size in range(6):
        for shape in all_partitions(size):
            for n in (1, 2, 3, 4):
                fill_calls = 0
                sys.setprofile(profile)
                try:
                    found = tableaux._fillings(shape, n)
                finally:
                    sys.setprofile(None)
                if found:
                    assert fill_calls <= 1 + size * len(found), (shape, n)


def test_semistandard_checks_match_the_oracle():
    for size in range(6):
        for shape in all_partitions(size):
            flats = product(range(4), repeat=size)
            for rows in skew_fillings(shape, (), flats):
                assert is_ssyt(rows) == skew_oracle(shape, (), rows), rows


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(tableaux.as_tableau, id="as_tableau"),
        pytest.param(tableaux.require_ssyt, id="require_ssyt"),
        pytest.param(lambda t: row_insert(t, 1), id="row_insert"),
        pytest.param(lambda t: column_insert(1, t), id="column_insert"),
        pytest.param(lambda t: rr(t, 2), id="rr"),
    ],
)
@pytest.mark.parametrize("t", [5, ((1,), 2)], ids=["int", "int-row"])
def test_rows_that_are_not_rows_are_bad_input(call, t):
    # a ValueError, as for any other malformed tableau, not a TypeError
    assert not is_ssyt(t)
    with pytest.raises(ValueError):
        call(t)


def test_is_ssyt_rejects_non_integer_entries():
    assert not is_ssyt(((1, "a"),))
    assert not is_ssyt(((None,), (2,)))


def test_is_ssyt_rejects_rows_that_are_not_a_shape():
    # row lengths must weakly decrease once trailing empty rows are dropped
    assert not is_ssyt(((1,), (2, 3)))
    assert not is_ssyt(((), (1,)))
    assert is_ssyt(((1, 2), ()))


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


def test_reading_word_examples():
    rows = ((1, 1, 2, 3), (2, 2, 3), (3,))
    assert is_ssyt(rows)
    assert reading_word(rows) == (3, 2, 2, 3, 1, 1, 2, 3)
    assert reading_word(((1, 1), (2,))) == (2, 1, 1)
    assert reading_word(()) == ()


def is_yamanouchi(word):
    """In every suffix, letter i occurs at least as often as letter i+1."""
    counts = Counter()
    for v in reversed(word):
        counts[v] += 1
        if v > 1 and counts[v] > counts[v - 1]:
            return False
    return True


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


def yamanouchi_oracle(mu, nu, lam):
    """Definitional LR coefficient: of the arrangements of nu's letters, nu[i]
    letters i + 1, in the cells of lam/mu, the skew SSYT whose reading word
    is Yamanouchi; 0 on size mismatch or when mu is not inside lam."""
    mu, nu, lam = as_partition(mu), as_partition(nu), as_partition(lam)
    if not contains(lam, mu) or sum(lam) != sum(mu) + sum(nu):
        return 0
    letters = tuple(v for v, k in enumerate(nu, 1) for _ in range(k))
    return sum(
        1
        for rows in skew_fillings(lam, mu, arrangements(letters))
        if skew_oracle(lam, mu, rows) and is_yamanouchi(reading_word(rows))
    )


def test_crystal_coefficients_match_the_yamanouchi_oracle():
    # every triple of criterion 4: sizes 1..4 at most 4 rows, read from the
    # crystal's decomposition over 4 letters as criterion 4 reads it
    grid = [
        (mu, nu, lam)
        for a in range(1, 5)
        for b in range(1, 5)
        for mu in all_partitions(a, max_length=4)
        for nu in all_partitions(b, max_length=4)
        for lam in all_partitions(a + b, max_length=4)
    ]
    assert len(grid) == 1162
    products = {}
    for mu, nu, lam in grid:
        if (mu, nu) not in products:
            products[mu, nu] = decompose_product(mu, nu, 4)
        assert products[mu, nu][lam] == yamanouchi_oracle(mu, nu, lam), (mu, nu, lam)
    assert all(sum(lam) == sum(mu) + sum(nu) for (mu, nu), c in products.items() for lam in c)
    # lr_coefficient on the grid and on every triple of total size <= 6,
    # empty shapes and inner shapes not inside included
    triples = grid + [
        (mu, nu, lam)
        for size in range(7)
        for lam in all_partitions(size)
        for a in range(size + 1)
        for mu in all_partitions(a)
        for nu in all_partitions(size - a)
    ]
    assert any(not mu for mu, _, _ in triples)
    assert any(not contains(lam, mu) for mu, _, lam in triples)
    for mu, nu, lam in triples:
        assert lr_coefficient(mu, nu, lam) == yamanouchi_oracle(mu, nu, lam), (mu, nu, lam)
    # a size mismatch is 0, not an error
    assert lr_coefficient((1,), (2,), (2,)) == 0


@pytest.mark.parametrize(
    "mu, nu, lam",
    [
        ((1,), (2,), (2,)),
        ((4, 3, 2, 1), (3, 2, 1), (5, 4, 3, 2, 2, 1, 1)),
        ((3,), (1,), (2, 2)),
        ((1,), (3,), (2, 2)),
        ((2,), (2, 1), (2, 1, 1, 1)),
    ],
    ids=["size", "tall-size", "mu-outside", "nu-outside", "rows"],
)
def test_lr_coefficient_is_zero_before_any_enumeration(monkeypatch, mu, nu, lam):
    # a size mismatch, a factor outside lam, or more rows than both
    # factors together: 0 with no tableau filled and no crystal built
    def unused(*args):
        raise AssertionError("lr_coefficient enumerated tableaux")

    monkeypatch.setattr(tableaux, "cached_ssyt", unused)
    monkeypatch.setattr(crystal, "decompose_product", unused)
    assert lr_coefficient(mu, nu, lam) == 0
    with pytest.raises(AssertionError, match="enumerated"):
        lr_coefficient((1,), (1,), (1, 1))


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


def test_kostka_counts_the_tableaux_of_each_content():
    # brute force: the tableaux of cached_ssyt(lam, 4) grouped by content
    n = 4
    for size in range(7):
        for lam in all_partitions(size, max_length=n):
            by_content = Counter()
            for t in cached_ssyt(lam, n):
                entries = Counter(v for row in t for v in row)
                by_content[tuple(entries[v] for v in range(1, n + 1))] += 1
            for gamma in all_partitions(size, max_length=n):
                padded = gamma + (0,) * (n - len(gamma))
                assert kostka(lam, gamma) == by_content[padded], (lam, gamma)
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2, 1), (2, 2, 1, 1)) == 4
    assert kostka((), ()) == 1 and kostka((1,), ()) == 0 and kostka((1, 1), (2,)) == 0


def test_count_ssyt_is_the_number_of_enumerated_tableaux():
    # n = 0..5 covers 0 tableaux when n < rows and 1 for the empty shape
    for size in range(7):
        for lam in all_partitions(size):
            for n in range(6):
                assert count_ssyt(lam, n) == len(cached_ssyt(lam, n)), (lam, n)
    assert count_ssyt((), 0) == 1 and count_ssyt((1,), 0) == 0
    assert count_ssyt([3, 2, 1, 0], 24) == 4209920


def test_kostka_is_unitriangular_in_dominance_order():
    # K(lam, lam) = 1, and K(lam, gamma) = 0 unless lam dominates gamma:
    # so the counts by content fix every coefficient of a product
    def dominates(lam, gamma):
        return all(
            sum(lam[:k]) >= sum(gamma[:k]) for k in range(1, len(gamma) + 1)
        )

    for size in range(9):
        shapes = all_partitions(size)
        for lam in shapes:
            assert kostka(lam, lam) == 1
            for gamma in shapes:
                assert (kostka(lam, gamma) > 0) == dominates(lam, gamma), (lam, gamma)


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
