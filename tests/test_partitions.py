import sys
from itertools import combinations

import pytest

from schurzeta.insertion import column_insert, row_insert, row_insert_word
from schurzeta.partitions import (
    all_partitions,
    as_partition,
    cells,
    conjugate,
    contains,
    corners,
    echo,
    grow_cols,
    grow_rows,
    horizontal_strip_cols,
    require_ints,
    vertical_strip_rows,
)
from schurzeta.tableaux import as_tableau, enumerate_ssyt, is_ssyt
from schurzeta.zeta import horizontal_push_filling, verify_pieri_h


def brute_vertical_row_sets(p, n):
    """Oracle: filter all n-subsets of candidate row indices directly."""
    out = []
    for ks in combinations(range(1, len(p) + n + 1), n):
        grown = list(p) + [0] * (max(ks) - len(p))
        for k in ks:
            grown[k - 1] += 1
        if all(a >= b for a, b in zip(grown, grown[1:])):
            out.append(ks)
    return out


def _nested(depth: int):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def test_as_partition_normalizes():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))


@pytest.mark.parametrize(
    "value, shown",
    [
        (-1, "-1"),
        ((1, 2), "(1, 2)"),
        ([[1, 2], [3]], "[[1, 2], [3]]"),
        ("[" * 980 + "]" * 980, "'" + "[" * 37 + "..." + "]" * 38 + "'"),
        (tuple(range(100)), "(0, 1, 2, 3, 4, 5, ...)"),
        (_nested(980), "[[[[[[[...]]]]]]]"),
        (-(10**90), "-1" + "0" * 36 + "..." + "0" * 39),
    ],
    ids=["int", "tuple", "rows", "long-string", "long-tuple", "deep-list", "long-int"],
)
def test_echo_shows_a_rejected_value_in_at_most_80_characters(value, shown):
    assert echo(value) == shown and len(shown) <= 80
    with pytest.raises(ValueError) as info:
        require_ints((value,), "parts", 0)
    assert str(info.value) == f"parts must be integers >= 0, got {shown}"


def test_echo_names_an_int_past_the_str_cap_by_its_type():
    # Python caps int-to-str conversion at 4,300 digits by default; the CLI
    # lifts the cap for its process, a library caller may not
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no cap on int-to-str conversion")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert echo(-(10**5000)) == "<int too long to print>"
        with pytest.raises(ValueError, match="^parts must be integers >= 0, got <int too long to print>$"):
            require_ints((-(10**5000),), "parts", 0)
    finally:
        sys.set_int_max_str_digits(limit)


def test_conjugate_examples():
    assert conjugate((3, 2, 1, 1)) == (4, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_exhaustive():
    for size in range(0, 9):
        for p in all_partitions(size):
            assert conjugate(conjugate(p)) == p


def test_cells_examples():
    assert cells((2, 1)) == [(1, 1), (1, 2), (2, 1)]
    assert cells(()) == []
    assert cells((1, 1, 1)) == [(1, 1), (2, 1), (3, 1)]


def test_corners_examples():
    assert corners((3, 2, 1, 1)) == [(1, 3), (2, 2), (4, 1)]
    assert corners((1,)) == [(1, 1)]
    assert corners((2, 2)) == [(2, 2)]


def test_corners_are_removable_cells():
    for size in range(1, 9):
        for p in all_partitions(size):
            removable = []
            for i, part in enumerate(p):
                shrunk = list(p)
                shrunk[i] -= 1
                if all(a >= b for a, b in zip(shrunk, shrunk[1:])):
                    removable.append((i + 1, part))
            assert corners(p) == removable


def test_vertical_strip_rows_examples():
    assert vertical_strip_rows((1,), 1) == [(1,), (2,)]
    assert vertical_strip_rows((2, 2), 1) == [(1,), (3,)]
    assert (1, 3, 4) in horizontal_strip_cols((3, 2, 1, 1), 3)


def test_vertical_strip_rows_against_brute_force():
    for size in range(0, 6):
        for p in all_partitions(size):
            for n in (1, 2, 3):
                assert vertical_strip_rows(p, n) == brute_vertical_row_sets(p, n)


def test_horizontal_strip_cols_examples():
    assert horizontal_strip_cols((1,), 1) == [(1,), (2,)]
    assert horizontal_strip_cols((2,), 2) == [(1, 2), (1, 3), (3, 4)]


def test_strip_size_must_be_positive():
    with pytest.raises(ValueError):
        vertical_strip_rows((2, 1), 0)


def test_grow_rows_examples():
    assert grow_rows((1,), (2,)) == (1, 1)
    assert grow_rows((4, 2, 1), (1, 3, 4)) == (5, 2, 2, 1)
    assert grow_rows((), (1,)) == (1,)
    with pytest.raises(ValueError):
        grow_rows((1,), (3,))
    with pytest.raises(ValueError):
        grow_rows((2, 1), (2, 2))


def test_grow_cols_examples():
    assert grow_cols((3, 2, 1, 1), (1, 3, 4)) == (4, 3, 1, 1, 1)
    assert grow_cols((1,), (2,)) == (2,)
    assert grow_cols((2, 1), (1, 3)) == (3, 1, 1)
    with pytest.raises(ValueError, match=r"growing columns \(5,\) of \(3, 1\)"):
        grow_cols((3, 1), (5,))
    with pytest.raises(ValueError, match="column set"):
        grow_cols((3, 1), (2, 2))


def _one_cell_per(outer, inner, axis):
    """Oracle: whether outer/inner is a skew shape with at most one cell
    in each row (axis 0: a vertical strip) or in each column (axis 1: a
    horizontal strip), read off its cells."""
    skew = set(cells(outer)) - set(cells(inner))
    return contains(outer, inner) and len({cell[axis] for cell in skew}) == len(skew)


def test_grow_rows_bijects_onto_vertical_strip_extensions():
    for size in range(0, 7):
        for p in all_partitions(size):
            for n in (1, 2, 3):
                grown = [grow_rows(p, ks) for ks in vertical_strip_rows(p, n)]
                assert len(set(grown)) == len(grown)
                targets = {
                    q
                    for q in all_partitions(size + n)
                    if _one_cell_per(q, p, 0)
                }
                assert set(grown) == targets
                for q in grown:
                    assert sum(q) == size + n


def test_grow_cols_bijects_onto_horizontal_strip_extensions():
    for size in range(0, 7):
        for p in all_partitions(size):
            for m in (1, 2, 3):
                grown = [grow_cols(p, js) for js in horizontal_strip_cols(p, m)]
                assert len(set(grown)) == len(grown)
                targets = {
                    q
                    for q in all_partitions(size + m)
                    if _one_cell_per(q, p, 1)
                }
                assert set(grown) == targets


def test_row_sets_lexicographic():
    for p in [(3, 1), (2, 2, 1)]:
        for n in (1, 2):
            sets = vertical_strip_rows(p, n)
            assert sets == sorted(sets)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (2, 2, 1))
    assert contains((1,), ())


def test_all_partitions_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(all_partitions(n)) == count
    assert all_partitions(4, max_length=2) == [(4,), (3, 1), (2, 2)]


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(as_partition, ((2.5, 1),), id="partition-float-part"),
        pytest.param(as_partition, ((2, 1.0),), id="partition-integral-float-part"),
        pytest.param(as_partition, ((2, True),), id="partition-bool-part"),
        pytest.param(as_partition, ((1, False),), id="partition-bool-trailing-zero"),
        pytest.param(as_partition, (("2",),), id="partition-str-part"),
        pytest.param(all_partitions, (2.5,), id="all-partitions-float-size"),
        pytest.param(all_partitions, (True,), id="all-partitions-bool-size"),
        pytest.param(grow_rows, ((1,), (1.5,)), id="grow-rows-float-index"),
        pytest.param(grow_cols, ((1,), (True,)), id="grow-cols-bool-index"),
        pytest.param(
            horizontal_push_filling, ((1,), (("s_1_1",),), ("t_1",), (2.0,)), id="push-float-column"
        ),
        pytest.param(as_tableau, ([[1.5, 2]],), id="tableau-float-entry"),
        pytest.param(as_tableau, ([[1, True]],), id="tableau-bool-entry"),
        pytest.param(enumerate_ssyt, ((2,), 2.5), id="ssyt-float-n"),
        pytest.param(enumerate_ssyt, ((2,), True), id="ssyt-bool-n"),
        pytest.param(row_insert, ([[1, 2]], 1.5), id="row-insert-float-letter"),
        pytest.param(row_insert, ([[1, 2]], True), id="row-insert-bool-letter"),
        pytest.param(row_insert_word, ([[1]], (2, 1.0)), id="row-insert-word-float-letter"),
        pytest.param(column_insert, (1.5, [[1, 2]]), id="column-insert-float-letter"),
        pytest.param(row_insert, ([[1.5, 2]], 1), id="row-insert-float-entry"),
        pytest.param(
            verify_pieri_h, ((2.7,), 2, {v: 1 for v in ("s_1_1", "s_1_2", "t_1", "t_2")}, 2),
            id="pieri-float-part",
        ),
    ],
)
def test_non_integers_are_rejected_not_truncated(fn, args):
    # parts, sizes, indices, entries and letters are ints, not floats,
    # bools or strings, even when int() would turn them into one
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize(
    "t",
    [
        pytest.param([[1.5, 1.2]], id="floats"),
        pytest.param([[1, 2.0]], id="integral-float"),
        pytest.param([[True, 2]], id="bool"),
        pytest.param([[1], [1.5]], id="column-float"),
        pytest.param([[1], [True]], id="column-bool"),
    ],
)
def test_tableaux_with_non_integer_entries_are_not_semistandard(t):
    assert not is_ssyt(t)
