import random
from bisect import bisect_left
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurzeta.insertion import (
    column_insert,
    column_insert_word,
    row_insert,
    row_insert_word,
)
from schurzeta.partitions import (
    all_partitions,
    grow_cols,
    grow_rows,
    horizontal_strip_cols,
    vertical_strip_rows,
)
from schurzeta.tableaux import (
    cached_ssyt,
    enumerate_ssyt,
    is_ssyt,
    reading_word,
    shape_of,
)


def test_row_insert_converts_the_tableau_once(monkeypatch):
    import schurzeta.tableaux as tmod

    calls = []
    convert = tmod.as_tableau

    def counted(rows):
        calls.append(rows)
        return convert(rows)

    monkeypatch.setattr(tmod, "as_tableau", counted)
    assert row_insert(((1, 2), (3,)), 1).tableau == ((1, 1), (2,), (3,))
    assert len(calls) == 1


def test_row_insert_examples():
    r = row_insert((), 1)
    assert r.tableau == ((1,),) and r.route == ((1, 1),) and r.new_cell == (1, 1)
    r = row_insert(((1, 2),), 1)
    assert r.tableau == ((1, 1), (2,)) and r.route == ((1, 2), (2, 1))
    r = row_insert(((1, 1),), 2)
    assert r.tableau == ((1, 1, 2),) and r.route == ((1, 3),)
    with pytest.raises(ValueError):
        row_insert(((2, 1),), 1)
    with pytest.raises(ValueError):
        row_insert((), 0)


def test_column_insert_examples():
    r = column_insert(1, ())
    assert r.tableau == ((1,),) and r.route == ((1, 1),)
    r = column_insert(1, ((1,),))
    assert r.tableau == ((1, 1),) and r.route == ((1, 1), (1, 2))
    r = column_insert(2, ((1,),))
    assert r.tableau == ((1,), (2,)) and r.route == ((2, 1),)


def test_row_insert_word_examples():
    t, routes = row_insert_word(((1,),), (1,))
    assert t == ((1, 1),) and len(routes) == 1
    # content preservation when building from the empty tableau
    for lam in [(2, 1), (2, 2)]:
        for m in cached_ssyt(lam, 3):
            built, _ = row_insert_word((), reading_word(m))
            assert sorted(reading_word(built)) == sorted(reading_word(m))
    # the public fold still validates what the unchecked one trusts
    with pytest.raises(ValueError):
        row_insert_word(((2, 1),), (1,))
    with pytest.raises(ValueError):
        row_insert_word(((1,),), (2, 0))


def test_insertion_results_are_ssyt_and_grow_by_one():
    rng = random.Random(7)
    shapes = [p for size in range(0, 7) for p in all_partitions(size, max_length=4)]
    for _ in range(300):
        lam = rng.choice(shapes)
        n = rng.randint(max(2, len(lam)), 5)
        t = rng.choice(cached_ssyt(lam, n))
        x = rng.randint(1, n)
        for res in (row_insert(t, x), column_insert(x, t)):
            assert is_ssyt(res.tableau)
            assert sum(shape_of(res.tableau)) == sum(lam) + 1
            assert res.route[-1] == res.new_cell
            assert sorted(reading_word(res.tableau)) == sorted((*reading_word(t), x))


def test_route_monotonicity_fuzz():
    rng = random.Random(40)
    shapes = [p for size in range(0, 7) for p in all_partitions(size, max_length=4)]
    for _ in range(1000):
        lam = rng.choice(shapes)
        n = rng.randint(max(2, len(lam)), 5)
        t = rng.choice(cached_ssyt(lam, n))
        x = rng.randint(1, n)
        cols = [c for _, c in row_insert(t, x).route]
        assert all(a >= b for a, b in zip(cols, cols[1:]))
        rows = [r for r, _ in column_insert(x, t).route]
        assert all(a >= b for a, b in zip(rows, rows[1:]))


@st.composite
def relabelled_insertions(draw):
    """A tableau and a word with letters <= n, and an order-preserving
    injection of 1..n into 1..12."""
    n = draw(st.integers(1, 4))
    shape = draw(st.sampled_from(all_partitions(draw(st.integers(0, 5)), max_length=n)))
    t = draw(st.sampled_from(cached_ssyt(shape, n)))
    word = tuple(draw(st.lists(st.integers(1, n), max_size=5)))
    image = sorted(draw(st.sets(st.integers(1, 12), min_size=n, max_size=n)))
    return t, word, dict(zip(range(1, n + 1), image))


@settings(max_examples=300, deadline=None)
@given(relabelled_insertions())
def test_insertion_commutes_with_order_preserving_relabelling(case):
    # insertion compares letters only, so an increasing relabelling of the
    # letters relabels the result and keeps every route: a check of the
    # Pieri terms over the letters 1..N0 speaks for every N
    t, word, phi = case

    def relabel(rows):
        return tuple(tuple(phi[x] for x in row) for row in rows)

    new_t, new_word = relabel(t), relabel((word,))[0]
    for (result, routes), (new_result, new_routes) in (
        (row_insert_word(t, word), row_insert_word(new_t, new_word)),
        (column_insert_word(word, t), column_insert_word(new_word, new_t)),
    ):
        assert new_result == relabel(result) and new_routes == routes


def test_row_strip_insertion_lands_in_horizontal_family():
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        for m in (1, 2):
            targets = {grow_cols(lam, js) for js in horizontal_strip_cols(lam, m)}
            for left in cached_ssyt(lam, 3):
                for right in cached_ssyt((m,), 3):
                    t, routes = row_insert_word(left, reading_word(right))
                    assert shape_of(t) in targets
                    # later routes sit strictly right of earlier ones
                    for r_prev, r_next in zip(routes, routes[1:]):
                        assert len(r_next) <= len(r_prev)
                        assert all(
                            r_prev[k][1] < r_next[k][1] for k in range(len(r_next))
                        )


def test_column_strip_insertion_lands_in_vertical_family():
    for lam in [(1,), (2,), (1, 1), (2, 1)]:
        for n in (1, 2):
            targets = {grow_rows(lam, ks) for ks in vertical_strip_rows(lam, n)}
            for left in cached_ssyt((1,) * n, 4):
                for right in cached_ssyt(lam, 4):
                    t, routes = column_insert_word([x for (x,) in left], right)
                    assert shape_of(t) in targets
                    # later routes sit strictly below earlier ones
                    for r_prev, r_next in zip(routes, routes[1:]):
                        assert len(r_next) <= len(r_prev)
                        assert all(
                            r_prev[k][0] < r_next[k][0] for k in range(len(r_next))
                        )


def test_insertion_fibers_match_product_decomposition():
    # pairs landing on a shape = coefficient * crystal size, at every
    # truncation, per the weight-preserving product bijection
    from schurzeta.tableaux import lr_coefficient

    for a in range(1, 4):
        for b in range(1, 4 - a + 1):
            for mu in all_partitions(a):
                for nu in all_partitions(b):
                    for n in (2, 3):
                        fibers: dict = {}
                        for left in cached_ssyt(mu, n):
                            for right in cached_ssyt(nu, n):
                                t, _ = row_insert_word(left, reading_word(right))
                                fibers[shape_of(t)] = fibers.get(shape_of(t), 0) + 1
                        for lam in all_partitions(a + b):
                            expected = lr_coefficient(mu, nu, lam) * len(
                                cached_ssyt(lam, n)
                            )
                            assert fibers.get(lam, 0) == expected


def test_column_insertion_equals_row_insertion_of_reading_word():
    # top-entry-first column insertion of a column agrees with row-inserting
    # the other factor's reading word, for every pair at desk scale
    for lam_size in range(0, 4):
        for lam in all_partitions(lam_size, max_length=3):
            for n in (1, 2, 3):
                if lam_size + n > 5:
                    continue
                for left in enumerate_ssyt((1,) * n, 3):
                    letters = [x for (x,) in left]
                    for right in enumerate_ssyt(lam, 3):
                        via_rows, _ = row_insert_word(left, reading_word(right))
                        via_cols, _ = column_insert_word(letters, right)
                        assert via_rows == via_cols


def test_bottom_up_column_order_differs():
    # applying the column letters bottom-up (reading-word order) is a
    # genuinely different operation; the top-entry-first order above is the
    # one matching row insertion
    up, _ = column_insert_word((1, 2), ())
    down, _ = column_insert_word((2, 1), ())
    assert up == ((1,), (2,))
    assert down == ((1, 2),)
    assert up != down


def test_column_insert_word_validation():
    # a column's letters go in top first; the tableau and the letters are
    # checked at this boundary, before the unchecked column fold
    assert column_insert_word((3, 5), ())[0] == ((3,), (5,))
    with pytest.raises(ValueError, match="not a semistandard tableau"):
        column_insert_word((1,), ((2,), (1,)))
    with pytest.raises(ValueError, match="weakly decrease"):
        column_insert_word((1,), ((1,), (2, 3)))
    with pytest.raises(ValueError, match="inserted values"):
        column_insert_word((0,), ())


def oracle_column_insert_word(word, t):
    """Oracle: column insertion by its own bump, bumping the topmost entry
    greater than or equal to x down each column in place."""
    rows = [list(row) for row in t]
    routes = []
    for x in word:
        route = []
        j = 0
        while True:
            col = [row[j] for row in rows if len(row) > j]
            pos = bisect_left(col, x)
            route.append((pos + 1, j + 1))
            if pos == len(col):
                if pos == len(rows):
                    rows.append([x])
                else:
                    rows[pos].append(x)
                break
            x, rows[pos][j] = rows[pos][j], x
            j += 1
        routes.append(tuple(route))
    return tuple(tuple(row) for row in rows), routes


def test_column_insert_word_matches_in_place_column_bump():
    # every SSYT with |lam| <= 4 and entries <= 4, every word of at most 3
    # letters: the transposed weak row bump gives the same tableau and routes
    words = [w for k in range(4) for w in product(range(1, 5), repeat=k)]
    tableaux = [
        t for size in range(5) for lam in all_partitions(size)
        for t in cached_ssyt(lam, 4)
    ]
    for t in tableaux:
        for word in words:
            assert column_insert_word(word, t) == oracle_column_insert_word(word, t), (word, t)
