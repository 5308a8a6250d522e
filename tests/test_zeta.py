import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import schurzeta.zeta as zmod
from schurzeta import partitions, tableaux
from schurzeta.partitions import (
    all_partitions,
    as_partition,
    conjugate,
    grow_cols,
    grow_rows,
    horizontal_strip_cols,
    vertical_strip_rows,
)
from schurzeta.tableaux import cached_ssyt, lr_coefficient, shape_of
from schurzeta.zeta import (
    LIMIT_MAX_ORDER,
    LIMIT_START,
    SymSpec,
    _CHUNK,
    _extrapolate,
    _extrapolation_weights,
    _fit_weights,
    _partial_sums,
    _pieri_setup,
    _ratio,
    _tail_terms,
    canonical_filling,
    e_sym_spec,
    eval_zeta_limit,
    eval_zeta_truncated,
    grid_vars,
    h_sym_spec,
    horizontal_push_filling,
    monomial,
    seq_vars,
    sym_sum,
    sym_sum_direct,
    verify_insertion_term,
    verify_lr,
    verify_pieri_e,
    verify_pieri_h,
    vertical_push_filling,
)

ZETA3 = 1.2020569031595942854


def brute_zeta_row(exponents, n):
    """Oracle: weakly increasing chains, one exponent per position."""
    d = len(exponents)
    total = Fraction(0)
    for tup in product(range(1, n + 1), repeat=d):
        if all(a <= b for a, b in zip(tup, tup[1:])):
            den = 1
            for base, ex in zip(tup, exponents):
                den *= base**ex
            total += Fraction(1, den)
    return total


def brute_zeta_column(exponents, n):
    """Oracle: strictly increasing chains, one exponent per position."""
    d = len(exponents)
    total = Fraction(0)
    for tup in product(range(1, n + 1), repeat=d):
        if all(a < b for a, b in zip(tup, tup[1:])):
            den = 1
            for base, ex in zip(tup, exponents):
                den *= base**ex
            total += Fraction(1, den)
    return total


def test_monomial_examples():
    assert monomial(((2,),), (("a",),), {"a": 2}) == Fraction(1, 4)
    assert monomial(((1,), (2,)), (("a",), ("b",)), {"a": 1, "b": 2}) == Fraction(1, 4)
    assert monomial(((1, 2), (2,)), grid_vars((2, 1), "x"),
                    {"x_1_1": 1, "x_1_2": 1, "x_2_1": 1}) == Fraction(1, 4)
    with pytest.raises(ValueError):
        monomial(((1, 2),), (("a",),), {"a": 1})
    with pytest.raises(ValueError):
        monomial(((0,),), (("a",),), {"a": 1})
    # a non-integer exponent gives a float
    value = monomial(((2, 3),), (("a", "b"),), {"a": 1.5, "b": 0})
    assert isinstance(value, float) and value == pytest.approx(2**-1.5)


_TWO_CELLS = ([(1, [((2,), (("a", "b"),))])], SymSpec(("a",), frozenset()))


@pytest.mark.parametrize(
    "call, missing",
    [
        pytest.param(lambda a: monomial(((1, 2),), (("a", "b"),), a), "b", id="monomial"),
        pytest.param(lambda a: eval_zeta_truncated((2,), (("a", "b"),), a, 2), "b", id="eval_zeta_truncated"),
        pytest.param(lambda a: eval_zeta_limit((2,), (("a", "b"),), a, 1e-3), "b", id="eval_zeta_limit"),
        pytest.param(lambda a: sym_sum(*_TWO_CELLS, a, 2), "b", id="sym_sum"),
        pytest.param(lambda a: sym_sum_direct(*_TWO_CELLS, a, 2), "b", id="sym_sum_direct"),
        pytest.param(lambda a: verify_lr((1,), (1,), a, 2), "s_1_1", id="verify_lr"),
    ],
)
def test_every_entry_names_the_missing_variable(call, missing):
    # one assignment check serves every entry
    with pytest.raises(ValueError, match=f"^assignment missing variable '{missing}'$"):
        call({"a": 2})


@pytest.mark.parametrize(
    "bad", [-1, -1.0, True, float("nan"), float("inf"), "x", None], ids=repr
)
def test_monomial_and_domain_reject_bad_exponents(bad):
    # the checks of eval_zeta_truncated: -1.0 gave 2.0, True gave 0.5, nan
    # gave nan, and the domain test raised TypeError on "x"
    with pytest.raises(ValueError, match="exponents"):
        monomial(((2,),), (("a",),), {"a": bad})
    with pytest.raises(ValueError, match="exponents"):
        eval_zeta_limit((1,), (("a",),), {"a": bad}, 1e-3)


def test_eval_zeta_truncated_examples():
    assert eval_zeta_truncated((1,), (("a",),), {"a": 2}, 3) == Fraction(49, 36)
    assert eval_zeta_truncated(
        (1, 1), (("a",), ("b",)), {"a": 1, "b": 2}, 3
    ) == Fraction(5, 12)
    # two tableaux survive at truncation 2 for the hook shape
    rows = grid_vars((2, 1), "x")
    assign = {"x_1_1": 1, "x_1_2": 1, "x_2_1": 1}
    tabs = cached_ssyt((2, 1), 2)
    assert len(tabs) == 2
    expected = sum((monomial(t, rows, assign) for t in tabs), Fraction(0))
    assert eval_zeta_truncated((2, 1), rows, assign, 2) == expected


def test_eval_zeta_zero_when_too_tall():
    assert eval_zeta_truncated(
        (1, 1, 1), grid_vars((1, 1, 1), "x"),
        {"x_1_1": 1, "x_2_1": 1, "x_3_1": 2}, 2
    ) == Fraction(0)


def test_eval_zeta_monotone_in_truncation():
    rows = (("a",),)
    values = [eval_zeta_truncated((1,), rows, {"a": 2}, n) for n in range(1, 9)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[2] == Fraction(49, 36)


def test_row_shape_is_weak_chain_and_column_shape_is_strict_chain():
    for d in (1, 2, 3):
        exponents = tuple(range(2, 2 + d))
        row_vars = grid_vars((d,), "x")
        col_vars = grid_vars((1,) * d, "x")
        row_assign = {v: exponents[j] for j, v in enumerate(row_vars[0])}
        col_assign = {row[0]: exponents[i] for i, row in enumerate(col_vars)}
        for n in (1, 3, 5):
            assert eval_zeta_truncated((d,), row_vars, row_assign, n) == \
                brute_zeta_row(exponents, n)
            assert eval_zeta_truncated((1,) * d, col_vars, col_assign, n) == \
                brute_zeta_column(exponents, n)


def test_eval_zeta_limit_refuses_exponents_outside_the_convergence_domain():
    # exponents >= 1 everywhere and > 1 at every corner cell, checked before
    # any level is summed, so a few levels do
    def limit(shape, rows, assign):
        return eval_zeta_limit(shape, rows, assign, 1e-3, max_level=4)

    limit((2, 1), grid_vars((2, 1), "x"), {"x_1_1": 1, "x_1_2": 2, "x_2_1": 2})
    # a non-corner 1 next to a corner of 1.5
    limit((2,), (("a", "b"),), {"a": 1, "b": 1.5})
    # a corner exponent of 1
    for shape, rows, assign in [
        ((1,), (("a",),), {"a": 1}),
        ((2,), (("a", "b"),), {"a": 1.5, "b": 1}),
    ]:
        with pytest.raises(ValueError, match="^exponents outside the convergence domain$"):
            limit(shape, rows, assign)
    with pytest.raises(ValueError, match="does not match the shape"):
        limit((2,), (("a",),), {"a": 2})


def test_horizontal_push_filling_examples():
    s = grid_vars((3, 2, 1, 1), "s")
    assert horizontal_push_filling((3, 2, 1, 1), s, seq_vars(3, "t"), (1, 3, 4)) == (
        ("t_1", "s_1_2", "t_2", "t_3"),
        ("s_1_1", "s_2_2", "s_1_3"),
        ("s_2_1",),
        ("s_3_1",),
        ("s_4_1",),
    )
    one = grid_vars((1,), "s")
    assert horizontal_push_filling((1,), one, ("t_1",), (2,)) == (("s_1_1", "t_1"),)
    assert horizontal_push_filling((1,), one, ("t_1",), (1,)) == (("t_1",), ("s_1_1",))
    with pytest.raises(ValueError):
        horizontal_push_filling((1,), one, ("t_1",), (3,))
    with pytest.raises(ValueError, match="one new variable per strip cell"):
        horizontal_push_filling((1,), one, ("t_1", "t_2"), (2,))
    with pytest.raises(ValueError, match="does not match the shape"):
        horizontal_push_filling((2,), one, ("t_1",), (3,))


def test_vertical_push_filling_examples():
    t = grid_vars((3, 2, 1, 1), "t")
    assert vertical_push_filling((3, 2, 1, 1), seq_vars(4, "s"), t, (1, 3, 5, 6)) == (
        ("s_1", "t_1_1", "t_1_2", "t_1_3"),
        ("t_2_1", "t_2_2"),
        ("s_2", "t_3_1"),
        ("t_4_1",),
        ("s_3",),
        ("s_4",),
    )
    one = grid_vars((1,), "t")
    assert vertical_push_filling((1,), ("s_1",), one, (2,)) == (("t_1_1",), ("s_1",))
    assert vertical_push_filling((1,), ("s_1",), one, (1,)) == (("s_1", "t_1_1"),)
    # the variable tableau is checked against lam before it is transposed,
    # which assumes weakly decreasing rows
    with pytest.raises(ValueError, match="does not match the shape"):
        vertical_push_filling((2, 1), ("s_1",), (("t_1_1",), ("t_2_1", "t_2_2")), (1,))
    with pytest.raises(ValueError, match="does not match the shape"):
        vertical_push_filling((2,), ("s_1",), one, (1,))


def test_h_sym_spec_examples():
    spec = h_sym_spec((2, 1), 2)
    assert set(spec.symmetrized) == {"t_1", "t_2", "s_1_1", "s_1_2"}
    assert spec.fixed == frozenset({"s_2_1"})
    spec = h_sym_spec((1,), 1)
    assert spec.symmetrized == ("t_1",) and spec.fixed == frozenset({"s_1_1"})
    # single-column shape: the column-1 run is empty, so only t's symmetrize
    spec = h_sym_spec((1, 1), 1)
    assert spec.symmetrized == ("t_1",)
    assert spec.fixed == frozenset({"s_1_1", "s_2_1"})
    with pytest.raises(ValueError):
        h_sym_spec((2, 1), 1)


def test_e_sym_spec_examples():
    spec = e_sym_spec((2, 1), 2)
    assert set(spec.symmetrized) == {"s_1", "s_2", "t_1_1", "t_2_1"}
    assert spec.fixed == frozenset({"t_1_2"})
    spec = e_sym_spec((1,), 1)
    assert spec.symmetrized == ("s_1",) and spec.fixed == frozenset({"t_1_1"})
    spec = e_sym_spec((2,), 1)
    assert spec.symmetrized == ("s_1",)
    assert spec.fixed == frozenset({"t_1_1", "t_1_2"})
    with pytest.raises(ValueError):
        e_sym_spec((2, 1), 1)


def test_sym_sum_trivial_cases():
    rows = grid_vars((1,), "s")
    terms = [(1, [((1,), rows)])]
    spec = SymSpec((), frozenset({"s_1_1"}))
    assert sym_sum(terms, spec, {"s_1_1": 2}, 3) == Fraction(49, 36)
    # two symmetrized variables: two summands
    terms = [(1, [((1,), (("a",),)), ((1,), (("b",),))])]
    spec = SymSpec(("a", "b"), frozenset())
    val = sym_sum(terms, spec, {"a": 2, "b": 3}, 2)
    za = Fraction(5, 4)
    zb = Fraction(9, 8)
    assert val == 2 * za * zb


def test_sym_sum_fast_matches_direct():
    cases = [
        ((2, 1), 2),
        ((2,), 2),
        ((1, 1), 1),
    ]
    for lam, m in cases:
        s_rows = grid_vars(lam, "s")
        t_names = seq_vars(m, "t")
        names = [v for r in s_rows for v in r] + list(t_names)
        assign = {v: k + 1 for k, v in enumerate(names)}
        spec = h_sym_spec(lam, m)
        terms = [(1, [(lam, s_rows), ((m,), (t_names,))])]
        for n in (2, 3):
            assert sym_sum(terms, spec, assign, n) == \
                sym_sum_direct(terms, spec, assign, n)


# symmetrized variables that fill no cell or several cells of a term, a
# form the paper's formulas never take: both sums refuse them by name
REJECTED_TERMS = {
    # a is missing from the second term and b from the first
    "missing-from-term": (
        [(1, [((1,), (("a",),))]), (2, [((1,), (("b",),))])],
        SymSpec(("a", "b"), frozenset()),
        "symmetrized variable 'b' fills 0 cells of terms[0], not exactly one",
    ),
    "missing-from-second-term": (
        [(1, [((2,), (("a", "b"),))]), (2, [((1,), (("b",),))])],
        SymSpec(("a", "b"), frozenset()),
        "symmetrized variable 'a' fills 0 cells of terms[1], not exactly one",
    ),
    # d fills no cell of any term
    "in-no-cell": (
        [(1, [((1,), (("a",),))])],
        SymSpec(("a", "d"), frozenset()),
        "symmetrized variable 'd' fills 0 cells of terms[0], not exactly one",
    ),
    "repeated-in-factor": (
        [(1, [((2, 1), (("a", "b"), ("a",)))])],
        SymSpec(("a", "b"), frozenset()),
        "symmetrized variable 'a' fills 2 cells of terms[0], not exactly one",
    ),
    "repeated-across-factors": (
        [(1, [((1,), (("a",),)), ((2,), (("a", "b"),))])],
        SymSpec(("a", "b"), frozenset()),
        "symmetrized variable 'a' fills 2 cells of terms[0], not exactly one",
    ),
    # the first check to fail names the variable: b is fine, c fixed
    "repeated-after-a-valid-one": (
        [(1, [((2, 1), (("b", "c"), ("a",))), ((1, 1), (("a",), ("c",)))])],
        SymSpec(("b", "a"), frozenset({"c"})),
        "symmetrized variable 'a' fills 2 cells of terms[0], not exactly one",
    ),
}


@pytest.mark.parametrize("fn", [sym_sum, sym_sum_direct])
@pytest.mark.parametrize("case", sorted(REJECTED_TERMS))
def test_sym_sums_reject_a_variable_not_in_exactly_one_cell(case, fn):
    terms, spec, message = REJECTED_TERMS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(terms, spec, dict.fromkeys("abcd", 2), 2)


KERNEL_TERMS = {
    # c fixed in both factors of one term, a and b drawn one in each
    "fixed-in-both-factors": (
        [(1, [((1, 1), (("a",), ("c",))), ((2,), (("c", "b"),))])],
        SymSpec(("a", "b"), frozenset({"c"})),
    ),
    # two terms that place a and b in different cells, c fixed in one
    "two-terms": (
        [(1, [((1,), (("a",),)), ((1, 1), (("b",), ("c",)))]), (3, [((1, 1), (("b",), ("a",)))])],
        SymSpec(("a", "b"), frozenset({"c"})),
    ),
    # the two terms plan to one prefix and one last factor, a and b in
    # swapped cells, whose coefficients add up
    "merged-last-factor": (
        [(1, [((1,), (("a",),)), ((2,), (("b", "c"),))]), (2, [((1,), (("b",),)), ((2,), (("a", "c"),))])],
        SymSpec(("a", "b"), frozenset({"c"})),
    ),
    # a factor of fixed cells alone draws nothing before the one that
    # draws every value
    "fixed-factor": (
        [(1, [((2,), (("c", "c"),)), ((2, 1), (("a", "b"), ("d",)))])],
        SymSpec(("a", "b", "d"), frozenset({"c"})),
    ),
    # three factors in one walk: c fixed in each, and a, b and d drawn one
    # per factor, so the third walk starts from the counts the first two
    # drew
    "three-factors": (
        [(1, [
            ((2, 1), (("b", "c"), ("c",))),
            ((1, 1), (("a",), ("c",))),
            ((2, 1), (("d", "c"), ("c",))),
        ])],
        SymSpec(("a", "b", "d"), frozenset({"c"})),
    ),
}


@pytest.mark.parametrize("n_trunc", [1, 2, 3])
@pytest.mark.parametrize(
    "values", [(1, 2, 3, 4), (2, 2, 1, 2), (3, 3, 3, 0)], ids=str
)
@pytest.mark.parametrize("case", sorted(KERNEL_TERMS))
@pytest.mark.parametrize("order", ["given", "reversed"])
def test_sym_sum_of_multi_factor_terms_matches_direct(order, case, values, n_trunc):
    terms, spec = KERNEL_TERMS[case]
    if order == "reversed":
        # each factor's walk starts from what the factors before it drew
        terms = [(coeff, factors[::-1]) for coeff, factors in terms]
    assign = dict(zip("abcd", values))
    assert sym_sum(terms, spec, assign, n_trunc) == \
        sym_sum_direct(terms, spec, assign, n_trunc)


def test_sym_sum_invariant_under_relabelling():
    lam, m = (2, 1), 2
    s_rows = grid_vars(lam, "s")
    t_names = seq_vars(m, "t")
    spec = h_sym_spec(lam, m)
    assign = {"s_1_1": 3, "s_1_2": 4, "s_2_1": 5, "t_1": 1, "t_2": 2}
    base = sym_sum([(1, [(lam, s_rows), ((m,), (t_names,))])], spec, assign, 3)
    renamed_rows = tuple(
        tuple(v.replace("s_", "q_") for v in row) for row in s_rows
    )
    renamed_spec = SymSpec(
        tuple(v.replace("s_", "q_") for v in spec.symmetrized),
        frozenset(v.replace("s_", "q_") for v in spec.fixed),
    )
    renamed_assign = {k.replace("s_", "q_"): v for k, v in assign.items()}
    renamed = sym_sum(
        [(1, [(lam, renamed_rows), ((m,), (t_names,))])],
        renamed_spec, renamed_assign, 3,
    )
    assert base == renamed


def test_sym_sum_work_guard_admits_its_limit(monkeypatch):
    names = tuple(f"v_{k}" for k in range(4))
    rows = ((names[0], names[1]), (names[2],))
    terms = [(1, [((2, 1), rows)])]
    spec = SymSpec(names[:3], frozenset())
    assign = {v: 2 for v in names}
    # the oracle first: its exact evaluations go through the guard too
    expected = sym_sum_direct(terms, spec, assign, 2)
    seen = []
    guard = zmod._require_work
    monkeypatch.setattr(zmod, "_require_work", lambda work: seen.append(work) or guard(work))
    assert sym_sum(terms, spec, assign, 2) == expected
    (work,) = seen
    monkeypatch.setattr(zmod, "WORK_LIMIT", work)
    assert sym_sum(terms, spec, assign, 2) == expected
    monkeypatch.setattr(zmod, "WORK_LIMIT", work - 1)
    with pytest.raises(ValueError, match=f"predicted work of {work:,} units"):
        sym_sum(terms, spec, assign, 2)


def _distinct(names):
    return {v: k + 1 for k, v in enumerate(names)}


WIDE = tuple(f"v_{k}" for k in range(30))
BLOCK = grid_vars((4, 4, 4, 4), "x")


@pytest.mark.parametrize(
    "label, call, work",
    [
        # 2**14 count vectors * 16 sub-shapes of (7) and (7) on the left * N
        ("lr (7)x(7) N=8",
         lambda: verify_lr((7,), (7,), _distinct(seq_vars(7, "s_1") + seq_vars(7, "t_1")), 8),
         2**14 * 16 * 8),
        # 2**30 count vectors * 31 sub-shapes of (30) * N
        ("sym_sum of 30 variables",
         lambda: sym_sum([(1, [((30,), (WIDE,))])], SymSpec(WIDE, frozenset()), _distinct(WIDE), 2),
         2**30 * 31 * 2),
        # an exact one-factor sum: 70 sub-shapes of (4,4,4,4) * N
        ("exact eval_zeta_truncated of (4,4,4,4) at N=100000",
         lambda: eval_zeta_truncated((4, 4, 4, 4), BLOCK, dict.fromkeys(zmod._flatten(BLOCK), 2), 100_000),
         70 * 100_000),
    ],
)
def test_work_guard_refuses_large_sums_before_building_them(label, call, work):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"predicted work of {work:,} units"):
        call()
    assert time.perf_counter() - start < 0.5, label


def test_work_guard_refuses_either_side_before_any_level_dp():
    # the left side, 2**14 * 16 * 3 = 786,432 units, is admitted; the right
    # side is refused before the left side's DP runs
    assign = _distinct(seq_vars(7, "s_1") + seq_vars(7, "t_1"))
    zmod._product_sum.cache_clear()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="predicted work of 2,211,840 units"):
        verify_lr((7,), (7,), assign, 3)
    assert time.perf_counter() - start < 0.05
    assert zmod._product_sum.cache_info().misses == 0


def _oracle_sizes(terms):
    """Per term (rows, nodes), read off the term as a whole: the most rows
    of its factors and the summed sub-shapes of its factors, counted as
    the weakly decreasing tuples under each shape."""
    sizes = []
    for _, factors in terms:
        nodes = sum(
            sum(all(a >= b for a, b in zip(mu, mu[1:])) for mu in product(*(range(p + 1) for p in shape)))
            for shape, _ in factors
        )
        rows = max((len(shape) for shape, _ in factors), default=0)
        sizes.append((rows, nodes))
    return sizes


def _oracle_work(sizes, n_trunc, caps):
    units = max((nodes for rows, nodes in sizes if rows <= n_trunc), default=0)
    return math.prod(m + 1 for m in caps) * units * n_trunc


def _guarded_identities():
    """(setup, left terms, right terms) of every Pieri h/e identity with
    |lam| <= 5 and three strip sizes, and every LR pair of total size <= 6."""
    for size in range(1, 6):
        for lam in all_partitions(size):
            for mode in "he":
                side = lam[0] if mode == "h" else len(lam)
                for strip in range(side, side + 3):
                    setup = _pieri_setup(lam, strip, mode)
                    rhs = [(1, [(grown, rows)]) for _, grown, rows in setup.terms]
                    yield setup, [(1, setup.factors)], rhs
    for total in range(2, 7):
        for a in range(1, total):
            for mu in all_partitions(a):
                for nu in all_partitions(total - a):
                    setup = zmod._lr_setup(mu, nu)
                    rhs = [(coeff, [(lam, filling)]) for lam, coeff, filling in setup.terms]
                    yield setup, [(1, setup.factors)], rhs


def test_guard_reads_the_plans_as_the_per_term_sizes_would():
    # the guard and the vacuous note read the plans' walks; terms merged
    # into one walk share their rows and sub-shapes, so both match
    # the per-term formula on every identity, value pattern and level
    cases = 0
    for setup, lhs_terms, rhs_terms in _guarded_identities():
        k = len(setup.spec.symmetrized)
        patterns = {(1,) * k, (k,), (2,) * (k // 2) + (1,) * (k % 2), (1, k - 1) if k > 1 else (1,)}
        rows = max(r for r, _ in _oracle_sizes(lhs_terms))
        for plan, terms in ((setup.lhs, lhs_terms), (setup.rhs, rhs_terms)):
            sizes = _oracle_sizes(terms)
            for caps in patterns:
                for n_trunc in (1, 2, 3, 4, 6):
                    assert zmod._sym_work(plan, n_trunc, caps) == _oracle_work(sizes, n_trunc, caps)
                    cases += 1
        for n_trunc in (1, 2, 3, 4, 6):
            note = f"vacuous: truncation {n_trunc} < {rows} rows of a left-hand factor, both sides are empty sums"
            assert zmod._vacuous_note(setup.lhs, n_trunc) == (note if rows > n_trunc else "")
    assert cases > 5000


def test_plans_carry_the_walks_and_units_each_level_would_recompute():
    # per identity, side and level N = 1..6, levels that drop terms among
    # them: a plan's cut is what a call would otherwise rebuild from its
    # groups, the last factors of terms of at most N rows with their
    # coefficients, the walk's key by _fixed_pairs, and the guard's units
    # as the largest summed sub-shapes of a prefix and a kept last factor
    dropped = 0
    for setup, _, _ in _guarded_identities():
        assign = {v: k + 1 for k, v in enumerate(setup.lhs.names)}
        for plan in (setup.lhs, setup.rhs):
            for n_trunc in range(1, 7):
                units, walks = plan.cuts[min(n_trunc, plan.rows)]
                expected, most = [], 0
                for prefix, ends in plan.groups:
                    kept = [(last, coeff) for last, coeff, rows in ends if rows <= n_trunc]
                    dropped += len(kept) < len(ends)
                    if not kept:
                        continue
                    lasts = tuple(last for last, _ in kept)
                    nodes = sum(zmod._subshape_count(shape) for shape, _ in prefix)
                    most = max([most] + [nodes + zmod._subshape_count(shape) for shape, _ in lasts])
                    expected.append((prefix, lasts, tuple(coeff for _, coeff in kept),
                                     zmod._fixed_pairs(prefix + lasts, assign)))
                carried = [(prefix, lasts, coeffs, tuple(zip(keys, map(assign.__getitem__, keys))))
                           for prefix, lasts, coeffs, keys in walks]
                assert carried == expected and units == most, (setup.spec, n_trunc)
    assert dropped > 800


def test_thirteen_distinct_values_lr_verifies_at_n_1():
    # 2**13 count vectors * 15 sub-shapes of (7) and (6) * N: the product
    # is one walk, with no pairing of the factors' count vectors after it
    start = time.perf_counter()
    rep = verify_lr((7,), (6,), _distinct(seq_vars(7, "s_1") + seq_vars(6, "t_1")), 1)
    assert rep.equal and rep.lhs > 0
    assert time.perf_counter() - start < 1.0


def test_nine_variable_lr_verifies():
    names = [v for rows in (grid_vars((3, 2), "s"), grid_vars((2, 2), "t")) for r in rows for v in r]
    rep = verify_lr((3, 2), (2, 2), _distinct(names), 3)
    assert rep.equal and rep.lhs > 0


def test_vacuous_terms_run_no_level_dp(monkeypatch):
    # the column (1,1,1) has more rows than N = 2: every term of both sides
    # is 0 from its shapes alone
    calls = []
    levels = zmod._levels
    monkeypatch.setattr(zmod, "_levels", lambda *args: calls.append(args) or levels(*args))
    zmod._product_sum.cache_clear()
    rep = verify_pieri_e((1,), 3, _distinct(_pieri_setup((1,), 3, "e").lhs.names), 2)
    assert rep.equal and rep.lhs == 0 and rep.note
    assert calls == []


def _spy_levels(monkeypatch):
    """Record the ends of every level walk, from cold caches."""
    calls = []
    levels = zmod._levels
    monkeypatch.setattr(
        zmod, "_levels", lambda ends, *args: calls.append(ends) or levels(ends, *args)
    )
    zmod._product_sum.cache_clear()
    zmod._walk_graph.cache_clear()
    return calls


def test_pieri_right_side_is_one_walk(monkeypatch):
    # the six strip shapes of (3,2) and a row of 3 share one union graph;
    # the left side walks (3) first, the factor with fewer sub-shapes,
    # then (3,2)
    calls = _spy_levels(monkeypatch)
    setup = _pieri_setup((3, 2), 3, "h")
    extensions = setup.terms
    assert verify_pieri_h((3, 2), 3, _distinct(setup.lhs.names), 4).equal
    assert [[shape for shape, _ in ends] for ends in calls] == [
        [(3,)], [(3, 2)], [grown for _, grown, _ in extensions],
    ]
    assert len(extensions) == 6


def test_a_product_walks_its_factor_with_fewer_sub_shapes_first(monkeypatch):
    # (3,1) has 7 sub-shapes and (4,2) has 12
    names = (grid_vars((4, 2), "s"), grid_vars((3, 1), "t"))
    spec = SymSpec(tuple(v for rows in names for r in rows for v in r), frozenset())
    assign = _distinct(spec.symmetrized)
    factors = [((4, 2), names[0]), ((3, 1), names[1])]
    sums = []
    for order in (factors, factors[::-1]):
        calls = _spy_levels(monkeypatch)
        sums.append(sym_sum([(1, order)], spec, assign, 3))
        assert [[shape for shape, _ in ends] for ends in calls] == [[(3, 1)], [(4, 2)]]
        monkeypatch.undo()
    assert sums[0] == sums[1]


SHARED_TERMS = {
    # last factors of one, two and three rows in one walk
    "row-counts": (
        [
            (1, [((3,), (("a", "b", "c"),))]),
            (2, [((2, 1), (("c", "a"), ("b",)))]),
            (-1, [((1, 1, 1), (("a",), ("b",), ("c",)))]),
        ],
        SymSpec(("a", "b", "c"), frozenset()),
    ),
    # cell (1, 2) fixed to x in one term and to y in the other: the two
    # ends share the sub-shapes that leave it out
    "fixed-cell-differs": (
        [(1, [((2, 1), (("a", "x"), ("b",)))]), (1, [((2, 1), (("a", "y"), ("b",)))])],
        SymSpec(("a", "b"), frozenset({"x", "y"})),
    ),
    # (1,1,1) has more rows than N = 2, so its term is empty
    "vacuous": (
        [(1, [((1, 1, 1), (("a",), ("b",), ("c",)))]), (3, [((2, 1), (("a", "b"), ("c",)))])],
        SymSpec(("a", "b", "c"), frozenset()),
    ),
    # a and d share a value, which each term draws twice
    "repeated-value": (
        [(1, [((2,), (("a", "b"),)), ((1,), (("d",),))]), (2, [((2, 1), (("b", "d"), ("a",)))])],
        SymSpec(("a", "b", "d"), frozenset()),
    ),
    # both products walk (1,) first, then their last factors as one walk
    "shared-prefix": (
        [
            (1, [((2,), (("b", "c"),)), ((1,), (("a",),))]),
            (2, [((1,), (("a",),)), ((1, 1), (("b",), ("c",)))]),
        ],
        SymSpec(("a", "b", "c"), frozenset()),
    ),
}


@st.composite
def shared_sym_sums(draw):
    """Two to six terms of one or two factors whose shapes are drawn from a
    pool of four, so that terms share prefixes and last factors, each term
    placing a, b, c, d (the first k symmetrized) once and the fixed x, y
    in its other cells."""
    pool = [draw(st.sampled_from([p for p in SMALL_SHAPES if 0 < sum(p) <= 3])) for _ in range(4)]
    k = draw(st.integers(0, min(4, 2 * max(map(sum, pool)))))
    shapes = [
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2).filter(
            lambda term: sum(map(sum, term)) >= k
        ))
        for _ in range(draw(st.integers(2, 6)))
    ]
    terms = [(draw(st.integers(-2, 3)), _place(draw, term, k)) for term in shapes]
    assign = {v: draw(st.integers(0, 4)) for v in CELL_NAMES}
    spec = SymSpec(CELL_NAMES[:k], frozenset({"x", "y"}))
    return terms, spec, assign, draw(st.integers(1, 4))


def _shared_example(case, values, n_trunc):
    terms, spec = SHARED_TERMS[case]
    return terms, spec, {**dict(zip("abcd", values)), "x": 2, "y": 3}, n_trunc


@settings(max_examples=150, deadline=None)
@given(shared_sym_sums())
@example(_shared_example("row-counts", (1, 2, 3, 0), 3))
@example(_shared_example("fixed-cell-differs", (2, 2, 0, 0), 3))
@example(_shared_example("vacuous", (1, 2, 1, 0), 2))
@example(_shared_example("repeated-value", (2, 1, 0, 2), 3))
@example(_shared_example("shared-prefix", (3, 1, 2, 0), 3))
def test_a_sum_of_terms_is_the_sum_of_its_one_term_sums(case):
    # the terms of a sum share walks; each term alone walks by itself
    terms, spec, assign, n_trunc = case
    total = sym_sum(terms, spec, assign, n_trunc)
    assert total == sum(
        (sym_sum([term], spec, assign, n_trunc) for term in terms), Fraction(0)
    )
    assert total == sym_sum_direct(terms, spec, assign, n_trunc)


@cache
def subset_dp_permanent(bases, values):
    """Oracle: the permanent of [b ** -v] by subset DP over integers, the
    kernel of the enumerating engine.  dp[mask] sums the products over the
    ways of giving the first popcount(mask) bases the values in mask, with
    denominators cleared by vmax = max(values)."""
    k = len(values)
    vmax = max(values, default=0)
    rows = [[b ** (vmax - v) for v in values] for b in bases]
    dp = [0] * (1 << k)
    dp[0] = 1
    for mask in range((1 << k) - 1):
        row = rows[mask.bit_count()]
        for j in range(k):
            if not mask >> j & 1:
                dp[mask | 1 << j] += dp[mask] * row[j]
    den = 1
    for b in bases:
        den *= b**vmax
    return Fraction(dp[-1], den)


def bucketed_sym_weight(tab_lists, var_rows, sym_vars, values, assign):
    """Oracle: the sum over every combination of tableaux, bucketed by the
    sorted bases of the symmetrized variables (the product of a variable's
    entries, 1 when it has none), one permanent per bucket."""
    index = {var: k for k, var in enumerate(sym_vars)}
    buckets = {}
    for combo in product(*tab_lists):
        den = 1
        bases = [1] * len(sym_vars)
        for tab, rows in zip(combo, var_rows):
            for trow, vrow in zip(tab, rows):
                for entry, var in zip(trow, vrow):
                    if var in index:
                        bases[index[var]] *= entry
                    else:
                        den *= entry ** assign[var]
        dens = buckets.setdefault(tuple(sorted(bases)), {})
        dens[den] = dens.get(den, 0) + 1
    key = tuple(sorted(values))
    return sum(
        (subset_dp_permanent(bases, key) * sum(Fraction(c, d) for d, c in dens.items())
         for bases, dens in buckets.items()),
        Fraction(0),
    )


def enumerating_sym_sum(terms, spec, assign, n_trunc):
    """Oracle: sym_sum by enumerating the tableaux of every factor."""
    values = tuple(assign[v] for v in spec.symmetrized)
    return sum(
        (coeff * bucketed_sym_weight(
            [cached_ssyt(shape, n_trunc) for shape, _ in factors],
            [rows for _, rows in factors], spec.symmetrized, values, assign,
        ) for coeff, factors in terms),
        Fraction(0),
    )


def enumerating_zeta(shape, flat_exps, n_trunc):
    """Oracle: the truncated sum over the enumerated tableaux."""
    total = Fraction(0)
    for t in cached_ssyt(shape, n_trunc):
        den = 1
        for base, ex in zip((b for row in t for b in row), flat_exps):
            den *= base**ex
        total += Fraction(1, den)
    return total


SMALL_SHAPES = [p for size in range(6) for p in all_partitions(size)]
CELL_NAMES = ("a", "b", "c", "d", "x", "y")


def _place(draw, shapes, k):
    """Factors (shape, var_rows) over the shapes that place each of the
    first k of CELL_NAMES in one cell, in a drawn order, and x or y in the
    other cells."""
    size = sum(map(sum, shapes))
    labels = iter(draw(st.permutations(
        [*CELL_NAMES[:k], *(draw(st.sampled_from(("x", "y"))) for _ in range(size - k))]
    )))
    return [(shape, tuple(tuple(next(labels) for _ in range(part)) for part in shape)) for shape in shapes]


@st.composite
def small_sym_sums(draw):
    """Terms of up to two factors with k to 5 cells per term, each term
    placing a, b, c, d (the first k symmetrized) once and the fixed x, y
    in its other cells."""
    k = draw(st.integers(0, 4))
    shapes = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(k, 5))
        cut = draw(st.integers(0, size))
        shapes.append([draw(st.sampled_from(all_partitions(n))) for n in (cut, size - cut) if n])
    terms = [(draw(st.integers(-2, 3)), _place(draw, term, k)) for term in shapes]
    assign = {v: draw(st.integers(0, 5)) for v in CELL_NAMES}
    spec = SymSpec(CELL_NAMES[:k], frozenset({"x", "y"}))
    return terms, spec, assign, draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(small_sym_sums())
def test_level_engine_matches_enumerating_oracles(case):
    terms, spec, assign, n_trunc = case
    assert sym_sum(terms, spec, assign, n_trunc) == \
        enumerating_sym_sum(terms, spec, assign, n_trunc)
    for _, factors in terms:
        for shape, rows in factors:
            flat = tuple(assign[v] for row in rows for v in row)
            assert eval_zeta_truncated(shape, rows, assign, n_trunc) == \
                enumerating_zeta(shape, flat, n_trunc)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SMALL_SHAPES[1:]).flatmap(
        lambda shape: st.tuples(
            st.just(shape),
            st.lists(st.integers(0, 5), min_size=sum(shape), max_size=sum(shape)),
            st.integers(1, 30),
        )
    )
)
def test_float_truncation_matches_exact(case):
    shape, exps, n_trunc = case
    rows = grid_vars(shape, "x")
    names = [v for row in rows for v in row]
    exact = eval_zeta_truncated(shape, rows, dict(zip(names, exps)), n_trunc)
    approx = eval_zeta_truncated(
        shape, rows, {v: float(e) for v, e in zip(names, exps)}, n_trunc
    )
    assert isinstance(approx, float)
    assert abs(approx - float(exact)) <= 1e-12 * float(exact)


def test_float_truncation_at_level_thirty():
    # 1,078,800 tableaux of shape (3,2) have entries <= 30
    rows = grid_vars((3, 2), "x")
    exps = dict(zip([v for row in rows for v in row], (2, 1, 3, 2, 2)))
    exact = eval_zeta_truncated((3, 2), rows, exps, 30)
    approx = eval_zeta_truncated(
        (3, 2), rows, {v: float(e) for v, e in exps.items()}, 30
    )
    assert abs(approx - float(exact)) <= 1e-12 * float(exact)
    ones = {v: 0 for v in exps}
    assert eval_zeta_truncated((3, 2), rows, ones, 30) == 1078800


def test_float_evaluation_leaves_the_exact_path_exact():
    # 2.0 == 2 and both hash alike: a cache shared by the two paths would
    # hand the float run's sums to the exact one
    rows = grid_vars((2, 1), "x")
    exps = {"x_1_1": 2, "x_1_2": 3, "x_2_1": 2}
    approx = eval_zeta_truncated((2, 1), rows, {v: float(e) for v, e in exps.items()}, 7)
    exact = eval_zeta_truncated((2, 1), rows, exps, 7)
    assert isinstance(exact, Fraction)
    assert exact == enumerating_zeta((2, 1), (2, 3, 2), 7)
    assert abs(approx - float(exact)) <= 1e-12 * float(exact)


def test_sym_sum_rejects_a_variable_named_twice():
    terms = [(1, [((2,), (("a", "b"),))])]
    spec = SymSpec(("a", "a"), frozenset())
    for fn in (sym_sum, sym_sum_direct):
        with pytest.raises(ValueError, match="twice"):
            fn(terms, spec, {"a": 2, "b": 3}, 2)


@pytest.mark.parametrize("fn", [sym_sum, sym_sum_direct])
@pytest.mark.parametrize(
    "terms, spec, assign, message",
    [
        ([(1, [((2,), (("a", "b"),))])], SymSpec(("a",), frozenset({"a"})), {"a": 2, "b": 3}, "overlap"),
        (
            [(1, [((2,), (("a", "b"),))])],
            SymSpec(("a",), frozenset({"b"})),
            {"a": 2, "b": -1},
            "^exponents must be finite numbers >= 0, got b=-1$",
        ),
        ([(1, [((2,), (("a",),))])], SymSpec(("a",), frozenset()), {"a": 2}, "does not match the shape"),
    ],
    ids=["overlap", "negative", "factor-shape"],
)
def test_sym_sums_reject_bad_input(fn, terms, spec, assign, message):
    with pytest.raises(ValueError, match=message):
        fn(terms, spec, assign, 2)


DEEP_VALUES = (3, 1, 4, 5, 2, 1, 2, 3)


@pytest.mark.parametrize(
    "label, check",
    [
        ("pieri-h (3,2) m=3 N=12", lambda assign: verify_pieri_h((3, 2), 3, assign, 12)),
        ("pieri-e (2,2,1) n=3 N=8", lambda assign: verify_pieri_e((2, 2, 1), 3, assign, 8)),
        ("lr (3,2)x(2,1) N=8", lambda assign: verify_lr((3, 2), (2, 1), assign, 8)),
    ],
)
def test_deep_identities_verify_within_a_second(label, check):
    # eight symmetrized variables; enumerating the tableaux took seconds
    # to minutes at these levels
    names = [f"s_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    names += [f"t_{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    names += [f"{p}_{k}" for p in "st" for k in (1, 2, 3)]
    assign = {v: DEEP_VALUES[k % len(DEEP_VALUES)] for k, v in enumerate(names)}
    start = time.perf_counter()
    rep = check(assign)
    assert rep.equal, label
    assert time.perf_counter() - start < 1.0, label


def _lr_terms(mu, nu):
    """The right-hand coefficients of the LR identity's setup, lam -> c."""
    return Counter({lam: coeff for lam, coeff, _ in zmod._lr_setup(mu, nu).terms})


def _row_major(lam, names):
    """The filling of lam by names, row by row."""
    names = iter(names)
    return tuple(tuple(next(names) for _ in range(part)) for part in lam)


def test_lr_walks_do_not_depend_on_the_filling():
    # every LR variable is symmetrized, so no filling of a right-hand shape
    # ties a variable to a cell: the reversed canonical order and a random
    # order per shape plan the very walks of the cached setup, for every
    # pair of nonempty shapes of total size <= 8
    rng = random.Random(21)
    pairs = 0
    for total in range(2, 9):
        for a in range(1, total):
            for mu in all_partitions(a):
                for nu in all_partitions(total - a):
                    setup = zmod._lr_setup(mu, nu)
                    names = setup.spec.symmetrized
                    for lam, _, filling in setup.terms:
                        assert filling == _row_major(lam, names)
                    for order in (lambda: names[::-1], lambda: rng.sample(names, len(names))):
                        rhs = [
                            (coeff, [(lam, _row_major(lam, order()))])
                            for lam, coeff, _ in setup.terms
                        ]
                        assert zmod._sym_plan(rhs, setup.spec).groups == setup.rhs.groups, (mu, nu)
                    pairs += 1
    assert pairs == 301


def test_lr_expansion_matches_lr_coefficient():
    # the terms of every LR setup with nonempty shapes of total size <= 6,
    # against tableaux.lr_coefficient, zeros included
    for total in range(2, 7):
        for a in range(1, total):
            for mu in all_partitions(a):
                for nu in all_partitions(total - a):
                    expansion = _lr_terms(mu, nu)
                    assert set(expansion) <= set(all_partitions(total))
                    for lam in all_partitions(total):
                        assert expansion[lam] == lr_coefficient(mu, nu, lam), (mu, nu, lam)
    assert _lr_terms((2, 1), (2, 1))[(3, 2, 1)] == 2


def test_sym_sum_matches_direct_on_seven_variable_lr():
    mu, nu, n_trunc = (2, 2), (2, 1), 3
    s_rows, t_rows = grid_vars(mu, "s"), grid_vars(nu, "t")
    names = [v for rows in (s_rows, t_rows) for r in rows for v in r]
    assign = dict(zip(names, (3, 1, 4, 2, 5, 1, 2)))
    spec = SymSpec(tuple(names), frozenset())
    rep = verify_lr(mu, nu, assign, n_trunc)
    lhs = sym_sum_direct([(1, [(mu, s_rows), (nu, t_rows)])], spec, assign, n_trunc)
    rhs = sym_sum_direct(
        [
            (lr_coefficient(mu, nu, lam), [(lam, canonical_filling(lam, mu, nu))])
            for lam in all_partitions(7)
            if lr_coefficient(mu, nu, lam)
        ],
        spec, assign, n_trunc,
    )
    assert rep.equal and rep.lhs == lhs and rep.rhs == rhs


def test_sym_sum_is_exact_only():
    terms = [(1, [((1,), (("a",),)), ((1,), (("b",),))])]
    spec = SymSpec(("a", "b"), frozenset())
    assign = {"a": 2.0, "b": 3}
    with pytest.raises(ValueError, match="integer"):
        sym_sum(terms, spec, assign, 2)
    # the direct oracle keeps float exponents
    assert sym_sum_direct(terms, spec, assign, 2) == pytest.approx(2 * 1.25 * 1.125)


@pytest.mark.parametrize(
    "bad", [True, -1, -1.0, None, float("nan"), float("inf")], ids=repr
)
@pytest.mark.parametrize("value", [2, 2.0])
def test_eval_zeta_truncated_rejects_bad_exponents_in_both_modes(bad, value):
    rows = (("a", "b"),)
    with pytest.raises(ValueError, match="exponents"):
        eval_zeta_truncated((2,), rows, {"a": value, "b": bad}, 3)


_ONE_CELL = ([(1, [((1,), (("a",),))])], SymSpec(("a",), frozenset()))
# per public entry with a truncation level: the call of (assign, n_trunc)
# and an assignment it admits
PUBLIC_ENTRIES = {
    "sym_sum": (lambda a, n: sym_sum(*_ONE_CELL, a, n), {"a": 2}),
    "sym_sum_direct": (lambda a, n: sym_sum_direct(*_ONE_CELL, a, n), {"a": 2}),
    "eval_zeta_truncated": (lambda a, n: eval_zeta_truncated((1,), (("a",),), a, n), {"a": 2}),
    "verify_pieri_h": (
        lambda a, n: verify_pieri_h((2,), 2, a, n), {"s_1_1": 2, "s_1_2": 3, "t_1": 4, "t_2": 5}
    ),
    "verify_pieri_e": (lambda a, n: verify_pieri_e((1,), 2, a, n), {"t_1_1": 2, "s_1": 3, "s_2": 4}),
    "verify_lr": (lambda a, n: verify_lr((1,), (1,), a, n), {"s_1_1": 2, "t_1_1": 3}),
}


@pytest.mark.parametrize("n_trunc", [0, -1, 2.5, 2.0, "3", True, None], ids=repr)
@pytest.mark.parametrize("entry", sorted(PUBLIC_ENTRIES))
def test_public_entries_reject_a_truncation_level_not_an_integer_above_zero(entry, n_trunc):
    call, assign = PUBLIC_ENTRIES[entry]
    with pytest.raises(ValueError, match="truncation level"):
        call(assign, n_trunc)


@pytest.mark.parametrize("bad", [None, 0, 2.0, True], ids=repr)
@pytest.mark.parametrize("entry", ["verify_pieri_e", "verify_pieri_h", "verify_lr"])
def test_verifiers_check_every_variable_on_every_call(entry, bad):
    # the identity is planned by the first call; each later call still
    # checks every variable, None standing for a missing one
    call, assign = PUBLIC_ENTRIES[entry]
    assert call(assign, 2).equal
    for var in assign:
        broken = {v: x for v, x in assign.items() if v != var}
        if bad is not None:
            broken[var] = bad
        # a bool is no number at all: the assignment check refuses it
        shared = re.escape(f"exponents must be finite numbers >= 0, got {var}={bad!r}")
        with pytest.raises(ValueError, match=f"missing variable|integer exponents >= 1|{shared}"):
            call(broken, 2)


def test_verify_pieri_h_examples():
    rep = verify_pieri_h((1,), 1, {"s_1_1": 2, "t_1": 3}, 2)
    assert rep.equal and rep.lhs == Fraction(45, 32) and rep.rhs == Fraction(45, 32)
    rep = verify_pieri_h(
        (2, 1), 2, {"t_1": 1, "t_2": 2, "s_1_1": 3, "s_1_2": 4, "s_2_1": 5}, 3
    )
    assert rep.equal
    rep = verify_pieri_h((1,), 1, {"s_1_1": 2, "t_1": 3}, 1)
    assert rep.equal and rep.lhs == Fraction(1)
    with pytest.raises(ValueError):
        verify_pieri_h((2, 1), 1, {"s_1_1": 2}, 2)
    with pytest.raises(ValueError):
        verify_pieri_h((1,), 1, {"s_1_1": 1.5, "t_1": 3}, 2)


def test_verify_pieri_h_repeated_values():
    rep = verify_pieri_h(
        (2, 1), 2, {"t_1": 2, "t_2": 2, "s_1_1": 2, "s_1_2": 3, "s_2_1": 3}, 3
    )
    assert rep.equal


def test_verify_pieri_e_examples():
    rep = verify_pieri_e((1,), 1, {"t_1_1": 2, "s_1": 3}, 2)
    assert rep.equal and rep.lhs == Fraction(45, 32)
    rep = verify_pieri_e(
        (1, 1), 2, {"s_1": 1, "s_2": 2, "t_1_1": 3, "t_2_1": 4}, 3
    )
    assert rep.equal
    rep = verify_pieri_e((1,), 1, {"t_1_1": 2, "s_1": 3}, 1)
    assert rep.equal
    with pytest.raises(ValueError):
        verify_pieri_e((2, 1), 1, {"s_1": 2}, 2)


def test_verify_pieri_e_vacuous_note():
    rep = verify_pieri_e(
        (1,), 3, {"s_1": 2, "s_2": 3, "s_3": 4, "t_1_1": 5}, 2
    )
    assert rep.equal and rep.lhs == Fraction(0) and "vacuous" in rep.note


def test_verify_pieri_h_vacuous_note():
    # lam has more rows than the truncation: both sides are empty sums
    assign = {"s_1_1": 2, "s_2_1": 3, "s_3_1": 4, "t_1": 5}
    rep = verify_pieri_h((1, 1, 1), 1, assign, 2)
    assert rep.equal and rep.lhs == rep.rhs == Fraction(0)
    assert "vacuous" in rep.note
    rep = verify_pieri_h((1, 1, 1), 1, assign, 3)
    assert rep.equal and rep.lhs > 0 and rep.note == ""


def test_verify_lr_vacuous_note():
    assign = {"s_1_1": 2, "s_2_1": 3, "s_3_1": 4, "t_1_1": 5}
    rep = verify_lr((1, 1, 1), (1,), assign, 2)
    assert rep.equal and rep.lhs == rep.rhs == Fraction(0)
    assert "vacuous" in rep.note
    rep = verify_lr((1, 1, 1), (1,), assign, 3)
    assert rep.equal and rep.lhs > 0 and rep.note == ""


def test_canonical_filling_examples():
    assert canonical_filling((2,), (1,), (1,)) == (("s_1_1", "t_1_1"),)
    assert canonical_filling((1, 1), (1,), (1,)) == (("s_1_1",), ("t_1_1",))
    assert canonical_filling((2, 1), (1, 1), (1,)) == (
        ("s_1_1", "s_2_1"),
        ("t_1_1",),
    )
    with pytest.raises(ValueError):
        canonical_filling((2,), (1,), (2,))


def test_verify_lr_examples():
    rep = verify_lr((1,), (1,), {"s_1_1": 2, "t_1_1": 3}, 2)
    # full symmetrization doubles the one-permutation harmonic product
    assert rep.equal and rep.lhs == 2 * Fraction(45, 32)
    rep = verify_lr((1, 1), (1,), {"s_1_1": 2, "s_2_1": 3, "t_1_1": 4}, 3)
    assert rep.equal
    rep = verify_lr((2,), (1,), {"s_1_1": 2, "s_1_2": 3, "t_1_1": 4}, 3)
    assert rep.equal
    with pytest.raises(ValueError):
        verify_lr((2, 1), (), {"s_1_1": 2}, 2)


def test_verify_insertion_term_h_examples():
    rep = verify_insertion_term(((1,),), ((1,),), (1,), 1, "h")
    assert rep.equal and rep.tableau == ((1, 1),) and rep.added == (2,)
    assert rep.reason == ""
    rep = verify_insertion_term(((1, 2), (2,)), ((1, 3),), (2, 1), 2, "h")
    assert rep.equal
    # bent bumping route: entries move between columns, equality still holds
    rep = verify_insertion_term(((1, 2), (3,)), ((1, 2),), (2, 1), 2, "h")
    assert rep.equal and rep.added == (1, 3)
    with pytest.raises(ValueError):
        verify_insertion_term(((1,),), ((1,),), (2,), 1, "h")
    # a trailing empty row leaves left of shape lam
    assert verify_insertion_term(((1,), ()), ((1,),), (1,), 1, "h") == (
        verify_insertion_term(((1,),), ((1,),), (1,), 1, "h")
    )
    with pytest.raises(ValueError, match="mode must be 'h' or 'e'"):
        verify_insertion_term(((1,),), ((1,),), (1,), 1, "x")


@pytest.mark.parametrize(
    "left, right, lam, size, mode",
    [
        (((1,),), ((2, 1),), (1,), 2, "h"),
        (((1,), (1,)), ((1,),), (1,), 2, "e"),
        (((2,), (1,)), ((1,),), (1,), 2, "e"),
    ],
    ids=["h-row-decreases", "e-column-repeats", "e-column-decreases"],
)
def test_verify_insertion_term_rejects_a_strip_that_is_not_semistandard(left, right, lam, size, mode):
    # bad input, never a falsified term (equal=False) nor a broken
    # bijection (RuntimeError)
    with pytest.raises(ValueError, match="not a semistandard tableau"):
        verify_insertion_term(left, right, lam, size, mode)


@pytest.mark.parametrize("mode", ["h", "e"])
def test_verify_insertion_term_converts_each_tableau_once(monkeypatch, mode):
    convert = tableaux.as_tableau
    calls = []

    def counted(rows):
        calls.append(rows)
        return convert(rows)

    monkeypatch.setattr(tableaux, "as_tableau", counted)
    left, right = (((1, 2),), ((2, 3),)) if mode == "h" else (((1,), (3,)), ((1, 2),))
    assert verify_insertion_term(left, right, (2,), 2, mode).equal
    assert calls == [left, right]


def test_insertion_term_symmetrized_multiset_reason(monkeypatch):
    # every variable of Pieri-h (2), m=2 is symmetrized; an insertion that
    # writes 1 in place of every letter lands on a grown shape with the
    # wrong multiset of entries
    from schurzeta.insertion import _row_fold

    monkeypatch.setattr(zmod, "_row_fold", lambda t, word, weak=False: _row_fold(t, [1] * len(word), weak))
    rep = verify_insertion_term(((1, 1),), ((2, 2),), (2,), 2, "h")
    assert not rep.equal and rep.tableau == ((1, 1, 1, 1),)
    assert rep.reason == "symmetrized entries [1, 1, 2, 2] become [1, 1, 1, 1]"


def test_verify_insertion_term_h_exhaustive_sweep():
    lam, m = (2, 1), 2
    for left in cached_ssyt(lam, 3):
        for right in cached_ssyt((m,), 3):
            rep = verify_insertion_term(left, right, lam, m, "h")
            assert rep.equal, (left, right)


def test_verify_insertion_term_e_examples():
    rep = verify_insertion_term(((1,), (2,)), ((1, 1),), (2,), 2, "e")
    assert rep.equal and rep.added == (1, 2)
    for left in cached_ssyt((1, 1), 3):
        for right in cached_ssyt((2,), 3):
            rep = verify_insertion_term(left, right, (2,), 2, "e")
            assert rep.equal, (left, right)
    with pytest.raises(ValueError):
        verify_insertion_term(((1, 1),), ((1, 1),), (2,), 2, "e")


def brute_sym_monomial_sum(pairs, spec, assign):
    """Oracle: the sum over all k! orderings of the symmetrized values of
    the product of the pairs' monomials, each 1 / prod(entry ** exponent)
    over its cells.  Equal orderings, which repeated values give, are
    summed once and counted as often as they occur."""
    at = {var: i for i, var in enumerate(spec.symmetrized)}
    cells = [(entry, var) for tab, rows in pairs for t, r in zip(tab, rows) for entry, var in zip(t, r)]
    fixed = math.prod(entry ** assign[var] for entry, var in cells if var not in at)
    dens = Counter()
    for perm, count in Counter(permutations(assign[v] for v in spec.symmetrized)).items():
        dens[fixed * math.prod(entry ** perm[at[var]] for entry, var in cells if var in at)] += count
    lcm = math.lcm(*dens)
    return Fraction(sum(count * (lcm // den) for den, count in dens.items()), lcm)


def insertion_grid(mode, lam, size):
    """The insertion-term check of a Pieri identity at N = 3: its pairs
    (left, right), the pair's variable tableaux, the symmetrized set, and
    the pushed filling of the grown shape at the strip `added`."""
    if mode == "h":
        s_rows, t_names = grid_vars(lam, "s"), seq_vars(size, "t")
        shapes, rows = (lam, (size,)), (s_rows, (t_names,))
        fill = lambda added: horizontal_push_filling(lam, s_rows, t_names, added)
    else:
        s_names, t_rows = seq_vars(size, "s"), grid_vars(lam, "t")
        shapes, rows = ((1,) * size, lam), (tuple((v,) for v in s_names), t_rows)
        fill = lambda added: vertical_push_filling(lam, s_names, t_rows, added)
    pairs = [(left, right) for left in cached_ssyt(shapes[0], 3) for right in cached_ssyt(shapes[1], 3)]
    return pairs, rows, _pieri_setup(lam, size, mode).spec, fill


# criterion 10's two grids and Pieri-h (3,1), m=4
INSERTION_GRIDS = [("h", (2, 1), 2), ("e", (2,), 2), ("h", (3, 1), 4)]


@pytest.mark.parametrize(
    "mode, lam, size", INSERTION_GRIDS,
    ids=[f"{mode}-{','.join(map(str, lam))}-{size}" for mode, lam, size in INSERTION_GRIDS],
)
def test_verify_insertion_term_matches_monomial_oracle(mode, lam, size):
    # a passing term check holds for every exponent: the literal sums over
    # every order of the symmetrized values agree at distinct values,
    # repeated ones and all values equal
    pairs, rows, spec, fill = insertion_grid(mode, lam, size)
    names = [v for var_rows in rows for r in var_rows for v in r]
    assigns = [
        dict(zip(names, values))
        for values in (range(1, len(names) + 1), [1, 2] * len(names), [2] * len(names))
    ]
    for left, right in pairs:
        rep = verify_insertion_term(left, right, lam, size, mode)
        assert rep.equal and rep.reason == "", (left, right)
        for assign in assigns:
            lhs = brute_sym_monomial_sum(list(zip((left, right), rows)), spec, assign)
            rhs = brute_sym_monomial_sum([(rep.tableau, fill(rep.added))], spec, assign)
            assert lhs == rhs, (left, right, assign)


def _pieri_with_terms(monkeypatch, lam, size, mode, terms):
    """Make the verifiers see the setup of (lam, size, mode) with its
    right-hand terms replaced."""
    setup = _pieri_setup(lam, size, mode)
    monkeypatch.setattr(zmod, "_pieri", lambda *args: setup._replace(terms=terms))


def _failures(lam, size, mode):
    """The reason of every failing pair of the grid, or "RuntimeError"."""
    out = []
    for left, right in insertion_grid(mode, lam, size)[0]:
        try:
            rep = verify_insertion_term(left, right, lam, size, mode)
        except RuntimeError:
            out.append("RuntimeError")
        else:
            if not rep.equal:
                out.append(rep.reason)
    return out


MOVED = re.compile(r"fixed variable \S+ moves from entry \d+ to \d+")


@pytest.mark.parametrize("a, b, failed", [("t_4", "t_1", 12), ("t_1", "t_2", 0)])
def test_insertion_term_mutated_filling(monkeypatch, a, b, failed):
    # swap two variables in the first pushed filling of Pieri-h (3,1), m=4.
    # Fixed t_4 traded with symmetrized t_1 moves t_4's entry.  Two
    # symmetrized variables traded must still pass: the sum runs over every
    # order of their values, so it cannot tell them apart
    lam, m = (3, 1), 4
    (added, grown, rows), *rest = _pieri_setup(lam, m, "h").terms
    swap = {a: b, b: a}
    rows = tuple(tuple(swap.get(v, v) for v in row) for row in rows)
    _pieri_with_terms(monkeypatch, lam, m, "h", ((added, grown, rows), *rest))
    reasons = _failures(lam, m, "h")
    assert len(reasons) == failed
    assert all(MOVED.fullmatch(reason) and " t_4 " in reason for reason in reasons)


def test_insertion_term_dropped_grown_shape_raises(monkeypatch):
    lam, m = (2, 1), 2
    terms = _pieri_setup(lam, m, "h").terms
    pairs = insertion_grid("h", lam, m)[0]
    landing = sum(
        shape_of(verify_insertion_term(left, right, lam, m, "h").tableau) == terms[0][1]
        for left, right in pairs
    )
    _pieri_with_terms(monkeypatch, lam, m, "h", terms[1:])
    assert landing > 0 and _failures(lam, m, "h") == ["RuntimeError"] * landing


def test_h_mode_insertion_redirected_fails(monkeypatch):
    # row insertion of the row's letters in reverse order lands outside the
    # horizontal-strip family for some pairs and on a wrong filling of a
    # strip shape for others; neither may pass
    from schurzeta.insertion import _row_fold

    monkeypatch.setattr(
        zmod, "_row_fold", lambda t, word, weak=False: _row_fold(t, tuple(reversed(word)), weak)
    )
    failures = _failures((3, 1), 4, "h")
    reasons = [reason for reason in failures if reason != "RuntimeError"]
    assert "RuntimeError" in failures
    assert reasons and all(MOVED.fullmatch(reason) for reason in reasons)


def test_fault_injected_insertion_order_fails_loudly(monkeypatch):
    # applying the column letters in the wrong order lands outside the
    # vertical-strip family for some pairs; the term verifier must not
    # silently accept that
    from schurzeta.insertion import _column_fold

    def reversed_order(t, letters):
        return _column_fold(t, tuple(reversed(letters)))

    monkeypatch.setattr(zmod, "_column_fold", reversed_order)
    with pytest.raises(RuntimeError):
        zmod.verify_insertion_term(((1,), (2,)), (), (), 2, "e")


def test_verify_pieri_h_matches_direct_reference():
    # rebuild both sides of one verifier run through the literal
    # per-permutation definition
    from schurzeta.partitions import grow_cols, horizontal_strip_cols
    from schurzeta.zeta import horizontal_push_filling

    lam, m, n_trunc = (2, 1), 2, 2
    assign = {"s_1_1": 3, "s_1_2": 1, "s_2_1": 4, "t_1": 2, "t_2": 5}
    rep = verify_pieri_h(lam, m, assign, n_trunc)
    spec = h_sym_spec(lam, m)
    s_rows = grid_vars(lam, "s")
    t_names = seq_vars(m, "t")
    lhs = sym_sum_direct(
        [(1, [(lam, s_rows), ((m,), (t_names,))])], spec, assign, n_trunc
    )
    rhs = sym_sum_direct(
        [
            (1, [(grow_cols(lam, cols),
                  horizontal_push_filling(lam, s_rows, t_names, cols))])
            for cols in horizontal_strip_cols(lam, m)
        ],
        spec, assign, n_trunc,
    )
    assert rep.lhs == lhs and rep.rhs == rhs and lhs == rhs


def test_harmonic_product_against_double_sum_oracle():
    for s in range(1, 6):
        for t in range(1, 6):
            for n in range(1, 7):
                brute = Fraction(0)
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        brute += Fraction(1, a**s * b**t)
                lhs = eval_zeta_truncated((1,), (("a",),), {"a": s}, n) * \
                    eval_zeta_truncated((1,), (("a",),), {"a": t}, n)
                col = eval_zeta_truncated(
                    (1, 1), (("x",), ("y",)), {"x": t, "y": s}, n
                )
                row = eval_zeta_truncated(
                    (2,), (("x", "y"),), {"x": s, "y": t}, n
                )
                assert lhs == brute == col + row


def brute_strip_chains(shape):
    """Oracle: the chains () = m0 < m1 < ... < mk = shape whose steps are
    nonempty horizontal strips; the SSYT of the shape biject with (chain,
    levels) data."""
    if not shape:
        return [((),)]
    bounds = [(shape[i + 1] if i + 1 < len(shape) else 0, shape[i]) for i in range(len(shape))]
    return [
        chain + (shape,)
        for prev in product(*(range(lo, hi + 1) for lo, hi in bounds))
        if prev != shape
        for chain in brute_strip_chains(as_partition(prev))
    ]


def chain_exponent_sums(chain, exps):
    """Oracle: the exact exponent sum of each strip of the chain."""
    sums = []
    for prev, cur in zip(chain, chain[1:]):
        prev = prev + (0,) * (len(cur) - len(prev))
        sums.append(sum(
            (Fraction(exps[i][j]) for i, (a, b) in enumerate(zip(prev, cur)) for j in range(a, b)),
            Fraction(0),
        ))
    return tuple(sums)


def chain_tail_terms(steps, cutoff, one):
    """Oracle: the tail powers N**beta (down to cutoff) of one chain with
    strip exponent sums steps, each with its highest log power; steps,
    cutoff and the returned beta count in units of 1 / one."""
    grow = {0: 0}
    for e in steps:
        nxt = {0: 0}
        for beta, p in grow.items():
            top = beta + one - e
            if top == 0:
                nxt[top] = max(nxt[top], p + 1)
                top -= one
            while top >= cutoff:
                nxt[top] = max(nxt.get(top, 0), p)
                top -= one
        grow = nxt
    del grow[0]
    return grow


def chain_partial_sums(chains, stops):
    """Oracle: S(N) at the stops as the sum over chains (a Counter of their
    strip exponent sums) of multiplicity * T_k(N), each chain's
    T_j(n) = T_j(n-1) + n**-e_j * T_{j-1}(n-1) run with its own Neumaier
    compensation."""
    states = [(mult, [-float(e) for e in steps], [0.0] * len(steps), [0.0] * len(steps))
              for steps, mult in chains.items()]
    n = 0
    for stop in stops:
        while n < stop:
            n += 1
            for _, exps, sums, comps in states:
                prev = 1.0
                for j, ex in enumerate(exps):
                    s, term = sums[j], float(n) ** ex * prev
                    prev = s + comps[j]
                    t = s + term
                    comps[j] += (s - t) + term if s >= term else (term - t) + s
                    sums[j] = t
        yield sum((mult * (Fraction(sums[-1]) + Fraction(comps[-1]))
                   for mult, _, sums, comps in states), Fraction(0))


def test_strip_graph_walks_match_chain_oracles():
    # every shape of size <= 6, five seeded exponent draws each: the
    # graph's tail terms are the LIMIT_MAX_ORDER slowest of the union over
    # chains, and its S(N) agrees with the chains' to the rounding the
    # limit's error estimate allows, read at every N <= 8 and at 12, 16,
    # ..., 64.
    # The exponents are quarters, so the chain oracle counts in quarters.
    rng = random.Random(8)
    cases = 0
    for size in range(1, 7):
        for shape in all_partitions(size):
            for _ in range(5):
                kinds = tuple(Fraction(rng.choice((1, 1.25, 1.5, 2, 2.5, 3))) for _ in range(size))
                exps, start = [], 0
                for part in shape:
                    exps.append(kinds[start:start + part])
                    start += part
                chains = Counter(chain_exponent_sums(c, exps) for c in brute_strip_chains(shape))
                cutoff = -LIMIT_MAX_ORDER - sum(kinds)
                union = {}
                for steps in chains:
                    quarters = [int(4 * e) for e in steps]
                    for beta, p in chain_tail_terms(quarters, int(4 * cutoff), 4).items():
                        union[Fraction(beta, 4)] = max(union.get(Fraction(beta, 4), 0), p)
                # the graph keeps the slowest groups, all that _extrapolate reads
                slowest = dict(sorted(union.items(), reverse=True)[:LIMIT_MAX_ORDER])
                assert _tail_terms(shape, kinds) == slowest, (shape, kinds)
                bound = 4 * size * 2.0**-53
                stops = (*range(1, 9), 12, 16, 24, 32, 48, 64)
                for n, (s, c), chain in zip(
                    stops, _partial_sums(shape, kinds, stops), chain_partial_sums(chains, stops)
                ):
                    assert abs(Fraction(s) + Fraction(c) - chain) <= bound * chain, (shape, kinds, n)
                cases += 1
    assert cases == 145


def test_strip_graph_matches_its_definition():
    # every shape of size <= 8, the one-end walk graph that the float walks
    # read: the sub-shapes padded to len(shape) rows in lexicographic order;
    # need by the cells each column lacks, counted row by row; succ every nu
    # one horizontal strip inside shape away (mu <= nu and nu[i + 1] <=
    # mu[i], the empty strip included), stably by need; and the sub-shape
    # count read without the graph
    cases = 0
    for size in range(9):
        for shape in all_partitions(size):
            nodes, (end,), _, _, need, succ = zmod._walk_graph(((shape, (None,) * size),))
            start = 0
            rows = len(shape)
            padded = [mu for mu in product(*(range(part + 1) for part in shape))
                      if all(a >= b for a, b in zip(mu, mu[1:]))]
            assert list(nodes) == padded and (nodes[start], nodes[end]) == ((0,) * rows, shape)
            assert zmod._subshape_count(shape) == len(nodes)
            assert need == tuple(
                max((sum(mu[i] <= j < shape[i] for i in range(rows)) for j in range(shape[0])), default=0)
                if shape else 0
                for mu in nodes
            ), shape
            for mu, nus in zip(nodes, succ):
                strips = [k for k, nu in enumerate(nodes)
                          if all(map(int.__le__, mu, nu)) and all(map(int.__le__, nu[1:], mu))]
                assert nus == tuple(sorted(strips, key=need.__getitem__)), (shape, mu)
            cases += 1
    assert cases == 67


def _oracle_walk_graph(ends):
    """The walk graph of the ends (shape, labels) by its definition: each
    end's own strip graph, its sub-shapes padded to the ends' most rows
    and the horizontal strips between them inside its shape, with every
    node keyed by its label rows, merged over the ends.  (graph, at):
    graph maps a key to [sub-shape, need, successor keys], need the least
    over the ends that hold the node of the most cells it lacks in one
    column, and at lists the keys of the ends."""
    rows = max(len(shape) for shape, _ in ends)
    graph, at = {}, []
    for shape, labels in ends:
        padded = shape + (0,) * (rows - len(shape))
        label_rows = [labels[a - b:a] for a, b in zip(accumulate(shape), shape)]
        label_rows += [()] * (rows - len(shape))
        subs = [mu for mu in product(*(range(part + 1) for part in padded))
                if all(a >= b for a, b in zip(mu, mu[1:]))]

        def key(mu):
            return tuple(row[:x] for row, x in zip(label_rows, mu))

        for mu in subs:
            gaps = [sum(mu[i] <= j < padded[i] for i in range(rows)) for j in range(max(padded, default=0))]
            need = max(gaps, default=0)
            strips = {key(nu) for nu in subs
                      if all(map(int.__le__, mu, nu)) and all(map(int.__le__, nu[1:], mu))}
            node = graph.setdefault(key(mu), [mu, need, set()])
            node[1] = min(node[1], need)
            node[2] |= strips
        at.append(key(padded))
    return graph, at


def _check_walk_graph(ends):
    """Compare _walk_graph(ends) with _oracle_walk_graph.  A built node's
    label rows are read from an end whose node it reaches: every path into
    an end's node lies in that end, so all of them must agree."""
    nodes, at, depth, labels, need, succ = zmod._walk_graph(ends)
    graph, oracle_at = _oracle_walk_graph(ends)
    assert nodes[0] == (0,) * max(len(shape) for shape, _ in ends) and list(nodes) == sorted(nodes)
    reach = [set() for _ in nodes]
    for k in range(len(nodes) - 1, -1, -1):
        reach[k].update(i for i, e in enumerate(at) if e == k)
        for nu in succ[k]:
            assert nu >= k, ends
            reach[k] |= reach[nu]
    keys = []
    for k, mu in enumerate(nodes):
        assert reach[k], (ends, mu)
        seen = set()
        for i in reach[k]:
            shape, row_labels = ends[i]
            label_rows = [row_labels[a - b:a] for a, b in zip(accumulate(shape), shape)]
            seen.add(tuple(row[:x] for row, x in zip(label_rows + [()] * len(mu), mu)))
        assert len(seen) == 1, (ends, mu, seen)
        keys.append(seen.pop())
    assert len(set(keys)) == len(keys), ends
    assert set(zip(nodes, keys)) == {(node[0], key) for key, node in graph.items()}, ends
    assert [keys[e] for e in at] == oracle_at, ends
    for k, key in enumerate(keys):
        cells = [x for row in key for x in row]
        assert depth[k] == cells.count(None), (ends, key)
        assert Counter(labels[k]) == Counter(x for x in cells if x is not None), (ends, key)
        assert need[k] == graph[key][1], (ends, key)
        assert len(set(succ[k])) == len(succ[k]), (ends, key)
        assert {keys[nu] for nu in succ[k]} == graph[key][2], (ends, key)
        assert [need[nu] for nu in succ[k]] == sorted(need[nu] for nu in succ[k]), (ends, key)


def _conflict(ends) -> bool:
    """Whether two of the ends label a cell they both hold differently."""
    seen = {}
    for shape, labels in ends:
        for cell, x in zip(partitions.cells(shape), labels):
            if seen.setdefault(cell, x) != x:
                return True
    return False


def test_walk_graph_matches_the_union_of_its_ends_strip_graphs():
    # every walk of both sides of every Pieri identity of |lam| <= 4 with
    # both strip sizes, h and e, and of every LR identity of total size
    # <= 6, each factor of a prefix walked alone as _product_sum does; and
    # seeded random groups of 2-6 ends whose fixed labels conflict
    pieri = [
        _pieri_setup(lam, strip, mode)
        for size in range(1, 5)
        for lam in all_partitions(size)
        for mode, side in (("h", lam[0]), ("e", len(lam)))
        for strip in (side, side + 1)
    ]
    setups = pieri + [
        zmod._lr_setup(mu, nu)
        for total in range(2, 7)
        for a in range(1, total)
        for mu in all_partitions(a)
        for nu in all_partitions(total - a)
    ]
    groups = set()
    for setup in setups:
        for plan in (setup.lhs, setup.rhs):
            for prefix, ends in plan.groups:
                groups.add(tuple(last for last, _, _ in ends))
                groups.update((factor,) for factor in prefix)
    # 124 walks, the 36 whose ends' fixed labels conflict all Pieri right
    # sides
    pieri_rhs = {tuple(last for last, _, _ in ends) for setup in pieri for _, ends in setup.rhs.groups}
    conflicts = set(filter(_conflict, groups))
    assert (len(groups), len(conflicts), conflicts <= pieri_rhs) == (124, 36, True)
    rng = random.Random(34)
    shapes = [lam for size in range(1, 6) for lam in all_partitions(size)]
    while len(groups) < 424:
        ends = tuple(
            (lam, tuple(rng.choice((None, None, "a", "b", "c")) for _ in range(sum(lam))))
            for lam in rng.sample(shapes, rng.randint(2, 6))
        )
        if _conflict(ends):
            groups.add(ends)
    for ends in groups:
        _check_walk_graph(ends)


def test_count_layers_reach_every_count_vector_once():
    # every caps of sum <= 8 over up to 6 values: walking the moves from
    # the zero vector gives each (layer, index) the same count vector by
    # every path, draws value i exactly where c_i < caps[i], and each layer
    # holds every vector <= caps of its sum exactly once
    cases = 0
    for k in range(7):
        for caps in product(range(1, 10 - k), repeat=k):
            if sum(caps) > 8:
                continue
            sizes, moves = zmod._count_layers(caps)
            assert len(sizes) == sum(caps) + 1 and len(moves) == sum(caps)
            vectors = {(0, 0): (0,) * k}
            for layer, row in enumerate(moves):
                assert len(row) == sizes[layer]
                for j, targets in enumerate(row):
                    c = vectors[layer, j]
                    assert sorted(i for i, _ in targets) == [i for i in range(k) if c[i] < caps[i]]
                    for i, t in targets:
                        up = c[:i] + (c[i] + 1,) + c[i + 1:]
                        assert 0 <= t < sizes[layer + 1]
                        assert vectors.setdefault((layer + 1, t), up) == up, (caps, layer, j, i)
            for layer, size in enumerate(sizes):
                assert sorted(vectors[layer, j] for j in range(size)) == [
                    c for c in product(*(range(m + 1) for m in caps)) if sum(c) == layer
                ], (caps, layer)
            cases += 1
    assert cases == 247


def test_eval_zeta_limit_basics():
    rep = eval_zeta_limit((1,), (("a",),), {"a": 2.0}, 1e-6)
    # stopping increment 1e-6 puts the tail below 1/999
    assert rep.converged and abs(rep.value - math.pi**2 / 6) < 1e-3
    rep = eval_zeta_limit((1, 1), (("a",), ("b",)), {"a": 1.0, "b": 2.0}, 1e-10)
    assert rep.converged and abs(rep.value - ZETA3) < 1e-3
    rep = eval_zeta_limit((2,), (("a", "b"),), {"a": 2.0, "b": 2.0}, 1e-12)
    star = (math.pi**2 / 6) ** 2 / 2 + (math.pi**4 / 90) / 2
    assert rep.converged and abs(rep.value - star) < 1e-5
    with pytest.raises(ValueError):
        eval_zeta_limit((1,), (("a",),), {"a": 1.0}, 1e-6)
    with pytest.raises(ValueError):
        eval_zeta_limit((1,), (("a",),), {"a": 2.0}, -1.0)


def test_eval_zeta_limit_matches_truncation_when_capped():
    rows = grid_vars((2, 1), "x")
    assign_f = {"x_1_1": 2.0, "x_1_2": 3.0, "x_2_1": 2.0}
    assign_q = {"x_1_1": 2, "x_1_2": 3, "x_2_1": 2}
    rep = eval_zeta_limit((2, 1), rows, assign_f, 1e-30, max_level=6)
    exact = eval_zeta_truncated((2, 1), rows, assign_q, 6)
    assert not rep.converged
    assert abs(rep.value - float(exact)) < 1e-12
    assert eval_zeta_limit((), (), {}, 1e-6).value == 1.0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_eval_zeta_limit_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        eval_zeta_limit((1,), (("a",),), {"a": 2.0}, tol)


@pytest.mark.parametrize(
    "shape, exps",
    [
        ((1,), [[2]]),
        ((1, 1), [[1], [2]]),
        ((2,), [[1, 3]]),
        ((2, 1), [[1, 2], [3]]),
        ((2, 2), [[1, 1], [2, 3]]),
    ],
)
def test_limit_partial_sums_match_exact_truncation(shape, exps):
    # below the first extrapolation level the evaluator returns the plain
    # float partial sum S(N); it must agree with the exact Fraction path
    # to the relative rounding the error estimate allows for (4u per cell)
    rows = grid_vars(shape, "x")
    assign_q = {v: e for vr, er in zip(rows, exps) for v, e in zip(vr, er)}
    assign_f = {v: float(e) for v, e in assign_q.items()}
    bound = 4 * sum(shape) * 2.0**-53
    for n in range(1, 9):
        rep = eval_zeta_limit(shape, rows, assign_f, 1e-30, max_level=n)
        exact = float(eval_zeta_truncated(shape, rows, assign_q, n))
        assert not rep.converged and rep.levels == n
        assert abs(rep.value - exact) <= bound * exact
        approx = eval_zeta_truncated(shape, rows, assign_f, n)
        assert abs(approx - exact) <= bound * exact


@pytest.mark.parametrize(
    "shape, exps, n",
    [
        ((1, 1), [[1], [2]], 1025),
        ((1, 1), [[1], [2]], 2100),
        ((2, 1), [[1, 2], [3]], 1100),
    ],
)
def test_limit_partial_sums_match_exact_truncation_across_chunks(shape, exps, n):
    # the float walk sums its levels in chunks of _CHUNK; past a chunk edge
    # each sub-shape's running sums restart from its carry, and a level cap
    # between two doubling stops ends a chunk early.  The float sums must
    # still agree with the exact Fraction path to 4u per cell.
    assert n > _CHUNK and n % _CHUNK
    rows = grid_vars(shape, "x")
    assign_q = {v: e for vr, er in zip(rows, exps) for v, e in zip(vr, er)}
    assign_f = {v: float(e) for v, e in assign_q.items()}
    bound = 4 * sum(shape) * 2.0**-53
    exact = float(eval_zeta_truncated(shape, rows, assign_q, n))
    rep = eval_zeta_limit(shape, rows, assign_f, 1e-30, max_level=n)
    assert not rep.converged and rep.levels == n
    assert abs(rep.value - exact) <= bound * exact
    approx = eval_zeta_truncated(shape, rows, assign_f, n)
    assert abs(approx - exact) <= bound * exact


def fraction_weights(groups):
    """Oracle: the weights of the readings that cancel the groups (beta, p),
    the coefficients of prod(((x - r) / (1 - r)) ** (p + 1)) multiplied out
    in Fractions, r = _ratio(beta)."""
    weights = [Fraction(1)]
    for beta, p in groups:
        r = _ratio(beta)
        for _ in range(p + 1):
            shifted = [Fraction(0)] + weights
            scaled = [r * w for w in weights] + [Fraction(0)]
            weights = [(a - b) / (1 - r) for a, b in zip(shifted, scaled)]
    return weights


def exact_suffixes(weights, lower):
    """Oracle: per increment t = 1..K between the readings, the suffix sum
    from t on of the weights, and of the weights minus those of the lower
    fit, which reads only the last readings."""
    padded = [0] * (len(weights) - len(lower)) + list(lower)

    def suffix(coeffs):
        return list(accumulate(reversed(coeffs)))[-2::-1]

    return suffix(weights), suffix([w - v for w, v in zip(weights, padded)])


def limit_groups(shape, kinds):
    """The term groups eval_zeta_limit fits, slowest first."""
    return tuple(sorted(_tail_terms(shape, kinds).items(), reverse=True))


def exact_fit(readings, groups):
    """Oracle: _extrapolate's fit over exact readings in exact rationals, as
    (limit, gap, value scale, gap scale), or None while no group fits.  A
    scale is sum |W_t * D_t| over the increments D_t between the readings
    used, W_t the suffix sum from t on of the weights of the value, or of
    the value's weights minus those of the fit with one group fewer."""
    room = min(len(readings) - 1, LIMIT_MAX_ORDER)
    used = size = 0
    for _, p in groups:
        if size + p + 1 > room:
            break
        used, size = used + 1, size + p + 1
    if used == 0:
        return None
    weights = fraction_weights(groups[:used])
    tail = readings[-len(weights):]
    limit = sum(w * s for w, s in zip(weights, tail))
    lower = fraction_weights(groups[: used - 1])
    gap = limit - sum(w * s for w, s in zip(lower, readings[-len(lower):]))
    value_scale, gap_scale = (
        sum(abs(w * (b - a)) for w, a, b in zip(suffix, tail, tail[1:]))
        for suffix in exact_suffixes(weights, lower)
    )
    return limit, gap, value_scale, gap_scale


@pytest.mark.parametrize(
    "shape, exps",
    [((1, 1), [1, 2]), ((2,), [1, 2]), ((2, 1), [Fraction(3, 2), 2, Fraction(5, 4)])],
)
def test_extrapolation_weights_are_cached_exact_solutions(shape, exps):
    # the cached weights are integer numerators over one integer
    # denominator, equal to an uncached recomputation and to the weights
    # multiplied out in Fractions; in exact rationals they sum to 1 and
    # give 0 on every r**t * t**q, r = 2**beta to 60 digits (_ratio) and
    # q <= p, of each group (beta, p) they cancel.  The fit's float
    # weights are the exact suffix and gap weights rounded once.
    groups = limit_groups(shape, tuple(map(Fraction, exps)))
    sizes = accumulate(p + 1 for _, p in groups)
    for used, size in enumerate(sizes, 1):
        if size > LIMIT_MAX_ORDER:  # more than _extrapolate fits
            break
        exact = _extrapolation_weights(groups[:used])
        assert _extrapolation_weights(groups[:used]) is exact
        assert exact == _extrapolation_weights.__wrapped__(groups[:used])
        coeffs, den = exact
        assert all(type(x) is int for x in (*coeffs, den))
        weights = [Fraction(a, den) for a in coeffs]
        assert weights == fraction_weights(groups[:used])
        assert sum(weights) == 1
        for beta, p in groups[:used]:
            r = _ratio(beta)
            for q in range(p + 1):
                assert sum(w * r**t * t**q for t, w in enumerate(weights)) == 0, (beta, q)
        suffixes = exact_suffixes(weights, fraction_weights(groups[: used - 1]))
        assert _fit_weights(groups[:used]) == tuple(tuple(map(float, s)) for s in suffixes)


@pytest.mark.parametrize(
    "shape, exps",
    [((1, 1), [1.0, 2.0]), ((2, 1), [2.0, 2.0, 2.0]), ((3, 2), [1, 1.5, 2, 1.25, 2.5])],
)
def test_eval_zeta_limit_builds_each_prefix_of_weights_once(monkeypatch, shape, exps):
    # building the weights of a prefix of the groups takes the ratio of its
    # last group once, on top of the cached weights of the shorter prefix,
    # so one ratio per beta means each prefix was built at most once
    calls = Counter()
    ratio = zmod._ratio

    def spy(beta):
        calls[beta] += 1
        return ratio(beta)

    monkeypatch.setattr(zmod, "_ratio", spy)
    _extrapolation_weights.cache_clear()
    _fit_weights.cache_clear()
    rows = grid_vars(shape, "x")
    assign = dict(zip(zmod._flatten(rows), exps))
    assert eval_zeta_limit(shape, rows, assign, 1e-12).converged
    betas = [beta for beta, _ in limit_groups(shape, tuple(map(Fraction, exps)))]
    assert calls and set(calls) <= set(betas)
    assert max(calls.values()) == 1


def test_tail_terms_take_integral_exponents_as_ints():
    # seeded draws over every shape of size <= 5 from the exponents 1, 2,
    # 3, 3/2 and 5/4: the same groups whether the integral exponents come
    # as ints, as eval_zeta_limit passes them, or as Fractions, and every
    # power an exact int or Fraction, never a float
    rng = random.Random(30)
    choices = (1, 2, 3, Fraction(3, 2), Fraction(5, 4))
    cases = 0
    for size in range(1, 6):
        for shape in all_partitions(size):
            for _ in range(12):
                kinds = tuple(rng.choice(choices) for _ in range(size))
                terms = _tail_terms(shape, kinds)
                assert limit_groups(shape, kinds) == limit_groups(shape, tuple(map(Fraction, kinds)))
                assert all(type(beta) in (int, Fraction) for beta in terms), (shape, kinds)
                cases += 1
    assert cases == 12 * 18


# (shape, row-major exponents, tol, max_level) of the limits fed to the exact
# fit: the five of the benchmark's limits workload, (3,2), whose 262,144
# levels run over many chunks, and (2,2), whose N**-b * log(N)**3 groups
# leave it unconverged, capped at 16,384 levels
EXACT_FIT_LIMITS = [
    ((1,), [2.0], 1e-13, 1 << 20),
    ((1, 1), [1.0, 2.0], 1e-14, 1 << 20),
    ((2,), [1.0, 2.0], 1e-14, 1 << 20),
    ((1,), [3.0], 1e-13, 1 << 20),
    ((2, 1), [2.0, 2.0, 2.0], 1e-13, 1 << 20),
    ((3, 2), [1, 1, 2, 1, 2], 1e-12, 1 << 20),
    ((2, 2), [1, 1, 1, 1.5], 1e-12, 1 << 14),
] + [
    ((1,), [s], tol, 1 << 20)
    for s in (1.0000001, 1.000001, 1.00001, 1.0001, 1.001, 1.01, 1.1, 1.5)
    for tol in (1e-3, 1e-8, 1e-12)
]


@pytest.mark.parametrize(
    "shape, exps, tol, max_level",
    EXACT_FIT_LIMITS,
    ids=[f"{s}-{e}-{t:g}".replace(" ", "") for s, e, t, _ in EXACT_FIT_LIMITS],
)
def test_float_fit_stays_within_its_bound_of_the_exact_fit(shape, exps, tol, max_level):
    # every fit of the limit, fed the same readings as exact_fit: value and
    # gap within (1 + u)**3 - 1 of their scale plus u of themselves, and the
    # value's rounding within the floor
    u = Fraction(1, 2**53)
    per_term = (1 + u) ** 3 - 1
    rows = grid_vars(shape, "x")
    rep = eval_zeta_limit(shape, rows, dict(zip(zmod._flatten(rows), exps)), tol, max_level)
    kinds = tuple(map(Fraction, exps))
    groups = limit_groups(shape, kinds)
    stops = [LIMIT_START << i for i in range(20) if LIMIT_START << i <= rep.levels]
    readings = list(_partial_sums(shape, kinds, stops))
    fits = 0
    for k in range(1, len(readings) + 1):
        fit = _extrapolate(readings[:k], groups, 4 * sum(shape))
        ref = exact_fit([Fraction(s) + Fraction(c) for s, c in readings[:k]], groups)
        assert (fit is None) == (ref is None)
        if fit is None:
            continue
        (value, gap, floor), (limit, exact_gap, value_scale, gap_scale) = fit, ref
        error = abs(Fraction(value) - limit)
        assert error <= per_term * value_scale + u * abs(Fraction(value)), (k, float(error))
        assert error <= floor, (k, float(error), floor)
        gap_error = abs(Fraction(gap) - abs(exact_gap))
        assert gap_error <= per_term * gap_scale + u * Fraction(gap), (k, float(gap_error))
        fits += 1
    assert fits


@pytest.mark.parametrize(
    "shape, exps",
    [
        ((3, 2), [[1, 1.5, 2], [1.25, 2.5]]),
        ((4, 2), [[1, 1.25, 1.5, 2], [2, 3]]),
    ],
)
def test_eval_zeta_limit_on_larger_shapes(shape, exps):
    # (4,2) has 96 strip chains; walking them took about 2.5 s on a 2-vCPU VM
    rows = grid_vars(shape, "x")
    assign = {v: e for vr, er in zip(rows, exps) for v, e in zip(vr, er)}
    start = time.perf_counter()
    rep = eval_zeta_limit(shape, rows, assign, 1e-12)
    assert time.perf_counter() - start < 1.0, shape
    assert rep.converged and rep.error_estimate <= 1e-12
    bound = 4 * sum(shape) * 2.0**-53
    for n in range(5, 9):
        capped = eval_zeta_limit(shape, rows, assign, 1e-12, max_level=n)
        approx = eval_zeta_truncated(shape, rows, assign, n)
        assert not capped.converged and capped.levels == n
        assert abs(capped.value - approx) <= bound * approx


def test_eval_zeta_limit_against_mpmath():
    import mpmath as mp

    mp.mp.dps = 30
    cases = [
        ((1,), (("a",),), {"a": 2.0}, 1e-13, mp.pi**2 / 6),
        ((1, 1), (("a",), ("b",)), {"a": 1.0, "b": 2.0}, 1e-14, mp.zeta(3)),
        ((2,), (("a", "b"),), {"a": 1.0, "b": 2.0}, 1e-14, 2 * mp.zeta(3)),
        ((1,), (("a",),), {"a": 3.0}, 1e-13, mp.zeta(3)),
        (
            (2, 1), (("a", "b"), ("c",)), {"a": 2.0, "b": 2.0, "c": 2.0}, 1e-13,
            mp.nsum(lambda a: a**-2 * mp.zeta(2, a) * mp.zeta(2, a + 1), [1, mp.inf]),
        ),
        # zeta(2,2) = (zeta(2)**2 - zeta(4)) / 2: the column of two 2s
        ((1, 1), (("a",), ("b",)), {"a": 2.0, "b": 2.0}, 1e-13,
         (mp.zeta(2) ** 2 - mp.zeta(4)) / 2),
    ]
    for shape, rows, assign, tol, ref in cases:
        rep = eval_zeta_limit(shape, rows, assign, tol)
        err = abs(mp.mpf(rep.value) - ref)
        assert rep.converged, (shape, assign)
        assert err <= rep.error_estimate <= tol, (shape, assign, err, rep)
    # non-integer exponents: the two columns (a, b) and (b, a) cover every
    # pair of distinct levels, so they add up to zeta(a)zeta(b) - zeta(a+b)
    col = (("a",), ("b",))
    for x, y in [(2.5, 1.5), (3.218, 3.09), (1.75, 2.0)]:
        reps = [eval_zeta_limit((1, 1), col, {"a": u, "b": v}, 1e-12)
                for u, v in ((x, y), (y, x))]
        ref = mp.zeta(x) * mp.zeta(y) - mp.zeta(x + y)
        err = abs(mp.mpf(reps[0].value) + reps[1].value - ref)
        assert all(r.converged for r in reps)
        assert err <= reps[0].error_estimate + reps[1].error_estimate


@pytest.mark.parametrize("tol", [1e-6, 1e-12])
@pytest.mark.parametrize("n", [8, 10, 12, 14])
def test_eval_zeta_limit_estimate_covers_the_error_on_tall_columns(n, tol):
    # the column (1^n) with every exponent 2 is e_n(1, 1/4, 1/9, ...), the
    # coefficient of x**(2n) in sinh(pi x)/(pi x): pi**(2n)/(2n + 1)!.  Its
    # S(N) is nearly 0 at the first readings, and the first extrapolation
    # returned converged at 32 levels, 34% to 91% off under its estimate
    import mpmath as mp

    mp.mp.dps = 40
    rows = tuple((f"a_{i}",) for i in range(n))
    rep = eval_zeta_limit((1,) * n, rows, dict.fromkeys(zmod._flatten(rows), 2.0), tol)
    err = abs(mp.mpf(rep.value) - mp.pi ** (2 * n) / mp.factorial(2 * n + 1))
    assert rep.converged and rep.levels > 32, rep
    assert err <= rep.error_estimate <= tol, (err, rep)


def test_eval_zeta_limit_error_estimate_is_never_0_where_every_term_underflows():
    # every tableau of (2,1) holds an entry >= 2 under the exponent 1e5, so
    # the float sum is 0.0 and the true value about 2**-1e5 > 0
    rows = grid_vars((2, 1), "x")
    rep = eval_zeta_limit((2, 1), rows, dict(zip(("x_1_1", "x_1_2", "x_2_1"), (1e5, 2.0, 1e5))), 1e-12)
    assert rep.converged and rep.value == 0.0
    assert rep.error_estimate == math.ulp(0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_zeta_truncated((2,), (("a", "b"),), {"a": 2.5, "b": 10**400}, 3),
        lambda: eval_zeta_truncated((2,), (("a", "b"),), {"a": 1e308, "b": 1e308}, 3),
        lambda: eval_zeta_limit((1,), (("a",),), {"a": 10**400}, 1e-6),
    ],
    ids=["truncated-huge-int", "truncated-strip-sum", "limit-huge-int"],
)
def test_float_walks_clamp_a_strip_exponent_sum_beyond_floats(call):
    # a strip's exponent sum e past the largest float weighs n**-e = 1.0 at
    # n = 1 and 0.0 beyond, as the largest float itself does: only the
    # tableau of 1s counts
    value = call()
    if isinstance(value, zmod.LimitReport):
        assert value.converged
        value = value.value
    assert value == 1.0


def test_eval_zeta_limit_loose_tol_stays_within_it():
    # the old per-level-increment rule stopped 0.031 short of zeta(2) here
    rep = eval_zeta_limit((1,), (("a",),), {"a": 2.0}, 1e-3)
    err = abs(rep.value - math.pi**2 / 6)
    assert rep.converged and err <= rep.error_estimate <= 1e-3


@pytest.mark.parametrize("tol", [1e-3, 1e-8, 1e-12])
@pytest.mark.parametrize("s", [1.0000001, 1.000001, 1.00001, 1.0001, 1.001, 1.01, 1.1, 1.5])
def test_eval_zeta_limit_estimate_covers_the_error_near_exponent_1(s, tol):
    # the weights grow like 1/(1 - r), r = 2**(1 - s), so a float-rounded r
    # put an error of 7.3e-3 into zeta(1.0000001) under an estimate of 6.5e-6
    import mpmath as mp

    mp.mp.dps = 30
    rep = eval_zeta_limit((1,), (("a",),), {"a": s}, tol)
    err = abs(mp.mpf(rep.value) - mp.zeta(s))
    assert err <= rep.error_estimate, (err, rep)
    assert err <= tol or not rep.converged, (err, rep)


def test_pieri_identity_holds_across_small_grid():
    # identity truth for every assignment, including repeated values
    lam = (2,)
    names = ["s_1_1", "s_1_2", "t_1", "t_2"]
    for values in product((1, 2), repeat=4):
        assign = dict(zip(names, values))
        for n in (1, 2, 3):
            assert verify_pieri_h(lam, 2, assign, n).equal


def oracle_h_sym_spec(lam, m):
    """Oracle: the h-type symmetrized set written out by variable name."""
    r = lam[0] if lam else 0
    conj = conjugate(lam)
    c1 = conj[0] if conj else 0
    c2 = conj[1] if len(conj) > 1 else 0
    sym = [f"t_{k}" for k in range(1, r + 1)]
    sym += [f"s_{i}_1" for i in range(1, c2 + 1)]
    for j in range(2, r + 1):
        sym += [f"s_{i}_{j}" for i in range(1, conj[j - 1] + 1)]
    fixed = [f"s_{i}_1" for i in range(c2 + 1, c1 + 1)]
    fixed += [f"t_{k}" for k in range(r + 1, m + 1)]
    return SymSpec(tuple(sym), frozenset(fixed))


def oracle_e_sym_spec(lam, n):
    """Oracle: the e-type symmetrized set written out by variable name."""
    s_len = len(lam)
    l2 = lam[1] if len(lam) > 1 else 0
    sym = [f"s_{k}" for k in range(1, s_len + 1)]
    sym += [f"t_1_{j}" for j in range(1, l2 + 1)]
    for i in range(2, s_len + 1):
        sym += [f"t_{i}_{j}" for j in range(1, lam[i - 1] + 1)]
    fixed = [f"t_1_{j}" for j in range(l2 + 1, (lam[0] if lam else 0) + 1)]
    fixed += [f"s_{k}" for k in range(s_len + 1, n + 1)]
    return SymSpec(tuple(sym), frozenset(fixed))


def oracle_vertical_push_filling(lam, s_names, t_rows, rows):
    """Oracle: the vertical push cell by cell, without the transpose."""
    rows = tuple(sorted(rows))
    grid = [[None] * part for part in grow_rows(lam, rows)]
    for name, k in zip(s_names, rows):
        grid[k - 1][0] = name
    for i, row in enumerate(t_rows):
        shift = 1 if (i + 1) in rows else 0
        for j, var in enumerate(row):
            grid[i][j + shift] = var
    assert all(v is not None for row in grid for v in row)
    return tuple(tuple(row) for row in grid)


PIERI_ORACLE_SHAPES = [lam for size in range(1, 7) for lam in all_partitions(size)]


@pytest.mark.parametrize("mode", ["h", "e"])
def test_pieri_setup_matches_hand_written_rules(mode):
    # every shape with |lam| <= 6 and every strip size from the shape's side
    # along the strip to two more: the spec in order, the left-hand factors,
    # the strip sets in order and every grown shape and pushed filling
    for lam in PIERI_ORACLE_SHAPES:
        side = lam[0] if mode == "h" else len(lam)
        for size in range(side, side + 3):
            spec, factors, extensions, lhs, _ = _pieri_setup(lam, size, mode)
            assert lhs.names == tuple(v for _, rows in factors for r in rows for v in r)
            if mode == "h":
                s_rows, t_names = grid_vars(lam, "s"), seq_vars(size, "t")
                assert spec == h_sym_spec(lam, size) == oracle_h_sym_spec(lam, size)
                assert factors == ((lam, s_rows), ((size,), (t_names,)))
                assert extensions == tuple(
                    (cols, grow_cols(lam, cols), horizontal_push_filling(lam, s_rows, t_names, cols))
                    for cols in horizontal_strip_cols(lam, size)
                )
                continue
            t_rows, s_names = grid_vars(lam, "t"), seq_vars(size, "s")
            assert spec == e_sym_spec(lam, size) == oracle_e_sym_spec(lam, size)
            column = tuple((name,) for name in s_names)
            assert factors == ((lam, t_rows), ((1,) * size, column))
            expected = []
            for rows in vertical_strip_rows(lam, size):
                filling = oracle_vertical_push_filling(lam, s_names, t_rows, rows)
                assert vertical_push_filling(lam, s_names, t_rows, rows) == filling
                expected.append((rows, grow_rows(lam, rows), filling))
            assert extensions == tuple(expected)


def test_a_verifier_plans_its_identity_once(monkeypatch):
    # after a warm-up, a call with another assignment and another N checks
    # only the assignment and the level: no spec check, no new plan, and
    # no as_partition call beyond the boundary's one per shape argument
    h_names = [v for rows in (grid_vars((3, 1), "s"), (seq_vars(3, "t"),)) for r in rows for v in r]
    lr_names = [v for prefix in "st" for r in grid_vars((2, 1), prefix) for v in r]
    calls = Counter()
    for module, name in [
        (zmod, "_check_spec"), (zmod, "_sym_plan"),
        (zmod, "as_partition"), (partitions, "as_partition"), (tableaux, "as_partition"),
    ]:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=fn, _n=name: calls.update([_n]) or _f(*a))
    zmod._pieri_setup.cache_clear()
    zmod._lr_setup.cache_clear()
    assert verify_pieri_h((3, 1), 3, _distinct(h_names), 3).equal
    assert verify_lr((2, 1), (2, 1), _distinct(lr_names), 3).equal
    assert calls["_sym_plan"] == 4 and calls["_check_spec"] == 0
    plans = zmod._pieri_setup.cache_info(), zmod._lr_setup.cache_info()

    calls.clear()
    rep = verify_pieri_h((3, 1), 3, {v: 1 + k % 2 for k, v in enumerate(h_names)}, 4)
    assert rep.equal and rep.lhs > 0
    assert calls == {"as_partition": 1}
    calls.clear()
    rep = verify_lr((2, 1), (2, 1), {v: 3 - k % 3 for k, v in enumerate(lr_names)}, 2)
    assert rep.equal and rep.lhs > 0
    assert calls == {"as_partition": 2}
    after = zmod._pieri_setup.cache_info(), zmod._lr_setup.cache_info()
    assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, plans)] == [(1, 0), (1, 0)]


@st.composite
def planned_identities(draw):
    """A Pieri-h, Pieri-e or LR identity of at most five cells, the terms
    of both its sides built afresh from the public filling rules, values
    from 1..3 so that they repeat, and N from 1 to 4, below the row count
    of a tall shape.  The LR right side fills each shape by a drawn order
    of its variables, which is no weaker than the verifier's own filling:
    every LR cell is drawn, so a filling cannot change a walk
    (test_lr_walks_do_not_depend_on_the_filling)."""
    kind = draw(st.sampled_from(["h", "e", "lr"]))
    n_trunc = draw(st.integers(1, 4))
    if kind == "lr":
        mu = draw(st.sampled_from([p for p in SMALL_SHAPES if 0 < sum(p) <= 4]))
        nu = draw(st.sampled_from([p for p in SMALL_SHAPES if 0 < sum(p) <= 5 - sum(mu)]))
        s_rows, t_rows = grid_vars(mu, "s"), grid_vars(nu, "t")
        names = tuple(v for rows in (s_rows, t_rows) for r in rows for v in r)
        spec = SymSpec(names, frozenset())
        lhs = [(1, [(mu, s_rows), (nu, t_rows)])]
        expansion = [lam for lam in all_partitions(len(names)) if lr_coefficient(mu, nu, lam)]
        rhs = [
            (lr_coefficient(mu, nu, lam), [(lam, _row_major(lam, draw(st.permutations(names))))])
            for lam in expansion
        ]
        verify = lambda assign: verify_lr(mu, nu, assign, n_trunc)  # noqa: E731
    else:
        lam = draw(st.sampled_from([p for p in SMALL_SHAPES if 0 < sum(p) <= 4]))
        side = lam[0] if kind == "h" else len(lam)
        assume(sum(lam) + side <= 5)
        size = draw(st.integers(side, 5 - sum(lam)))
        if kind == "h":
            s_rows, t_names = grid_vars(lam, "s"), seq_vars(size, "t")
            spec = oracle_h_sym_spec(lam, size)
            lhs = [(1, [(lam, s_rows), ((size,), (t_names,))])]
            rhs = [
                (1, [(grow_cols(lam, cols), horizontal_push_filling(lam, s_rows, t_names, cols))])
                for cols in horizontal_strip_cols(lam, size)
            ]
            verify = lambda assign: verify_pieri_h(lam, size, assign, n_trunc)  # noqa: E731
        else:
            t_rows, s_names = grid_vars(lam, "t"), seq_vars(size, "s")
            spec = oracle_e_sym_spec(lam, size)
            lhs = [(1, [((1,) * size, tuple((v,) for v in s_names)), (lam, t_rows)])]
            rhs = [
                (1, [(grow_rows(lam, rows), oracle_vertical_push_filling(lam, s_names, t_rows, rows))])
                for rows in vertical_strip_rows(lam, size)
            ]
            verify = lambda assign: verify_pieri_e(lam, size, assign, n_trunc)  # noqa: E731
        names = tuple(v for _, factors in lhs for _, rows in factors for r in rows for v in r)
    assign = {v: draw(st.integers(1, 3)) for v in names}
    return verify, lhs, rhs, spec, assign, n_trunc


@settings(max_examples=80, deadline=None)
@given(planned_identities())
def test_verifiers_match_fully_checked_sums_on_fresh_terms(case):
    # the verifiers sum cached plans; public sym_sum checks and plans the
    # same identity afresh, and sym_sum_direct sums it by permutations
    verify, lhs, rhs, spec, assign, n_trunc = case
    rep = verify(assign)
    assert rep.lhs == sym_sum(lhs, spec, assign, n_trunc) == sym_sum_direct(lhs, spec, assign, n_trunc)
    assert rep.rhs == sym_sum(rhs, spec, assign, n_trunc) == sym_sum_direct(rhs, spec, assign, n_trunc)
    assert rep.equal
