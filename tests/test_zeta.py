import math
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurzeta.partitions import all_partitions
from schurzeta.tableaux import cached_ssyt, lr_coefficient
from schurzeta.zeta import (
    SymSpec,
    _perm_weight_exact,
    canonical_filling,
    e_sym_spec,
    eval_zeta_limit,
    eval_zeta_truncated,
    grid_vars,
    h_sym_spec,
    horizontal_push_filling,
    in_convergence_domain,
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


def test_in_convergence_domain_examples():
    assert in_convergence_domain(
        (2, 1), grid_vars((2, 1), "x"), {"x_1_1": 1, "x_1_2": 2, "x_2_1": 2}
    )
    assert not in_convergence_domain((1,), (("a",),), {"a": 1})
    assert in_convergence_domain((2,), (("a", "b"),), {"a": 1, "b": 1.5})


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


def test_sym_sum_fallback_when_variable_missing_from_term():
    # symmetrize over a variable that one term does not contain: it enters
    # that term's permanent as a base of 1
    terms = [(1, [((1,), (("a",),))]), (2, [((1,), (("b",),))])]
    spec = SymSpec(("a", "b"), frozenset())
    assign = {"a": 2, "b": 3}
    assert sym_sum(terms, spec, assign, 2) == sym_sum_direct(terms, spec, assign, 2)


KERNEL_TERMS = {
    # a symmetrized variable in two cells of one factor
    "repeated-in-factor": (
        [(1, [((2, 1), (("a", "b"), ("a",)))])],
        SymSpec(("a", "b"), frozenset()),
    ),
    # a symmetrized variable in both factors of one term
    "repeated-across-factors": (
        [(1, [((1,), (("a",),)), ((2,), (("a", "b"),))])],
        SymSpec(("a", "b"), frozenset()),
    ),
    # each term misses a symmetrized variable, and c stays fixed
    "missing-from-term": (
        [(1, [((1,), (("a",),))]), (3, [((1, 1), (("b",), ("c",)))])],
        SymSpec(("a", "b"), frozenset({"c"})),
    ),
    # all three at once, with d in no cell at all
    "mixed": (
        [
            (2, [((2,), (("a", "a"),)), ((1, 1), (("c",), ("b",)))]),
            (-1, [((1,), (("b",),))]),
        ],
        SymSpec(("a", "b", "d"), frozenset({"c"})),
    ),
}


@pytest.mark.parametrize("n_trunc", [1, 2, 3])
@pytest.mark.parametrize(
    "values", [(1, 2, 3, 4), (2, 2, 1, 2), (3, 3, 3, 0)], ids=str
)
@pytest.mark.parametrize("case", sorted(KERNEL_TERMS))
def test_sym_sum_repeated_and_missing_variables_match_direct(case, values, n_trunc):
    terms, spec = KERNEL_TERMS[case]
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


def test_sym_sum_factorial_guard():
    names = tuple(f"v_{k}" for k in range(4))
    rows = ((names[0], names[1]), (names[2],))
    terms = [(1, [((2, 1), rows)])]
    spec = SymSpec(names[:3], frozenset())
    assign = {v: 2 for v in names}
    with pytest.raises(ValueError):
        sym_sum(terms, spec, assign, 2, cap=2)
    assert sym_sum(terms, spec, assign, 2, cap=3) == \
        sym_sum_direct(terms, spec, assign, 2)


def brute_perm_weight(bases, values):
    """Oracle: the sum of 1/prod(b**v) over all k! orderings of values."""
    counts = {}
    for perm in permutations(values):
        den = 1
        for b, v in zip(bases, perm):
            den *= b**v
        counts[den] = counts.get(den, 0) + 1
    return sum((Fraction(c, d) for d, c in sorted(counts.items())), Fraction(0))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 7).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(1, 4), min_size=k, max_size=k),
            st.lists(st.integers(0, 5), min_size=k, max_size=k),
        )
    )
)
def test_perm_weight_matches_brute_force(case):
    # small ranges make repeated bases and repeated values common
    bases, values = (tuple(x) for x in case)
    assert _perm_weight_exact(bases, values) == brute_perm_weight(bases, values)


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


@pytest.mark.parametrize("n_trunc", [0, -1])
def test_sym_sum_rejects_truncation_below_one(n_trunc):
    terms = [(1, [((1,), (("a",),))])]
    spec = SymSpec(("a",), frozenset())
    with pytest.raises(ValueError, match="truncation"):
        sym_sum(terms, spec, {"a": 2}, n_trunc)


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


def test_verify_lr_filling_choices_agree():
    assign = {"s_1_1": 1, "s_1_2": 2, "s_2_1": 3, "t_1_1": 4, "t_2_1": 5}
    r0 = verify_lr((2, 1), (1, 1), assign, 2, variant=0)
    r1 = verify_lr((2, 1), (1, 1), assign, 2, variant=1)
    assert r0.equal and r1.equal and r0.rhs == r1.rhs
    # explicit filling override for one shape
    override = {(2,): (("t_1_1", "s_1_1"),)}
    rep = verify_lr((1,), (1,), {"s_1_1": 2, "t_1_1": 3}, 2, fillings=override)
    assert rep.equal
    bad = {(2,): (("t_1_1", "t_1_1"),)}
    with pytest.raises(ValueError):
        verify_lr((1,), (1,), {"s_1_1": 2, "t_1_1": 3}, 2, fillings=bad)


def test_verify_insertion_term_h_examples():
    rep = verify_insertion_term(((1,),), ((1,),), (1,), 1, "h", {"s_1_1": 2, "t_1": 3})
    assert rep.equal and rep.tableau == ((1, 1),) and rep.added == (2,)
    assign = {"s_1_1": 1, "s_1_2": 2, "s_2_1": 3, "t_1": 4, "t_2": 5}
    rep = verify_insertion_term(((1, 2), (2,)), ((1, 3),), (2, 1), 2, "h", assign)
    assert rep.equal
    # bent bumping route: entries move between columns, equality still holds
    rep = verify_insertion_term(((1, 2), (3,)), ((1, 2),), (2, 1), 2, "h", assign)
    assert rep.equal and rep.added == (1, 3)
    with pytest.raises(ValueError):
        verify_insertion_term(((1,),), ((1,),), (2,), 1, "h", {"s_1_1": 2, "t_1": 3})


def test_verify_insertion_term_h_exhaustive_sweep():
    lam, m = (2, 1), 2
    assign = {"s_1_1": 1, "s_1_2": 2, "s_2_1": 3, "t_1": 4, "t_2": 5}
    for left in cached_ssyt(lam, 3):
        for right in cached_ssyt((m,), 3):
            rep = verify_insertion_term(left, right, lam, m, "h", assign)
            assert rep.equal, (left, right)


def test_verify_insertion_term_e_examples():
    assign = {"s_1": 2, "s_2": 3, "t_1_1": 4, "t_1_2": 5}
    rep = verify_insertion_term(((1,), (2,)), ((1, 1),), (2,), 2, "e", assign)
    assert rep.equal and rep.added == (1, 2)
    for left in cached_ssyt((1, 1), 3):
        for right in cached_ssyt((2,), 3):
            rep = verify_insertion_term(left, right, (2,), 2, "e", assign)
            assert rep.equal, (left, right)
    with pytest.raises(ValueError):
        verify_insertion_term(((1, 1),), ((1, 1),), (2,), 2, "e", assign)


def brute_sym_monomial_sum(pairs, spec, assign):
    """Oracle: the sum over all k! orderings of the symmetrized values of
    the product of the pairs' monomials."""
    total = Fraction(0)
    for perm in permutations(assign[v] for v in spec.symmetrized):
        local = dict(assign)
        local.update(zip(spec.symmetrized, perm))
        term = Fraction(1)
        for tab, rows in pairs:
            term *= monomial(tab, rows, local)
        total += term
    return total


@pytest.mark.parametrize("repeated", [False, True])
def test_verify_insertion_term_matches_monomial_oracle(repeated):
    # the tableau pairs of selftest criterion 10, with its distinct values
    # and with repeated ones
    lam, m = (2, 1), 2
    s_rows, t_names = grid_vars(lam, "s"), seq_vars(m, "t")
    names = [v for r in s_rows for v in r] + list(t_names)
    values = (2, 1, 2, 1, 3) if repeated else range(1, 6)
    assign = dict(zip(names, values))
    spec = h_sym_spec(lam, m)
    for left in cached_ssyt(lam, 3):
        for right in cached_ssyt((m,), 3):
            rep = verify_insertion_term(left, right, lam, m, "h", assign)
            lhs = brute_sym_monomial_sum(
                [(left, s_rows), (right, (t_names,))], spec, assign
            )
            filling = horizontal_push_filling(lam, s_rows, t_names, rep.added)
            rhs = brute_sym_monomial_sum([(rep.tableau, filling)], spec, assign)
            assert (rep.lhs, rep.rhs) == (lhs, rhs), (left, right)
    lam, n = (2,), 2
    t_rows, s_names = grid_vars(lam, "t"), seq_vars(n, "s")
    names = [v for r in t_rows for v in r] + list(s_names)
    values = (1, 1, 2, 1) if repeated else range(1, 5)
    assign = dict(zip(names, values))
    spec = e_sym_spec(lam, n)
    s_col = tuple((name,) for name in s_names)
    for left in cached_ssyt((1,) * n, 3):
        for right in cached_ssyt(lam, 3):
            rep = verify_insertion_term(left, right, lam, n, "e", assign)
            lhs = brute_sym_monomial_sum([(left, s_col), (right, t_rows)], spec, assign)
            filling = vertical_push_filling(lam, s_names, t_rows, rep.added)
            rhs = brute_sym_monomial_sum([(rep.tableau, filling)], spec, assign)
            assert (rep.lhs, rep.rhs) == (lhs, rhs), (left, right)


def test_fault_injected_insertion_order_fails_loudly(monkeypatch):
    # applying the column letters in the wrong order lands outside the
    # vertical-strip family for some pairs; the term verifier must not
    # silently accept that
    import schurzeta.zeta as zmod
    from schurzeta.insertion import column_insert_word

    def reversed_order(word, t):
        return column_insert_word(tuple(reversed(word)), t)

    monkeypatch.setattr(zmod, "column_insert_word", reversed_order)
    with pytest.raises(RuntimeError):
        zmod.verify_insertion_term(
            ((1,), (2,)), (), (), 2, "e", {"s_1": 2, "s_2": 3}
        )


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


def test_eval_zeta_limit_loose_tol_stays_within_it():
    # the old per-level-increment rule stopped 0.031 short of zeta(2) here
    rep = eval_zeta_limit((1,), (("a",),), {"a": 2.0}, 1e-3)
    err = abs(rep.value - math.pi**2 / 6)
    assert rep.converged and err <= rep.error_estimate <= 1e-3


def test_pieri_identity_holds_across_small_grid():
    # identity truth for every assignment, including repeated values
    lam = (2,)
    names = ["s_1_1", "s_1_2", "t_1", "t_2"]
    for values in product((1, 2), repeat=4):
        assign = dict(zip(names, values))
        for n in (1, 2, 3):
            assert verify_pieri_h(lam, 2, assign, n).equal
