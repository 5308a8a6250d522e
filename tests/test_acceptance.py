"""Acceptance gate: every criterion at its full grid and stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the one-line
pass/fail report per criterion, or `schurzeta selftest` for the same grid
through the CLI.
"""

import math
import sys
from bisect import bisect_left
from fractions import Fraction

import pytest

from schurzeta import acceptance, cli, crystal, insertion, partitions, tableaux, zeta
from schurzeta.partitions import all_partitions


def loaded_caches() -> list:
    """Every function with a cache_clear in the loaded schurzeta modules,
    once each (a module that imports a cached function names it again),
    so that a new cache cannot be missed."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "schurzeta" or name.startswith("schurzeta."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__
)
def test_criterion(criterion):
    result = criterion(quick=False, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}  {result.number:2d} {result.name:<28} "
        f"{result.seconds:7.2f}s  {result.detail}"
    )
    assert result.passed, f"criterion {result.number} {result.name}: {result.detail}"


def test_budgets():
    # time every criterion from cold caches, not as a rerun of the grid
    # that the per-criterion tests above have already warmed
    caches = loaded_caches()
    assert partitions._partitions_of in caches and tableaux.cached_ssyt in caches
    for fn in caches:
        fn.cache_clear()
    results = acceptance.run_all(quick=False, seed=0)
    assert all(r.passed for r in results)
    by_number = {r.number: r for r in results}
    assert by_number[1].seconds < 60
    assert by_number[2].seconds < 60
    assert by_number[3].seconds < 120
    assert by_number[4].seconds < 2
    assert by_number[5].seconds < 2


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_route_geometry_fails_on_weak_row_bump(monkeypatch, quick):
    # bumping the leftmost entry >= x moves equal entries down a row, so
    # inserting 1, 1 into a lone 1 gives two routes down the first column
    assert acceptance.criterion_route_geometry(quick=quick).passed
    monkeypatch.setattr(insertion, "bisect_right", bisect_left)
    result = acceptance.criterion_route_geometry(quick=quick)
    assert not result.passed
    assert result.detail == "routes not strictly right-moving: ((1,),), ((1, 1),)"


def test_lr_triple_oracle_fails_on_false_highest_weight(monkeypatch):
    # (1, 2, 2, 1) is mu=(2) times nu=(1,1): its right factor (2, 1) is
    # highest weight and leaves phi_1 = 0, so e_1 acts on the left factor's
    # 2; the fault lets the whole word through, at its weight (2, 2)
    honest = crystal._extend_phi
    n = 4
    right = honest((2, 1), [0] * (n + 1))

    def faulty(word, phi):
        if tuple(word) == (1, 2) and phi == right:
            return honest((2, 2, 1, 1), [0] * (n + 1))
        return honest(word, phi)

    monkeypatch.setattr(crystal, "_extend_phi", faulty)
    result = acceptance.criterion_lr_triple_oracle(quick=True)
    assert not result.passed and "(2,),(1, 1),(2, 2)" in result.detail


def test_criteria_keep_their_numbers_names_and_order():
    assert [(r.number, r.name) for r in acceptance.run_all(quick=True)] == [
        (1, "pieri-h-exact"),
        (2, "pieri-e-exact"),
        (3, "lr-exact"),
        (4, "lr-triple-oracle"),
        (5, "crystal-axioms"),
        (6, "worked-example-regressions"),
        (7, "harmonic-product-spot"),
        (8, "truncation-monotone-limits"),
        (9, "bumping-route-geometry"),
        (10, "insertion-term-sweep"),
    ]


@pytest.mark.parametrize(
    "verifier, criterion, where",
    [
        ("verify_pieri_h", acceptance.criterion_pieri_h,
         lambda args: f"lam={args[0]} m={args[1]} N={args[3]}"),
        ("verify_pieri_e", acceptance.criterion_pieri_e,
         lambda args: f"lam={args[0]} n={args[1]} N={args[3]}"),
        ("verify_lr", acceptance.criterion_lr,
         lambda args: f"mu={args[0]} nu={args[1]} N={args[3]}"),
        ("verify_insertion_term", acceptance.criterion_insertion_term_sweep,
         lambda args: f"h-mode mismatch at {args[0]}, {args[1]}"),
    ],
    ids=["pieri-h", "pieri-e", "lr", "insertion-term"],
)
def test_false_identity_fails_its_criterion_at_its_shape(
    monkeypatch, verifier, criterion, where
):
    honest = getattr(zeta, verifier)
    calls = []

    def unequal(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)._replace(equal=False)

    monkeypatch.setattr(zeta, verifier, unequal)
    result = criterion(quick=True)
    assert not result.passed and where(calls[0]) in result.detail
    assert len(calls) == 1


def test_identity_grids_fail_on_an_over_pruning_level_engine(monkeypatch):
    # need one too high at every node of a walk graph that is no end's: both
    # sides of an identity lose the same tableaux and still agree, and only
    # the grids' absolute anchor, zeta((2,1)) at N = 2, sees it
    built = zeta._walk_graph

    def over_pruned(ends):
        nodes, at, depth, need, passes = built(ends)
        need = tuple(x if k in at else x + 1 for k, x in enumerate(need))
        return nodes, at, depth, need, passes

    monkeypatch.setattr(zeta, "_walk_graph", over_pruned)
    zeta._product_sum.cache_clear()
    try:
        names = zeta._pieri_setup((2, 1), 2, "h").lhs.names
        assert zeta.verify_pieri_h((2, 1), 2, dict.fromkeys(names, 1), 3).equal
        for criterion in (acceptance.criterion_pieri_h, acceptance.criterion_pieri_e, acceptance.criterion_lr):
            result = criterion(quick=True)
            assert not result.passed and "level engine 0 != tableau sum 5/32" in result.detail, result
    finally:
        zeta._product_sum.cache_clear()


# the two fixed-variable Pieri identities pinned in CI: (verifier, args,
# the value of both sides)
PINNED_PIERI = [
    ("verify_pieri_h",
     ((3, 1), 4, {"s_1_1": 1, "s_1_2": 2, "s_1_3": 3, "s_2_1": 4, "t_1": 5, "t_2": 6, "t_3": 7, "t_4": 8}, 4),
     Fraction(124403939663312568644737962581397365779, 1640745080984008901345704414374002688)),
    ("verify_pieri_e",
     ((2, 1, 1), 4, {"t_1_1": 1, "t_1_2": 2, "t_2_1": 3, "t_3_1": 4, "s_1": 5, "s_2": 6, "s_3": 7, "s_4": 8}, 6),
     Fraction(392549341061300725705963997232107, 4912753771571852397772800000000000000000)),
]


def test_pruning_only_saves_work(monkeypatch):
    # need 0 at every node keeps every node to the last level: both sides
    # of every identity of criteria 1-3's quick grids and of the pinned
    # Pieri identities, and a pinned zeta value, keep the exact values of
    # the pruning engine
    seen = []
    for name in ("verify_pieri_h", "verify_pieri_e", "verify_lr"):
        def record(*args, honest=getattr(zeta, name)):
            rep = honest(*args)
            seen.append((args, rep.lhs, rep.rhs))
            return rep

        monkeypatch.setattr(zeta, name, record)

    def sides():
        seen.clear()
        zeta._product_sum.cache_clear()
        for criterion in (acceptance.criterion_pieri_h, acceptance.criterion_pieri_e, acceptance.criterion_lr):
            assert criterion(quick=True).passed
        for name, args, value in PINNED_PIERI:
            rep = getattr(zeta, name)(*args)
            assert rep.lhs == rep.rhs == value
        # a column as tall as N, pinned in CI: every level prunes
        rows = zeta.grid_vars((2, 2, 1, 1), "x")
        assign = dict(zip(zeta._flatten(rows), (1, 2, 3, 1, 2, 1)))
        assert zeta.eval_zeta_truncated((2, 2, 1, 1), rows, assign, 4) == Fraction(181, 41472)
        return list(seen)

    built = zeta._walk_graph
    unpruned = []

    def never_pruned(ends):
        nodes, at, depth, need, passes = built(ends)
        unpruned.append(ends)
        return nodes, at, depth, (0,) * len(need), passes

    try:
        pruned = sides()
        monkeypatch.setattr(zeta, "_walk_graph", never_pruned)
        assert sides() == pruned and unpruned
    finally:
        zeta._product_sum.cache_clear()


def test_crash_in_a_criterion_is_not_a_failed_identity(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(zeta, "verify_pieri_h", crash)
    with pytest.raises(ZeroDivisionError):
        acceptance.criterion_pieri_h(quick=True)
    assert cli.main(["selftest", "--quick"]) == 3
    assert "internal: ZeroDivisionError" in capsys.readouterr().err


def _fold_cases():
    """Every tableau of 1 or 2 cells with entries <= 4, each with the
    reading word of every such tableau."""
    n = 4
    tabs = [
        t
        for a in (1, 2)
        for mu in all_partitions(a, max_length=n)
        for t in tableaux.cached_ssyt(mu, n)
    ]
    for left in tabs:
        for right in tabs:
            yield left, tableaux.reading_word(right)


def test_unchecked_row_fold_matches_row_insert_word():
    for left, rw in _fold_cases():
        assert insertion._row_fold(left, rw) == insertion.row_insert_word(left, rw)


def test_unchecked_column_reading_matches_column_insert_word():
    # column insertion read as the weak row fold on the transpose, the
    # frame criterion 9 checks its routes in
    for left, rw in _fold_cases():
        result, routes = insertion._row_fold(tableaux.transpose(left), rw, weak=True)
        swapped = [tuple((i, j) for j, i in route) for route in routes]
        assert (tableaux.transpose(result), swapped) == insertion.column_insert_word(rw, left)


@pytest.mark.parametrize("search", ["bisect_right", "bisect_left"], ids=["row", "column"])
def test_regressions_fail_on_a_shifted_public_bump(monkeypatch, search):
    # criterion 6 pins one route of the public row_insert and column_insert
    assert acceptance.criterion_regressions().passed
    honest = getattr(insertion, search)
    monkeypatch.setattr(insertion, search, lambda row, x: min(honest(row, x) + 1, len(row)))
    result = acceptance.criterion_regressions()
    assert not result.passed
    assert result.detail == "structural mismatch against worked examples"


def _edit_crystal(monkeypatch, factors, edit):
    """Apply edit(counts) to the crystal's counts of the product of the two
    factors, the only coefficients criterion 4 reads."""
    honest = crystal.decompose_product

    def decompose(mu, nu, n):
        out = honest(mu, nu, n)
        if (mu, nu) == factors:
            edit(out)
        return out

    monkeypatch.setattr(crystal, "decompose_product", decompose)


def test_lr_triple_oracle_content_route_catches_a_raised_coefficient(monkeypatch):
    # c_(1),(1)^(2) = 2: s_1 * s_1 has one pair of content (2), the shapes
    # (2) and (1, 1) then two tableaux of it
    _edit_crystal(monkeypatch, ((1,), (1,)), lambda counts: counts.update([(2,)]))
    result = acceptance.criterion_lr_triple_oracle(quick=True)
    assert not result.passed
    assert result.detail == "content counts differ at (1,),(1,),(2,): 1 pairs != 2 tableaux"


def test_lr_triple_oracle_content_route_catches_a_dropped_shape(monkeypatch):
    # c_(1),(1)^(1,1) = 0: two pairs have content (1, 1), and only the
    # tableau 1 2 of shape (2) is left to match them
    _edit_crystal(monkeypatch, ((1,), (1,)), lambda counts: counts.pop((1, 1)))
    result = acceptance.criterion_lr_triple_oracle(quick=True)
    assert not result.passed
    assert result.detail == "content counts differ at (1,),(1,),(1, 1): 2 pairs != 1 tableaux"


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_lr_triple_oracle_catches_a_dropped_four_row_shape(monkeypatch, quick):
    # (1, 1, 1, 1) is the one shape of (1, 1) x (1, 1) at the row bound
    # n = 4: the six pairs of content (1, 1, 1, 1) against the 2 + 3
    # standard tableaux of (2, 2) and (2, 1, 1)
    _edit_crystal(monkeypatch, ((1, 1), (1, 1)), lambda counts: counts.pop((1, 1, 1, 1)))
    result = acceptance.criterion_lr_triple_oracle(quick=quick)
    assert not result.passed
    assert result.detail == (
        "content counts differ at (1, 1),(1, 1),(1, 1, 1, 1): 6 pairs != 5 tableaux"
    )


@pytest.mark.parametrize(
    "quick, factors, stray, detail",
    [
        (True, ((1,), (1,)), (3,),
         "crystal shape (3,) at (1,),(1,) is not a partition of 2 with at most 4 rows"),
        (False, ((1, 1, 1), (1, 1)), (1, 1, 1, 1, 1),
         "crystal shape (1, 1, 1, 1, 1) at (1, 1, 1),(1, 1) is not a partition of 5 "
         "with at most 4 rows"),
    ],
    ids=["wrong-size", "five-rows"],
)
def test_lr_triple_oracle_catches_a_shape_outside_the_grid(
    monkeypatch, quick, factors, stray, detail
):
    # such a shape has no tableau of any content gamma in the grid, so the
    # content counts alone would pass it
    _edit_crystal(monkeypatch, factors, lambda counts: counts.update([stray]))
    result = acceptance.criterion_lr_triple_oracle(quick=quick)
    assert not result.passed and result.detail == detail


def test_crystal_axioms_fail_on_the_tensor_power(monkeypatch):
    # f_1 no longer acts on the lone letter 1: phi_1(1) = 0 breaks A2 there,
    # and f_1(e_1(2)) vanishes instead of returning 2
    honest = crystal._signature

    def faulty(w, i):
        return (0, 0, None, None) if (w, i) == ((1,), 1) else honest(w, i)

    monkeypatch.setattr(crystal, "_signature", faulty)
    result = acceptance.criterion_crystal_axioms(quick=True)
    assert not result.passed
    assert result.detail == (
        "violations on full tensor power n=2 k=1: "
        "['A2: phi != <wt,alpha^vee> + eps at (1,), i=1', 'A1: f_1(e_1(2,)) != (2,)']"
    )


def test_crystal_axioms_fail_on_a_tableau_component(monkeypatch):
    # rows read top to bottom: a column a < b reads (a, b), and the three
    # words 1 2, 1 3, 2 3 are not closed under the operators
    def top_to_bottom(t):
        return tuple(x for row in t for x in row)

    monkeypatch.setattr(crystal, "reading_word", top_to_bottom)
    result = acceptance.criterion_crystal_axioms(quick=True)
    assert not result.passed
    assert result.detail == (
        "violations on tableau component (1, 1): ['closure: f_1(1, 2) left the set', "
        "'closure: e_1(1, 2) left the set', 'closure: f_2(2, 3) left the set']"
    )


def test_crystal_axioms_fail_on_a_split_component(monkeypatch):
    # a component search that forgets every operator past i = 1 splits the
    # letters 1, 2, 3 of shape (1,) into {1, 2} and {3}
    def first_operator_only(word, n):
        seen, stack = {word}, [word]
        while stack:
            w = stack.pop()
            for y in (crystal.f(1, w, n), crystal.e(1, w, n)):
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    monkeypatch.setattr(crystal, "connected_component", first_operator_only)
    result = acceptance.criterion_crystal_axioms(quick=True)
    assert not result.passed
    assert result.detail == "row-reading image of (1,) is not one component"


def test_regressions_fail_on_a_top_to_bottom_reading_word(monkeypatch):
    def top_to_bottom(t):
        return tuple(x for row in t for x in row)

    monkeypatch.setattr(tableaux, "reading_word", top_to_bottom)
    result = acceptance.criterion_regressions(quick=True)
    assert not result.passed
    assert result.detail == "structural mismatch against worked examples"


def test_harmonic_spot_fails_one_level_too_deep(monkeypatch):
    # both sides agree at N = 3, but not on the value 45/32 of N = 2
    honest = zeta.verify_pieri_h
    monkeypatch.setattr(
        zeta, "verify_pieri_h", lambda lam, m, assign, n: honest(lam, m, assign, n + 1)
    )
    result = acceptance.criterion_harmonic_spot(quick=True)
    assert not result.passed
    assert result.detail == "lhs=12299/7776 rhs=12299/7776"


@pytest.mark.parametrize(
    "level, detail",
    [
        # N = 4 summed only to 2: the values drop from N = 3 to N = 4
        (lambda n: 2 if n == 4 else n, "truncated values not monotone"),
        # every sum one level too deep: monotone, but 205/144 at N = 3
        (lambda n: n + 1, "level-3 value 205/144 != 49/36"),
    ],
    ids=["not-monotone", "off-by-one"],
)
def test_truncation_check_fails_on_a_wrong_level(monkeypatch, level, detail):
    honest = zeta.eval_zeta_truncated
    monkeypatch.setattr(
        zeta, "eval_zeta_truncated",
        lambda shape, rows, assign, n: honest(shape, rows, assign, level(n)),
    )
    result = acceptance.criterion_monotone_and_limits(quick=True)
    assert not result.passed and result.detail == detail


def test_limit_check_fails_on_a_value_outside_its_estimate(monkeypatch):
    # the limit is 1e-3 off while it reports its honest estimate
    honest = zeta.eval_zeta_limit
    rep = honest((1,), (("a",),), {"a": 2.0}, 1e-13)

    def off(*args):
        found = honest(*args)
        return found._replace(value=found.value + 1e-3)

    monkeypatch.setattr(zeta, "eval_zeta_limit", off)
    result = acceptance.criterion_monotone_and_limits(quick=True)
    err = abs(rep.value + 1e-3 - math.pi**2 / 6)
    assert not result.passed
    assert result.detail == f"limit missed zeta(2) by {err:.2e} (estimate {rep.error_estimate:.2e})"


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize(
    "search, detail",
    [
        # row insertion bumps one entry right of the leftmost greater one:
        # 2 bumps 4 from column 2 of row 1, which row 2 appends in column 3
        ("bisect_right", "row route not weakly left-moving: ((3, 4), (4, 5)) <- 2"),
        # the same fault in column insertion's weak bump on the transpose
        ("bisect_left", "column route not weakly up-moving: 2 -> ((1, 2), (3, 3), (4, 4))"),
    ],
    ids=["row", "column"],
)
def test_random_route_geometry_fails_on_a_shifted_bump(monkeypatch, quick, search, detail):
    honest = getattr(insertion, search)
    monkeypatch.setattr(insertion, search, lambda row, x: min(honest(row, x) + 1, len(row)))
    result = acceptance.criterion_route_geometry(quick=quick)
    assert not result.passed and result.detail == detail
