"""Acceptance gate: every criterion at its full grid and stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the one-line
pass/fail report per criterion, or `schurzeta selftest` for the same grid
through the CLI.
"""

import random
from bisect import bisect_left
from dataclasses import replace

import pytest

from schurzeta import acceptance, cli, crystal, insertion, tableaux, zeta
from schurzeta.partitions import all_partitions

CACHES = (
    tableaux.cached_ssyt,
    zeta._strip_graph,
    zeta._walk_graph,
    zeta._count_layers,
    zeta._product_sum,
    zeta._pieri_setup,
    zeta._lr_setup,
    zeta._pieri_plans,
    zeta._lr_plans,
)


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
    for fn in CACHES:
        fn.cache_clear()
    results = acceptance.run_all(quick=False, seed=0)
    assert all(r.passed for r in results)
    by_number = {r.number: r for r in results}
    assert by_number[1].seconds < 60
    assert by_number[2].seconds < 60
    assert by_number[3].seconds < 120
    assert by_number[4].seconds < 20


def test_lr_triple_oracle_fails_on_weak_row_bump(monkeypatch):
    # bumping the leftmost entry >= x moves equal entries down a row
    assert acceptance.criterion_lr_triple_oracle(quick=True).passed
    monkeypatch.setattr(insertion, "bisect_right", bisect_left)
    result = acceptance.criterion_lr_triple_oracle(quick=True)
    assert not result.passed and "insertion fiber" in result.detail


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


def test_lr_triple_oracle_fails_on_miscounted_filling(monkeypatch):
    # one extra Yamanouchi filling of (2, 1)/(1,) of weight (1, 1)
    honest = tableaux.lr_fillings

    def faulty(outer, inner):
        out = honest(outer, inner)
        if (outer, inner) == ((2, 1), (1,)):
            out[1, 1] += 1
        return out

    monkeypatch.setattr(tableaux, "lr_fillings", faulty)
    result = acceptance.criterion_lr_triple_oracle(quick=True)
    assert not result.passed
    assert result.detail.startswith(
        "crystal multiplicity != Yamanouchi count at (1,),(1, 1),(2, 1): 1 != 2"
    )


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
        return replace(honest(*args, **kwargs), equal=False)

    monkeypatch.setattr(zeta, verifier, unequal)
    result = criterion(quick=True)
    assert not result.passed and where(calls[0]) in result.detail
    assert len(calls) <= 2  # the first identity (both LR fillings) fails


def test_crash_in_a_criterion_is_not_a_failed_identity(monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(zeta, "verify_pieri_h", crash)
    with pytest.raises(ZeroDivisionError):
        acceptance.criterion_pieri_h(quick=True)
    assert cli.main(["selftest", "--quick"]) == 3
    assert "internal: ZeroDivisionError" in capsys.readouterr().err


def test_unchecked_row_fold_matches_row_insert_word():
    n = 4
    for a in (1, 2):
        for b in (1, 2):
            for mu in all_partitions(a, max_length=n):
                for nu in all_partitions(b, max_length=n):
                    for left in tableaux.cached_ssyt(mu, n):
                        for right in tableaux.cached_ssyt(nu, n):
                            rw = tableaux.reading_word(right)
                            assert insertion._row_fold(left, rw) == (
                                insertion.row_insert_word(left, rw)
                            )


def test_shared_prefixes_are_measured_against_the_previous_word():
    words = [(1, 2), (1, 2, 3), (1,), (2,), (), (2, 1)]
    assert insertion._shared_prefixes(words) == [0, 2, 1, 0, 0, 0]


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_prefix_fold_matches_row_insert_word(order):
    # right factors of sizes 1..3 mixed, so that some reading words are
    # prefixes of others
    n = 4
    shapes = [p for a in (1, 2, 3) for p in all_partitions(a, max_length=n)]
    words = sorted(
        tableaux.reading_word(right)
        for nu in shapes
        for right in tableaux.cached_ssyt(nu, n)
    )
    if order == "shuffled":
        random.Random(0).shuffle(words)
    assert any(w[: len(v)] == v for v in words for w in words if len(v) < len(w))
    shared = insertion._shared_prefixes(words)
    for mu in shapes:
        for left in tableaux.cached_ssyt(mu, n):
            assert insertion._prefix_fold(left, words, shared) == [
                insertion.row_insert_word(left, w)[0] for w in words
            ]


def test_lr_triple_oracle_fails_on_lost_content(monkeypatch):
    # one folded result has an entry raised by one: same shape, new content
    honest = insertion._prefix_fold
    corrupted = []

    def faulty(t, words, shared):
        results = honest(t, words, shared)
        if not corrupted:
            (first, *rest) = results[1]
            results[1] = ((*first[:-1], first[-1] + 1), *rest)
            corrupted.append((t, insertion.row_insert_word((), words[1])[0]))
        return results

    monkeypatch.setattr(insertion, "_prefix_fold", faulty)
    result = acceptance.criterion_lr_triple_oracle(quick=True)
    left, right = corrupted[0]
    assert not result.passed
    assert result.detail == f"content not preserved at {left},{right}"
