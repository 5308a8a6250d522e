"""Acceptance grid: the end-to-end checks behind `schurzeta selftest`.

Each criterion runs a fixed verification grid and reports pass/fail with a
one-line detail and its wall-clock time.  quick=True runs a reduced subset
of each grid (for smoke runs; the full grid is the acceptance gate).
Assignments draw seeded values from 1..5, distinct while the pool lasts.
"""

import functools
import math
import random
import time
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import crystal, insertion, tableaux, zeta
from .partitions import all_partitions, as_partition, contains
from .tableaux import cached_ssyt, enumerate_ssyt, reading_word, shape_of
from .zeta import grid_vars, seq_vars


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


VALUES = range(1, 6)


def seeded_assignment(names, seed: int) -> dict:
    rng = random.Random(seed)
    pool: list[int] = []
    while len(pool) < len(names):
        block = list(VALUES)
        rng.shuffle(block)
        pool.extend(block)
    return dict(zip(names, pool))


class _Fail(Exception):
    """Raised by a criterion body; its message is the failure detail."""


def _criterion(number: int, name: str):
    """Make a criterion from a body that returns its pass detail or raises
    _Fail(detail), timing the body.  Any other exception propagates, so a
    crash never reads as a failed identity."""

    def wrap(body):
        @functools.wraps(body)
        def run(quick: bool = False, seed: int = 0) -> CriterionResult:
            t0 = time.perf_counter()
            try:
                passed, detail = True, body(quick=quick, seed=seed)
            except _Fail as exc:
                passed, detail = False, str(exc)
            return CriterionResult(
                number, name, passed, detail, time.perf_counter() - t0
            )

        return run

    return wrap


PIERI_SHAPES = [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]


def _pieri_grid(quick, seed, mode) -> str:
    """One Pieri identity grid, mode "h" (row strips of size m) or "e"
    (column strips of size n): every shape, the two strip sizes from the
    shape's side along the strip, seeded assignments of the identity's
    variables, and each truncation level."""
    verify = zeta.verify_pieri_h if mode == "h" else zeta.verify_pieri_e
    label = "m" if mode == "h" else "n"
    shapes = [(1,), (2, 1)] if quick else PIERI_SHAPES
    levels = (2,) if quick else (2, 3)
    n_assign = 1 if quick else 3
    checked = 0
    for lam in shapes:
        lam = as_partition(lam)
        side = lam[0] if mode == "h" else len(lam)
        for size in (side, side + 1):
            names = zeta._pieri_setup(lam, size, mode).lhs.names
            for k in range(n_assign):
                assign = seeded_assignment(names, seed * 1000 + 10 * k + size)
                for n_trunc in levels:
                    rep = verify(lam, size, assign, n_trunc)
                    if not rep.equal:
                        raise _Fail(
                            f"mismatch at lam={lam} {label}={size} N={n_trunc} "
                            f"{assign}: {rep.lhs} != {rep.rhs}"
                        )
                    checked += 1
    return f"{checked} exact identities"


@_criterion(1, "pieri-h-exact")
def criterion_pieri_h(quick: bool = False, seed: int = 0):
    return _pieri_grid(quick, seed, "h")


@_criterion(2, "pieri-e-exact")
def criterion_pieri_e(quick: bool = False, seed: int = 0):
    return _pieri_grid(quick, seed, "e")


@_criterion(3, "lr-exact")
def criterion_lr(quick: bool = False, seed: int = 0):
    max_total = 3 if quick else 5
    levels = (2,) if quick else (2, 3)
    n_assign = 1 if quick else 2
    checked = 0
    for total in range(2, max_total + 1):
        for a in range(1, total):
            for mu in all_partitions(a):
                for nu in all_partitions(total - a):
                    names = zeta._lr_setup(mu, nu).lhs.names
                    for k in range(n_assign):
                        assign = seeded_assignment(names, seed * 1000 + 7 * k + total)
                        for n_trunc in levels:
                            rep = zeta.verify_lr(mu, nu, assign, n_trunc)
                            if not rep.equal:
                                raise _Fail(
                                    f"mismatch at mu={mu} nu={nu} N={n_trunc}: "
                                    f"{rep.lhs} != {rep.rhs}"
                                )
                            checked += 1
    return f"{checked} exact identities"


@_criterion(4, "lr-triple-oracle")
def criterion_lr_triple_oracle(quick: bool = False, seed: int = 0):
    max_size = 2 if quick else 4
    n = 4
    shapes = [
        p for a in range(1, max_size + 1) for p in all_partitions(a, max_length=n)
    ]
    # exact content key: the sum of base**v over the cells, where base
    # exceeds every entry count, since a product has at most 2 * max_size cells
    base = 2 * max_size + 1

    def content(t):
        return sum([base**v for row in t for v in row])

    # every right factor of every shape, sorted by reading word so that the
    # fold inserts each shared prefix once; cached_ssyt tableaux and their
    # words need no re-validation before insertion
    rights = sorted(
        (reading_word(right), nu, right)
        for nu in shapes
        for right in cached_ssyt(nu, n)
    )
    words = [rw for rw, _, _ in rights]
    shared = insertion._shared_prefixes(words)
    right_contents = [content(right) for _, _, right in rights]
    bumps_per_left = sum(len(w) - k for w, k in zip(words, shared))
    fibers = {(mu, nu): {} for mu in shapes for nu in shapes}
    pairs = bumps = 0
    for mu in shapes:
        bins = [fibers[mu, nu] for _, nu, _ in rights]
        for left in cached_ssyt(mu, n):
            left_content = content(left)
            results = insertion._prefix_fold(left, words, shared)
            for res, fiber, right_content, (_, _, right) in zip(
                results, bins, right_contents, rights
            ):
                # content identity behind the bijection
                if content(res) != left_content + right_content:
                    raise _Fail(f"content not preserved at {left},{right}")
                lam = shape_of(res)
                fiber[lam] = fiber.get(lam, 0) + 1
            pairs += len(results)
            bumps += bumps_per_left
    # the Yamanouchi route: one lattice-pruned filling of each skew shape
    # lam/mu, counted by weight; lam/mu is no skew shape when mu is not
    # inside lam, and every coefficient there is 0
    yamanouchi = {
        (mu, lam): tableaux.lr_fillings(lam, mu)
        for mu in shapes
        for b in range(1, max_size + 1)
        for lam in all_partitions(sum(mu) + b, max_length=n)
        if contains(lam, mu)
    }
    outside = Counter()
    checked = 0
    spot = None
    for a in range(1, max_size + 1):
        for b in range(1, max_size + 1):
            for mu in all_partitions(a, max_length=n):
                for nu in all_partitions(b, max_length=n):
                    counts = crystal.decompose_product(mu, nu, n)
                    fiber = fibers[mu, nu]
                    for lam in all_partitions(a + b, max_length=n):
                        c = yamanouchi.get((mu, lam), outside)[nu]
                        if counts.get(lam, 0) != c:
                            raise _Fail(
                                f"crystal multiplicity != Yamanouchi count at "
                                f"{mu},{nu},{lam}: {counts.get(lam, 0)} != {c}"
                            )
                        size = len(cached_ssyt(lam, n))
                        if fiber.get(lam, 0) != c * size:
                            raise _Fail(
                                f"insertion fiber != c * |B_lam| at {mu},{nu},{lam}"
                            )
                        if (mu, nu, lam) == ((2, 1), (2, 1), (3, 2, 1)):
                            spot = c
                        checked += 1
    if not quick and spot != 2:
        raise _Fail(f"c_(21),(21)^(321) = {spot}, expected 2")
    return (
        f"{checked} coefficients agree across three routes "
        f"({pairs} pairs, {bumps} bumps)"
    )


@_criterion(5, "crystal-axioms")
def criterion_crystal_axioms(quick: bool = False, seed: int = 0):
    max_n = 3 if quick else 4
    max_k = 3 if quick else 4
    cases = 0
    for n in range(1, max_n + 1):
        words = [(x,) for x in range(1, n + 1)]
        for k in range(1, max_k + 1):
            if k > 1:
                words = [w + (x,) for w in words for x in range(1, n + 1)]
            bad = crystal.verify_crystal_axioms(words, n)
            if bad:
                raise _Fail(f"violations on full tensor power n={n} k={k}: {bad[:3]}")
            cases += 1
    max_shape = 3 if quick else 4
    for size in range(1, max_shape + 1):
        for lam in all_partitions(size, max_length=3):
            image = {crystal.rr(t, 3) for t in enumerate_ssyt(lam, 3)}
            bad = crystal.verify_crystal_axioms(image, 3)
            if bad:
                raise _Fail(f"violations on tableau component {lam}: {bad[:3]}")
            component = crystal.connected_component(next(iter(image)), 3)
            if image != component:
                raise _Fail(f"row-reading image of {lam} is not one component")
            cases += 1
    return f"{cases} closed sets pass A1/A2/seminormality"


@_criterion(6, "worked-example-regressions")
def criterion_regressions(quick: bool = False, seed: int = 0):
    skew = tableaux.SkewTableau((5, 3, 1), (1,), ((1, 1, 2, 3), (2, 2, 3), (3,)))
    ok = tableaux.reading_word(skew) == (3, 2, 2, 3, 1, 1, 2, 3)
    ok &= crystal.rr(((1, 1, 2), (2, 3), (4,)), 4) == (4, 2, 3, 1, 1, 2)
    uj = zeta.horizontal_push_filling(
        (3, 2, 1, 1), grid_vars((3, 2, 1, 1), "s"), seq_vars(3, "t"), (1, 3, 4)
    )
    ok &= uj == (
        ("t_1", "s_1_2", "t_2", "t_3"),
        ("s_1_1", "s_2_2", "s_1_3"),
        ("s_2_1",),
        ("s_3_1",),
        ("s_4_1",),
    )
    uk = zeta.vertical_push_filling(
        (3, 2, 1, 1), seq_vars(4, "s"), grid_vars((3, 2, 1, 1), "t"), (1, 3, 5, 6)
    )
    ok &= uk == (
        ("s_1", "t_1_1", "t_1_2", "t_1_3"),
        ("t_2_1", "t_2_2"),
        ("s_2", "t_3_1"),
        ("t_4_1",),
        ("s_3",),
        ("s_4",),
    )
    if not ok:
        raise _Fail("structural mismatch against worked examples")
    return "reading word, row reading, pushed fillings byte-exact"


@_criterion(7, "harmonic-product-spot")
def criterion_harmonic_spot(quick: bool = False, seed: int = 0):
    rep = zeta.verify_pieri_h((1,), 1, {"s_1_1": 2, "t_1": 3}, 2)
    detail = f"lhs={rep.lhs} rhs={rep.rhs}"
    if not (rep.equal and rep.lhs == Fraction(45, 32) and rep.rhs == Fraction(45, 32)):
        raise _Fail(detail)
    return detail


def _limit_check(label: str, rep, ref: float) -> float:
    """The limit's error against ref; fails unless the evaluator converged
    within 1e-6 and its error estimate covers the error."""
    err = abs(rep.value - ref)
    if not (rep.converged and err < 1e-6 and err <= rep.error_estimate):
        raise _Fail(
            f"limit missed {label} by {err:.2e} (estimate "
            f"{rep.error_estimate:.2e})"
        )
    return err


@_criterion(8, "truncation-monotone-limits")
def criterion_monotone_and_limits(quick: bool = False, seed: int = 0):
    rows = (("a",),)
    vals = [zeta.eval_zeta_truncated((1,), rows, {"a": 2}, n) for n in range(1, 9)]
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise _Fail("truncated values not monotone")
    if vals[2] != Fraction(49, 36):
        raise _Fail(f"level-3 value {vals[2]} != 49/36")
    rep = zeta.eval_zeta_limit((1,), rows, {"a": 2.0}, 1e-13)
    err1 = _limit_check("zeta(2)", rep, math.pi**2 / 6)
    detail = (
        f"monotone, 49/36 exact, zeta(2) within {err1:.1e} "
        f"(estimate {rep.error_estimate:.1e})"
    )
    if not quick:
        rep2 = zeta.eval_zeta_limit(
            (1, 1), (("a",), ("b",)), {"a": 1.0, "b": 2.0}, 1e-14
        )
        err2 = _limit_check("zeta(3)", rep2, 1.2020569031595942854)
        detail += (
            f", zeta(3) within {err2:.1e} (estimate "
            f"{rep2.error_estimate:.1e}) at level {rep2.levels}"
        )
    return detail


@_criterion(9, "bumping-route-geometry")
def criterion_route_geometry(quick: bool = False, seed: int = 0):
    rng = random.Random(seed)
    trials = 200 if quick else 1000
    shapes = [p for size in range(0, 7) for p in all_partitions(size, max_length=4)]
    for _ in range(trials):
        lam = rng.choice(shapes)
        n = rng.randint(max(2, len(lam)), 5)
        tabs = cached_ssyt(lam, n)
        t = rng.choice(tabs)
        x = rng.randint(1, n)
        cols = [c for _, c in insertion.row_insert(t, x).route]
        if any(b > a for a, b in zip(cols, cols[1:])):
            raise _Fail(f"row route not weakly left-moving: {t} <- {x}")
        rws = [r for r, _ in insertion.column_insert(x, t).route]
        if any(b > a for a, b in zip(rws, rws[1:])):
            raise _Fail(f"column route not weakly up-moving: {x} -> {t}")
    # successive routes in the strip insertions: each route weakly shorter,
    # strictly right (rows) resp. strictly below (columns) of its predecessor
    def row_routes(left, right):
        return insertion.row_insert_word(left, reading_word(right))[1]

    def column_routes(left, right):
        return insertion.column_insert_word(insertion.column_word(left), right)[1]

    pieri = [(1,), (2,), (1, 1), (2, 1)] if not quick else [(1,), (2, 1)]
    pairs = 0
    for lam in pieri:
        # (left shape, right shape, n, route axis, direction, routes)
        runs = [(lam, (m,), 3, 1, "right", row_routes) for m in (1, 2, 3)]
        runs += [((1,) * h, lam, 4, 0, "down", column_routes) for h in (1, 2, 3)]
        for left_shape, right_shape, n, axis, way, routes_of in runs:
            for left in cached_ssyt(left_shape, n):
                for right in cached_ssyt(right_shape, n):
                    routes = routes_of(left, right)
                    for r_prev, r_next in zip(routes, routes[1:]):
                        if len(r_next) > len(r_prev) or any(
                            r_prev[k][axis] >= r_next[k][axis]
                            for k in range(len(r_next))
                        ):
                            raise _Fail(
                                f"routes not strictly {way}-moving: {left}, {right}"
                            )
                        pairs += 1
    return f"{trials} random insertions, {pairs} successive-route pairs"


@_criterion(10, "insertion-term-sweep")
def criterion_insertion_term_sweep(quick: bool = False, seed: int = 0):
    step = 4 if quick else 1
    checked = 0
    # (mode, lam, strip size, left shape, right shape)
    sweeps = (("h", (2, 1), 2, (2, 1), (2,)), ("e", (2,), 2, (1, 1), (2,)))
    for mode, lam, size, left_shape, right_shape in sweeps:
        for left in cached_ssyt(left_shape, 3)[::step]:
            for right in cached_ssyt(right_shape, 3)[::step]:
                rep = zeta.verify_insertion_term(left, right, lam, size, mode)
                if not rep.equal:
                    raise _Fail(f"{mode}-mode mismatch at {left}, {right}: {rep.reason}")
                checked += 1
    return f"{checked} tableau pairs, each term equal for every exponent"


CRITERIA = [
    criterion_pieri_h,
    criterion_pieri_e,
    criterion_lr,
    criterion_lr_triple_oracle,
    criterion_crystal_axioms,
    criterion_regressions,
    criterion_harmonic_spot,
    criterion_monotone_and_limits,
    criterion_route_geometry,
    criterion_insertion_term_sweep,
]


def run_all(quick: bool = False, seed: int = 0) -> list[CriterionResult]:
    return [fn(quick=quick, seed=seed) for fn in CRITERIA]
