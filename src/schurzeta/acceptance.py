"""Acceptance grid: the end-to-end checks behind `schurzeta selftest`.

Each criterion runs a fixed verification grid and reports pass/fail with a
one-line detail and its wall-clock time.  quick=True runs a reduced subset
of each grid (for smoke runs; the full grid is the acceptance gate).
Assignments draw seeded values from 1..5, distinct while the pool lasts.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import crystal, insertion, tableaux, zeta
from .partitions import all_partitions, as_partition
from .tableaux import cached_ssyt, enumerate_ssyt, reading_word, shape_of, weight
from .zeta import grid_vars, seq_vars


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def seeded_assignment(names, seed: int, lo: int = 1, hi: int = 5) -> dict:
    rng = random.Random(seed)
    pool: list[int] = []
    while len(pool) < len(names):
        block = list(range(lo, hi + 1))
        rng.shuffle(block)
        pool.extend(block)
    return dict(zip(names, pool))


def _flat(rows):
    return [v for row in rows for v in row]


def _weight_sum(a, b):
    length = max(len(a), len(b))
    a = a + (0,) * (length - len(a))
    b = b + (0,) * (length - len(b))
    return tuple(x + y for x, y in zip(a, b))


PIERI_SHAPES = [(1,), (2,), (1, 1), (2, 1), (2, 2), (3, 1)]


def criterion_pieri_h(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    shapes = [(1,), (2, 1)] if quick else PIERI_SHAPES
    levels = (2,) if quick else (2, 3)
    n_assign = 1 if quick else 3
    checked = 0
    for lam in shapes:
        lam = as_partition(lam)
        for m in (lam[0], lam[0] + 1):
            if len(zeta.h_sym_spec(lam, m).symmetrized) > 6:
                continue
            names = _flat(grid_vars(lam, "s")) + list(seq_vars(m, "t"))
            for k in range(n_assign):
                assign = seeded_assignment(names, seed * 1000 + 10 * k + m)
                for n_trunc in levels:
                    rep = zeta.verify_pieri_h(lam, m, assign, n_trunc)
                    if not rep.equal:
                        return CriterionResult(
                            1, "pieri-h-exact", False,
                            f"mismatch at lam={lam} m={m} N={n_trunc} {assign}: "
                            f"{rep.lhs} != {rep.rhs}",
                            time.perf_counter() - t0,
                        )
                    checked += 1
    return CriterionResult(
        1, "pieri-h-exact", True,
        f"{checked} exact identities", time.perf_counter() - t0,
    )


def criterion_pieri_e(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    shapes = [(1,), (2, 1)] if quick else PIERI_SHAPES
    levels = (2,) if quick else (2, 3)
    n_assign = 1 if quick else 3
    checked = 0
    for lam in shapes:
        lam = as_partition(lam)
        for n in (len(lam), len(lam) + 1):
            if len(zeta.e_sym_spec(lam, n).symmetrized) > 6:
                continue
            names = _flat(grid_vars(lam, "t")) + list(seq_vars(n, "s"))
            for k in range(n_assign):
                assign = seeded_assignment(names, seed * 1000 + 10 * k + n)
                for n_trunc in levels:
                    rep = zeta.verify_pieri_e(lam, n, assign, n_trunc)
                    if not rep.equal:
                        return CriterionResult(
                            2, "pieri-e-exact", False,
                            f"mismatch at lam={lam} n={n} N={n_trunc}: "
                            f"{rep.lhs} != {rep.rhs}",
                            time.perf_counter() - t0,
                        )
                    checked += 1
    return CriterionResult(
        2, "pieri-e-exact", True,
        f"{checked} exact identities", time.perf_counter() - t0,
    )


def criterion_lr(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    max_total = 3 if quick else 5
    levels = (2,) if quick else (2, 3)
    n_assign = 1 if quick else 2
    checked = 0
    for total in range(2, max_total + 1):
        for a in range(1, total):
            for mu in all_partitions(a):
                for nu in all_partitions(total - a):
                    names = _flat(grid_vars(mu, "s")) + _flat(grid_vars(nu, "t"))
                    for k in range(n_assign):
                        assign = seeded_assignment(names, seed * 1000 + 7 * k + total)
                        for n_trunc in levels:
                            r0 = zeta.verify_lr(mu, nu, assign, n_trunc, variant=0)
                            r1 = zeta.verify_lr(mu, nu, assign, n_trunc, variant=1)
                            if not (r0.equal and r1.equal and r0.rhs == r1.rhs):
                                return CriterionResult(
                                    3, "lr-exact", False,
                                    f"mismatch at mu={mu} nu={nu} N={n_trunc}: "
                                    f"{r0} vs {r1}",
                                    time.perf_counter() - t0,
                                )
                            checked += 1
    return CriterionResult(
        3, "lr-exact", True,
        f"{checked} identities, two fillings each", time.perf_counter() - t0,
    )


def criterion_lr_triple_oracle(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    max_size = 2 if quick else 4
    n = 4
    checked = 0
    spot = None
    for a in range(1, max_size + 1):
        for b in range(1, max_size + 1):
            for mu in all_partitions(a, max_length=n):
                for nu in all_partitions(b, max_length=n):
                    counts = crystal.decompose_product(mu, nu, n)
                    fibers: dict = {}
                    rights = [
                        (right, reading_word(right), weight(right))
                        for right in cached_ssyt(nu, n)
                    ]
                    for left in cached_ssyt(mu, n):
                        left_weight = weight(left)
                        for right, rw, right_weight in rights:
                            # cached_ssyt tableaux and their words need no
                            # re-validation before insertion
                            res, _ = insertion._row_fold(left, rw)
                            # content identity behind the bijection
                            if weight(res) != _weight_sum(left_weight, right_weight):
                                return CriterionResult(
                                    4, "lr-triple-oracle", False,
                                    f"content not preserved at {left},{right}",
                                    time.perf_counter() - t0,
                                )
                            lam = shape_of(res)
                            fibers[lam] = fibers.get(lam, 0) + 1
                    for lam in all_partitions(a + b, max_length=n):
                        c = tableaux.lr_coefficient(mu, nu, lam)
                        if counts.get(lam, 0) != c:
                            return CriterionResult(
                                4, "lr-triple-oracle", False,
                                f"crystal multiplicity != Yamanouchi count at "
                                f"{mu},{nu},{lam}: {counts.get(lam, 0)} != {c}",
                                time.perf_counter() - t0,
                            )
                        size = len(cached_ssyt(lam, n))
                        if fibers.get(lam, 0) != c * size:
                            return CriterionResult(
                                4, "lr-triple-oracle", False,
                                f"insertion fiber != c * |B_lam| at {mu},{nu},{lam}",
                                time.perf_counter() - t0,
                            )
                        if (mu, nu, lam) == ((2, 1), (2, 1), (3, 2, 1)):
                            spot = c
                        checked += 1
    if not quick and spot != 2:
        return CriterionResult(
            4, "lr-triple-oracle", False,
            f"c_(21),(21)^(321) = {spot}, expected 2", time.perf_counter() - t0,
        )
    return CriterionResult(
        4, "lr-triple-oracle", True,
        f"{checked} coefficients agree across three routes",
        time.perf_counter() - t0,
    )


def criterion_crystal_axioms(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
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
                return CriterionResult(
                    5, "crystal-axioms", False,
                    f"violations on full tensor power n={n} k={k}: {bad[:3]}",
                    time.perf_counter() - t0,
                )
            cases += 1
    max_shape = 3 if quick else 4
    for size in range(1, max_shape + 1):
        for lam in all_partitions(size, max_length=3):
            image = {crystal.rr(t, 3) for t in enumerate_ssyt(lam, 3)}
            bad = crystal.verify_crystal_axioms(image, 3)
            if bad:
                return CriterionResult(
                    5, "crystal-axioms", False,
                    f"violations on tableau component {lam}: {bad[:3]}",
                    time.perf_counter() - t0,
                )
            component = crystal.connected_component(next(iter(image)), 3)
            if image != component:
                return CriterionResult(
                    5, "crystal-axioms", False,
                    f"row-reading image of {lam} is not one component",
                    time.perf_counter() - t0,
                )
            cases += 1
    return CriterionResult(
        5, "crystal-axioms", True,
        f"{cases} closed sets pass A1/A2/seminormality",
        time.perf_counter() - t0,
    )


def criterion_regressions(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
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
    return CriterionResult(
        6, "worked-example-regressions", ok,
        "reading word, row reading, pushed fillings byte-exact"
        if ok else "structural mismatch against worked examples",
        time.perf_counter() - t0,
    )


def criterion_harmonic_spot(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    rep = zeta.verify_pieri_h((1,), 1, {"s_1_1": 2, "t_1": 3}, 2)
    ok = rep.equal and rep.lhs == Fraction(45, 32) and rep.rhs == Fraction(45, 32)
    return CriterionResult(
        7, "harmonic-product-spot", ok,
        f"lhs={rep.lhs} rhs={rep.rhs}", time.perf_counter() - t0,
    )


def criterion_monotone_and_limits(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    rows = (("a",),)
    vals = [zeta.eval_zeta_truncated((1,), rows, {"a": 2}, n) for n in range(1, 9)]
    if any(b < a for a, b in zip(vals, vals[1:])):
        return CriterionResult(
            8, "truncation-monotone-limits", False,
            "truncated values not monotone", time.perf_counter() - t0,
        )
    if vals[2] != Fraction(49, 36):
        return CriterionResult(
            8, "truncation-monotone-limits", False,
            f"level-3 value {vals[2]} != 49/36", time.perf_counter() - t0,
        )
    rep = zeta.eval_zeta_limit((1,), rows, {"a": 2.0}, 1e-13)
    err1 = abs(rep.value - math.pi**2 / 6)
    if not (rep.converged and err1 < 1e-6 and err1 <= rep.error_estimate):
        return CriterionResult(
            8, "truncation-monotone-limits", False,
            f"limit missed zeta(2) by {err1:.2e} (estimate "
            f"{rep.error_estimate:.2e})", time.perf_counter() - t0,
        )
    detail = (
        f"monotone, 49/36 exact, zeta(2) within {err1:.1e} "
        f"(estimate {rep.error_estimate:.1e})"
    )
    if not quick:
        rep2 = zeta.eval_zeta_limit(
            (1, 1), (("a",), ("b",)), {"a": 1.0, "b": 2.0}, 1e-14
        )
        zeta3 = 1.2020569031595942854
        err2 = abs(rep2.value - zeta3)
        if not (rep2.converged and err2 < 1e-6 and err2 <= rep2.error_estimate):
            return CriterionResult(
                8, "truncation-monotone-limits", False,
                f"limit missed zeta(3) by {err2:.2e} (estimate "
                f"{rep2.error_estimate:.2e})", time.perf_counter() - t0,
            )
        detail += (
            f", zeta(3) within {err2:.1e} (estimate "
            f"{rep2.error_estimate:.1e}) at level {rep2.levels}"
        )
    return CriterionResult(
        8, "truncation-monotone-limits", True, detail, time.perf_counter() - t0
    )


def _route_cols(route):
    return [c for _, c in route]


def _route_rows(route):
    return [r for r, _ in route]


def criterion_route_geometry(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    rng = random.Random(seed)
    trials = 200 if quick else 1000
    shapes = [p for size in range(0, 7) for p in all_partitions(size, max_length=4)]
    for _ in range(trials):
        lam = rng.choice(shapes)
        n = rng.randint(max(2, len(lam)), 5)
        tabs = cached_ssyt(lam, n)
        t = rng.choice(tabs)
        x = rng.randint(1, n)
        cols = _route_cols(insertion.row_insert(t, x).route)
        if any(b > a for a, b in zip(cols, cols[1:])):
            return CriterionResult(
                9, "bumping-route-geometry", False,
                f"row route not weakly left-moving: {t} <- {x}",
                time.perf_counter() - t0,
            )
        rws = _route_rows(insertion.column_insert(x, t).route)
        if any(b > a for a, b in zip(rws, rws[1:])):
            return CriterionResult(
                9, "bumping-route-geometry", False,
                f"column route not weakly up-moving: {x} -> {t}",
                time.perf_counter() - t0,
            )
    # successive routes in the strip insertions: each route weakly shorter,
    # strictly right (rows) resp. strictly below (columns) of its predecessor
    pieri = [(1,), (2,), (1, 1), (2, 1)] if not quick else [(1,), (2, 1)]
    pairs = 0
    for lam in pieri:
        for m in (1, 2, 3):
            for left in cached_ssyt(lam, 3):
                for right in cached_ssyt((m,), 3):
                    _, routes = insertion.row_insert_word(left, reading_word(right))
                    for r_prev, r_next in zip(routes, routes[1:]):
                        if len(r_next) > len(r_prev) or any(
                            r_prev[k][1] >= r_next[k][1] for k in range(len(r_next))
                        ):
                            return CriterionResult(
                                9, "bumping-route-geometry", False,
                                f"routes not strictly right-moving: {left}, {right}",
                                time.perf_counter() - t0,
                            )
                        pairs += 1
        for n in (1, 2, 3):
            for left in cached_ssyt((1,) * n, 4):
                for right in cached_ssyt(lam, 4):
                    _, routes = insertion.column_insert_word(
                        insertion.column_word(left), right
                    )
                    for r_prev, r_next in zip(routes, routes[1:]):
                        if len(r_next) > len(r_prev) or any(
                            r_prev[k][0] >= r_next[k][0] for k in range(len(r_next))
                        ):
                            return CriterionResult(
                                9, "bumping-route-geometry", False,
                                f"routes not strictly down-moving: {left}, {right}",
                                time.perf_counter() - t0,
                            )
                        pairs += 1
    return CriterionResult(
        9, "bumping-route-geometry", True,
        f"{trials} random insertions, {pairs} successive-route pairs",
        time.perf_counter() - t0,
    )


def criterion_insertion_term_sweep(quick: bool = False, seed: int = 0) -> CriterionResult:
    t0 = time.perf_counter()
    checked = 0
    lam, m = (2, 1), 2
    h_names = _flat(grid_vars(lam, "s")) + list(seq_vars(m, "t"))
    h_assign = {v: i + 1 for i, v in enumerate(h_names)}
    lefts = cached_ssyt(lam, 3)
    rights = cached_ssyt((m,), 3)
    step = 4 if quick else 1
    for left in lefts[::step]:
        for right in rights[::step]:
            rep = zeta.verify_insertion_term(left, right, lam, m, "h", h_assign)
            if not rep.equal:
                return CriterionResult(
                    10, "insertion-term-sweep", False,
                    f"h-mode mismatch at {left}, {right}: {rep.lhs} != {rep.rhs}",
                    time.perf_counter() - t0,
                )
            checked += 1
    lam, n = (2,), 2
    e_names = _flat(grid_vars(lam, "t")) + list(seq_vars(n, "s"))
    e_assign = {v: i + 1 for i, v in enumerate(e_names)}
    for left in cached_ssyt((1, 1), 3)[::step]:
        for right in cached_ssyt(lam, 3)[::step]:
            rep = zeta.verify_insertion_term(left, right, lam, n, "e", e_assign)
            if not rep.equal:
                return CriterionResult(
                    10, "insertion-term-sweep", False,
                    f"e-mode mismatch at {left}, {right}: {rep.lhs} != {rep.rhs}",
                    time.perf_counter() - t0,
                )
            checked += 1
    return CriterionResult(
        10, "insertion-term-sweep", True,
        f"{checked} tableau pairs, exact term equality",
        time.perf_counter() - t0,
    )


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
