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
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from . import crystal, insertion, tableaux, zeta
from .partitions import all_partitions
from .tableaux import cached_ssyt, enumerate_ssyt, transpose
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


def _anchor() -> None:
    """Fail unless one truncated zeta value of the level engine equals the
    sum of its monomials over the tableaux.  Both sides of an identity run
    through the engine, so an engine that loses the same tableaux on both
    passes every identity; this value does not."""
    shape, n_trunc = (2, 1), 2
    rows = grid_vars(shape, "s")
    assign = {"s_1_1": 1, "s_1_2": 2, "s_2_1": 3}
    engine = zeta.eval_zeta_truncated(shape, rows, assign, n_trunc)
    brute = sum(zeta.monomial(t, rows, assign) for t in cached_ssyt(shape, n_trunc))
    if engine != brute:
        raise _Fail(f"zeta{shape} at N={n_trunc} {assign}: level engine {engine} != tableau sum {brute}")


def _identity_grid(cases, quick: bool) -> str:
    """Check each case (where, names, seeds, verifier, args): the zeta
    verifier of that name, looked up as it runs, called as verifier(*args,
    assign, N) at the seeded assignment of names for each seed and each
    truncation level N; fail at the first mismatch.  The engine's absolute
    anchor (_anchor) is checked first."""
    _anchor()
    checked = 0
    for where, names, seeds, verifier, args in cases:
        for s in seeds:
            assign = seeded_assignment(names, s)
            for n_trunc in (2,) if quick else (2, 3):
                rep = getattr(zeta, verifier)(*args, assign, n_trunc)
                if not rep.equal:
                    raise _Fail(f"mismatch at {where} N={n_trunc} {assign}: {rep.lhs} != {rep.rhs}")
                checked += 1
    return f"{checked} exact identities"


def _pieri_cases(quick, seed, mode):
    """The cases of one Pieri identity grid, mode "h" (row strips of size
    m) or "e" (column strips of size n): every shape, the two strip sizes
    from the shape's side along the strip, and seeded assignments of the
    identity's variables."""
    label = "m" if mode == "h" else "n"
    for lam in [(1,), (2, 1)] if quick else PIERI_SHAPES:
        side = lam[0] if mode == "h" else len(lam)
        for size in (side, side + 1):
            names = zeta._pieri_setup(lam, size, mode).lhs.names
            seeds = [seed * 1000 + 10 * k + size for k in range(1 if quick else 3)]
            yield f"lam={lam} {label}={size}", names, seeds, f"verify_pieri_{mode}", (lam, size)


@_criterion(1, "pieri-h-exact")
def criterion_pieri_h(quick: bool = False, seed: int = 0):
    return _identity_grid(_pieri_cases(quick, seed, "h"), quick)


@_criterion(2, "pieri-e-exact")
def criterion_pieri_e(quick: bool = False, seed: int = 0):
    return _identity_grid(_pieri_cases(quick, seed, "e"), quick)


@_criterion(3, "lr-exact")
def criterion_lr(quick: bool = False, seed: int = 0):
    cases = (
        (f"mu={mu} nu={nu}", zeta._lr_setup(mu, nu).lhs.names,
         [seed * 1000 + 7 * k + total for k in range(1 if quick else 2)], "verify_lr", (mu, nu))
        for total in range(2, (3 if quick else 5) + 1)
        for a in range(1, total)
        for mu in all_partitions(a)
        for nu in all_partitions(total - a)
    )
    return _identity_grid(cases, quick)


@_criterion(4, "lr-triple-oracle")
def criterion_lr_triple_oracle(quick: bool = False, seed: int = 0):
    max_size = 2 if quick else 4
    n = 4
    shapes = [
        p for a in range(1, max_size + 1) for p in all_partitions(a, max_length=n)
    ]
    # the content route: the tableaux of each shape counted by content, a
    # composition alpha of |mu| into n parts; K(mu, sort alpha) of them,
    # nonzero counts only.  A content is keyed by the sum of
    # alpha_i * base**i, where base exceeds every entry count: a key minus
    # the key of alpha is the key of the difference when that has no
    # negative entry, and no content's key otherwise
    base = 2 * max_size + 1

    def key(alpha):
        return sum([x * base**i for i, x in enumerate(alpha)])

    weights = {}
    for mu in shapes:
        by_key = weights[mu] = {}
        for gamma in all_partitions(sum(mu), max_length=n):
            k = tableaux.kostka(mu, gamma)
            if k:
                padded = gamma + (0,) * (n - len(gamma))
                by_key.update(dict.fromkeys(map(key, permutations(padded)), k))
    checked = 0
    products = 0
    spot = None
    for a in range(1, max_size + 1):
        for b in range(1, max_size + 1):
            lams = all_partitions(a + b, max_length=n)
            for mu in all_partitions(a, max_length=n):
                for nu in all_partitions(b, max_length=n):
                    counts = crystal.decompose_product(mu, nu, n)
                    # a shape outside lams has K = 0 at every gamma in lams,
                    # so the content counts cannot see it
                    stray = sorted(counts.keys() - lams)
                    if stray:
                        raise _Fail(
                            f"crystal shape {stray[0]} at {mu},{nu} is not a "
                            f"partition of {a + b} with at most {n} rows"
                        )
                    # s_mu * s_nu = sum of c_lam * s_lam at each content
                    # gamma: the pairs of tableaux of content gamma, summed
                    # over the factor with fewer contents, against the
                    # tableaux of content gamma of the crystal's shapes.  K
                    # is unitriangular, so this fixes every c_lam in lams
                    left, right = sorted((weights[mu], weights[nu]), key=len)
                    get = right.get
                    for gamma in lams:
                        g = key(gamma)
                        pairs = sum([k * get(g - x, 0) for x, k in left.items()])
                        tabs = sum([
                            c * tableaux.kostka(lam, gamma) for lam, c in counts.items()
                        ])
                        if pairs != tabs:
                            raise _Fail(
                                f"content counts differ at {mu},{nu},{gamma}: "
                                f"{pairs} pairs != {tabs} tableaux"
                            )
                        products += len(left)
                    checked += len(lams)
                    if (mu, nu) == ((2, 1), (2, 1)):
                        spot = counts[3, 2, 1]
    if not quick and spot != 2:
        raise _Fail(f"c_(21),(21)^(321) = {spot}, expected 2")
    return f"{checked} coefficients proven by content counts ({products} content products)"


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
    ok = tableaux.reading_word(((1, 1, 2, 3), (2, 2, 3), (3,))) == (3, 2, 2, 3, 1, 1, 2, 3)
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
    # one public route each way, through the checked insertion API
    t = ((1, 1, 2, 3), (2, 2, 3), (3,))
    ok &= insertion.row_insert(t, 2).route == ((1, 4), (2, 4))
    ok &= insertion.column_insert(2, t).route == ((2, 1), (2, 2), (1, 3), (1, 4), (1, 5))
    if not ok:
        raise _Fail("structural mismatch against worked examples")
    return "reading word, row reading, pushed fillings, row and column routes byte-exact"


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


def _weakly_left(route) -> bool:
    """Whether each cell of a bumping route sits in the column of the cell
    above it or to its left."""
    return all(b[1] <= a[1] for a, b in zip(route, route[1:]))


@_criterion(9, "bumping-route-geometry")
def criterion_route_geometry(quick: bool = False, seed: int = 0):
    # the fold kernel on generated tableaux, which need no check; column
    # insertion is read in its own frame, the weak row fold on the
    # transpose, where a column route moves as a row route does and the
    # same checks serve both
    bump = insertion._row_bump
    rng = random.Random(seed)
    trials = 200 if quick else 1000
    shapes = [p for size in range(0, 7) for p in all_partitions(size, max_length=4)]
    for _ in range(trials):
        lam = rng.choice(shapes)
        n = rng.randint(max(2, len(lam)), 5)
        tabs = cached_ssyt(lam, n)
        t = rng.choice(tabs)
        x = rng.randint(1, n)
        if not _weakly_left(bump(t, x)[1]):
            raise _Fail(f"row route not weakly left-moving: {t} <- {x}")
        if not _weakly_left(bump(transpose(t), x, weak=True)[1]):
            raise _Fail(f"column route not weakly up-moving: {x} -> {t}")
    # successive routes in the strip insertions: each route weakly shorter
    # and strictly right of its predecessor, in the frame of its fold
    pieri = [(1,), (2,), (1, 1), (2, 1)] if not quick else [(1,), (2, 1)]
    pairs = 0
    for lam in pieri:
        # (direction, left, right, the tableau folded into, the letters,
        # weak): right's row into left, or left's column into the
        # transpose of right
        runs = [
            ("right", left, right, left, right[0], False)
            for m in (1, 2, 3)
            for left in cached_ssyt(lam, 3)
            for right in cached_ssyt((m,), 3)
        ]
        flipped = [(right, transpose(right)) for right in cached_ssyt(lam, 4)]
        runs += [
            ("down", left, right, frame, [x for (x,) in left], True)
            for h in (1, 2, 3)
            for left in cached_ssyt((1,) * h, 4)
            for right, frame in flipped
        ]
        for way, left, right, frame, letters, weak in runs:
            routes = insertion._row_fold(frame, letters, weak)[1]
            for r_prev, r_next in zip(routes, routes[1:]):
                if len(r_next) > len(r_prev) or any(
                    a[1] >= b[1] for a, b in zip(r_prev, r_next)
                ):
                    raise _Fail(f"routes not strictly {way}-moving: {left}, {right}")
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
