"""Truncated Schur multiple zeta values over exponent-variable tableaux,
pushing-rule fillings, symmetrized sums, and exact identity verifiers for
the Pieri (row and column) and Littlewood-Richardson product formulas.

Exponent variables are strings ("s_1_2", "t_3"); an assignment is a plain
dict mapping variable names to integers (exact mode, evaluated in
arbitrary-precision rationals) or floats.  The identity checks run in
exact mode only: the truncated identities hold for every truncation level
and every integer assignment, so equality is tested with zero tolerance.

Every sum over tableaux walks strip graphs (_strip_graph): the nodes of
a shape's graph are its sub-shapes and its edges the horizontal strips
between them.  A tableau with entries <= N is a path of N strips through
it, one per level, so a sum over tableaux is a DP over the levels
a = 1..N.  The exact sums keep per node a weight per count vector of the
symmetrized values drawn so far: for distinct values of multiplicities
m_i there are prod(m_i + 1) count vectors (2^k for k distinct values),
where an enumeration visits about N^|shape| tableaux.  A side of an
identity is one walk: the last factors of its terms share their
sub-shapes in one union graph (_walk_graph), whose node is a sub-shape
with the labels of its cells, and start from the count vectors the
factors before them drew; a product walks the factor with fewer
sub-shapes first.  The shapes of a Pieri or Littlewood-Richardson
identity fix one cached record (_Setup): its symmetrized set, its terms,
the LR coefficients taken from the crystal decomposition
(crystal.decompose_product), and the plans (_SymPlan) of both sides.  A
verifier builds it once per identity and checks only the assignment and
the truncation level per call; the work guard (_sym_work) reads the
plans' walks.  Float truncation and the untruncated limit walk one
shape's graph in compensated floats, one sum per sub-shape, and the
limit's tail terms follow from the same strips' exponent sums.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, product
from operator import mul
from numbers import Real
from typing import NamedTuple

from . import crystal
from .insertion import column_insert_word, column_word, row_insert_word
from .partitions import (
    Partition,
    as_partition,
    cells,
    conjugate,
    corners,
    grow_cols,
    horizontal_strip_cols,
    is_int,
    require_ints,
)
from .tableaux import (
    Tableau,
    as_tableau,
    reading_word,
    shape_of,
    transpose,
)

VarRows = tuple[tuple[str, ...], ...]

# The most predicted work (_sym_work) a symmetrized sum may take on.  On a
# 2-core machine with Python 3.11 a unit costs 0.12-4.5 us across the
# exact frontier cases, growing with N as the integer weights grow: 3.4 us
# at Pieri-h (4,2), m=4, N=40, which the limit admits at 5.1 s.  The count
# does not follow what the walk walks; see item 5 of ROADMAP.md.
WORK_LIMIT = 2_000_000


class SymSpec(NamedTuple):
    symmetrized: tuple[str, ...]
    fixed: frozenset[str]


class IdentityReport(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    equal: bool
    note: str = ""


class InsertionTermReport(NamedTuple):
    equal: bool
    tableau: Tableau
    added: tuple[int, ...]
    reason: str = ""


class LimitReport(NamedTuple):
    value: float
    levels: int
    error_estimate: float
    converged: bool


# ---------------------------------------------------------------------------
# variable tableaux and assignments


def grid_vars(shape, prefix: str) -> VarRows:
    """Variable names over a shape, one per cell: prefix_i_j (1-indexed)."""
    shape = as_partition(shape)
    return tuple(
        tuple(f"{prefix}_{i + 1}_{j + 1}" for j in range(part))
        for i, part in enumerate(shape)
    )


def seq_vars(count: int, prefix: str) -> tuple[str, ...]:
    """Singly indexed variable names prefix_1 .. prefix_count."""
    require_ints((count,), "count", 0)
    return tuple(f"{prefix}_{k + 1}" for k in range(count))


def _flatten(var_rows) -> list[str]:
    return [v for row in var_rows for v in row]


def resolve_exponents(var_rows, assign) -> tuple[tuple, ...]:
    """Replace variable names by their assigned exponents."""
    out = []
    for row in var_rows:
        vals = []
        for var in row:
            if var not in assign:
                raise ValueError(f"assignment missing variable {var!r}")
            vals.append(assign[var])
        out.append(tuple(vals))
    return tuple(out)


def require_exact(assign, names) -> None:
    """Exact mode needs integer exponents >= 1 for every named variable."""
    for var in names:
        if var not in assign:
            raise ValueError(f"assignment missing variable {var!r}")
        v = assign[var]
        if not is_int(v) or v < 1:
            raise ValueError(
                f"exact mode needs integer exponents >= 1, got {var}={v!r}"
            )


# ---------------------------------------------------------------------------
# evaluation


def monomial(tableau, var_rows, assign):
    """1 / prod(entry ** exponent) over the cells; exact for int exponents.
    Exponents must be finite numbers >= 0 (not bools)."""
    t = as_tableau(tableau)
    exps = _checked_exponents(shape_of(t), var_rows, assign)
    if all(is_int(x) for row in exps for x in row):
        den = 1
        for trow, erow in zip(t, exps):
            for base, ex in zip(trow, erow):
                den *= base**ex
        return Fraction(1, den)
    out = 1.0
    for trow, erow in zip(t, exps):
        for base, ex in zip(trow, erow):
            out *= float(base) ** -float(ex)
    return out


# ---------------------------------------------------------------------------
# the level engine
#
# Strip a of a tableau holds its entries a.  A fixed cell in it weighs
# a**-e; a symmetrized cell draws a value v_i from the multiset not yet
# drawn, at weight a**-v_i, and moves the count vector c to c + e_i.  Each
# sequence of draws is one assignment of values to cells, so every
# distinct assignment is counted once.


@cache
def _strip_graph(shape: Partition):
    """(nodes, start, end, need, succ): the sub-shapes of shape, padded
    with zeros to len(shape) rows; the indices of the empty shape and of
    shape; per node the levels it still needs (the most cells it lacks in
    one column); and per node the nodes one horizontal strip inside shape
    away, the empty strip included, in order of need."""
    rows = len(shape)
    nodes = [()]
    for part in shape:
        nodes = [mu + (x,) for mu in nodes for x in range(min(mu[-1:] + (part,)) + 1)]
    index = {mu: k for k, mu in enumerate(nodes)}
    need = tuple(
        max((sum(mu[i] <= j < shape[i] for i in range(rows)) for j in range(shape[0])), default=0)
        if shape else 0
        for mu in nodes
    )
    succ = tuple(
        tuple(sorted(
            (
                index[nu]
                for nu in product(*(
                    range(mu[i], (min(shape[i], mu[i - 1]) if i else shape[0]) + 1)
                    for i in range(rows)
                ))
            ),
            key=need.__getitem__,
        ))
        for mu in nodes
    )
    return tuple(nodes), index[(0,) * rows], index[shape], need, succ


def _node_sums(shape: Partition, kinds: tuple) -> tuple:
    """The exponent sum per node of the strip graph, for the row-major
    cell exponents kinds, so a strip from mu to nu has exponent sum
    fixed[nu] - fixed[mu].  The float walks' kinds are Fractions."""
    prefix, start = [], 0
    for part in shape:
        prefix.append(list(accumulate(kinds[start:start + part], initial=0)))
        start += part
    return tuple(sum(p[x] for p, x in zip(prefix, mu)) for mu in _strip_graph(shape)[0])


@cache
def _walk_graph(ends: tuple):
    """(start, at, depth, labels, need, succ): the union of the strip graphs
    of the ends (shape, labels), labels the row-major labels of the cells:
    None for a drawn cell, the fixed variable's name otherwise.  A node is
    a sub-shape with the labels of its cells, kept as its nonempty label
    rows, so ends that contain the same sub-shape labelled alike share its
    node.  start is the empty shape's node and at[i] the node of end i; per
    node, depth counts its drawn cells, labels lists its fixed labels, need
    is the fewest levels in which an end that holds the node can still be
    filled from it, and succ lists the nodes one horizontal strip away,
    the empty strip included, in order of need.  A strip joins two nodes of
    one end, and the labels of a node fix those of every node inside it,
    so every path into at[i] is a tableau of end i alone."""
    index: dict[tuple, int] = {}
    need: list[int] = []
    succ: list[set] = []
    at = []
    for shape, labels in ends:
        nodes, _, end, node_need, node_succ = _strip_graph(shape)
        rows = [labels[a - b:a] for a, b in zip(accumulate(shape), shape)]
        ids = []
        for mu, n in zip(nodes, node_need):
            key = tuple(row[:x] for row, x in zip(rows, mu) if x)
            k = index.setdefault(key, len(need))
            if k == len(need):
                need.append(n)
                succ.append(set())
            elif n < need[k]:
                need[k] = n
            ids.append(k)
        for k, nus in zip(ids, node_succ):
            succ[k].update(ids[nu] for nu in nus)
        at.append(ids[end])
    keys = list(index)
    return (
        index[()],
        tuple(at),
        tuple(sum(x is None for row in key for x in row) for key in keys),
        tuple(tuple(x for row in key for x in row if x is not None) for key in keys),
        tuple(need),
        tuple(tuple(sorted(nus, key=need.__getitem__)) for nus in succ),
    )


@cache
def _count_layers(caps: tuple[int, ...]):
    """(layers, moves) over the count vectors c <= caps: layers[k] lists
    those with sum k, and moves[k][j] the pairs (i, index in layers[k + 1]
    of c + e_i) for the j-th vector c of layers[k], over each value i drawn
    fewer than caps[i] times."""
    layers = [[] for _ in range(sum(caps) + 1)]
    for c in product(*(range(m + 1) for m in caps)):
        layers[sum(c)].append(c)
    where = {c: j for layer in layers for j, c in enumerate(layer)}
    moves = tuple(
        tuple(
            tuple((i, where[c[:i] + (x + 1,) + c[i + 1:]]) for i, x in enumerate(c) if x < caps[i])
            for c in layer
        )
        for layer in layers
    )
    return tuple(map(tuple, layers)), moves


def _draw(vec, moves, q, size: int) -> list:
    """One symmetrized cell: a weight vector over one layer of count
    vectors, moved up a layer by drawing value i at weight q[i]."""
    out = [0] * size
    for x, targets in zip(vec, moves):
        if x:
            for i, j in targets:
                out[j] += x * q[i]
    return out


def _levels(ends, exps, n_trunc: int, values, caps, layer: int, init) -> list:
    """Per end (shape, labels), the sum over its SSYT with entries <=
    n_trunc, one walk over the union of the ends' strip graphs
    (_walk_graph) started from the weight vector init over layer `layer` of
    _count_layers(caps): (k, out) per end, out the sum per count vector of
    layer k, k = layer plus the end's drawn cells, and empty when no SSYT
    exists.  exps maps each fixed label to its exponent.  values are
    distinct, drawn at most caps times each; at level a the fixed exponent
    sum F of a strip weighs (L // a)**F and drawing value v weighs
    (L // a)**v, L = lcm(1..N).  Linear in init, and a draw stops at caps,
    so out pairs each count vector of init with every count vector the
    end draws on top of it within caps.  Nodes that no end can fill in the
    levels left are pruned."""
    scale = _lcm_upto(n_trunc)
    start, at, depth, labels, need, succ = _walk_graph(ends)
    fixed = [sum(map(exps.__getitem__, names)) for names in labels]
    layers, moves = _count_layers(caps)
    state = {start: list(init)}
    for a in range(1, n_trunc + 1):
        spare = n_trunc - a
        base = scale // a
        q = [base**v for v in values]
        weights = {}
        nxt: dict[int, list] = {}
        for mu, vec in state.items():
            drawn = [vec]
            for nu in succ[mu]:
                if need[nu] > spare:
                    break
                r = depth[nu] - depth[mu]
                while len(drawn) <= r:
                    k = layer + depth[mu] + len(drawn)
                    drawn.append(_draw(drawn[-1], moves[k - 1], q, len(layers[k])))
                f = fixed[nu] - fixed[mu]
                w = weights.get(f)
                if w is None:
                    w = weights[f] = base**f
                src = drawn[r]
                tgt = nxt.get(nu)
                if tgt is None:
                    nxt[nu] = [w * x for x in src]
                else:
                    for j, x in enumerate(src):
                        tgt[j] += w * x
        state = nxt
    return [(layer + depth[e], state.get(e, [])) for e in at]


def _lcm_upto(n: int) -> int:
    return math.lcm(*range(1, n + 1))


def _fixed_pairs(factors, exps) -> tuple:
    """The (label, exponent) pairs of the factors' fixed labels, in order
    of first appearance: with the factors, the key of their walk."""
    return tuple({x: exps[x] for _, labels in factors for x in labels if x is not None}.items())


@cache
def _product_sum(prefix: tuple, ends: tuple, fixed: tuple, n_trunc: int, values: tuple, caps: tuple):
    """The exact level DP of the product of the factors prefix with each of
    the ends, factors as (shape, labels) and fixed their _fixed_pairs: per
    end (F, k, vec) with F the product's fixed exponent total and vec over
    layer k of the count vectors c, each weight the sum for c scaled by
    L**(F + c . values), L = lcm(1..N).  The ends are one walk (_levels)
    from the vector of the prefix, whose own walk is cached the same way,
    one factor at a time.  Every level weight (L // a)**e is an integer."""
    exps = dict(fixed)
    if prefix:
        ((total, layer, init),) = _product_sum(
            prefix[:-1], prefix[-1:], _fixed_pairs(prefix, exps), n_trunc, values, caps
        )
    else:
        total, layer, init = 0, 0, (1,)
    walks = _levels(ends, exps, n_trunc, values, caps, layer, init)
    return tuple(
        (total + sum(exps[x] for x in labels if x is not None), k, tuple(vec))
        for (_, labels), (k, vec) in zip(ends, walks)
    )


def _checked_exponents(shape: Partition, var_rows, assign) -> tuple[tuple, ...]:
    """Resolved exponents of the shape's cells; each must be a finite
    number >= 0 and not a bool."""
    exps = resolve_exponents(var_rows, assign)
    if shape != tuple(len(r) for r in exps):
        raise ValueError("shape and variable tableau differ")
    for row in exps:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, Real) or not 0 <= x < math.inf:
                raise ValueError(f"exponents must be finite numbers >= 0, got {x!r}")
    return exps


def eval_zeta_truncated(shape, var_rows, assign, n_trunc: int):
    """Finite Schur multiple zeta sum over tableaux with entries <= n_trunc.

    Exact rational when every exponent is an integer, float otherwise;
    zero when the shape has more rows than n_trunc.  Exponents must be
    finite numbers >= 0 (not bools) in both modes.
    """
    shape = as_partition(shape)
    require_ints((n_trunc,), "truncation level", 1)
    flat = tuple(x for row in _checked_exponents(shape, var_rows, assign) for x in row)
    if all(is_int(x) for x in flat):
        labels = tuple(_flatten(var_rows))
        ((fixed, _, vec),) = _product_sum(
            (), ((shape, labels),), tuple(dict(zip(labels, flat)).items()), n_trunc, (), ()
        )
        return Fraction(vec[0] if vec else 0, _lcm_upto(n_trunc) ** fixed)
    return float(next(_partial_sums(shape, tuple(map(Fraction, flat)), (n_trunc,))))


def in_convergence_domain(shape, var_rows, assign) -> bool:
    """Real parts >= 1 everywhere and > 1 at every corner cell.  Exponents
    must be finite numbers >= 0 (not bools)."""
    shape = as_partition(shape)
    return _in_domain(shape, _checked_exponents(shape, var_rows, assign))


def _in_domain(shape: Partition, exps) -> bool:
    corner_set = set(corners(shape))
    return all(
        v > 1 if (i + 1, j + 1) in corner_set else v >= 1
        for i, row in enumerate(exps)
        for j, v in enumerate(row)
    )


# ---------------------------------------------------------------------------
# untruncated limit by geometric-level extrapolation

LIMIT_START = 16
LIMIT_MAX_ORDER = 12
_UNIT_ROUNDOFF = 2.0**-53


def _tail_terms(shape: Partition, kinds: tuple, cutoff) -> dict[Fraction, int]:
    """The powers N**beta (beta < 0, down to cutoff) in the expansion of the
    partial sum S(N) about its limit, each with the highest power of log N
    that multiplies it (every lower log power occurs as well).  kinds are
    the row-major cell exponents as Fractions.

    T_nu(n), the sum over the SSYT of the sub-shape nu with entries <= n, is
    the sum over a <= n and strips mu -> nu of a**-e * T_mu(a-1), e the
    strip's exponent sum.  By Euler-Maclaurin a summand a**g * log(a)**p
    brings n**(g+1-m) * log(n)**p for m >= 0, and for g = -1 log(n)**(p+1)
    in place of n**0.  Terms below the cutoff only feed terms below it.  The
    strip graph's nodes run in increasing order, so every strip into mu is
    merged before mu feeds its own strips; a merge keeps the highest log
    power per beta.  Every exponent is >= 1, so each beta written is < 0
    apart from the n**0 term, and a beta < 0 already holding p or more has
    every beta - 1, beta - 2, ... down to the cutoff holding p or more: a
    run of terms stops there.
    """
    nodes, start, end, _, succ = _strip_graph(shape)
    fixed = _node_sums(shape, kinds)
    grow: list[dict] = [{} for _ in nodes]
    grow[start][Fraction(0)] = 0
    for mu, terms in enumerate(grow):
        for nu in succ[mu]:
            if nu == mu:
                continue
            e, nxt = fixed[nu] - fixed[mu], grow[nu]
            nxt.setdefault(Fraction(0), 0)
            for beta, p in terms.items():
                top = beta + 1 - e
                if top == 0:
                    nxt[top] = max(nxt[top], p + 1)
                    top -= 1
                while top >= cutoff and nxt.get(top, -1) < p:
                    nxt[top] = p
                    top -= 1
    out = grow[end]
    del out[0]
    return out


def _partial_sums(shape: Partition, kinds: tuple, stops):
    """Yield S(N) for each N in the increasing stops, as an exact Fraction
    of the float state; kinds are the row-major cell exponents as Fractions.

    T_nu(n) = T_nu(n-1) + sum over the nonempty strips mu -> nu of
    n**-e * T_mu(n-1) runs level by level over the strip graph, e the
    strip's exponent sum, and S(N) = T_shape(N).  The strips run in
    decreasing mu: a strict sub-shape has the smaller index, so each strip
    reads T_mu(n-1) before anything adds to T_mu.  Each sub-shape keeps a
    Neumaier compensation term (every term is positive, so its branch
    compares the values themselves)."""
    nodes, start, end, _, succ = _strip_graph(shape)
    fixed = _node_sums(shape, kinds)
    strips = [(mu, nu, -float(fixed[nu] - fixed[mu]))
              for mu in reversed(range(len(nodes))) for nu in succ[mu] if nu != mu]
    exponents = sorted({ex for _, _, ex in strips})
    index = {ex: i for i, ex in enumerate(exponents)}
    strips = [(mu, nu, index[ex]) for mu, nu, ex in strips]
    sums, comps = [0.0] * len(nodes), [0.0] * len(nodes)
    sums[start] = 1.0
    n = 0
    for stop in stops:
        while n < stop:
            n += 1
            x = float(n)
            pw = [x**ex for ex in exponents]
            for mu, nu, i in strips:
                s = sums[nu]
                term = pw[i] * (sums[mu] + comps[mu])
                t = s + term
                if s >= term:
                    comps[nu] += (s - t) + term
                else:
                    comps[nu] += (term - t) + s
                sums[nu] = t
        yield Fraction(sums[end]) + Fraction(comps[end])


def _extrapolation_weights(groups) -> list[Fraction]:
    """Weights w_t of the readings S(N0 * 2**t), t = 0..K, whose weighted
    sum keeps the limit and cancels the K terms N**beta * log(N)**q, q <= p,
    of the groups (beta, p).

    log N is affine in t, so those terms span r**t * t**q with r = 2**beta,
    and the weights solve sum w_t = 1, sum w_t * r**t * t**q = 0.  The
    exact solution is the coefficient list of the polynomial
    prod(((x - r) / (1 - r)) ** (p + 1)): it is 1 at x = 1, and each r is a
    root of order p + 1, where (x d/dx)**q of it vanishes for q <= p.
    """
    weights = [Fraction(1)]
    for beta, p in groups:
        r = Fraction(Fraction(2) ** beta)  # float-rounded for a non-integer beta
        for _ in range(p + 1):
            shifted = [Fraction(0)] + weights
            scaled = [r * w for w in weights] + [Fraction(0)]
            weights = [(a - b) / (1 - r) for a, b in zip(shifted, scaled)]
    return weights


def _extrapolate(readings, groups, amplify):
    """Limit from the last readings with as many term groups as they and
    LIMIT_MAX_ORDER allow, the gap to the value with one group fewer, and
    a rounding floor of the limit; None while not even one group fits.

    Each term of S(N) carries a relative rounding error of at most
    amplify * u, so a reading's error is the error of the first reading
    used plus that of the increments after it.  The weights sum to 1: the
    first reading's error passes once, and the increment from reading t-1
    to t passes with the weight sum W_t of the readings from t on.
    """
    room = min(len(readings) - 1, LIMIT_MAX_ORDER)
    used = size = 0
    for _, p in groups:
        if size + p + 1 > room:
            break
        used, size = used + 1, size + p + 1
    if used == 0:
        return None
    weights = _extrapolation_weights(groups[:used])
    tail = readings[-len(weights):]
    limit = sum(w * s for w, s in zip(weights, tail))
    lower = _extrapolation_weights(groups[: used - 1])
    gap = limit - sum(w * s for w, s in zip(lower, readings[-len(lower):]))
    spread = tail[0] + sum(
        abs(sum(weights[t:])) * (tail[t] - tail[t - 1])
        for t in range(1, len(tail))
    )
    value = float(limit)
    floor = _UNIT_ROUNDOFF * (amplify * float(spread) + abs(value))
    return value, abs(float(gap)), floor


def eval_zeta_limit(
    shape,
    var_rows,
    assign,
    tol: float,
    max_level: int = 1 << 20,
) -> LimitReport:
    """Evaluate the untruncated sum as the limit of the truncated sums S(N).

    S(N) is summed level by level and read at N = LIMIT_START * 2**i.  Its
    expansion about the limit runs over N**beta * log(N)**q, with the
    powers fixed by the strips' exponent sums (_tail_terms), so an exact
    linear solve over the last readings cancels the slowest terms.
    error_estimate is the larger of two gaps, to the value with the last
    group of terms left out and to the value one reading earlier, plus a
    rounding floor; it is never 0, and converged means it is at most tol.
    Levels double until then, until the gap falls below the rounding floor
    (more levels cannot help), or until max_level, where the plain
    S(max_level) is returned with converged=False and an error estimate
    from the last extrapolation (inf if there was none).  Requires finite
    exponents in the convergence domain.
    """
    shape = as_partition(shape)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    require_ints((max_level,), "max_level", 1)
    exps = _checked_exponents(shape, var_rows, assign)
    if not _in_domain(shape, exps):
        raise ValueError("exponents outside the convergence domain")
    if not shape:
        return LimitReport(1.0, 0, _UNIT_ROUNDOFF, True)
    kinds = tuple(Fraction(x) for row in exps for x in row)
    # the slowest power is at least 1 - sum(kinds), and the groups a fit
    # can use lie less than LIMIT_MAX_ORDER below it
    terms = _tail_terms(shape, kinds, -LIMIT_MAX_ORDER - sum(kinds))
    groups = sorted(terms.items(), reverse=True)
    amplify = 4 * sum(shape)  # pow, product and operand rounding per step
    stops = []
    while (LIMIT_START << len(stops)) < max_level:
        stops.append(LIMIT_START << len(stops))
    stops.append(max_level)
    readings: list[Fraction] = []
    last = None  # (value, error estimate) of the latest extrapolation
    for stop, total in zip(stops, _partial_sums(shape, kinds, stops)):
        if stop != LIMIT_START << len(readings):
            break
        readings.append(total)
        fit = _extrapolate(readings, groups, amplify)
        if fit is None:
            continue
        value, gap, floor = fit
        if last is not None:
            gap = max(gap, abs(value - last[0]))
        last = (value, gap + floor)
        if gap + floor <= tol or gap <= floor:
            return LimitReport(value, stop, gap + floor, gap + floor <= tol)
    plain = float(total)
    error = math.inf if last is None else abs(last[0] - plain) + last[1]
    return LimitReport(plain, max_level, error, False)


# ---------------------------------------------------------------------------
# symmetrized sums

def _row_strip_spec(s_rows: VarRows, t_names) -> SymSpec:
    """The symmetrized set of a row strip t_names on the shape of s_rows,
    by position, r its first part: the first r strip variables, column 1 of
    s_rows down to the height of column 2, and every entry of columns
    2..r.  The rest of column 1 and the strip variables beyond r stay
    fixed.  Needs a strip of at least r cells."""
    cols = transpose(s_rows)
    r = len(cols)
    if len(t_names) < r:
        raise ValueError(f"need strip size >= {r}, got {len(t_names)}")
    first = cols[0] if cols else ()
    c2 = len(cols[1]) if r > 1 else 0
    sym = (*t_names[:r], *first[:c2], *_flatten(cols[1:]))
    return SymSpec(sym, frozenset((*first[c2:], *t_names[r:])))


def h_sym_spec(lam, m: int) -> SymSpec:
    """Symmetrized variable set for the row-strip (h-type) Pieri identity.

    Symmetrized: t_1..t_r (r = first part), the column-1 entries down to the
    height of column 2, and every entry of columns 2..r.  The remaining
    column-1 entries and t's beyond r stay fixed.  Needs m >= r.
    """
    return _pieri(lam, m, "h").spec


def e_sym_spec(lam, n: int) -> SymSpec:
    """Symmetrized variable set for the column-strip (e-type) Pieri
    identity; the conjugate mirror of h_sym_spec.  Needs n >= len(lam)."""
    return _pieri(lam, n, "e").spec


def _terms_sum(plan: "_SymPlan", assign, n_trunc: int, values, caps) -> Fraction:
    """Sum over the distinct assignments of a value multiset (distinct
    values with multiplicities caps) to the symmetrized variables of
    sum(coeff * the product of the term's truncated factors) over the terms
    of the plan, those with more rows than n_trunc left out as empty sums.

    A variable in one cell is drawn by the level DP.  A variable in no cell
    of a term takes a leftover value, in missing! / prod(left_i!) ways.  A
    variable in several cells is fixed by an outer loop over its value,
    which turns its cells into fixed cells and leaves one count fewer to
    draw.  Each group of the plan is one _product_sum per pick of those
    values: one walk over the union of its last factors' strip graphs,
    started from the vector of the factors before.
    """
    sums: dict[int, int] = {}  # exponent total E -> numerator over L**E
    for prefix, missing, repeated, group in plan.groups:
        ends = [(last, coeff) for last, coeff, rows in group if rows <= n_trunc]
        if not ends:
            continue
        lasts = tuple(last for last, _ in ends)
        for pick in product(range(len(values)), repeat=len(repeated)):
            left = list(caps)
            for i in pick:
                left[i] -= 1
            if min(left, default=0) < 0:
                continue
            left = tuple(left)
            exps = {**assign, **{v: values[i] for v, i in zip(repeated, pick)}}
            walks = _product_sum(prefix, lasts, _fixed_pairs(prefix + lasts, exps), n_trunc, values, left)
            layers = _count_layers(left)[0]
            for (_, coeff), (total, depth, vec) in zip(ends, walks):
                for c, w in zip(layers[depth], vec):
                    if missing:
                        ways = math.factorial(missing)
                        for x, m in zip(c, left):
                            ways //= math.factorial(m - x)
                        w *= ways
                    e = total + sum(map(mul, c, values))
                    sums[e] = sums.get(e, 0) + coeff * w
    if not sums:
        return Fraction(0)
    scale, top = _lcm_upto(n_trunc), max(sums)
    return Fraction(sum(w * scale ** (top - e) for e, w in sums.items()), scale**top)


def _sym_work(plan: "_SymPlan", n_trunc: int, caps: tuple) -> int:
    """The predicted work of _terms_sum over the plan's walks, from the
    shapes and the value multiplicities caps alone: the level DP's
    prod(m_i + 1) count vectors times n_trunc times the largest, over the
    last factors of terms of at most n_trunc rows, of the value picks of
    their group's repeated variables times the summed sub-shapes of the
    group's prefix and the last factor."""
    units = 0
    for prefix, _, repeated, ends in plan.groups:
        picks = len(caps) ** len(repeated)
        nodes = sum(len(_strip_graph(shape)[0]) for shape, _ in prefix)
        for (shape, _), _, rows in ends:
            if rows <= n_trunc:
                units = max(units, picks * (nodes + len(_strip_graph(shape)[0])))
    return math.prod(m + 1 for m in caps) * units * n_trunc


def _require_work(work: int) -> None:
    if work > WORK_LIMIT:
        raise ValueError(f"predicted work of {work:,} units exceeds the limit of {WORK_LIMIT:,}")


def _check_spec_and_values(terms, spec, assign):
    """Validate a symmetrized sum's inputs; True when every exponent is an
    integer."""
    twice = sorted({v for v in spec.symmetrized if spec.symmetrized.count(v) > 1})
    if twice:
        raise ValueError(f"symmetrized variables named twice: {twice}")
    if set(spec.symmetrized) & spec.fixed:
        raise ValueError("symmetrized and fixed variable sets overlap")
    needed = set(spec.symmetrized)
    for _, factors in terms:
        for _, rows in factors:
            needed.update(_flatten(rows))
    missing = sorted(v for v in needed if v not in assign)
    if missing:
        raise ValueError(f"assignment missing variables {missing}")
    exact = all(is_int(assign[v]) for v in needed)
    if exact and any(assign[v] < 0 for v in needed):
        raise ValueError("integer exponents must be >= 0")
    return exact


def sym_sum_direct(terms, spec, assign, n_trunc: int):
    """Reference implementation: literal sum over all bijections of the
    symmetrized values.  Slower than sym_sum but definitionally direct;
    float exponents give a float sum."""
    require_ints((n_trunc,), "truncation level", 1)
    exact = _check_spec_and_values(terms, spec, assign)
    values = tuple(assign[v] for v in spec.symmetrized)
    total = Fraction(0) if exact else 0.0
    for perm in permutations(values):
        local = dict(assign)
        local.update(zip(spec.symmetrized, perm))
        for coeff, factors in terms:
            term = coeff
            for shape, rows in factors:
                term *= eval_zeta_truncated(shape, rows, local, n_trunc)
            total += term
    return total


class _SymPlan(NamedTuple):
    """The structure of a symmetrized sum, fixed by its terms and spec
    alone and built without looking at an assignment or a truncation level
    (_sym_plan).  Per call only the assignment and the level are checked
    against it.

    names lists every variable the sum needs: those of its cells in order
    of first use, then the symmetrized ones in no cell.  groups are the
    walks of _terms_sum, one per (prefix, missing, repeated) of the terms:
    the factors before their last, the number of symmetrized variables in
    none of their cells and the names of those in several.  Each group
    ends with its last factors as (factor, coeff, rows), the coefficients
    of equal last factors added and rows the most rows of the prefix and
    the last factor, below which the term is an empty sum.  Terms merged
    into one last factor share their rows, repeats and sub-shapes, so the
    work guard (_sym_work) reads the groups alone.  A factor is (shape,
    labels) with labels its row-major cell labels: None for a symmetrized
    variable in one cell, which the level DP draws, the variable's name
    otherwise.  A term's factors are in the order of its walk, the fewest
    sub-shapes first."""

    names: tuple[str, ...]
    groups: tuple


def _sym_plan(terms, spec: SymSpec) -> _SymPlan:
    """The one structure builder: the _SymPlan of terms (coeff, [(shape,
    var_rows), ...]) under spec.  It checks nothing; each shape must be the
    Partition of its var_rows' row lengths."""
    sym = frozenset(spec.symmetrized)
    groups: dict[tuple, dict] = {}
    for coeff, factors in terms:
        cells = [(shape, _flatten(rows)) for shape, rows in factors]
        uses = Counter(v for _, labels in cells for v in labels if v in sym)
        repeated = tuple(v for v, n in uses.items() if n > 1)
        walk = sorted(
            ((shape, tuple(None if uses[v] == 1 else v for v in labels)) for shape, labels in cells),
            key=lambda factor: len(_strip_graph(factor[0])[0]),
        )
        *prefix, last = walk or [((), ())]
        ends = groups.setdefault((tuple(prefix), len(sym) - len(uses), repeated), {})
        ends[last] = ends.get(last, 0) + coeff
    names = [v for _, factors in terms for _, rows in factors for v in _flatten(rows)]
    return _SymPlan(
        tuple(dict.fromkeys(names + list(spec.symmetrized))),
        tuple(
            (prefix, missing, repeated, tuple(
                (last, coeff, max(len(shape) for shape, _ in (*prefix, last)))
                for last, coeff in ends.items()
            ))
            for (prefix, missing, repeated), ends in groups.items()
        ),
    )


def _draws(spec: SymSpec, assign) -> tuple[tuple, tuple]:
    """(values, caps): the distinct values of the symmetrized variables in
    increasing order and their multiplicities."""
    values = [assign[v] for v in spec.symmetrized]
    distinct = tuple(sorted(set(values)))
    return distinct, tuple(values.count(v) for v in distinct)


def _admit(plans, spec: SymSpec, assign, n_trunc: int) -> None:
    """Refuse the first of the plans whose predicted work (_sym_work)
    exceeds WORK_LIMIT, before any of their DPs runs."""
    caps = _draws(spec, assign)[1]
    for plan in plans:
        _require_work(_sym_work(plan, n_trunc, caps))


def _checked_factor(shape, rows):
    """(shape, rows) with shape a Partition of the row lengths of rows."""
    shape = as_partition(shape)
    if shape != tuple(len(r) for r in rows):
        raise ValueError("factor shape and variable tableau differ")
    return shape, rows


def sym_sum(terms, spec: SymSpec, assign, n_trunc: int) -> Fraction:
    """Sum over all permutations of the symmetrized exponent values of
    sum(coeff * prod of truncated zeta factors) over the given terms.

    Each term is (coeff, [(shape, var_rows), ...]).  Exact only: every
    exponent must be an integer >= 0.  The terms, spec, assignment and
    n_trunc are checked in full, planned by _sym_plan, and refused when
    their predicted work (_sym_work) exceeds WORK_LIMIT, before any of the
    sum is done.  terms may also be a _SymPlan of the same spec that the
    caller has already checked against assign and n_trunc and admitted
    (_verify), which is summed without any check.
    """
    if not isinstance(terms, _SymPlan):
        require_ints((n_trunc,), "truncation level", 1)
        if not _check_spec_and_values(terms, spec, assign):
            raise ValueError("sym_sum needs integer exponents; use sym_sum_direct")
        terms = _sym_plan(
            [(coeff, [_checked_factor(*factor) for factor in factors]) for coeff, factors in terms], spec
        )
        _admit((terms,), spec, assign, n_trunc)
    values, caps = _draws(spec, assign)
    return _terms_sum(terms, assign, n_trunc, values, caps) * math.prod(map(math.factorial, caps))


# ---------------------------------------------------------------------------
# pushing-rule fillings


def horizontal_push_filling(lam, s_rows: VarRows, t_names, cols) -> VarRows:
    """Filling of the shape grown at the given columns: the k-th new
    variable sits in row 1 of the k-th grown column, and every existing
    entry in a grown column slides down one row."""
    lam = as_partition(lam)
    cols = tuple(cols)
    if len(t_names) != len(cols):
        raise ValueError("one new variable per strip cell required")
    if tuple(len(r) for r in s_rows) != lam:
        raise ValueError("variable tableau does not match the shape")
    new_shape = grow_cols(lam, cols)
    cols = tuple(sorted(cols))
    colset = set(cols)
    grid: list[list] = [[None] * part for part in new_shape]
    for idx, c in enumerate(cols):
        grid[0][c - 1] = t_names[idx]
    for i, row in enumerate(s_rows):
        for j, var in enumerate(row):
            ti = i + 1 if (j + 1) in colset else i
            grid[ti][j] = var
    if any(v is None for row in grid for v in row):
        raise ValueError(f"strip {cols} does not tile the grown shape")
    return tuple(tuple(row) for row in grid)


def vertical_push_filling(lam, s_names, t_rows: VarRows, rows) -> VarRows:
    """Filling of the shape grown at the given rows: the k-th new variable
    sits in column 1 of the k-th grown row, and every existing entry in a
    grown row slides right one column.  The transpose of the horizontal
    push on the conjugate shape."""
    lam = as_partition(lam)
    return transpose(horizontal_push_filling(conjugate(lam), transpose(t_rows), s_names, rows))


# ---------------------------------------------------------------------------
# identity verifiers


class _Setup(NamedTuple):
    """The cached record of one Pieri or Littlewood-Richardson identity,
    fixed by its shapes alone: spec, its symmetrized set; factors, the
    left-hand side's factors as (shape, var_rows); terms, per shape of the
    right-hand side, in order, (strip, grown shape, pushed filling) for
    Pieri and (lam, coefficient, canonical filling) for LR; and lhs and
    rhs, the _SymPlans of the two sides."""

    spec: SymSpec
    factors: tuple
    terms: tuple
    lhs: _SymPlan
    rhs: _SymPlan


def _pieri(lam, size: int, mode: str) -> _Setup:
    """_pieri_setup of the shape lam and the strip size, checked here,
    before the cache lookup, where 1.0 and True would hit the entry of 1."""
    require_ints((size,), "strip size", 1)
    return _pieri_setup(as_partition(lam), size, mode)


@cache
def _pieri_setup(lam: Partition, size: int, mode: str) -> _Setup:
    """The _Setup of the Pieri identity of lam and a strip of size cells,
    its terms one per strip index set (columns for mode "h", rows for
    "e").  Cached.

    Mode "h" multiplies zeta(lam) in s_i_j by a row in t_1..t_size.  Mode
    "e", a column in s_1..s_size times zeta(lam) in t_i_j, is its conjugate
    mirror: the row-strip rules run on the transposed t_i_j tableau, of
    shape conj(lam), with the s's as the strip, and orient transposes the
    variable tableaux they give back."""
    if mode == "h":
        s_rows, t_names, orient = grid_vars(lam, "s"), seq_vars(size, "t"), lambda rows: rows
    else:
        s_rows, t_names, orient = transpose(grid_vars(lam, "t")), seq_vars(size, "s"), transpose
    spec = _row_strip_spec(s_rows, t_names)
    shape = shape_of(s_rows)
    factors = tuple((shape_of(rows), rows) for rows in map(orient, (s_rows, (t_names,))))
    extensions = []
    for strip in horizontal_strip_cols(shape, size):
        rows = orient(horizontal_push_filling(shape, s_rows, t_names, strip))
        extensions.append((strip, shape_of(rows), rows))
    rhs = [(1, [(grown, rows)]) for _, grown, rows in extensions]
    return _Setup(spec, factors, tuple(extensions), _sym_plan([(1, factors)], spec), _sym_plan(rhs, spec))


def _vacuous_note(lhs: _SymPlan, n_trunc: int) -> str:
    """The note of an identity with a left-hand factor of more rows than
    n_trunc: no tableau with entries <= n_trunc fills it, nor any shape on
    the right, each of which contains it, so both sides are empty sums."""
    rows = max(rows for *_, ends in lhs.groups for _, _, rows in ends)
    if rows <= n_trunc:
        return ""
    return (
        f"vacuous: truncation {n_trunc} < {rows} rows of a left-hand factor, "
        "both sides are empty sums"
    )


def _verify(setup: _Setup, assign, n_trunc: int) -> IdentityReport:
    """The report of an identity from the plans of its sides in its
    _Setup, built once per identity.  Per call only the level and the
    assignment are checked: n_trunc must be an integer >= 1 and every
    variable of the left side, which the right side's terms use as well,
    an integer >= 1.  Both sides' work is then guarded before either
    side's DP runs, the left side first, so a refusal names its count when
    both sides exceed the limit.  Both sums go through sym_sum, the one
    entry point of a symmetrized sum, which the benchmark's tracer wraps."""
    spec, _, _, lhs, rhs = setup
    require_ints((n_trunc,), "truncation level", 1)
    require_exact(assign, lhs.names)
    _admit((lhs, rhs), spec, assign, n_trunc)
    left, right = sym_sum(lhs, spec, assign, n_trunc), sym_sum(rhs, spec, assign, n_trunc)
    return IdentityReport(left, right, left == right, _vacuous_note(lhs, n_trunc))


def verify_pieri_h(lam, m: int, assign, n_trunc: int) -> IdentityReport:
    """Exact truncated check of the row-strip Pieri identity: the
    symmetrized product of zeta(lam) and zeta((m)) against the symmetrized
    sum of zeta over all one-horizontal-strip extensions with pushed
    fillings.  Holds for every truncation level and integer assignment."""
    return _verify(_pieri(lam, m, "h"), assign, n_trunc)


def verify_pieri_e(lam, n: int, assign, n_trunc: int) -> IdentityReport:
    """Exact truncated check of the column-strip Pieri identity (conjugate
    of verify_pieri_h): zeta((1^n)) times zeta(lam) against the
    one-vertical-strip extensions."""
    return _verify(_pieri(lam, n, "e"), assign, n_trunc)


def canonical_filling(lam, mu, nu) -> VarRows:
    """Deterministic filling of lam by the mu-variables then the
    nu-variables, row-major on both sides.  Any filling by these variables
    gives the same symmetrized sum: every one of them is symmetrized, so
    the sum runs over all their orders and none is tied to a cell."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    if sum(lam) != sum(mu) + sum(nu):
        raise ValueError("sizes must satisfy |lam| = |mu| + |nu|")
    names = _flatten(grid_vars(mu, "s")) + _flatten(grid_vars(nu, "t"))
    grid: list[list] = [[None] * part for part in lam]
    for (i, j), name in zip(cells(lam), names):
        grid[i - 1][j - 1] = name
    return tuple(tuple(row) for row in grid)


@cache
def _lr_setup(mu: Partition, nu: Partition) -> _Setup:
    """The _Setup of the Littlewood-Richardson identity of mu and nu: all
    their variables symmetrized, and one term per component of the
    product of their GL(len(mu) + len(nu)) tableau crystals
    (crystal.decompose_product), enough letters for every shape of the
    product.  Cached."""
    factors = ((mu, grid_vars(mu, "s")), (nu, grid_vars(nu, "t")))
    spec = SymSpec(tuple(v for _, rows in factors for v in _flatten(rows)), frozenset())
    terms = tuple(
        (lam, coeff, canonical_filling(lam, mu, nu))
        for lam, coeff in crystal.decompose_product(mu, nu, len(mu) + len(nu)).items()
    )
    rhs = [(coeff, [(lam, filling)]) for lam, coeff, filling in terms]
    return _Setup(spec, factors, terms, _sym_plan([(1, factors)], spec), _sym_plan(rhs, spec))


def verify_lr(mu, nu, assign, n_trunc: int) -> IdentityReport:
    """Exact truncated check of the Littlewood-Richardson product formula:
    the fully symmetrized product of two Schur multiple zeta values against
    the coefficient-weighted symmetrized sum over all shapes of the right
    size, each filled by canonical_filling."""
    mu, nu = as_partition(mu), as_partition(nu)
    if not mu or not nu:
        raise ValueError("both shapes must be nonempty")
    return _verify(_lr_setup(mu, nu), assign, n_trunc)


def _entries(tabs, var_rows) -> dict:
    """Each variable's entry in the tableaux, read under their variable
    tableaux."""
    return {
        var: entry
        for t, rows in zip(tabs, var_rows)
        for trow, vrow in zip(t, rows)
        for entry, var in zip(trow, vrow)
    }


def verify_insertion_term(left, right, lam, size: int, mode: str) -> InsertionTermReport:
    """Term-level check behind the Pieri identities: insert one tableau
    into the other, locate the grown strip, and check the bijection's
    invariant between the pair and the result under its pushed filling.
    Every fixed variable keeps its entry, and the symmetrized variables
    keep the multiset of their entries; then the two symmetrized monomial
    sums agree for every exponent, so no assignment is needed.  A failure's
    reason names the first fixed variable that moved, with both entries,
    or else both sorted symmetrized multisets.

    mode "h": left has shape lam, right is a single row of length size,
    row insertion of right's reading word.  mode "e": left is a column of
    height size, right has shape lam, column insertion of left's entries
    top to bottom.  A result shape outside the strip family is a hard
    failure (it would falsify the underlying bijection).
    """
    lam = as_partition(lam)
    left, right = as_tableau(left), as_tableau(right)
    if mode not in ("h", "e"):
        raise ValueError(f"mode must be 'h' or 'e', got {mode!r}")
    spec, factors, extensions, _, _ = _pieri(lam, size, mode)
    # the pair in factor order, the tableau of shape lam first
    pair = [left, right] if mode == "h" else [right, left]
    if [shape_of(t) for t in pair] != [shape for shape, _ in factors]:
        raise ValueError(
            "mode h needs left of shape lam and right a row of size cells, "
            "mode e left a column of size cells and right of shape lam"
        )
    if mode == "h":
        result, _ = row_insert_word(left, reading_word(right))
    else:
        result, _ = column_insert_word(column_word(left), right)
    new_shape = shape_of(result)
    for added, grown, filling in extensions:
        if grown == new_shape:
            break
    else:
        raise RuntimeError(
            f"insertion produced {new_shape}, not a "
            f"{'horizontal' if mode == 'h' else 'vertical'}-strip extension of {lam}"
        )
    before = _entries(pair, [rows for _, rows in factors])
    after = _entries([result], [filling])
    moved = [v for v, entry in before.items() if v not in spec.symmetrized and after[v] != entry]
    sym = [sorted(entries[v] for v in spec.symmetrized) for entries in (before, after)]
    if moved:
        reason = f"fixed variable {moved[0]} moves from entry {before[moved[0]]} to {after[moved[0]]}"
    elif sym[0] != sym[1]:
        reason = f"symmetrized entries {sym[0]} become {sym[1]}"
    else:
        reason = ""
    return InsertionTermReport(not reason, result, added, reason)
