"""Truncated Schur multiple zeta values over exponent-variable tableaux,
pushing-rule fillings, symmetrized sums, and exact identity verifiers for
the Pieri (row and column) and Littlewood-Richardson product formulas.

Exponent variables are strings ("s_1_2", "t_3"); an assignment is a plain
dict mapping variable names to integers (exact mode, evaluated in
arbitrary-precision rationals) or floats.  The identity checks run in
exact mode only: the truncated identities hold for every truncation level
and every integer assignment, so equality is tested with zero tolerance.

Every sum over tableaux walks a walk graph, built by one builder
(_walk_graph) for one shape or for several: its nodes are sub-shapes and
its edges single cells, listed in one cell pass per row, bottom row
first.  A tableau with entries <= N is a chain of N horizontal strips,
one per level, and the passes, taken in order, add each strip by
exactly one path of cells: a row grows only up to the length that the
row above had when the level began.  So a sum over tableaux is a DP
over the levels a = 1..N, each one run of the passes over one state,
updated in place a cell at a time.  A node is dropped once its need, the
fewest levels that fill an end that holds it (the least longest column
such an end lacks), exceeds the levels left.  Each symmetrized variable
fills one cell of every term, as in the paper's formulas, and the exact
sums keep per node a weight per count vector of the values drawn so far:
for distinct values of multiplicities m_i there are prod(m_i + 1) count
vectors (2^k for k distinct values), where an enumeration visits about
N^|shape| tableaux.  The values are listed by multiplicity, then value,
so assignments with the same multiplicities share one table of count
vectors (_count_layers), whose moves a drawn cell runs one value at a
time, each at its one level weight.  A side of an identity is one
walk: the last factors of its terms, the walk's ends, share one graph
whose nodes are keyed by a sub-shape and the fixed labels that an end
has inside it, so ends share the node of a sub-shape they label alike,
and start from the count vectors the factors before them drew; a
product walks the factor with fewer sub-shapes first.  The shapes of a
Pieri or Littlewood-Richardson identity fix one cached record (_Setup):
its symmetrized set, its terms, the LR coefficients taken from the
crystal decomposition (crystal.decompose_product), and the plans
(_SymPlan) of both sides.  A verifier builds it once per identity, and
a plan holds, per truncation level up to its most rows, all that the
level fixes: the walks, each with its last factors, their coefficients
and the order of its fixed labels, and the work guard's count of nodes
(_sym_work).  A call checks the assignment and the level, takes the
value multiset, guards both sides, pairs each walk's fixed labels with
their values and sums the walks, each a cached level DP; an exact
one-shape sum is a one-term plan that symmetrizes nothing.  Float
truncation and the untruncated limit walk one shape's graph in floats,
a chunk of levels at a time with one compensated sum per sub-shape, over
the strips its passes reach from each node.  The limit's tail terms
follow from the same strips' exponent sums, and a float fit over its
readings cancels them with weights solved in exact integers and rounded
once each.
"""

import decimal
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, permutations, product, repeat
from operator import add, itemgetter, mul
from numbers import Real
from typing import NamedTuple

from . import crystal
from .insertion import _column_fold, _row_fold
from .partitions import (
    Partition,
    as_partition,
    cells,
    conjugate,
    corners,
    echo,
    grow_cols,
    horizontal_strip_cols,
    is_int,
    require_ints,
)
from .tableaux import (
    Tableau,
    as_tableau,
    count_ssyt,
    require_ssyt,
    shape_of,
    transpose,
)

VarRows = tuple[tuple[str, ...], ...]

# The most predicted work (_sym_work) a symmetrized sum may take on.  With
# Python 3.11 on 2 cores a unit of the larger side costs 0.09-0.91 us across
# the exact frontier cases, growing with N as the integer weights grow:
# 0.91 us at Pieri-h (4,2), m=4, N=40, which the limit admits at 1.4 s.  The
# count does not price the width of the integer weights: see item 4 of
# ROADMAP.md, "A work guard that prices integer width".
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


def _exponents(names, assign) -> list:
    """The assigned value of each name; a ValueError, naming the variable,
    unless each is assigned a finite real number >= 0 that is not a bool.
    The one check of an assignment."""
    out = []
    for var in names:
        if var not in assign:
            raise ValueError(f"assignment missing variable {var!r}")
        x = assign[var]
        # type() first: a plain int skips the abstract Real check
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, Real)) or not 0 <= x < math.inf:
            raise ValueError(f"exponents must be finite numbers >= 0, got {var}={echo(x)}")
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# evaluation


def monomial(tableau, var_rows, assign):
    """1 / prod(entry ** exponent) over the cells; exact for int exponents.
    Exponents must be finite numbers >= 0 (not bools)."""
    t = as_tableau(tableau)
    exps = _checked_exponents(shape_of(t), var_rows, assign)
    entries = [x for row in t for x in row]
    if all(map(is_int, exps)):
        den = 1
        for base, ex in zip(entries, exps):
            den *= base**ex
        return Fraction(1, den)
    out = 1.0
    for base, ex in zip(entries, exps):
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
def _subshapes(shape: tuple) -> tuple:
    """(mu, left) per sub-shape mu of shape, a partition that may end in
    zeros, with as many parts, in lexicographic order, so every strict
    sub-shape comes first, and left the longest column of shape less mu.
    Row i of mu, x cells long, is the top of that gap in the columns from
    x to the end of row i - 1, and column x, lacking longer[x] - i cells
    (longer[x] rows of shape are longer than x), is the longest of them."""
    longer = [sum(part > x for part in shape) for x in range(max(shape, default=0) + 1)]
    nodes = [((), 0)]
    for i, part in enumerate(shape):
        gap = [c - i for c in longer]
        nodes = [(mu + (x,), left if left > gap[x] else gap[x])
                 for mu, left in nodes for x in range(min(mu[-1:] + (part,)) + 1)]
    return tuple(nodes)


@cache
def _subshape_count(shape: Partition) -> int:
    """The number of sub-shapes of shape (_subshapes), counted without
    listing them: row by row from the top, ways[x] counts the sub-shapes
    of the rows so far whose last row has x cells, and a row under one of
    x cells has at most x, so a row's counts are the suffix sums of those
    above it."""
    ways = [1] * (shape[0] + 1) if shape else [1]
    for part in shape[1:]:
        ways = list(accumulate(reversed(ways)))[::-1][:part + 1]
    return sum(ways)


@cache
def _walk_graph(ends: tuple):
    """(nodes, at, depth, need, passes): the walk graph of the ends (shape,
    labels), labels the row-major labels of the cells: None for a drawn
    cell, the fixed variable's name otherwise.  The one graph builder of
    the level engine; the float walks read its one-end call.

    A node is keyed by a sub-shape mu of an end, padded with zeros to the
    ends' most rows, and the fixed cells (i, c, label) that end has inside
    mu, () for an end with no fixed label: ends share a node exactly when
    they label its cells alike.  nodes lists the nodes' sub-shapes in
    lexicographic order, every strict sub-shape first and node 0 the empty
    shape, a sub-shape's nodes in the order of their first ends, and at[i]
    is the node of end i.  Per node, depth counts its drawn cells and need
    is the least, over the ends that hold it, longest column of the end
    less the node's sub-shape (_subshapes): the fewest levels, a
    horizontal strip each, that fill one of them from it.  passes holds
    one cell pass per row, bottom row first: the edges (mu, nu, label),
    in increasing mu, from each node mu to each node nu one cell longer in
    that row that is still a partition and shares an end with mu, label
    that of the new cell in the first end of nu.  Run in order, the passes
    add each horizontal strip by exactly one path, bottom row first: row
    i - 1 keeps its length until row i has grown.  Every edge joins two nodes that one end holds, and the key of a
    node fixes those of every node inside it, so every path into at[i] is
    a tableau of end i alone."""
    rows = max(len(shape) for shape, _ in ends)
    label_rows = [[labels[a - b:a] for a, b in zip(accumulate(shape), shape)] for shape, labels in ends]
    # per key (mask, least): the bit mask of the ends that hold it, in order
    # of first end, and the least longest column left over them
    holds: dict[tuple, tuple] = {}
    whole = []
    for j, ((shape, _), lr) in enumerate(zip(ends, label_rows)):
        padded = shape + (0,) * (rows - len(shape))
        fixed = tuple((i, c, x) for i, row in enumerate(lr) for c, x in enumerate(row) if x is not None)
        for mu, left in _subshapes(padded):
            # an end with no fixed label, as on every fully symmetrized
            # side, skips the filter
            key = (mu, tuple(cell for cell in fixed if mu[cell[0]] > cell[1]) if fixed else ())
            mask, least = holds.get(key, (0, left))
            holds[key] = (mask | 1 << j, least if least < left else left)
        whole.append((padded, fixed))
    keys = sorted(holds, key=itemgetter(0))
    nodes = [mu for mu, _ in keys]
    holders = [holds[key][0] for key in keys]
    index = {key: k for k, key in enumerate(keys)}
    # per sub-shape its nodes (mask, k), and per node the label rows of its
    # first end
    variants: dict[tuple, list] = {}
    for k, mu in enumerate(nodes):
        variants.setdefault(mu, []).append((holders[k], k))
    cell_rows = [label_rows[(mask & -mask).bit_length() - 1] for mask in holders]
    passes: list[list] = [[] for _ in range(rows)]
    for k, mu in enumerate(nodes):
        for i, x in enumerate(mu):
            if not i or x < mu[i - 1]:
                for held, j in variants.get(mu[:i] + (x + 1,) + mu[i + 1:], ()):
                    if held & holders[k]:
                        passes[rows - 1 - i].append((k, j, cell_rows[j][i][x]))
    return (
        tuple(nodes),
        tuple(index[key] for key in whole),
        tuple(sum(mu) - len(fixed) for mu, fixed in keys),
        tuple(holds[key][1] for key in keys),
        tuple(map(tuple, passes)),
    )


@cache
def _count_layers(caps: tuple[int, ...]):
    """(sizes, moves) over the count vectors c <= caps: sizes[k] counts
    those with sum k, and moves[k] lists, per value i drawn from some
    vector of layer k, (i, pairs) with pairs the (j, index in layer k + 1
    of c + e_i) over the j-th vectors c of layer k with c_i < caps[i], in
    increasing j.  A vector is the integer code sum(c_i * stride_i), the
    codes in product order, and a layer lists its codes in order of first
    reach from the layer below.  Keyed by caps alone, so assignments with
    the same multiplicities in the same order (_admit) share one table."""
    strides = list(accumulate(reversed([m + 1 for m in caps[1:]]), mul, initial=1))[::-1]
    # per code, the draws (i, stride_i) open to it: None where c_i = caps[i]
    steps = product(*([d] * m + [None] for d, m in zip(enumerate(strides), caps)))
    opens = list(map(list, map(filter, repeat(None), steps)))
    sizes, moves, layer = [1], [], [0]
    for _ in range(sum(caps)):
        where: dict[int, int] = {}
        pairs: list[list] = [[] for _ in caps]
        for j, c in enumerate(layer):
            for i, s in opens[c]:
                pairs[i].append((j, where.setdefault(c + s, len(where))))
        moves.append(tuple((i, tuple(p)) for i, p in enumerate(pairs) if p))
        layer = list(where)
        sizes.append(len(layer))
    return tuple(sizes), tuple(moves)


def _levels(ends, exps, n_trunc: int, values, caps, layer: int, init) -> list:
    """Per end (shape, labels), the sum over its SSYT with entries <=
    n_trunc, one walk over the ends' walk graph (_walk_graph) started at
    its empty shape, node 0, from the weight vector init over layer
    `layer` of _count_layers(caps): (k, out) per end, out the sum per
    count vector of layer k, k = layer plus the end's drawn cells, and
    empty when no SSYT exists.  exps maps each fixed label to its
    exponent.  values are distinct, drawn at most caps times each; at
    level a a fixed cell of exponent e weighs (L // a)**e and drawing
    value v weighs (L // a)**v, L = lcm(1..N).  Linear in init, and a draw
    stops at caps, so out pairs each count vector of init with every count
    vector the end draws on top of it within caps.

    A level runs the graph's cell passes in order over one state, a weight
    vector or None per node, in place: an edge adds its source, drawn or
    weighed, into its target, so each node ends the level with the sum
    over every horizontal strip into it, the empty strip included.  A
    drawn edge runs the moves of its layer one value at a time, each value
    with its one level weight.  A node that no end can fill in the levels
    left is pruned: a target mid-level when its need exceeds them by more
    than one, as the rest of the level may still grow it, and any node at
    the end of the level when its need exceeds them."""
    scale = _lcm_upto(n_trunc)
    _, at, depth, need, passes = _walk_graph(ends)
    sizes, moves = _count_layers(caps)
    state: list = [None] * len(need)
    state[0] = list(init)
    for a in range(1, n_trunc + 1):
        spare = n_trunc - a
        base = scale // a
        q = [base**v for v in values]
        for cells in passes:
            for mu, nu, label in cells:
                vec = state[mu]
                if vec is None or need[nu] > spare + 1:
                    continue
                tgt = state[nu]
                if label is None:
                    k = layer + depth[nu]
                    if tgt is None:
                        tgt = state[nu] = [0] * sizes[k]
                    for i, pairs in moves[k - 1]:
                        qi = q[i]
                        for s, j in pairs:
                            tgt[j] += vec[s] * qi
                else:
                    w = base ** exps[label]
                    if tgt is None:
                        state[nu] = [w * x for x in vec]
                    else:
                        for j, x in enumerate(vec):
                            tgt[j] += w * x
        state = [vec if need[k] <= spare else None for k, vec in enumerate(state)]
    return [(layer + depth[e], state[e] or []) for e in at]


@cache
def _lcm_upto(n: int) -> int:
    """lcm(1..n), the scale of the level weights.  Cached: both sides of
    every verify call at level n ask for it."""
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


def _require_shape(shape: Partition, var_rows) -> Partition:
    """shape; a ValueError unless var_rows has its row lengths.  The one
    check that a variable tableau fills a shape."""
    if shape_of(var_rows) != shape:
        raise ValueError("variable tableau does not match the shape")
    return shape


def _checked_exponents(shape: Partition, var_rows, assign) -> list:
    """The exponents (_exponents) of the shape's cells in row-major order;
    var_rows must have the shape."""
    exps = _exponents(_flatten(var_rows), assign)
    _require_shape(shape, var_rows)
    return exps


def eval_zeta_truncated(shape, var_rows, assign, n_trunc: int):
    """Finite Schur multiple zeta sum over tableaux with entries <= n_trunc.

    Exact rational when every exponent is an integer, float otherwise;
    zero when the shape has more rows than n_trunc.  Exponents must be
    finite numbers >= 0 (not bools) in both modes.  An exact sum is a
    one-term sum that symmetrizes nothing, planned once per shape and
    labels (_shape_plan) and guarded (_admit) as sym_sum does: refused,
    before its DP runs, when its work (_sym_work), sub-shapes times
    n_trunc, exceeds WORK_LIMIT.
    """
    shape = as_partition(shape)
    require_ints((n_trunc,), "truncation level", 1)
    flat = _checked_exponents(shape, var_rows, assign)
    if all(map(is_int, flat)):
        (call,) = _admit((_shape_plan(shape, tuple(map(tuple, var_rows))),), _NO_SYM, assign, n_trunc)
        return _terms_sum(call, assign, n_trunc)
    return math.fsum(next(_partial_sums(shape, tuple(map(Fraction, flat)), (n_trunc,))))


_NO_SYM = SymSpec((), frozenset())


@cache
def _shape_plan(shape: Partition, var_rows: VarRows) -> "_SymPlan":
    """The plan (_sym_plan) of the one-term sum of one shape over var_rows,
    rows as tuples, that symmetrizes nothing.  Cached: the sum's structure
    is fixed by the shape and the labels, and sym_sum_direct asks for it
    once per factor per permutation."""
    return _sym_plan([(1, [(shape, var_rows)])], _NO_SYM)


def _in_domain(shape: Partition, exps) -> bool:
    """Whether the exponents, those of shape's cells in row-major order,
    are >= 1 everywhere and > 1 at every corner cell."""
    corner_set = set(corners(shape))
    return all(v > 1 if cell in corner_set else v >= 1 for cell, v in zip(cells(shape), exps))


# ---------------------------------------------------------------------------
# untruncated limit by geometric-level extrapolation

LIMIT_START = 16
LIMIT_MAX_ORDER = 12
# the most levels _partial_sums takes in one chunk: few enough that its
# lists stay small, enough that its per-chunk work spreads thin
_CHUNK = 1024
_UNIT_ROUNDOFF = 2.0**-53
_FLOAT_MAX = Fraction(sys.float_info.max)


def _strips(shape: Partition, kinds: tuple):
    """(size, end, strips) of the shape's walk graph for the float walks,
    its one-end graph (_walk_graph): its number of nodes, the index of
    shape (the empty shape is node 0), and its nonempty strips (mu, nu, e)
    in increasing mu and then nu, e the exponent sum of the strip's cells
    for the row-major cell exponents kinds, exact numbers.  The strips out
    of mu are the nodes its cell passes reach, taken in order."""
    nodes, (end,), _, _, passes = _walk_graph(((shape, (None,) * sum(shape)),))
    steps = [dict((mu, nu) for mu, nu, _ in cells) for cells in passes]
    prefix, at = [], 0
    for part in shape:
        prefix.append(list(accumulate(kinds[at:at + part], initial=0)))
        at += part
    fixed = [sum(p[x] for p, x in zip(prefix, mu)) for mu in nodes]
    strips = []
    for mu in range(len(nodes)):
        reached = [mu]
        for step in steps:
            for nu in reached[:]:
                while (nu := step.get(nu)) is not None:
                    reached.append(nu)
        strips += [(mu, nu, fixed[nu] - fixed[mu]) for nu in sorted(reached[1:])]
    return len(nodes), end, strips


def _tail_terms(shape: Partition, kinds: tuple) -> dict:
    """The LIMIT_MAX_ORDER slowest powers N**beta (beta < 0) in the
    expansion of the partial sum S(N) about its limit, each with the
    highest power of log N that multiplies it (every lower log power
    occurs as well).  kinds are the row-major cell exponents, exact: an
    int where integral, which hashes and adds faster, a Fraction otherwise.

    T_nu(n), the sum over the SSYT of the sub-shape nu with entries <= n, is
    the sum over a <= n and strips mu -> nu of a**-e * T_mu(a-1), e the
    strip's exponent sum.  By Euler-Maclaurin a summand a**g * log(a)**p
    brings n**(g+1-m) * log(n)**p for m >= 0, and for g = -1 log(n)**(p+1)
    in place of n**0.  Every strip into mu is merged, keeping the highest
    log power per beta, before mu feeds its own strips, and every beta but
    n**0's is < 0.  beta -> beta + 1 - e keeps the order, so a power below
    mu's LIMIT_MAX_ORDER slowest, or a step of a run past as many, only
    feeds powers below as many others: mu keeps its n**0 entry and its
    slowest, and a run stops after LIMIT_MAX_ORDER steps or at a beta
    already holding p or more.
    """
    size, end, strips = _strips(shape, kinds)
    grow: list[dict] = [{} for _ in range(size)]
    grow[0][0] = 0
    src = None
    for mu, nu, e in strips:
        if mu != src:
            src, kept = mu, _slowest(grow[mu])
        nxt = grow[nu]
        nxt.setdefault(0, 0)
        for beta, p in kept.items():
            top = beta + 1 - e
            if top == 0:
                nxt[top] = max(nxt[top], p + 1)
                top -= 1
            for _ in range(LIMIT_MAX_ORDER):
                if nxt.get(top, -1) >= p:
                    break
                nxt[top] = p
                top -= 1
    out = _slowest(grow[end])
    del out[0]
    return out


def _slowest(terms: dict) -> dict:
    """The n**0 entry of terms and their LIMIT_MAX_ORDER slowest powers."""
    return {beta: terms[beta] for beta in sorted(terms, reverse=True)[:LIMIT_MAX_ORDER + 1]}


def _partial_sums(shape: Partition, kinds: tuple, stops):
    """Yield S(N) for each N in the increasing stops as its float pair
    (s, c), S(N) = s + c; kinds are the row-major cell exponents, exact.

    T_nu(n) = T_nu(n-1) + sum over the nonempty strips mu -> nu of
    n**-e * T_mu(n-1), e the strip's exponent sum, and S(N) = T_shape(N).
    The levels run in chunks of at most _CHUNK that end at every stop, a
    few C-level passes per strip each.  In a chunk the nodes run in
    increasing index: a strict sub-shape has the smaller index, so every
    T_mu(n-1) of the chunk is ready before nu reads it.  nu's terms are
    mapped over the strips into it, and its carry T_nu, a Neumaier pair
    (s, c) (every term is positive, so its branch compares the values
    themselves), takes them as one correctly rounded fsum.  Its running
    values are s plus the running sums P of c and the terms.

    _extrapolate's rounding floor prices each term of S(N) at 4u per cell
    (pow, product and operand).  The j-th running value V of a chunk is
    an operand rounded more than once: s + P once, by at most u*V, and
    each of the j additions of P by at most u*P, at the scale of the
    chunk's own sum.  So V is off by at most u*V*(1 + j*P/V) and, as
    round-to-nearest errors are unbiased, typically by about
    u*V*(1 + sqrt(j/3)*P/V), where P/V is the share of V gained within
    the chunk, 1 only while V starts from 0.  The floor holds by that
    expected size, not by the worst case.  Seeded with s, P would round
    at the scale of V on every level."""
    size, end, edges = _strips(shape, kinds)
    into: list[list] = [[] for _ in range(size)]
    for mu, nu, e in edges:
        # n**-e is 1.0 at n = 1 and 0.0 beyond for e past the largest float
        into[nu].append((mu, -float(min(e, _FLOAT_MAX))))
    exponents = {ex for strips in into for _, ex in strips}
    sums, comps = [0.0] * size, [0.0] * size
    sums[0] = 1.0
    n = 0
    for stop in stops:
        while n < stop:
            xs = list(map(float, range(n + 1, min(stop, n + _CHUNK) + 1)))
            n += len(xs)
            pw = {ex: list(map(pow, xs, repeat(ex))) for ex in exponents}
            running: list = [None] * size
            for nu, strips in enumerate(into):
                if not strips:
                    continue
                terms = None
                for mu, ex in strips:
                    # T of the empty shape, node 0, is 1 on every level
                    part = pw[ex] if mu == 0 else map(mul, pw[ex], running[mu])
                    terms = list(part) if terms is None else list(map(add, terms, part))
                s, t = sums[nu], math.fsum(terms)
                if nu != end:
                    running[nu] = list(map(add, repeat(s), accumulate(terms, initial=comps[nu])))
                total = s + t
                comps[nu] += (s - total) + t if s >= t else (t - total) + s
                sums[nu] = total
        yield sums[end], comps[end]


def _ratio(beta) -> Fraction:
    """2**beta, the ratio of a term N**beta from one reading to the next,
    to 60 significant digits (0 below 1e-1000058): exact for an integer
    beta down to -85, and far below a float reading's rounding even where
    the weights grow like 1/(1 - r), near beta = 0.  A float r is not, and
    an exact power of a huge integer beta has about as many digits."""
    ctx = decimal.Context(prec=60)
    return Fraction(ctx.power(2, ctx.divide(beta.numerator, beta.denominator)))


@cache
def _extrapolation_weights(groups: tuple) -> tuple[tuple[int, ...], int]:
    """(coeffs, den): the weights w_t = coeffs[t] / den of the readings
    S(N0 * 2**t), t = 0..K, whose weighted sum keeps the limit and cancels
    the K terms N**beta * log(N)**q, q <= p, of the groups (beta, p).

    log N is affine in t, so those terms span r**t * t**q with r = 2**beta,
    taken to 60 significant digits (_ratio), and the weights solve
    sum w_t = 1, sum w_t * r**t * t**q = 0.  The exact solution for that r
    is the coefficient list of the polynomial
    prod(((x - r) / (1 - r)) ** (p + 1)): it is 1 at x = 1, and each r is a
    root of order p + 1, where (x d/dx)**q of it vanishes for q <= p.  With
    r = R / D in lowest terms that is prod((D*x - R) ** (p + 1)) over
    prod((D - R) ** (p + 1)), integer products with no gcd on the way.
    Cached, and built on the cached weights of groups[:-1]: the readings of
    a limit ask again and again for the same prefixes of its groups.
    """
    if not groups:
        return (1,), 1
    coeffs, den = _extrapolation_weights(groups[:-1])
    beta, p = groups[-1]
    r = _ratio(beta)
    num, step = r.numerator, r.denominator
    for _ in range(p + 1):
        coeffs = tuple(step * a - num * b for a, b in zip((0, *coeffs), (*coeffs, 0)))
        den *= step - num
    return coeffs, den


@cache
def _fit_weights(groups: tuple) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(suffix, gaps) of the fit that cancels the groups, each exact value
    rounded to a float once (int / int divides with one rounding): per
    increment t = 1..K from reading t-1 to t, suffix holds W_t, the weight
    sum of the readings from t on, and gaps W_t minus the same sum of the
    fit with the last group left out, which reads only the last readings."""
    coeffs, den = _extrapolation_weights(groups)
    low, low_den = _extrapolation_weights(groups[:-1])
    upper = list(accumulate(reversed(coeffs)))[-2::-1]
    lower = [low_den] * (len(coeffs) - len(low)) + list(accumulate(reversed(low)))[-2::-1]
    both = den * low_den
    return (
        tuple(w / den for w in upper),
        tuple((w * low_den - v * den) / both for w, v in zip(upper, lower)),
    )


def _extrapolate(readings, groups, amplify):
    """Limit from the last readings, float pairs (s, c) of S(N) = s + c,
    with as many term groups as they and LIMIT_MAX_ORDER allow, the gap to
    the value with one group fewer, and a rounding floor of the limit; None
    while not even one group fits.

    The weights sum to 1, so by parts the fit is R_0 + sum W_t * D_t over
    the increments D_t from reading t-1 to t, R_0 the first reading used
    and W_t its suffix weight (_fit_weights), and the gap is the same sum
    over the gap weights.  Each term of S(N) carries a relative rounding
    error of at most amplify * u, so the error of R_0 passes once and that
    of D_t with the factor W_t: at most amplify * u * spread, spread =
    R_0 + sum |W_t * D_t|.

    The fit rounds too: D_t is one fsum of the two pairs, and W_t and each
    product are rounded once, so a term W_t * D_t is off by at most
    (1 + u)**3 - 1 < 3.0001u of itself, and the closing fsum adds at most
    u * |value|.  So the value and the gap are each within
    3.0001u * sum |weight * D_t| + u * |itself| of the exact fit over the
    same readings.  The floor prices the value's share at
    3u * spread + u * |value|, dropping the u**2 terms as the walk's
    pricing does.  (Below 2**-1022 a product rounds by up to 2**-1075
    absolute, as the walk's terms do; math.ulp(0.0) keeps the floor above
    0 where every term underflows.)
    """
    room = min(len(readings) - 1, LIMIT_MAX_ORDER)
    used = size = 0
    for _, p in groups:
        if size + p + 1 > room:
            break
        used, size = used + 1, size + p + 1
    if used == 0:
        return None
    suffix, gaps = _fit_weights(groups[:used])
    tail = readings[-len(suffix) - 1:]
    steps = [math.fsum((s, c, -s0, -c0)) for (s0, c0), (s, c) in zip(tail, tail[1:])]
    terms = list(map(mul, suffix, steps))
    value = math.fsum((*tail[0], *terms))
    spread = math.fsum((*tail[0], *map(abs, terms)))
    floor = _UNIT_ROUNDOFF * ((amplify + 3) * spread + abs(value)) + math.ulp(0.0)
    return value, abs(math.fsum(map(mul, gaps, steps))), floor


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
    powers fixed by the strips' exponent sums (_tail_terms), so weights
    solved exactly over the last readings, each rounded to a float once,
    cancel the slowest terms in a float fit (_extrapolate).
    error_estimate is the larger of two gaps, to the value with the last
    group of terms left out and to the value one reading earlier, plus a
    rounding floor; it is never 0, and converged means it is at most tol.
    The first extrapolation has no earlier value, and on a tall shape, whose
    S(N) is nearly 0 at the first readings, its gap alone understates its
    error, so it only seeds the next one.  Levels double until the estimate
    is at most tol, until the gap falls below the rounding floor
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
    kinds = tuple(f.numerator if f.denominator == 1 else f for f in map(Fraction, exps))
    terms = _tail_terms(shape, kinds)
    groups = tuple(sorted(terms.items(), reverse=True))
    amplify = 4 * sum(shape)  # pow, product and operand rounding; see _partial_sums
    stops = []
    while (LIMIT_START << len(stops)) < max_level:
        stops.append(LIMIT_START << len(stops))
    stops.append(max_level)
    readings: list[tuple[float, float]] = []
    last = None  # (value, error estimate) of the latest extrapolation
    for stop, total in zip(stops, _partial_sums(shape, kinds, stops)):
        if stop != LIMIT_START << len(readings):
            break
        readings.append(total)
        fit = _extrapolate(readings, groups, amplify)
        if fit is None:
            continue
        value, gap, floor = fit
        if last is None:
            # the first fit has no earlier value to be checked against
            last = (value, gap + floor)
            continue
        gap = max(gap, abs(value - last[0]))
        last = (value, gap + floor)
        if gap + floor <= tol or gap <= floor:
            return LimitReport(value, stop, gap + floor, gap + floor <= tol)
    plain = math.fsum(total)
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


def _terms_sum(call: "_Admitted", assign, n_trunc: int) -> Fraction:
    """Sum over the distinct assignments of a value multiset (call.values
    with multiplicities call.caps) to the symmetrized variables of
    sum(coeff * the product of the term's truncated factors) over the terms
    of the call's walks, the plan's terms of at most n_trunc rows, times
    prod(caps_i!), the orders of the variables that give each assignment.

    Each walk is one _product_sum over the walk graph of its last factors
    (_walk_graph), which share the node of a sub-shape they label alike,
    started from the vector of the factors before; its key pairs the
    walk's fixed labels with their values.  Every symmetrized variable
    fills one cell of each term, so a term draws every value caps times: an
    end's vector is empty or holds the one count vector caps, at exponent
    total F + caps . values.
    """
    walks, values, caps = call
    sums: dict[int, int] = {}  # fixed exponent total F -> numerator over L**F
    for prefix, lasts, coeffs, keys in walks:
        fixed = tuple(zip(keys, map(assign.__getitem__, keys)))
        for coeff, (total, _, vec) in zip(coeffs, _product_sum(prefix, lasts, fixed, n_trunc, values, caps)):
            if vec:
                sums[total] = sums.get(total, 0) + coeff * vec[0]
    if not sums:
        return Fraction(0)
    scale, top = _lcm_upto(n_trunc), max(sums)
    num = sum(w * scale ** (top - e) for e, w in sums.items())
    return Fraction(num * math.prod(map(math.factorial, caps)), scale ** (top + sum(map(mul, caps, values))))


def _sym_work(plan: "_SymPlan", n_trunc: int, caps: tuple) -> int:
    """The predicted work of _terms_sum over the plan's walks, from the
    shapes and the value multiplicities caps alone: the level DP's
    prod(m_i + 1) count vectors times n_trunc times the plan's units at
    n_trunc (_SymPlan.cuts)."""
    return math.prod(map((1).__add__, caps)) * plan.cuts[min(n_trunc, plan.rows)][0] * n_trunc


def _require_work(work: int) -> None:
    """A ValueError when work exceeds WORK_LIMIT, naming the count with
    thousands separators while that takes at most 80 characters (60
    digits), and as echo cuts a rejected value past that."""
    if work > WORK_LIMIT:
        count = f"{work:,}" if work < 10**60 else echo(work)
        raise ValueError(f"predicted work of {count} units exceeds the limit of {WORK_LIMIT:,}")


def _check_spec(terms, spec) -> list:
    """The variables a symmetrized sum needs (_SymPlan.names), after
    checking that spec names no variable twice and that each symmetrized
    variable fills exactly one cell of every term."""
    twice = sorted({v for v in spec.symmetrized if spec.symmetrized.count(v) > 1})
    if twice:
        raise ValueError(f"symmetrized variables named twice: {twice}")
    if set(spec.symmetrized) & spec.fixed:
        raise ValueError("symmetrized and fixed variable sets overlap")
    for index, (_, factors) in enumerate(terms):
        uses = Counter(v for _, rows in factors for v in _flatten(rows))
        for var in spec.symmetrized:
            if uses[var] != 1:
                raise ValueError(f"symmetrized variable {var!r} fills {uses[var]} cells of terms[{index}], "
                                 "not exactly one")
    names = [v for _, factors in terms for _, rows in factors for v in _flatten(rows)]
    return list(dict.fromkeys(names + list(spec.symmetrized)))


def sym_sum_direct(terms, spec, assign, n_trunc: int):
    """Reference implementation: literal sum over all bijections of the
    symmetrized values, checked as sym_sum is.  Slower than sym_sum but
    definitionally direct; float exponents give a float sum."""
    require_ints((n_trunc,), "truncation level", 1)
    exact = all(map(is_int, _exponents(_check_spec(terms, spec), assign)))
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
    against it, and only they are read with it.

    names lists every variable the sum needs: those of its cells in order
    of first use, then the symmetrized ones.  groups are the sum's walks,
    one per prefix, the factors before the last of a term, each as (prefix,
    ends) with ends the last factors as (factor, coeff, rows): the
    coefficients of equal last factors added and rows the most rows of the
    prefix and the last factor, above which the term is an empty sum.  A
    factor is (shape, labels) with labels its row-major cell labels: None
    for a symmetrized variable, which the level DP draws, the variable's
    name otherwise.  A term's factors are in the order of its walk, the
    fewest sub-shapes first.  rows is the most rows of a term.

    cuts[r], r = 0..rows, holds what a truncation level N reads, with r =
    min(N, rows): (units, walks) over the terms of at most r rows.  units
    is the work guard's count of nodes (_sym_work): the largest, over those
    terms, of the summed sub-shapes of the prefix and the last factor.
    walks lists, per group with such a term, (prefix, lasts, coeffs, keys)
    for _terms_sum: the group's last factors of those terms, their
    coefficients, and the walk's fixed labels in order of first appearance
    in prefix + lasts (_fixed_pairs)."""

    names: tuple[str, ...]
    groups: tuple
    rows: int
    cuts: tuple


def _sym_plan(terms, spec: SymSpec) -> _SymPlan:
    """The one structure builder: the _SymPlan of terms (coeff, [(shape,
    var_rows), ...]) under spec, which it trusts to pass _check_spec and
    each shape to be the Partition of its var_rows' row lengths."""
    sym = frozenset(spec.symmetrized)
    found: dict[tuple, dict] = {}
    for coeff, factors in terms:
        walk = sorted(
            ((shape, tuple(None if v in sym else v for v in _flatten(rows))) for shape, rows in factors),
            key=lambda factor: _subshape_count(factor[0]),
        )
        *prefix, last = walk or [((), ())]
        ends = found.setdefault(tuple(prefix), {})
        ends[last] = ends.get(last, 0) + coeff
    groups = tuple(
        (prefix, tuple(
            (last, coeff, max(len(shape) for shape, _ in (*prefix, last)))
            for last, coeff in ends.items()
        ))
        for prefix, ends in found.items()
    )
    # a cut changes only at the rows of a term, and holds from there on
    heights = sorted({r for _, ends in groups for _, _, r in ends})
    rows = heights[-1] if heights else 0
    cuts = [(0, ())] * (rows + 1)
    for cut in heights:
        units, walks = 0, []
        for prefix, ends in groups:
            kept = [(last, coeff) for last, coeff, r in ends if r <= cut]
            if kept:
                lasts = tuple(last for last, _ in kept)
                nodes = sum(_subshape_count(shape) for shape, _ in prefix)
                units = max(units, nodes + max(_subshape_count(shape) for shape, _ in lasts))
                keys = tuple(dict.fromkeys(x for _, labels in prefix + lasts for x in labels if x is not None))
                walks.append((prefix, lasts, tuple(coeff for _, coeff in kept), keys))
        cuts[cut:] = [(units, tuple(walks))] * (rows + 1 - cut)
    names = [v for _, factors in terms for _, rows in factors for v in _flatten(rows)]
    return _SymPlan(tuple(dict.fromkeys(names + list(spec.symmetrized))), groups, rows, tuple(cuts))


class _Admitted(NamedTuple):
    """A symmetrized sum checked and admitted by the work guard for one
    assignment and level (_admit): the walks of its plan at that level
    (_SymPlan.cuts), and the distinct values of the symmetrized variables
    in the canonical order, by multiplicity and then by value, with their
    multiplicities."""

    walks: tuple
    values: tuple
    caps: tuple


def _admit(plans, spec: SymSpec, assign, n_trunc: int) -> list:
    """The _Admitted sums of the plans under one assignment and level, each
    of which must already pass their checks; a ValueError at the first
    whose predicted work (_sym_work) exceeds WORK_LIMIT, before any of
    their DPs runs."""
    values = list(map(assign.__getitem__, spec.symmetrized))
    # the canonical order, by multiplicity and then by value (a stable sort
    # of the sorted values), so that assignments with the same
    # multiplicities share one count-vector table (_count_layers)
    order = sorted(set(values))
    order.sort(key=values.count)
    distinct, caps = tuple(order), tuple(map(values.count, order))
    for plan in plans:
        _require_work(_sym_work(plan, n_trunc, caps))
    return [_Admitted(plan.cuts[min(n_trunc, plan.rows)][1], distinct, caps) for plan in plans]


def sym_sum(terms, spec: SymSpec, assign, n_trunc: int) -> Fraction:
    """Sum over all permutations of the symmetrized exponent values of
    sum(coeff * prod of truncated zeta factors) over the given terms.

    Each term is (coeff, [(shape, var_rows), ...]), and each symmetrized
    variable fills exactly one cell of every term.  Exact only: every
    exponent must be an integer >= 0.  The terms, spec, assignment and
    n_trunc are checked in full, planned by _sym_plan, and refused when
    their predicted work (_sym_work) exceeds WORK_LIMIT, before any of the
    sum is done.  terms may also be an _Admitted sum of the same spec,
    assign and n_trunc, which the caller has checked and admitted (_verify)
    and which is summed without any check.
    """
    if not isinstance(terms, _Admitted):
        require_ints((n_trunc,), "truncation level", 1)
        if not all(map(is_int, _exponents(_check_spec(terms, spec), assign))):
            raise ValueError("sym_sum needs integer exponents; use sym_sum_direct")
        plan = _sym_plan(
            [(coeff, [(_require_shape(as_partition(s), rows), rows) for s, rows in factors])
             for coeff, factors in terms],
            spec,
        )
        (terms,) = _admit((plan,), spec, assign, n_trunc)
    return _terms_sum(terms, assign, n_trunc)


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
    _require_shape(lam, s_rows)
    grow_cols(lam, cols)  # a ValueError unless cols add a horizontal strip
    return _push(s_rows, t_names, sorted(cols))


def _push(s_rows: VarRows, t_names, cols) -> VarRows:
    """The horizontal push, unchecked: cols are the columns of a horizontal
    strip on the shape of s_rows in increasing order, one name of t_names
    each, and each grown column takes its name on top of its entries."""
    columns = list(transpose(s_rows))
    for name, c in zip(t_names, cols):
        if c > len(columns):
            columns.append(())
        columns[c - 1] = (name, *columns[c - 1])
    return transpose(columns)


def vertical_push_filling(lam, s_names, t_rows: VarRows, rows) -> VarRows:
    """Filling of the shape grown at the given rows: the k-th new variable
    sits in column 1 of the k-th grown row, and every existing entry in a
    grown row slides right one column.  The transpose of the horizontal
    push on the conjugate shape."""
    lam = _require_shape(as_partition(lam), t_rows)
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
        rows = orient(_push(s_rows, t_names, strip))
        extensions.append((strip, shape_of(rows), rows))
    rhs = [(1, [(grown, rows)]) for _, grown, rows in extensions]
    return _Setup(spec, factors, tuple(extensions), _sym_plan([(1, factors)], spec), _sym_plan(rhs, spec))


def _vacuous_note(lhs: _SymPlan, n_trunc: int) -> str:
    """The note of an identity with a left-hand factor of more rows than
    n_trunc: no tableau with entries <= n_trunc fills it, nor any shape on
    the right, each of which contains it, so both sides are empty sums."""
    if lhs.rows <= n_trunc:
        return ""
    return (
        f"vacuous: truncation {n_trunc} < {lhs.rows} rows of a left-hand factor, "
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
    for var, x in zip(lhs.names, _exponents(lhs.names, assign)):
        if type(x) is not int and not is_int(x) or x < 1:
            raise ValueError(f"exact mode needs integer exponents >= 1, got {var}={echo(x)}")
    left, right = [sym_sum(call, spec, assign, n_trunc) for call in _admit((lhs, rhs), spec, assign, n_trunc)]
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


@cache
def _lr_setup(mu: Partition, nu: Partition) -> _Setup:
    """The _Setup of the Littlewood-Richardson identity of mu and nu: all
    their variables symmetrized, and one term per component of the
    product of their GL(len(mu) + len(nu)) tableau crystals
    (_lr_expansion), enough letters for every shape of the product, each
    shape filled row-major by the mu-variables then the nu-variables.
    Any filling gives the same sum: every variable is symmetrized, so
    none is tied to a cell.  Cached, so a sweep prices each crystal once."""
    factors = ((mu, grid_vars(mu, "s")), (nu, grid_vars(nu, "t")))
    names = tuple(v for _, rows in factors for v in _flatten(rows))
    spec = SymSpec(names, frozenset())
    terms = tuple(
        (lam, coeff, tuple(names[a - part:a] for a, part in zip(accumulate(lam), lam)))
        for lam, coeff in _lr_expansion(mu, nu, len(mu) + len(nu)).items()
    )
    rhs = [(coeff, [(lam, filling)]) for lam, coeff, filling in terms]
    return _Setup(spec, factors, terms, _sym_plan([(1, factors)], spec), _sym_plan(rhs, spec))


def _lr_expansion(mu: Partition, nu: Partition, n: int) -> Counter:
    """crystal.decompose_product(mu, nu, n), the one LR rule of verify_lr,
    `lr` and lr_coefficient, refused (_require_work) before it runs when
    the tableaux of mu and nu over n letters that it reads are too many."""
    _require_work(count_ssyt(mu, n) + count_ssyt(nu, n))
    return crystal.decompose_product(mu, nu, n)


def verify_lr(mu, nu, assign, n_trunc: int) -> IdentityReport:
    """Exact truncated check of the Littlewood-Richardson product formula:
    the fully symmetrized product of two Schur multiple zeta values against
    the coefficient-weighted symmetrized sum over all shapes of the right
    size, each filled row-major by the mu-variables then the
    nu-variables."""
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
    left, right = require_ssyt(left), require_ssyt(right)
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
    # the checked tableaux go to the unchecked folds: row insertion of the
    # row's letters, or column insertion of the column's letters top to
    # bottom
    if mode == "h":
        result = _row_fold(left, right[0])[0]
    else:
        result = _column_fold(right, [x for (x,) in left])[0]
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
