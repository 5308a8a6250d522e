"""The GL(n) letter crystal, tensor powers, and crystal-based product
decomposition.

Elements of the tensor power are plain tuples of letters 1..n (leftmost =
first tensor factor).  Operators return a new tuple or None; None plays the
role of the absent value outside the crystal.
"""

from collections import Counter
from itertools import accumulate

from .partitions import Partition, as_partition, require_ints
from .tableaux import Tableau, cached_ssyt, is_ssyt, reading_word

TensorWord = tuple[int, ...]


def _check_word(word, n: int) -> TensorWord:
    require_ints((n,), "n", 1)
    w = require_ints(word, "letters", 1, n)
    if not w:
        raise ValueError("tensor words must be nonempty")
    return w


def wt(word, n: int) -> tuple[int, ...]:
    """Letter multiplicities as a length-n vector."""
    w = _check_word(word, n)
    out = [0] * n
    for x in w:
        out[x - 1] += 1
    return tuple(out)


def _suffix_phi(w: TensorWord, i: int) -> list[int]:
    """phi_i of every suffix; index k holds phi of w[k:], last entry 0.
    Scanning from the right, a letter i adds one and a letter i + 1
    cancels one if there is one."""
    out = [0] * (len(w) + 1)
    c = 0
    for k in range(len(w) - 1, -1, -1):
        x = w[k]
        if x == i:
            c += 1
        elif x == i + 1 and c:
            c -= 1
        out[k] = c
    return out


def _suffix_eps(w: TensorWord, i: int) -> int:
    """eps_i of w: the letters i + 1 left with no letter i to their
    right to cancel, by the same scan as _suffix_phi."""
    c = out = 0
    for x in reversed(w):
        if x == i:
            c += 1
        elif x == i + 1:
            if c:
                c -= 1
            else:
                out += 1
    return out


def phi(i: int, word, n: int) -> int:
    w = _check_word(word, n)
    require_ints((i,), "operator index", 1, n - 1)
    return _suffix_phi(w, i)[0]


def eps(i: int, word, n: int) -> int:
    w = _check_word(word, n)
    require_ints((i,), "operator index", 1, n - 1)
    return _suffix_eps(w, i)


def f(i: int, word, n: int) -> TensorWord | None:
    """Lowering operator on the tensor power; None when it vanishes."""
    w = _check_word(word, n)
    require_ints((i,), "operator index", 1, n - 1)
    suf = _suffix_phi(w, i)
    for k, x in enumerate(w):
        if suf[k + 1] <= (x == i + 1):
            # act on this factor: phi(rest) <= eps(letter)
            if x == i:
                return w[:k] + (i + 1,) + w[k + 1 :]
            return None
    return None


def e(i: int, word, n: int) -> TensorWord | None:
    """Raising operator on the tensor power; None when it vanishes."""
    w = _check_word(word, n)
    require_ints((i,), "operator index", 1, n - 1)
    suf = _suffix_phi(w, i)
    for k, x in enumerate(w):
        if suf[k + 1] < (x == i + 1):
            if x == i + 1:
                return w[:k] + (i,) + w[k + 1 :]
            return None
    return None


def rr(t: Tableau, n: int) -> TensorWord:
    """Row-reading embedding of an SSYT: rows bottom to top."""
    if not is_ssyt(t):
        raise ValueError(f"not a semistandard tableau: {t}")
    word = reading_word(t)
    return _check_word(word, n)


def connected_component(word, n: int) -> set[TensorWord]:
    """Closure of a word under all raising and lowering operators."""
    start = _check_word(word, n)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(1, n):
            for op in (f, e):
                y = op(i, w, n)
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def is_highest_weight(word, n: int) -> bool:
    w = _check_word(word, n)
    return all(e(i, w, n) is None for i in range(1, n))


def highest_weight_elements(words, n: int) -> list[TensorWord]:
    """Elements killed by every raising operator, in sorted order."""
    require_ints((n,), "n", 1)
    return sorted(w for w in words if is_highest_weight(w, n))


def weight_partition(word, n: int) -> Partition:
    """Weight of a word as a partition; errors when not weakly decreasing."""
    return as_partition(wt(word, n))


def _extend_phi(word: TensorWord, phi: list[int]) -> list[int] | None:
    """Extend phi, the vector (phi_1, .., phi_n) of a highest-weight word
    after index 0, which is unused, in place to word followed by that
    word: by the tensor-product rule, scanning word from the right, a
    letter x takes one from phi_(x-1) and adds one to phi_x.  None when
    some e_i acts, that is when a letter i + 1 meets phi_i = 0, e's own
    test.  phi_n counts the letters n."""
    for x in reversed(word):
        if x > 1:
            if not phi[x - 1]:
                return None
            phi[x - 1] -= 1
        phi[x] += 1
    return phi


def decompose_product(mu, nu, n: int) -> Counter:
    """Multiset of partitions labelling the components of the product of
    the two tableau crystals, found by highest-weight search over the
    concatenated reading words.

    e_i acts on a word exactly when it acts on a letter of some suffix,
    so a word is highest weight only if every suffix is.  One
    tensor-rule scan per right word (_extend_phi) gives its phi vector
    and drops the right words some e_i acts on; each left word then
    extends each kept vector.  A highest-weight word of weight lam has
    phi_i = lam_i - lam_(i+1), so lam is read off the final vector."""
    require_ints((n,), "n", 1)
    mu, nu = as_partition(mu), as_partition(nu)
    if len(mu) > n or len(nu) > n:
        raise ValueError(f"shapes {mu}, {nu} need at most {n} rows")
    tops = []
    for right in cached_ssyt(nu, n):
        phi = _extend_phi(reading_word(right), [0] * (n + 1))
        if phi is not None:
            tops.append(phi)
    out: Counter = Counter()
    for left in cached_ssyt(mu, n):
        lw = reading_word(left)
        for top in tops:
            phi = _extend_phi(lw, top.copy())
            if phi is not None:
                lam = list(accumulate(reversed(phi[1:])))[::-1]
                out[tuple(x for x in lam if x)] += 1
    return out


class _Stored(dict):
    """fn of a key, evaluated the first time the key is looked up."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        out = self[key] = self.fn(key)
        return out


def verify_crystal_axioms(words, n: int, ops=None) -> list[str]:
    """Check the crystal axioms and seminormality on a closed set of words.

    Returns a list of violation descriptions; empty means the set passes.
    ``ops`` may override (f, e, eps, phi) for fault injection.

    Within one call each of the four operators is evaluated at most once
    per (i, word), and ``wt`` once per word; the f- and e-strings follow
    the stored results.  Every evaluation still goes through ``ops``, in
    the order of the first time the checks ask for it, and the store is
    dropped when the call returns.
    """
    require_ints((n,), "n", 1)
    words = set(tuple(w) for w in words)
    alpha = [
        tuple((k == i - 1) - (k == i) for k in range(n)) for i in range(1, n)
    ]
    bad: list[str] = []

    def stored(op):
        return _Stored(lambda key: op(*key, n))

    f_at, e_at, eps_at, phi_at = map(
        stored, ops if ops is not None else (f, e, eps, phi)
    )
    wt_at = _Stored(lambda w: wt(w, n))

    def vec_add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    for w in sorted(words):
        for i in range(1, n):
            ai = alpha[i - 1]
            fw = f_at[i, w]
            ew = e_at[i, w]
            if fw is not None:
                if fw not in words:
                    bad.append(f"closure: f_{i}{w} left the set")
                if e_at[i, fw] != w:
                    bad.append(f"A1: e_{i}(f_{i}{w}) != {w}")
                if wt_at[fw] != vec_add(wt_at[w], tuple(-x for x in ai)):
                    bad.append(f"A1: wt(f_{i}{w}) != wt{w} - alpha_{i}")
                if eps_at[i, fw] != eps_at[i, w] + 1:
                    bad.append(f"A1: eps increment wrong at f_{i}{w}")
                if phi_at[i, fw] != phi_at[i, w] - 1:
                    bad.append(f"A1: phi increment wrong at f_{i}{w}")
            if ew is not None:
                if ew not in words:
                    bad.append(f"closure: e_{i}{w} left the set")
                if f_at[i, ew] != w:
                    bad.append(f"A1: f_{i}(e_{i}{w}) != {w}")
                if wt_at[ew] != vec_add(wt_at[w], ai):
                    bad.append(f"A1: wt(e_{i}{w}) != wt{w} + alpha_{i}")
            wv = wt_at[w]
            if phi_at[i, w] != (wv[i - 1] - wv[i]) + eps_at[i, w]:
                bad.append(f"A2: phi != <wt,alpha^vee> + eps at {w}, i={i}")
            k, cur = 0, w
            while True:
                cur = f_at[i, cur]
                if cur is None or k > len(w) + 1:
                    break
                k += 1
            if phi_at[i, w] != k:
                bad.append(f"seminormal: phi_{i}{w} != f-string length {k}")
            k, cur = 0, w
            while True:
                cur = e_at[i, cur]
                if cur is None or k > len(w) + 1:
                    break
                k += 1
            if eps_at[i, w] != k:
                bad.append(f"seminormal: eps_{i}{w} != e-string length {k}")
    return bad


def crystal_dot(words, n: int, label=None) -> str:
    """DOT digraph of the lowering-operator edges within a set of words.

    Nodes are labelled by the space-separated letters unless ``label`` maps
    a word to a custom string.
    """
    require_ints((n,), "n", 1)
    words = sorted(set(tuple(w) for w in words))
    index = {w: k for k, w in enumerate(words)}
    if label is None:
        label = lambda w: " ".join(str(x) for x in w)
    lines = ["digraph crystal {"]
    for w in words:
        lines.append(f'  n{index[w]} [label="{label(w)}"];')
    for w in words:
        for i in range(1, n):
            y = f(i, w, n)
            if y is not None and y in index:
                lines.append(f'  n{index[w]} -> n{index[y]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
