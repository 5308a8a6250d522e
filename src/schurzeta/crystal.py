"""The GL(n) letter crystal, tensor powers, and crystal-based product
decomposition.

Elements of the tensor power are plain tuples of letters 1..n (leftmost =
first tensor factor).  Operators return a new tuple or None; None plays the
role of the absent value outside the crystal.
"""

from collections import Counter
from itertools import accumulate

from .partitions import Partition, as_partition
from .tableaux import Tableau, cached_ssyt, is_ssyt, reading_word

TensorWord = tuple[int, ...]


def _check_word(word, n: int) -> TensorWord:
    w = tuple(word)
    if not w:
        raise ValueError("tensor words must be nonempty")
    if any(not 1 <= x <= n for x in w):
        raise ValueError(f"letters must lie in 1..{n}, got {w}")
    return w


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n - 1:
        raise ValueError(f"operator index {i} outside 1..{n - 1}")


def wt(word, n: int) -> tuple[int, ...]:
    """Letter multiplicities as a length-n vector."""
    w = _check_word(word, n)
    out = [0] * n
    for x in w:
        out[x - 1] += 1
    return tuple(out)


def _pairing(letter: int, i: int) -> int:
    # <wt(letter), alpha_i^vee> for a single letter
    return (letter == i) - (letter == i + 1)


def _suffix_phi(w: TensorWord, i: int) -> list[int]:
    """phi_i of every suffix; index k holds phi of w[k:], last entry 0."""
    out = [0] * (len(w) + 1)
    for k in range(len(w) - 1, -1, -1):
        x = w[k]
        out[k] = max(int(x == i), out[k + 1] + _pairing(x, i))
    return out


def _suffix_eps(w: TensorWord, i: int) -> int:
    # eps(x (x) y) = max{eps(y), eps(x) - <wt(y), alpha_i^vee>}
    eps_suf = 0
    pair_suf = 0
    for k in range(len(w) - 1, -1, -1):
        x = w[k]
        eps_suf = max(eps_suf, int(x == i + 1) - pair_suf)
        pair_suf += _pairing(x, i)
    return eps_suf


def phi(i: int, word, n: int) -> int:
    _check_index(i, n)
    return _suffix_phi(_check_word(word, n), i)[0]


def eps(i: int, word, n: int) -> int:
    _check_index(i, n)
    return _suffix_eps(_check_word(word, n), i)


def f(i: int, word, n: int) -> TensorWord | None:
    """Lowering operator on the tensor power; None when it vanishes."""
    _check_index(i, n)
    w = _check_word(word, n)
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
    _check_index(i, n)
    w = _check_word(word, n)
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
    mu, nu = as_partition(mu), as_partition(nu)
    if len(mu) > n or len(nu) > n:
        raise ValueError(f"shapes {mu}, {nu} need at most {n} rows")
    if not mu and not nu:
        raise ValueError("at least one factor must be a nonempty shape")
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


def verify_crystal_axioms(words, n: int, ops=None) -> list[str]:
    """Check the crystal axioms and seminormality on a closed set of words.

    Returns a list of violation descriptions; empty means the set passes.
    ``ops`` may override (f, e, eps, phi) for fault injection.
    """
    f_op, e_op, eps_op, phi_op = ops if ops is not None else (f, e, eps, phi)
    words = set(tuple(w) for w in words)
    alpha = [
        tuple((k == i - 1) - (k == i) for k in range(n)) for i in range(1, n)
    ]
    bad: list[str] = []

    def vec_add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    for w in sorted(words):
        for i in range(1, n):
            ai = alpha[i - 1]
            fw = f_op(i, w, n)
            ew = e_op(i, w, n)
            if fw is not None:
                if fw not in words:
                    bad.append(f"closure: f_{i}{w} left the set")
                if e_op(i, fw, n) != w:
                    bad.append(f"A1: e_{i}(f_{i}{w}) != {w}")
                if wt(fw, n) != vec_add(wt(w, n), tuple(-x for x in ai)):
                    bad.append(f"A1: wt(f_{i}{w}) != wt{w} - alpha_{i}")
                if eps_op(i, fw, n) != eps_op(i, w, n) + 1:
                    bad.append(f"A1: eps increment wrong at f_{i}{w}")
                if phi_op(i, fw, n) != phi_op(i, w, n) - 1:
                    bad.append(f"A1: phi increment wrong at f_{i}{w}")
            if ew is not None:
                if ew not in words:
                    bad.append(f"closure: e_{i}{w} left the set")
                if f_op(i, ew, n) != w:
                    bad.append(f"A1: f_{i}(e_{i}{w}) != {w}")
                if wt(ew, n) != vec_add(wt(w, n), ai):
                    bad.append(f"A1: wt(e_{i}{w}) != wt{w} + alpha_{i}")
            wv = wt(w, n)
            if phi_op(i, w, n) != (wv[i - 1] - wv[i]) + eps_op(i, w, n):
                bad.append(f"A2: phi != <wt,alpha^vee> + eps at {w}, i={i}")
            k, cur = 0, w
            while True:
                cur = f_op(i, cur, n)
                if cur is None or k > len(w) + 1:
                    break
                k += 1
            if phi_op(i, w, n) != k:
                bad.append(f"seminormal: phi_{i}{w} != f-string length {k}")
            k, cur = 0, w
            while True:
                cur = e_op(i, cur, n)
                if cur is None or k > len(w) + 1:
                    break
                k += 1
            if eps_op(i, w, n) != k:
                bad.append(f"seminormal: eps_{i}{w} != e-string length {k}")
    return bad


def crystal_dot(words, n: int, label=None) -> str:
    """DOT digraph of the lowering-operator edges within a set of words.

    Nodes are labelled by the space-separated letters unless ``label`` maps
    a word to a custom string.
    """
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
