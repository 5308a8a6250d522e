"""The GL(n) letter crystal, tensor powers, and crystal-based product
decomposition.

Elements of the tensor power are plain tuples of letters 1..n (leftmost =
first tensor factor).  Operators return a new tuple or None; None plays the
role of the absent value outside the crystal.  The operators read one
signature scan per (word, index), _signature.  Words, n and operator
indices are checked once, where a public function takes them; the kernels
trust them.
"""

from collections import Counter
from functools import cache
from itertools import accumulate
from operator import add, sub

from .partitions import as_partition, require_ints
from .tableaux import Tableau, cached_reading_words, is_ssyt, reading_word, require_ssyt

TensorWord = tuple[int, ...]


def _check_words(words, n: int) -> list[TensorWord]:
    """The words as tuples of letters 1..n, n checked first."""
    require_ints((n,), "n", 1)
    out = [require_ints(w, "letters", 1, n) for w in words]
    if () in out:
        raise ValueError("tensor words must be nonempty")
    return out


def _check_word(word, n: int) -> TensorWord:
    return _check_words((word,), n)[0]


def _check_op(i: int, word, n: int) -> TensorWord:
    w = _check_word(word, n)
    require_ints((i,), "operator index", 1, n - 1)
    return w


def _wt(w: TensorWord, n: int) -> tuple[int, ...]:
    return tuple(w.count(x) for x in range(1, n + 1))


def wt(word, n: int) -> tuple[int, ...]:
    """Letter multiplicities as a length-n vector."""
    return _wt(_check_word(word, n), n)


def _signature(w: TensorWord, i: int) -> tuple[int, int, int | None, int | None]:
    """Kashiwara's signature rule, one right-to-left scan: a letter i + 1
    cancels the nearest uncancelled i to its right.  (eps, phi) count the
    surviving letters i + 1 and i; f acts at f_at, the rightmost surviving
    i (the last i met while phi was 0), e at e_at, the leftmost surviving
    i + 1; None when there is none."""
    eps = phi = 0
    f_at = e_at = None
    for k in range(len(w) - 1, -1, -1):
        x = w[k]
        if x == i:
            if not phi:
                f_at = k
            phi += 1
        elif x == i + 1:
            if phi:
                phi -= 1
            else:
                eps += 1
                e_at = k
    return eps, phi, f_at if phi else None, e_at


def _put(w: TensorWord, k: int | None, x: int) -> TensorWord | None:
    """w with letter x at position k; None when k is None."""
    return None if k is None else w[:k] + (x,) + w[k + 1 :]


def phi(i: int, word, n: int) -> int:
    return _signature(_check_op(i, word, n), i)[1]


def eps(i: int, word, n: int) -> int:
    return _signature(_check_op(i, word, n), i)[0]


def f(i: int, word, n: int) -> TensorWord | None:
    """Lowering operator on the tensor power; None when it vanishes."""
    w = _check_op(i, word, n)
    return _put(w, _signature(w, i)[2], i + 1)


def e(i: int, word, n: int) -> TensorWord | None:
    """Raising operator on the tensor power; None when it vanishes."""
    w = _check_op(i, word, n)
    return _put(w, _signature(w, i)[3], i)


def rr(t: Tableau, n: int) -> TensorWord:
    """Row-reading embedding of an SSYT: rows bottom to top."""
    if not is_ssyt(t):
        require_ssyt(t)  # raises the one tableau check's error
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
            _, _, f_at, e_at = _signature(w, i)
            for y in (_put(w, f_at, i + 1), _put(w, e_at, i)):
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def highest_weight_elements(words, n: int) -> list[TensorWord]:
    """Elements killed by every raising operator, in sorted order."""
    words = _check_words(words, n)
    return sorted(w for w in words if _extend_phi(w, [0] * (n + 1)) is not None)


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
    for right in cached_reading_words(nu, n):
        phi = _extend_phi(right, [0] * (n + 1))
        if phi is not None:
            tops.append(phi)
    out: Counter = Counter()
    for left in cached_reading_words(mu, n):
        for top in tops:
            phi = _extend_phi(left, top.copy())
            if phi is not None:
                lam = list(accumulate(reversed(phi[1:])))[::-1]
                out[tuple(x for x in lam if x)] += 1
    return out


def verify_crystal_axioms(words, n: int, ops=None) -> list[str]:
    """Check the crystal axioms and seminormality on a closed set of words.

    Returns a list of violation descriptions; empty means the set passes.
    ``ops`` may override (f, e, eps, phi) for fault injection.

    The words are checked once, on entry, and the default ops read one
    signature scan per (i, word).  Each op is evaluated at most once per
    (i, word), and ``wt`` once per word, in the order of the first time
    the checks ask for it; the caches are dropped when the call returns.
    A word an injected op returned from outside the set is checked.
    """
    words = set(_check_words(words, n))
    alpha = [
        tuple((k == i - 1) - (k == i) for k in range(n)) for i in range(1, n)
    ]
    bad: list[str] = []

    @cache
    def wt_at(w):
        return _wt(w if ops is None or w in words else _check_word(w, n), n)

    if ops is None:
        sig = cache(_signature)
        f_at = cache(lambda i, w: _put(w, sig(w, i)[2], i + 1))
        e_at = cache(lambda i, w: _put(w, sig(w, i)[3], i))
        eps_at = lambda i, w: sig(w, i)[0]
        phi_at = lambda i, w: sig(w, i)[1]
    else:
        f_at, e_at, eps_at, phi_at = (
            cache(lambda i, w, op=op: op(i, w, n)) for op in ops
        )

    def string(op, i, w):
        # steps of op from w until it vanishes, cut after len(w) + 2
        k, cur = 0, op(i, w)
        while cur is not None and k <= len(w) + 1:
            k, cur = k + 1, op(i, cur)
        return k

    for w in sorted(words):
        for i in range(1, n):
            ai = alpha[i - 1]
            fw = f_at(i, w)
            ew = e_at(i, w)
            if fw is not None:
                if fw not in words:
                    bad.append(f"closure: f_{i}{w} left the set")
                if e_at(i, fw) != w:
                    bad.append(f"A1: e_{i}(f_{i}{w}) != {w}")
                if wt_at(fw) != tuple(map(sub, wt_at(w), ai)):
                    bad.append(f"A1: wt(f_{i}{w}) != wt{w} - alpha_{i}")
                if eps_at(i, fw) != eps_at(i, w) + 1:
                    bad.append(f"A1: eps increment wrong at f_{i}{w}")
                if phi_at(i, fw) != phi_at(i, w) - 1:
                    bad.append(f"A1: phi increment wrong at f_{i}{w}")
            if ew is not None:
                if ew not in words:
                    bad.append(f"closure: e_{i}{w} left the set")
                if f_at(i, ew) != w:
                    bad.append(f"A1: f_{i}(e_{i}{w}) != {w}")
                if wt_at(ew) != tuple(map(add, wt_at(w), ai)):
                    bad.append(f"A1: wt(e_{i}{w}) != wt{w} + alpha_{i}")
            wv = wt_at(w)
            if phi_at(i, w) != (wv[i - 1] - wv[i]) + eps_at(i, w):
                bad.append(f"A2: phi != <wt,alpha^vee> + eps at {w}, i={i}")
            k = string(f_at, i, w)
            if phi_at(i, w) != k:
                bad.append(f"seminormal: phi_{i}{w} != f-string length {k}")
            k = string(e_at, i, w)
            if eps_at(i, w) != k:
                bad.append(f"seminormal: eps_{i}{w} != e-string length {k}")
    return bad


def crystal_dot(words, n: int, label=None) -> str:
    """DOT digraph of the lowering-operator edges within a set of words.

    Nodes are labelled by the space-separated letters unless ``label`` maps
    a word to a custom string.
    """
    words = sorted(set(_check_words(words, n)))
    index = {w: k for k, w in enumerate(words)}
    if label is None:
        label = lambda w: " ".join(str(x) for x in w)
    lines = ["digraph crystal {"]
    for w in words:
        lines.append(f'  n{index[w]} [label="{label(w)}"];')
    for w in words:
        for i in range(1, n):
            y = _put(w, _signature(w, i)[2], i + 1)
            if y is not None and y in index:
                lines.append(f'  n{index[w]} -> n{index[y]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
