from collections import Counter
from itertools import product

import pytest

from schurzeta import crystal, tableaux
from schurzeta.crystal import (
    connected_component,
    crystal_dot,
    decompose_product,
    e,
    eps,
    f,
    highest_weight_elements,
    is_highest_weight,
    phi,
    rr,
    verify_crystal_axioms,
    wt,
)
from schurzeta.partitions import all_partitions, as_partition
from schurzeta.tableaux import enumerate_ssyt, lr_coefficient, reading_word


def full_tensor_power(n, k):
    return [tuple(w) for w in product(range(1, n + 1), repeat=k)]


def test_wt_examples():
    assert wt((2,), 3) == (0, 1, 0)
    assert wt((1, 1), 2) == (2, 0)
    with pytest.raises(ValueError):
        wt((), 2)


def test_letter_operators():
    assert f(1, (1,), 2) == (2,)
    assert f(1, (2,), 2) is None
    assert e(1, (2,), 2) == (1,)
    assert e(1, (1,), 2) is None
    assert [f(i, (i,), 5) for i in range(1, 5)] == [(2,), (3,), (4,), (5,)]
    with pytest.raises(ValueError):
        f(2, (1,), 2)
    with pytest.raises(ValueError):
        e(0, (1,), 3)


def test_tensor_operator_examples():
    assert f(1, (1, 1), 2) == (1, 2)
    assert phi(1, (1,), 2) == 1
    assert eps(1, (1,), 2) == 0
    assert phi(1, (1, 1), 2) == 2
    # letters i and i+1 absent: both string statistics vanish
    assert eps(2, (1, 1), 3) == 0 and phi(2, (1, 1), 3) == 0


def test_rr_examples():
    assert rr(((1, 1, 2), (2, 3), (4,)), 4) == (4, 2, 3, 1, 1, 2)
    assert rr(((1,),), 1) == (1,)
    assert rr(((1,), (2,)), 2) == (2, 1)
    with pytest.raises(ValueError):
        rr(((2, 1),), 2)


def test_connected_component_examples():
    assert connected_component((1,), 3) == {(1,), (2,), (3,)}
    assert connected_component((1, 1), 2) == {(1, 1), (1, 2), (2, 2)}
    assert connected_component((2, 1), 2) == {(2, 1)}


def test_highest_weight_examples():
    assert highest_weight_elements(full_tensor_power(2, 2), 2) == [(1, 1), (2, 1)]
    assert highest_weight_elements([(1,)], 3) == [(1,)]
    # the checked tuples, not the caller's lists
    assert highest_weight_elements([[1]], 2) == [(1,)]


def test_component_of_tableau_crystal():
    # the row-reading image is one component whose unique highest-weight
    # element has the shape as its weight, and the component size matches
    for size in range(1, 5):
        for lam in all_partitions(size, max_length=3):
            tabs = enumerate_ssyt(lam, 3)
            image = {rr(t, 3) for t in tabs}
            assert image == connected_component(next(iter(image)), 3)
            top = highest_weight_elements(image, 3)
            assert len(top) == 1
            assert as_partition(wt(top[0], 3)) == lam
            assert len(connected_component(top[0], 3)) == len(tabs)


def test_decompose_product_examples():
    assert decompose_product((1,), (1,), 2) == Counter({(2,): 1, (1, 1): 1})
    assert decompose_product((1,), (1,), 1) == Counter({(2,): 1})
    assert decompose_product((2, 1), (2, 1), 4)[(3, 2, 1)] == 2
    # an empty factor is the trivial crystal: the other factor's shape once
    assert decompose_product((2, 1), (), 3) == Counter({(2, 1): 1})
    assert decompose_product((), (), 1) == Counter({(): 1})
    with pytest.raises(ValueError):
        decompose_product((1, 1, 1), (1,), 2)


def brute_decompose_product(mu, nu, n):
    """The unpruned search: every pair of tableaux, whole word tested, a
    highest-weight word being one that no raising operator e_i acts on."""
    out = Counter()
    for left in enumerate_ssyt(mu, n):
        for right in enumerate_ssyt(nu, n):
            word = reading_word(left) + reading_word(right)
            if all(e(i, word, n) is None for i in range(1, n)):
                out[as_partition(wt(word, n))] += 1
    return out


def test_decompose_product_matches_unpruned_search():
    # every pair of shapes of criterion 4, and the empty shape
    for n in range(1, 5):
        for a in range(5):
            for b in range(5):
                if a == b == 0:
                    continue
                for mu in all_partitions(a, max_length=n):
                    for nu in all_partitions(b, max_length=n):
                        assert decompose_product(mu, nu, n) == (
                            brute_decompose_product(mu, nu, n)
                        ), (mu, nu, n)


def test_decompose_product_reads_each_word_once(monkeypatch):
    # the reading words of a (shape, n) are read once and cached, not
    # once per call
    calls = []
    real = tableaux.reading_word
    monkeypatch.setattr(tableaux, "reading_word", lambda t: calls.append(t) or real(t))
    tableaux.cached_reading_words.cache_clear()
    for _ in range(3):
        assert decompose_product((2, 1), (2,), 3) == Counter(
            {(4, 1): 1, (3, 2): 1, (3, 1, 1): 1, (2, 2, 1): 1}
        )
    assert len(calls) == len(enumerate_ssyt((2, 1), 3)) + len(enumerate_ssyt((2,), 3))
    assert tableaux.cached_reading_words((2, 1), 3) == tuple(
        map(real, enumerate_ssyt((2, 1), 3))
    )


def test_decompose_product_matches_lr():
    # over 4 letters against lr_coefficient, which decomposes over
    # len(lam) letters: the coefficients do not depend on n
    for a in range(1, 4):
        for b in range(1, 4):
            for mu in all_partitions(a, max_length=4):
                for nu in all_partitions(b, max_length=4):
                    counts = decompose_product(mu, nu, 4)
                    lams = list(all_partitions(a + b, max_length=4))
                    assert set(counts) <= set(lams)
                    for lam in lams:
                        assert counts[lam] == lr_coefficient(mu, nu, lam)


def test_axioms_pass_exhaustively():
    assert verify_crystal_axioms([(x,) for x in (1, 2)], 2) == []
    for n in (2, 3):
        for k in (1, 2, 3):
            assert verify_crystal_axioms(full_tensor_power(n, k), n) == []


def test_weight_decrement_along_lowering():
    for w in full_tensor_power(3, 3):
        for i in (1, 2):
            y = f(i, w, 3)
            if y is not None:
                before, after = wt(w, 3), wt(y, 3)
                diff = tuple(a - b for a, b in zip(before, after))
                expected = tuple(
                    (k == i - 1) - (k == i) for k in range(3)
                )
                assert diff == expected


def test_fault_injection_reports_violation():
    def bad_f(i, w, n):
        if w == (1,) and i == 1:
            return (1,)
        return f(i, w, n)

    violations = verify_crystal_axioms(
        [(1,), (2,)], 2, ops=(bad_f, e, eps, phi)
    )
    assert any("A1" in v for v in violations)


def test_axioms_check_a_word_an_injected_op_returns():
    # f_1 (1,) = (3,) at n = 2 is bad input, not a violation; every op
    # passed in takes (3,) unchecked, so wt is what must reject it
    def lax(op, at_three):
        return lambda i, w, n: at_three if w == (3,) else op(i, w, n)

    def bad_f(i, w, n):
        return (3,) if w == (1,) else f(i, w, n)

    ops = (lax(bad_f, None), lax(e, (1,)), lax(eps, 1), lax(phi, 0))
    with pytest.raises(ValueError, match="letters"):
        verify_crystal_axioms([(1,), (2,)], 2, ops)


def axioms_oracle(words, n: int, ops=None) -> list[str]:
    """The axiom check evaluating every operator afresh at each use."""
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


def _faulty_f(i, w, n):
    # a lowering loop: the f-string never ends
    return (1,) if (i, w) == (1, (1,)) else f(i, w, n)


def _faulty_e(i, w, n):
    # a raising loop, and a raising step that vanishes
    if (i, w) == (1, (2,)):
        return (2,)
    return None if (i, w) == (1, (2, 2)) else e(i, w, n)


def _faulty_eps(i, w, n):
    return eps(i, w, n) + (w == (2, 1, 1))


def _faulty_phi(i, w, n):
    return phi(i, w, n) + (i == 2 and w[0] == 3)


@pytest.mark.parametrize(
    "words, n, ops, caught",
    [
        *(
            pytest.param(full_tensor_power(n, k), n, None, False, id=f"power-{n}-{k}")
            for n in (1, 2, 3)
            for k in (1, 2, 3)
        ),
        *(
            pytest.param(
                {rr(t, 3) for t in enumerate_ssyt(lam, 3)},
                3,
                None,
                False,
                id="image-" + "".join(map(str, lam)),
            )
            for size in (1, 2, 3, 4)
            for lam in all_partitions(size, max_length=3)
        ),
        pytest.param([(1,), (2,)], 2, (_faulty_f, e, eps, phi), True, id="fault-f"),
        pytest.param(
            full_tensor_power(2, 1) + full_tensor_power(2, 2),
            2,
            (f, _faulty_e, eps, phi),
            True,
            id="fault-e",
        ),
        pytest.param(full_tensor_power(3, 3), 3, (f, e, _faulty_eps, phi), True, id="fault-eps"),
        pytest.param(full_tensor_power(3, 2), 3, (f, e, eps, _faulty_phi), True, id="fault-phi"),
        pytest.param([(1,)], 2, None, True, id="not-closed"),
    ],
)
def test_axioms_match_oracle(words, n, ops, caught):
    expected = axioms_oracle(words, n, ops)
    assert bool(expected) == caught
    assert verify_crystal_axioms(words, n, ops) == expected


def test_axioms_evaluate_each_operator_once():
    seen = Counter()

    def spy(name, op):
        def wrapped(i, w, n):
            seen[name, i, w] += 1
            return op(i, w, n)

        return wrapped

    ops = tuple(spy(name, op) for name, op in zip("f e eps phi".split(), (f, e, eps, phi)))
    words = full_tensor_power(3, 3)
    assert verify_crystal_axioms(words, 3, ops) == []
    assert max(seen.values()) == 1
    # every operator was asked about every (i, word)
    assert len(seen) == 4 * 2 * len(words)


def bracket_rule(word, i):
    """Independent oracle for the tensor operators: mark letter i as '+'
    and letter i+1 as '-', cancel '-+' pairs, then f acts on the rightmost
    surviving '+', e on the leftmost surviving '-'; phi and eps count the
    survivors."""
    marks = []  # (position, sign)
    for k, x in enumerate(word):
        if x == i:
            marks.append((k, "+"))
        elif x == i + 1:
            marks.append((k, "-"))
    changed = True
    while changed:
        changed = False
        for a in range(len(marks) - 1):
            if marks[a][1] == "-" and marks[a + 1][1] == "+":
                del marks[a : a + 2]
                changed = True
                break
    plus = [k for k, s in marks if s == "+"]
    minus = [k for k, s in marks if s == "-"]
    f_result = None
    if plus:
        k = plus[-1]
        f_result = word[:k] + (i + 1,) + word[k + 1 :]
    e_result = None
    if minus:
        k = minus[0]
        e_result = word[:k] + (i,) + word[k + 1 :]
    return f_result, e_result, len(plus), len(minus)


def test_operators_match_bracket_rule_oracle():
    # n = 4, k = 4 is criterion 5's largest tensor power
    for n in (2, 3, 4):
        for k in (1, 2, 3, 4, 5):
            for w in full_tensor_power(n, k):
                for i in range(1, n):
                    fw, ew, nplus, nminus = bracket_rule(w, i)
                    assert f(i, w, n) == fw, (w, i)
                    assert e(i, w, n) == ew, (w, i)
                    assert phi(i, w, n) == nplus, (w, i)
                    assert eps(i, w, n) == nminus, (w, i)
                top = all(bracket_rule(w, i)[3] == 0 for i in range(1, n))
                assert is_highest_weight(w, n) == top, w


def closure_oracle(word, n):
    """The component of word: apply the public f and e until nothing new."""
    seen = {word}
    while True:
        new = {
            y
            for w in seen
            for i in range(1, n)
            for y in (f(i, w, n), e(i, w, n))
            if y is not None
        } - seen
        if not new:
            return seen
        seen |= new


def test_connected_component_matches_closure_oracle():
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            for w in full_tensor_power(n, k):
                assert connected_component(w, n) == closure_oracle(w, n), w


def test_crystal_checks_each_word_once(monkeypatch):
    # n once, then each word's letters once: a budget of two calls per
    # distinct word, plus two
    calls = []
    check = crystal.require_ints
    monkeypatch.setattr(
        crystal, "require_ints", lambda *args: calls.append(args) or check(*args)
    )
    power = full_tensor_power(3, 3)
    for fn, arg, words in (
        (verify_crystal_axioms, power, power),
        (connected_component, (1, 1, 1), [(1, 1, 1)]),
        (highest_weight_elements, power, power),
    ):
        calls.clear()
        fn(arg, 3)
        assert len(calls) <= 2 * len(set(words)) + 2, (fn.__name__, len(calls))


def test_is_highest_weight():
    assert is_highest_weight((1, 1), 2)
    assert not is_highest_weight((1, 2), 2)
    # n = 1 has no raising operator, but the word is still checked
    assert is_highest_weight((1, 1), 1)
    for word in ((5,), ()):
        with pytest.raises(ValueError):
            is_highest_weight(word, 1)


def test_crystal_dot_output():
    words = connected_component((1,), 3)
    dot = crystal_dot(words, 3)
    assert dot.startswith("digraph")
    assert dot.count("->") == 2
    custom = crystal_dot(words, 3, label=lambda w: "X" + str(w[0]))
    assert 'label="X1"' in custom


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(connected_component, ((2.0,), 2), id="float-letter"),
        pytest.param(connected_component, ((True,), 2), id="bool-letter"),
        pytest.param(wt, ((1.5,), 2), id="wt-float-letter"),
        pytest.param(wt, ((1,), 2.0), id="wt-float-n"),
        pytest.param(wt, ((1,), True), id="wt-bool-n"),
        pytest.param(rr, (((1.0,),), 2), id="rr-float-entry"),
        pytest.param(f, (1.5, (1,), 3), id="f-float-index"),
        pytest.param(f, (True, (1,), 2), id="f-bool-index"),
        pytest.param(e, (1.0, (2,), 2), id="e-float-index"),
        pytest.param(phi, (1, (1,), "2"), id="phi-str-n"),
        pytest.param(eps, (1, (1, 2.0), 2), id="eps-float-letter"),
        pytest.param(is_highest_weight, ((1, 1), 1.5), id="hw-float-n"),
        pytest.param(highest_weight_elements, ([], 2.5), id="hw-elements-float-n"),
        pytest.param(decompose_product, ((1,), (1,), 1.5), id="decompose-float-n"),
        pytest.param(decompose_product, ((1,), (1,), True), id="decompose-bool-n"),
        pytest.param(verify_crystal_axioms, ([(1,)], 2.0), id="axioms-float-n"),
        pytest.param(crystal_dot, ([(1,)], 2.0), id="dot-float-n"),
        # n = 1 has no operator index, but the words are still checked
        pytest.param(verify_crystal_axioms, ([(5,)], 1), id="axioms-letter-above-n"),
        pytest.param(verify_crystal_axioms, ([(1, 2.5)], 1), id="axioms-float-letter"),
        pytest.param(crystal_dot, ([(5,)], 1), id="dot-letter-above-n"),
    ],
)
def test_crystal_inputs_must_be_integers(fn, args):
    # letters, operator indices and n are ints, not floats or bools
    with pytest.raises(ValueError):
        fn(*args)
