from collections import Counter
from itertools import product

import pytest

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
    weight_partition,
    wt,
)
from schurzeta.partitions import all_partitions
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
            assert weight_partition(top[0], 3) == lam
            assert len(connected_component(top[0], 3)) == len(tabs)


def test_decompose_product_examples():
    assert decompose_product((1,), (1,), 2) == Counter({(2,): 1, (1, 1): 1})
    assert decompose_product((1,), (1,), 1) == Counter({(2,): 1})
    assert decompose_product((2, 1), (2, 1), 4)[(3, 2, 1)] == 2
    with pytest.raises(ValueError):
        decompose_product((1, 1, 1), (1,), 2)


def brute_decompose_product(mu, nu, n):
    """The unpruned search: every pair of tableaux, whole word tested."""
    out = Counter()
    for left in enumerate_ssyt(mu, n):
        for right in enumerate_ssyt(nu, n):
            word = reading_word(left) + reading_word(right)
            if is_highest_weight(word, n):
                out[weight_partition(word, n)] += 1
    return out


def test_decompose_product_matches_unpruned_search():
    for n in range(1, 5):
        for a in range(4):
            for b in range(4):
                if a == b == 0:
                    continue
                for mu in all_partitions(a, max_length=n):
                    for nu in all_partitions(b, max_length=n):
                        assert decompose_product(mu, nu, n) == (
                            brute_decompose_product(mu, nu, n)
                        ), (mu, nu, n)


def test_decompose_product_matches_lr():
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
    for n in (2, 3):
        for k in (1, 2, 3, 4):
            for w in full_tensor_power(n, k):
                for i in range(1, n):
                    fw, ew, nplus, nminus = bracket_rule(w, i)
                    assert f(i, w, n) == fw, (w, i)
                    assert e(i, w, n) == ew, (w, i)
                    assert phi(i, w, n) == nplus, (w, i)
                    assert eps(i, w, n) == nminus, (w, i)


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
