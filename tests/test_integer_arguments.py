"""Every public entry that takes an integer argument (a count, size, level,
index, part, entry or letter) refuses anything but an int within its
bounds with a ValueError: floats, bools and strings, even when int()
would turn them into one, and values out of range.

Each case first calls the entry with a good int, so that a cache keyed by
that argument is warm: 1.0 and True hash and compare equal to 1, and a
check that ran only on a cache miss would let them through.
"""

import pytest

from schurzeta import (
    SymSpec,
    all_partitions,
    as_partition,
    cells,
    column_insert,
    column_insert_word,
    conjugate,
    connected_component,
    contains,
    corners,
    crystal_dot,
    decompose_product,
    e,
    e_sym_spec,
    enumerate_ssyt,
    eps,
    eval_zeta_limit,
    eval_zeta_truncated,
    f,
    grid_vars,
    grow_cols,
    grow_rows,
    h_sym_spec,
    highest_weight_elements,
    horizontal_push_filling,
    horizontal_strip_cols,
    lr_coefficient,
    monomial,
    phi,
    row_insert,
    row_insert_word,
    rr,
    seq_vars,
    sym_sum,
    sym_sum_direct,
    verify_crystal_axioms,
    verify_insertion_term,
    verify_lr,
    verify_pieri_e,
    verify_pieri_h,
    vertical_push_filling,
    vertical_strip_rows,
    wt,
)
from schurzeta.tableaux import as_tableau, count_ssyt

_ONE_CELL = ([(1, [((1,), (("a",),))])], SymSpec(("a",), frozenset()))
_PIERI_H = {"s_1_1": 2, "t_1": 3}
_PIERI_E = {"t_1_1": 2, "s_1": 3}
_LR = {"s_1_1": 2, "t_1_1": 3}
# the same identities with a two-row shape, whose second part is x
_PIERI_H2 = {"s_1_1": 2, "s_2_1": 3, "t_1": 4}
_PIERI_E2 = {"t_1_1": 2, "t_2_1": 3, "s_1": 4, "s_2": 5}
_LR2 = {"s_1_1": 2, "s_2_1": 3, "t_1_1": 4}

# name -> (call of the integer argument x, good int, lo, hi or None)
ENTRIES = {
    # partitions
    "as_partition-part": (lambda x: as_partition((2, x)), 1, 0, None),
    "conjugate-part": (lambda x: conjugate((2, x)), 1, 0, None),
    "cells-part": (lambda x: cells((2, x)), 1, 0, None),
    "corners-part": (lambda x: corners((2, x)), 1, 0, None),
    "contains-part": (lambda x: contains((2, 1), (1, x)), 1, 0, None),
    "all_partitions-n": (lambda x: all_partitions(x), 1, 0, None),
    "all_partitions-max_length": (lambda x: all_partitions(3, x), 1, 0, None),
    "vertical_strip_rows-n": (lambda x: vertical_strip_rows((1,), x), 1, 1, None),
    "horizontal_strip_cols-m": (lambda x: horizontal_strip_cols((1,), x), 1, 1, None),
    "grow_rows-row": (lambda x: grow_rows((1,), (x,)), 1, 1, None),
    "grow_cols-column": (lambda x: grow_cols((1,), (x,)), 1, 1, None),
    # tableaux
    "as_tableau-entry": (lambda x: as_tableau(((x,),)), 1, 1, None),
    "enumerate_ssyt-n": (lambda x: enumerate_ssyt((1,), x), 1, 0, None),
    "count_ssyt-n": (lambda x: count_ssyt((1,), x), 1, 0, None),
    "count_ssyt-part": (lambda x: count_ssyt((2, x), 3), 1, 0, None),
    "lr_coefficient-mu": (lambda x: lr_coefficient((1, x), (1,), (2, 1)), 1, 0, None),
    "lr_coefficient-nu": (lambda x: lr_coefficient((1,), (1, x), (2, 1)), 1, 0, None),
    "lr_coefficient-part": (lambda x: lr_coefficient((1,), (1,), (1, x)), 1, 0, None),
    # insertion
    "row_insert-letter": (lambda x: row_insert(((1,),), x), 1, 1, None),
    "row_insert-entry": (lambda x: row_insert(((x,),), 1), 1, 1, None),
    "row_insert_word-letter": (lambda x: row_insert_word(((1,),), (2, x)), 1, 1, None),
    "column_insert-letter": (lambda x: column_insert(x, ((1,),)), 1, 1, None),
    "column_insert_word-letter": (lambda x: column_insert_word((2, x), ((1,),)), 1, 1, None),
    "column_insert-entry": (lambda x: column_insert(1, ((x,), (3,))), 1, 1, None),
    "row_insert_word-entry": (lambda x: row_insert_word(((x,),), (2,)), 1, 1, None),
    "column_insert_word-entry": (lambda x: column_insert_word((1,), ((x,), (3,))), 1, 1, None),
    # crystal
    "wt-n": (lambda x: wt((1,), x), 1, 1, None),
    "wt-letter": (lambda x: wt((x, 1), 2), 1, 1, 2),
    "f-index": (lambda x: f(x, (1,), 2), 1, 1, 1),
    "e-index": (lambda x: e(x, (2,), 2), 1, 1, 1),
    "phi-index": (lambda x: phi(x, (1,), 2), 1, 1, 1),
    "eps-index": (lambda x: eps(x, (2,), 2), 1, 1, 1),
    "f-n": (lambda x: f(1, (1,), x), 2, 2, None),
    "e-n": (lambda x: e(1, (2,), x), 2, 2, None),
    "rr-n": (lambda x: rr(((1,),), x), 1, 1, None),
    "connected_component-n": (lambda x: connected_component((1,), x), 1, 1, None),
    "highest_weight_elements-n": (lambda x: highest_weight_elements([(1,)], x), 1, 1, None),
    "decompose_product-n": (lambda x: decompose_product((1,), (), x), 1, 1, None),
    "verify_crystal_axioms-n": (lambda x: verify_crystal_axioms([(1,)], x), 1, 1, None),
    "crystal_dot-n": (lambda x: crystal_dot([(1,)], x), 1, 1, None),
    # zeta
    "seq_vars-count": (lambda x: seq_vars(x, "t"), 1, 0, None),
    "grid_vars-part": (lambda x: grid_vars((2, x), "s"), 1, 0, None),
    "monomial-entry": (lambda x: monomial(((x,),), (("a",),), {"a": 2}), 1, 1, None),
    "horizontal_push_filling-column": (
        lambda x: horizontal_push_filling((1,), (("s",),), ("t",), (x,)), 1, 1, None
    ),
    "vertical_push_filling-row": (
        lambda x: vertical_push_filling((1,), ("s",), (("t",),), (x,)), 1, 1, None
    ),
    "eval_zeta_truncated-level": (
        lambda x: eval_zeta_truncated((1,), (("a",),), {"a": 2}, x), 1, 1, None
    ),
    "eval_zeta_limit-max_level": (
        lambda x: eval_zeta_limit((1,), (("a",),), {"a": 2}, 1e-3, max_level=x), 1, 1, None
    ),
    "sym_sum-level": (lambda x: sym_sum(*_ONE_CELL, {"a": 2}, x), 1, 1, None),
    "sym_sum_direct-level": (lambda x: sym_sum_direct(*_ONE_CELL, {"a": 2}, x), 1, 1, None),
    "h_sym_spec-m": (lambda x: h_sym_spec((1,), x), 1, 1, None),
    "e_sym_spec-n": (lambda x: e_sym_spec((1,), x), 1, 1, None),
    "verify_pieri_h-m": (lambda x: verify_pieri_h((1,), x, _PIERI_H, 2), 1, 1, None),
    "verify_pieri_h-level": (lambda x: verify_pieri_h((1,), 1, _PIERI_H, x), 1, 1, None),
    "verify_pieri_e-n": (lambda x: verify_pieri_e((1,), x, _PIERI_E, 2), 1, 1, None),
    "verify_pieri_e-level": (lambda x: verify_pieri_e((1,), 1, _PIERI_E, x), 1, 1, None),
    "verify_lr-level": (lambda x: verify_lr((1,), (1,), _LR, x), 1, 1, None),
    # shape parts, checked before the setup caches keyed by the shapes
    "verify_pieri_h-part": (lambda x: verify_pieri_h((1, x), 1, _PIERI_H2, 2), 1, 0, None),
    "verify_pieri_e-part": (lambda x: verify_pieri_e((1, x), 2, _PIERI_E2, 2), 1, 0, None),
    "verify_lr-part": (lambda x: verify_lr((1, x), (1,), _LR2, 2), 1, 0, None),
    "verify_insertion_term-size": (
        lambda x: verify_insertion_term(((1,),), ((2,),), (1,), x, "h"), 1, 1, None
    ),
}


def _bad_values(good, lo, hi):
    out = {"1.5": 1.5, "True": True, "below": lo - 1, "str": str(good), "float": float(good)}
    if hi is not None:
        out["above"] = hi + 1
    return out


CASES = [
    pytest.param(name, bad, id=f"{name}-{key}")
    for name, (_, good, lo, hi) in ENTRIES.items()
    for key, bad in _bad_values(good, lo, hi).items()
]


@pytest.mark.parametrize("name, bad", CASES)
def test_integer_arguments_are_checked_before_any_cache(name, bad):
    call, good, _, _ = ENTRIES[name]
    call(good)
    with pytest.raises(ValueError, match="integer"):
        call(bad)
