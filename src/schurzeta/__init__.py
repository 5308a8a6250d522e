"""Exact combinatorics of partitions, tableaux, GL(n) crystals, Schensted
insertion, and truncated Schur multiple zeta identities."""

from .crystal import (
    connected_component,
    crystal_dot,
    decompose_product,
    e,
    eps,
    f,
    highest_weight_elements,
    phi,
    rr,
    verify_crystal_axioms,
    wt,
)
from .insertion import (
    InsertionResult,
    column_insert,
    column_insert_word,
    row_insert,
    row_insert_word,
)
from .partitions import (
    all_partitions,
    as_partition,
    cells,
    conjugate,
    contains,
    corners,
    grow_cols,
    grow_rows,
    horizontal_strip_cols,
    vertical_strip_rows,
)
from .tableaux import (
    enumerate_ssyt,
    is_ssyt,
    lr_coefficient,
    reading_word,
    shape_of,
)
from .zeta import (
    IdentityReport,
    InsertionTermReport,
    LimitReport,
    SymSpec,
    e_sym_spec,
    eval_zeta_limit,
    eval_zeta_truncated,
    grid_vars,
    h_sym_spec,
    horizontal_push_filling,
    monomial,
    seq_vars,
    sym_sum,
    sym_sum_direct,
    verify_insertion_term,
    verify_lr,
    verify_pieri_e,
    verify_pieri_h,
    vertical_push_filling,
)

__version__ = "0.1.0"
