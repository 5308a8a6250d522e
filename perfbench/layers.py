"""Metric tables: every metric the benchmark reports, with its unit, its
direction, and for per-layer metrics the end-to-end metric and workload it
should move.  BENCHMARK.json lists the same names and units; the tests keep
the two in step.
"""

ALL = "every workload"

# End-to-end metrics in the final JSON line of an untraced run: the ones
# that apply to every workload and are never 0, so each can be bounded on
# every workload.
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Printed by name and unit on the lines before the JSON, not bounded:
# fail_ratio is 0 on a correct run (the JSON carries "attempted" and
# "failed"); item latency percentiles mix unlike items outside
# verify-sweep, and the tail needs ten samples beyond it; limit_abs_err_max
# exists on limits only.
REPORTED = (
    ("fail_ratio", "ratio", "lower"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("limit_abs_err_max", "abs", "lower"),
)

# Per-layer metrics of a traced run: (name, unit, better, the end-to-end
# metric it should move and on which workload).
SELFTEST = "pass_s on selftest-cold"
SELFTEST_ONLY = "pass_s on selftest-cold; stays 0 on the other workloads"
SSYT_CACHE = f"pass_s on verify-frontier; peak_rss_mb on {ALL}"
KERNEL = "pass_s on verify-frontier; item_p50_ms on verify-sweep"
SWEEP = "item_p50_ms on verify-sweep"
LIMIT = "pass_s and limit_abs_err_max on limits; pass_s on selftest-cold"
PER_LAYER = (
    ("partitions.as_partition.calls", "count", "lower", SELFTEST),
    ("tableaux.is_ssyt.calls", "count", "lower", SELFTEST),
    ("tableaux.is_ssyt.self_s", "s", "lower", SELFTEST),
    ("tableaux.as_tableau.calls", "count", "lower", SELFTEST),
    ("tableaux.as_tableau.self_s", "s", "lower", SELFTEST),
    ("tableaux.cached_ssyt.calls", "count", "lower", SSYT_CACHE),
    ("tableaux.cached_ssyt.misses", "count", "lower", SSYT_CACHE),
    ("tableaux.cached_ssyt.tableaux", "count", "lower", SSYT_CACHE),
    ("tableaux.cached_ssyt.self_s", "s", "lower", SSYT_CACHE),
    ("tableaux.lr_coefficient.calls", "count", "lower", SWEEP),
    ("tableaux.lr_coefficient.self_s", "s", "lower", SWEEP),
    ("insertion.row_insert.calls", "count", "lower", SELFTEST_ONLY),
    ("insertion.row_insert.self_s", "s", "lower", SELFTEST_ONLY),
    ("insertion.row_insert.us_per_call", "us", "lower", SELFTEST_ONLY),
    ("insertion.column_insert.calls", "count", "lower", SELFTEST_ONLY),
    ("insertion.column_insert.self_s", "s", "lower", SELFTEST_ONLY),
    ("crystal.e.calls", "count", "lower", SELFTEST),
    ("crystal.f.calls", "count", "lower", SELFTEST),
    ("crystal.decompose_product.self_s", "s", "lower", SELFTEST),
    ("crystal.verify_crystal_axioms.self_s", "s", "lower", SELFTEST),
    ("zeta.sym_sum.calls", "count", "lower", KERNEL),
    ("zeta.sym_sum.self_s", "s", "lower", KERNEL),
    ("zeta.sym_sum.max_k", "count", "higher", KERNEL),
    ("zeta.verify_pieri_h.self_s", "s", "lower", SWEEP),
    ("zeta.verify_pieri_e.self_s", "s", "lower", SWEEP),
    ("zeta.verify_lr.self_s", "s", "lower", SWEEP),
    ("zeta.eval_zeta_limit.calls", "count", "lower", LIMIT),
    ("zeta.eval_zeta_limit.self_s", "s", "lower", LIMIT),
    ("zeta.eval_zeta_limit.levels", "count", "lower", LIMIT),
    ("zeta.eval_zeta_truncated.calls", "count", "lower", SELFTEST),
    ("zeta.eval_zeta_truncated.self_s", "s", "lower", SELFTEST),
    ("zeta.verify_insertion_term.calls", "count", "lower", SELFTEST),
    ("zeta.verify_insertion_term.self_s", "s", "lower", SELFTEST),
    *((f"acceptance.c{k:02d}_s", "s", "lower", SELFTEST) for k in range(1, 11)),
    ("cli.import_s", "s", "lower", f"setup_s on {ALL}"),
    ("cli.import_numpy_s", "s", "lower", f"setup_s on {ALL}"),
    ("trace.overhead_ratio", "ratio", "lower", "none; it qualifies the traced figures of each workload"),
)
