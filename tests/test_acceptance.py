"""Acceptance gate: every criterion at its full grid and stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see the one-line
pass/fail report per criterion, or `schurzeta selftest` for the same grid
through the CLI.
"""

import pytest

from schurzeta import acceptance, tableaux, zeta

CACHES = (
    tableaux.cached_ssyt,
    zeta._zeta_exact,
    zeta._perm_weight_exact,
    zeta._strip_chains,
)


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=lambda fn: fn.__name__
)
def test_criterion(criterion):
    result = criterion(quick=False, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}  {result.number:2d} {result.name:<28} "
        f"{result.seconds:7.2f}s  {result.detail}"
    )
    assert result.passed, f"criterion {result.number} {result.name}: {result.detail}"


def test_budgets():
    # time every criterion from cold caches, not as a rerun of the grid
    # that the per-criterion tests above have already warmed
    for fn in CACHES:
        fn.cache_clear()
    results = acceptance.run_all(quick=False, seed=0)
    assert all(r.passed for r in results)
    by_number = {r.number: r for r in results}
    assert by_number[1].seconds < 60
    assert by_number[2].seconds < 60
    assert by_number[3].seconds < 120
