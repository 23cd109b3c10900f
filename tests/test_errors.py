"""The budget table: each entry's library entry point runs at its limit and fails one past it."""

import pytest

from flatpoly.analysis import KernelSpec, flatness, kernel_mass
from flatpoly.errors import BUDGETS, BudgetError
from flatpoly.mahler import mahler_jensen
from flatpoly.poly import build_polynomial, eval_support_grid
from flatpoly.rankone import base_occurrences, build_tower, derive_map_params
from flatpoly.riesz import check_dissociated, make_plan, partial_coeffs
from flatpoly.singer import construct_singer


def params23():
    return derive_map_params(make_plan([2, 3], rule="margin:2"))  # heights (4, 76)


# name: (a library call, the size it prices).  The limit is set to that size, which lowers it
# where the real limit is too large to reach; jensen's is its real limit.
ENTRIES = {
    "grid": (lambda: eval_support_grid([0], [1.0], 4096), 4096),
    # q = 307 is prime, and 16q = 2^4 307 has no 64-smooth divisor that holds 18 terms: the
    # row is a q-point Bluestein FFT
    "row": (lambda: flatness(build_polynomial(construct_singer(17)), 1.0), 307),
    "kernel": (lambda: kernel_mass(KernelSpec(3.0)), 4096 * 3),  # a 4096-point pass per k < 3
    "jensen": (lambda: mahler_jensen({0: -1j, 1892: 1.0}), 1892),
    "tower": (lambda: build_tower(params23(), 2), 76),
    "occurrence": (lambda: base_occurrences(params23(), 0, 2), 12),  # 3 and 4 columns
    "dissociation": (lambda: check_dissociated(make_plan([2, 3]), mode="sums"), 12),
    "coefficient": (lambda: partial_coeffs(make_plan([2, 3]), 2), 91),  # 7 * 13 frequencies
    "construction": (lambda: construct_singer(3), 13),
}


def test_every_budget_has_an_entry_point():
    assert ENTRIES.keys() == BUDGETS.keys()


@pytest.mark.parametrize("name", ENTRIES)
def test_limit_fits_and_one_past_it_raises(name, budget_limit):
    call, size = ENTRIES[name]
    unit, limit = BUDGETS[name]
    assert size <= limit
    budget_limit(name, size)
    call()
    budget_limit(name, size - 1)
    with pytest.raises(BudgetError, match=f"^{size} {unit} exceed the {name} budget {size - 1}$"):
        call()
