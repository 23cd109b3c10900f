"""Shared exception types, and the one table of budgets."""


class BudgetError(RuntimeError):
    """A computation exceeded its documented desk-scale budget."""


# name: (unit, limit) of every budget, read at call time by check_budget.  Timings are of a
# 2-core x86-64 host.
BUDGETS = {
    # points of one grid: eval_support_grid holds it as a complex array, 4 GiB at the limit
    "grid": ("points", 2**28),
    # points of one row of poly._grid_blocks.  Rows above 2^14 are Bluestein FFTs, whose
    # padded temporaries grow with the row: p = 1973's 16q grid (M = q = 3894703), the largest
    # row up to p = 2003, runs `flat` in 18-20 s at 687 MB peak RSS; M = q = 25035013 (p = 5003)
    # reached about 4 GB
    "row": ("points", 2**22),
    # node evaluations of the periodized kernels: N ceil(s) for periodized_kernel's N-point
    # pass per k < s, N (2T + 1) for the truncated kernel's terms, 48 (2T + 1) for the first
    # wave of kernel_mass's line panels
    "kernel": ("evaluations", 2**28),
    # degree of mahler_jensen: q - 1 at p = 43, the largest oracle case, 0.2-0.3 s (14 sweeps
    # of O(n k) for k terms plus O(n^2)), as is z^1892 - i; a dense polynomial 1.2-2.3 s.  A
    # Singer set priced at q - 1 fails exactly when its degree d does: its q - 1 nonzero
    # differences lie in [-d, d], so 2d >= q - 1, and every q in (1893, 3785] has d > 1892
    "jensen": ("roots", 1892),
    "tower": ("levels", 10**7),  # of build_tower's stage-K tower (int16 origins)
    "occurrence": ("occurrences", 10**6),  # stage-k base copies of base_occurrences
    "dissociation": ("tuples", 10**6),  # one block element per stage: check_dissociated
    "coefficient": ("frequencies", 10**6),  # of one partial_coeffs stage before its convolution
    # the q-byte difference mask of construct_singer, q = p^(2m) + p^m + 1: p <= 8191 at m = 1,
    # p <= 89 at m = 2.  p = 7919 peaks at 94 MB RSS in 0.5-1.1 s.  q < 2^26 keeps p^(3m) below
    # 2^39, so the scan's place values fit int64, and 3m p^2 < 2^53, so its float64 products
    # are exact
    "construction": ("bytes", 2**26),
}


def check_budget(name, size):
    """BudgetError unless size fits the budget `name`: the one place a budget is compared."""
    unit, limit = BUDGETS[name]
    if size > limit:
        raise BudgetError(f"{size} {unit} exceed the {name} budget {limit}")
