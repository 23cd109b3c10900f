"""Mahler measures by log-integral quadrature and by Jensen's formula.

M(P) = exp(integral log|P| dz) over the circle.  Jensen's formula turns
this into |lead| * prod(|root| : |root| > 1), computed here from
companion-matrix eigenvalues, which gives a second, independent route.
Both read the polynomial through `analysis._sparse_form`: a
NewmanPolynomial, a DefectPolynomial, an {exponent: coefficient} dict
or a plain coefficient sequence (constant term first).

For a generalized Riesz product built from unit-norm analytic
polynomials, the Mahler measure of the product density factors as the
product of the squared stage measures; `riesz_mahler` evaluates those
partial products.  The inner scale substitutions z -> z^N drop out
because z -> z^N preserves the circle average of log|P|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _mean, _sparse_form
from .errors import BudgetError
from .poly import _abs_support_grid, build_polynomial

__all__ = ["MahlerReport", "mahler_log", "mahler_jensen", "riesz_mahler"]

JENSEN_DEGREE_BUDGET = 2048
MAHLER_GRID_CAP = 2**22  # largest grid of mahler_log's doubling


@dataclass(frozen=True)
class MahlerReport:
    q: int | None
    method: str
    value: float
    l1: float | None  # grid mean of |P| (mahler_log); None from mahler_jensen
    detail: dict


def _nonzero_terms(P):
    """(exponents, coefficients) of P's nonzero terms; ValueError for the zero polynomial."""
    exps, coeffs = _sparse_form(P)
    if not exps.size:
        raise ValueError("zero polynomial has no Mahler measure")
    return exps, coeffs


def _log_abs_mean(exps, coeffs, N):
    """Means of log|P| and |P| over the N-point midpoint grid.

    The midpoints exp(i pi (2j+1)/N) are odd powers of a primitive 2N-th root
    of unity; for N a power of two each is itself primitive, with minimal
    polynomial z^N + 1 of degree N.  A polynomial with real coefficients
    (floats are rationals) and degree < N, as _abs_support_grid requires,
    therefore has no zero on the grid, so log|P| needs no guard.  The log
    overwrites |P| in place, so the grid costs 8 bytes per point.
    """
    absv = _abs_support_grid(exps, coeffs, N, offset=0.5)
    l1 = _mean(absv)
    return _mean(np.log(absv, out=absv)), l1


def mahler_log(P, grid_size=None):
    """Mahler measure as exp of the grid mean of log|P|.

    With grid_size=None the first grid is the smallest power of two at or
    above max(4096, 16 (degree + 1)), and it is doubled until the mean of
    log|P| moves by less than 1e-9, while it is below MAHLER_GRID_CAP = 2^22
    points (near-circle roots can require more).  From degree 2^18 on the
    first grid already exceeds the cap and is the only one.  An explicit
    grid_size is used as given.  detail holds the final grid, the grids
    tried, the last change of the mean (None after a single grid) and
    converged: True when the doubling met 1e-9, False when it stopped at
    the cap or the first grid was at or above it, None for an explicit
    grid_size.  Every grid is a power of two, on which a real polynomial
    never vanishes (see _log_abs_mean); an explicit grid_size must be one.
    A grid costs 8 bytes per point plus one block of row FFTs
    (poly._abs_support_grid), about 33 MB at the cap.  A coefficient with a
    nonzero imaginary part raises ValueError: use mahler_jensen.
    """
    exps, coeffs = _nonzero_terms(P)
    if np.any(np.imag(coeffs)):
        raise ValueError("mahler_log needs real coefficients (a complex P can vanish on the "
                         "grid); use mahler_jensen")
    q = getattr(P, "q", None)
    if grid_size is not None:
        if grid_size < 1 or grid_size & (grid_size - 1):
            raise ValueError(f"grid_size must be a power of two, got {grid_size}")
        mean_log, l1 = _log_abs_mean(exps, coeffs, grid_size)
        return MahlerReport(q=q, method="log-integral", value=math.exp(mean_log), l1=l1,
                            detail={"grid": grid_size, "grids": [grid_size],
                                    "last_delta": None, "converged": None})
    N = 4096
    while N < 16 * (exps[-1] + 1):
        N *= 2
    grids = [N]
    mean_log, l1 = _log_abs_mean(exps, coeffs, N)
    delta, converged = None, False
    while N < MAHLER_GRID_CAP:
        N *= 2
        grids.append(N)
        new_mean, l1 = _log_abs_mean(exps, coeffs, N)
        delta = abs(new_mean - mean_log)
        mean_log = new_mean
        if delta < 1e-9:
            converged = True
            break
    return MahlerReport(q=q, method="log-integral", value=math.exp(mean_log), l1=l1,
                        detail={"grid": N, "grids": grids, "last_delta": delta,
                                "converged": converged})


def mahler_jensen(P):
    """Mahler measure via roots: |lead| * prod of root moduli outside the disk.

    Roots come from companion-matrix eigenvalues of the coefficients; the
    companion matrix is normalized by the leading coefficient, so for a
    NewmanPolynomial it is that of the integer 0/1 support polynomial.  An
    empty product is 1, so a constant a has measure |a|.  No grid is evaluated,
    so l1 is None; mahler_log reports it.
    """
    exps, coeffs = _nonzero_terms(P)
    degree = int(exps[-1])
    if degree > JENSEN_DEGREE_BUDGET:
        raise BudgetError(f"degree {degree} exceeds the root-finding budget {JENSEN_DEGREE_BUDGET}")
    value = abs(coeffs[-1])
    outside = 0
    if degree > 0:
        dense = np.zeros(degree + 1, dtype=coeffs.dtype)
        dense[exps] = coeffs
        try:
            roots = np.roots(dense[::-1])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"root finder did not converge: {exc}") from None
        moduli = np.abs(roots)
        outside = int(np.count_nonzero(moduli > 1.0))
        value *= float(np.prod(moduli[moduli > 1.0])) if outside else 1.0
    return MahlerReport(q=getattr(P, "q", None), method="jensen", value=float(value),
                        l1=None, detail={"degree": degree, "roots_outside": outside})


def riesz_mahler(plan, stages):
    """Partial product prod_{j<=stages} M(P_j)^2 of stage Mahler measures.

    Each factor lies in (0, 1] for an L2-normalized stage polynomial, so
    the partial products are nonincreasing in the stage count.
    """
    if not 1 <= stages <= len(plan.stages):
        raise ValueError(f"stages must lie in [1, {len(plan.stages)}], got {stages}")
    product = 1.0
    for stage in plan.stages[:stages]:
        product *= mahler_log(build_polynomial(stage.singer)).value ** 2
    return product
