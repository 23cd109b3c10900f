"""Mahler measures by log-integral quadrature and by Jensen's formula.

M(P) = exp(integral log|P| dz) over the circle.  Jensen's formula turns
this into |lead| * prod(|root| : |root| > 1), computed here from
companion-matrix eigenvalues, which gives a second, independent route.
Both accept a NewmanPolynomial or a plain coefficient sequence
(constant term first).

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

from .analysis import _mean
from .errors import BudgetError
from .poly import NewmanPolynomial, build_polynomial, eval_support_grid

__all__ = ["MahlerReport", "mahler_log", "mahler_jensen", "riesz_mahler"]

JENSEN_DEGREE_BUDGET = 2048
MAHLER_GRID_CAP = 2**22  # largest grid of mahler_log's doubling
ZERO_THRESHOLD = 1e-14


@dataclass(frozen=True)
class MahlerReport:
    q: int | None
    method: str
    value: float
    l1: float
    detail: dict


def _coefficients(P):
    """Dense ascending coefficient array plus the modulus q if known."""
    if isinstance(P, NewmanPolynomial):
        return P.coefficient_array(), P.q
    c = np.asarray(P, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("expected a one-dimensional coefficient sequence")
    return c, None


def _log_abs_mean(coeffs, N):
    """Mean of log|P| over the midpoint grid, half-step perturbation at near-zeros."""
    exps = np.nonzero(coeffs)[0]
    vals = eval_support_grid(exps, coeffs[exps], N, offset=0.5)
    absv = np.abs(vals)
    tiny = np.nonzero(absv < ZERO_THRESHOLD)[0]
    for j in tiny:
        theta = 2 * np.pi * (j + 1.0) / N  # half a grid step past the midpoint
        absv[j] = abs(np.sum(coeffs[exps] * np.exp(1j * theta * exps)))
    if np.all(absv < ZERO_THRESHOLD):
        raise ValueError("polynomial vanishes on the whole grid")
    return _mean(np.log(absv)), _mean(absv)


def mahler_log(P, grid_size=None):
    """Mahler measure as exp of the grid mean of log|P|.

    With grid_size=None the grid is doubled until the mean of log|P|
    moves by less than 1e-9, capped at 2^22 points (near-circle roots can
    require more); an explicit grid_size is used as given.  detail holds
    the final grid, the grids tried, the last change of the mean
    (None after a single grid) and converged: True when the doubling
    met 1e-9, False when it stopped at the cap or the starting grid was
    already the cap, None for an explicit grid_size.
    """
    coeffs, q = _coefficients(P)
    if not np.any(coeffs):
        raise ValueError("zero polynomial has no Mahler measure")
    degree = int(np.nonzero(coeffs)[0].max())
    if grid_size is not None:
        mean_log, l1 = _log_abs_mean(coeffs, grid_size)
        return MahlerReport(q=q, method="log-integral", value=math.exp(mean_log), l1=l1,
                            detail={"grid": grid_size, "grids": [grid_size],
                                    "last_delta": None, "converged": None})
    N = 4096
    while N < 16 * (degree + 1):
        N *= 2
    grids = [N]
    mean_log, l1 = _log_abs_mean(coeffs, N)
    delta, converged = None, False
    while N < MAHLER_GRID_CAP:
        N *= 2
        grids.append(N)
        new_mean, l1 = _log_abs_mean(coeffs, N)
        delta = abs(new_mean - mean_log)
        mean_log = new_mean
        if delta < 1e-9:
            converged = True
            break
    return MahlerReport(q=q, method="log-integral", value=math.exp(mean_log), l1=l1,
                        detail={"grid": N, "grids": grids, "last_delta": delta,
                                "converged": converged})


def mahler_jensen(P, grid_size=None):
    """Mahler measure via roots: |lead| * prod of root moduli outside the disk.

    Roots come from companion-matrix eigenvalues of the integer support
    polynomial (for a NewmanPolynomial) or of the coefficients as given;
    an empty product is 1, so a constant a has measure |a|.
    """
    coeffs, q = _coefficients(P)
    if not np.any(coeffs):
        raise ValueError("zero polynomial has no Mahler measure")
    if isinstance(P, NewmanPolynomial):
        work = np.zeros(P.q)
        work[list(P.support)] = 1.0  # integer 0/1 form; rescale at the end
        rescale = P.scale
    else:
        work = coeffs
        rescale = 1.0
    exps = np.nonzero(work)[0]
    degree = int(exps.max())
    if degree > JENSEN_DEGREE_BUDGET:
        raise BudgetError(f"degree {degree} exceeds the root-finding budget {JENSEN_DEGREE_BUDGET}")
    trimmed = work[: degree + 1]
    value = abs(trimmed[-1]) * rescale
    outside = 0
    if degree > 0:
        try:
            roots = np.roots(trimmed[::-1])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"root finder did not converge: {exc}") from None
        moduli = np.abs(roots)
        outside = int(np.count_nonzero(moduli > 1.0))
        value *= float(np.prod(moduli[moduli > 1.0])) if outside else 1.0
    N = grid_size if grid_size is not None else max(4096, 4 * (degree + 1))
    absv = np.abs(eval_support_grid(exps, coeffs[exps], N, offset=0.5))
    return MahlerReport(q=q, method="jensen", value=float(value), l1=_mean(absv),
                        detail={"degree": degree, "roots_outside": outside})


def riesz_mahler(plan, stages, grid_size=None):
    """Partial product prod_{j<=stages} M(P_j)^2 of stage Mahler measures.

    Each factor lies in (0, 1] for an L2-normalized stage polynomial, so
    the partial products are nonincreasing in the stage count.
    """
    if not 1 <= stages <= len(plan.stages):
        raise ValueError(f"stages must lie in [1, {len(plan.stages)}], got {stages}")
    product = 1.0
    for stage in plan.stages[:stages]:
        report = mahler_log(build_polynomial(stage.singer), grid_size=grid_size)
        product *= report.value**2
    return product
