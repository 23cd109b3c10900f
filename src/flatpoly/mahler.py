"""Mahler measures by log-integral quadrature and by Jensen's formula.

M(P) = exp(integral log|P| dz) over the circle.  Jensen's formula turns
this into |lead| * prod(|root| : |root| > 1), computed here from roots
found by simultaneous Aberth sweeps on the sparse form and certified by
inclusion disks, which gives a second, independent route with a stated
error.  Both read the polynomial through `analysis._nonzero_terms`: a
NewmanPolynomial, a DefectPolynomial, an {exponent: coefficient} dict
or a plain coefficient sequence (constant term first).

The log-integral route is one midpoint grid with the grid error of the
roots near the circle subtracted.  log|P| = log|lead| + sum over the
roots r of log|e^(i theta) - r|, and for r = rho e^(i phi) the mean of
log|e^(i theta) - r| over the N midpoints theta_j = 2 pi (j + 1/2) / N
is its integral log max(1, rho) plus exactly

    (1/N) log|1 + e^(-N |log rho|) e^(i N phi)|,

the same for rho and 1/rho and below e^-30 / N once N |log rho| reaches
NEAR_ROOT_WINDOW.  The roots inside the window are read off the grid
itself, with no pass over the terms of P per root: the grid streams P,
and `_near_roots` runs one complex Newton on the local interpolant of P
(not |P|^2, which has a double zero at a root on the circle) after
shifting P's frequencies to centre on 0.  The grid mean of |P| gets the
matching correction: near a root |P| ~ A |e^(i theta) - r|, whose grid
error is a lattice sum (`_lattice_error`).

For a generalized Riesz product built from unit-norm analytic
polynomials, the Mahler measure of the product density factors as the
product of the squared stage measures; `riesz_mahler` evaluates those
partial products.  The inner scale substitutions z -> z^N drop out
because z -> z^N preserves the circle average of log|P|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import _fsum_mean, _nonzero_terms
from .errors import check_budget
from .poly import _grid_blocks, build_polynomial, power_grid
from .singer import _BLOCK

__all__ = ["MahlerReport", "mahler_log", "mahler_jensen", "riesz_mahler"]

_ABERTH_SWEEPS = 100  # cap on the sweeps of _aberth_roots; roots still moving keep wide radii
_ABERTH_ANGLE = 0.7  # offset of the start angles, in radians (Bini and Fiorentino's sigma)
_EPS = float(np.finfo(float).eps)
NEAR_ROOT_WINDOW = 30  # an N-point grid corrects the roots with N |log|r|| below this
MAHLER_TOL = 1e-9  # converged: the corrected mean of log|P| moves less than this from N/2 to N
_STENCIL = 6  # m: a near root is read off the interpolant of P through 2m grid nodes
_LATTICE_TERMS = 8  # nodes on each side of the cone's tip summed by _lattice_error


@dataclass(frozen=True)
class MahlerReport:
    q: int | None
    method: str
    value: float
    l1: float | None  # near-root-corrected grid mean of |P| (mahler_log); None from mahler_jensen
    detail: dict


def _grid_means(exps, coeffs, N, find_roots=False):
    """Means of log|P| and |P| over the N-point midpoint grid, and its near roots if asked.

    The midpoints exp(i pi (2j+1)/N) are odd powers of a primitive 2N-th root
    of unity; for N a power of two each is itself primitive, with minimal
    polynomial z^N + 1 of degree N.  A polynomial with real coefficients
    (floats are rationals) and degree < N, as poly._grid_blocks requires,
    therefore has no zero on the grid, so log|P| needs no guard.  The grid streams
    from poly._grid_blocks: each block's weighted row sums of log|P| and |P| are
    combined by math.fsum.  With find_roots the blocks hold P with a halo of _STENCIL
    rows; |P| is taken of the block's rows and the row on each side of them, from which
    _root_seeds takes the seeds, and the stencils that _near_roots reads are P's.
    No N-long array is made above 2^18 points (see mahler_log).
    """
    halo = _STENCIL if find_roots else 0
    centre = (exps[0] + exps[-1]) / 2
    logs, l1s, found = [], [], []
    for a0, rows, weight in _grid_blocks(exps, coeffs, N, offset=0.5, halo=halo):
        size = np.abs(rows[halo - 1:len(rows) - halo + 1]) if find_roots else rows
        core = size[1:-1] if find_roots else rows
        l1s.append(weight * core.sum(axis=1))
        logs.append(weight * np.log(core).sum(axis=1))
        if find_roots:
            found.append(_near_roots(*_root_seeds(rows, size, a0, weight, N), N, centre))
    roots = _upper_half(np.concatenate(found, axis=1), N) if find_roots else None
    return _fsum_mean(logs, N), _fsum_mean(l1s, N), roots


def mahler_grid(degree):
    """mahler_log's default grid: the least power of two >= max(4096, 16 (degree + 1))."""
    return power_grid(16 * (degree + 1))


def mahler_log(P, grid_size=None):
    """Mahler measure as exp of the mean of log|P| over a midpoint grid, corrected near roots.

    With grid_size=None the grid has N = mahler_grid(degree) points.  Every root r with
    N |log|r|| < NEAR_ROOT_WINDOW is read off the grid (_near_roots); its exact grid error
    is subtracted from the mean of log|P|, and its leading-order grid error from the mean
    of |P|, l1.  The same correction on the N/2-point grid gives the error.  detail holds
    grid N, grids
    [N, N/2], near_roots (the roots corrected on the N-point grid, conjugates included),
    error and l1_error (how far the corrected mean of log|P|, and l1, moved from N/2 to
    N points) and converged (error < MAHLER_TOL = 1e-9).  A root the grid does not
    resolve, e.g. a repeated root on the circle, is left uncorrected, and error shows it.

    An explicit grid_size is the plain grid mean, with no correction: detail has grids
    [grid_size] and None for near_roots, error, l1_error and converged.  Every grid is a
    power of two, on which a real polynomial never vanishes (see _grid_means); an
    explicit grid_size must be one.  Memory: a window of poly._grid_blocks rows of P (a
    block and _STENCIL halo rows on each side, complex) and the stencils of a block's
    seeds; a grid of at most 2^18 points has at most 128 rows, whose computed half all
    stays in the window, up to 1.25 N complex values (at 16 rows).  A coefficient with a
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
        mean_log, l1, _ = _grid_means(exps, coeffs, grid_size)
        return MahlerReport(q=q, method="log-integral", value=math.exp(mean_log), l1=l1,
                            detail={"grid": grid_size, "grids": [grid_size], "near_roots": None,
                                    "error": None, "l1_error": None, "converged": None})
    N = mahler_grid(int(exps[-1]))
    mean_log, l1, roots = _grid_means(exps, coeffs, N, find_roots=True)
    log_fix, l1_fix, count = _corrections(roots, N)
    mean_log, l1 = mean_log - log_fix, l1 - l1_fix
    half_log, half_l1, _ = _grid_means(exps, coeffs, N // 2)
    half_log_fix, half_l1_fix, _ = _corrections(roots, N // 2)
    error = abs(mean_log - (half_log - half_log_fix))
    l1_error = abs(l1 - (half_l1 - half_l1_fix))
    return MahlerReport(q=q, method="log-integral", value=math.exp(mean_log), l1=l1,
                        detail={"grid": N, "grids": [N, N // 2], "near_roots": count,
                                "error": error, "l1_error": l1_error,
                                "converged": error < MAHLER_TOL})


def _corrections(roots, N):
    """Grid errors of the roots with N |log|r|| < NEAR_ROOT_WINDOW on the N-point midpoint grid.

    roots = (turns, ell, amp, weight) from _near_roots.  Returns the error of the mean
    of log|P|, exact per root, the leading-order error of the mean of |P|, and how many
    roots were corrected.  With N phi / 2 pi = n + f (f its fractional part) the midpoint
    nodes sit at N (theta - phi) / 2 pi = j + a, a = frac(1/2 - f), so the |P| error is
    A times (2 pi sqrt(rho) / N^2) _lattice_error(N delta / 2 pi, a), delta = |1 - rho| /
    sqrt(rho): |e^(i theta) - r| ~ sqrt(rho) sqrt(delta^2 + (theta - phi)^2) at the root.
    """
    near = N * roots[1] < NEAR_ROOT_WINDOW
    turns, ell, amp, weight = (x[near] for x in roots)
    cycles = N * turns  # exact: N is a power of two
    f = cycles - np.floor(cycles)
    log_fix = np.log(np.abs(1 + np.exp(-N * ell + 2j * np.pi * f))) / N
    nu = N * np.sinh(ell / 2) / np.pi
    l1_fix = amp * np.exp(-ell / 2) * (2 * np.pi / N**2) * _lattice_error(nu, np.mod(0.5 - f, 1.0))
    # np.sum, not weight @ fix: past ~10^4 roots OpenBLAS threads a ddot, and its pool
    # then spins the second core
    return float(np.sum(weight * log_fix)), float(np.sum(weight * l1_fix)), int(weight.sum())


def _lattice_error(nu, a):
    """Z(nu, a): the unit-lattice midpoint error of the cone sqrt(nu^2 + y^2), nodes y = j + a.

    Z = sum over m != 0 of the cone's Fourier transform at m times e^(2 pi i m a)
    (Poisson), with transform -(nu / pi |m|) K_1(2 pi nu |m|), and Z(0, a) = -B_2(a).
    In real space it is the sum over the nodes |j + a| <= K minus the integral over
    [-K, K], less Euler-Maclaurin's boundary terms at +-K for the two tails (the odd-order
    ones cancel, the cone being even); K = _LATTICE_TERMS keeps it within 6e-10 of Z
    for nu <= 10, and an N-point grid needs nu < NEAR_ROOT_WINDOW / 2 pi.
    """
    K = _LATTICE_TERMS
    nodes = np.empty_like(nu)
    per = _BLOCK // (2 * K)  # (roots, 2K) temporaries a batch at a time
    for i in range(0, nu.size, per):
        v, b = nu[i:i + per, None], a[i:i + per, None]
        nodes[i:i + per] = np.sqrt(v**2 + (np.arange(-K, K) + b) ** 2).sum(axis=1)
    s = np.hypot(nu, K)
    integral = K * s + nu**2 * (np.log(K + s) - np.log(np.maximum(nu, np.finfo(float).tiny)))
    b2 = a * a - a + 1 / 6
    b4 = a**2 * (a - 1) ** 2 - 1 / 30
    b6 = a**6 - 3 * a**5 + 2.5 * a**4 - 0.5 * a**2 + 1 / 42
    tails = (b2 * K / s - b4 * nu**2 * K / (4 * s**5)
             + b6 * nu**2 * K * (3 * nu**2 - 4 * K**2) / (24 * s**9))
    return nodes - integral - tails


def _root_seeds(rows, size, a0, weight, N):
    """The seeds of _near_roots in one block of the N-point midpoint grid, and their stencils.

    rows holds P on the computed rows a0 .. a0 + n - 1 of poly._grid_blocks with a halo of
    m = _STENCIL rows, so rows[i - 1] and rows[i + 1] hold the grid neighbours of rows[i],
    and size holds |P| on rows[m - 1:m + n + 1].  The seeds are the s in [-m, N/2 + m)
    that are grid minima, |P|(s) < |P|(s - 1) and |P|(s) <= |P|(s + 1), and pass
    _plausible.  The mirror j -> N - 1 - j conjugates P, and the computed rows hold each
    mirror pair {y, N - 1 - y} once, at y (a self-paired row in its first half).  So a
    seed s = y or y - N is read at y, and a seed s = N - 1 - y or -1 - y is read at y under
    the mirrored condition, with its stencil reversed and conjugated.  Returns s and V,
    V[k] = P(s - m + k) for k = 0 .. 2m, one column per seed.
    """
    m, n, M = _STENCIL, len(weight), rows.shape[1]
    left, mid, right = size[:n], size[1:n + 1], size[2:]
    here, mirrored = (mid < left) & (mid <= right), (mid <= left) & (mid < right)
    first_half = np.arange(M) < M // 2
    # flat index idx = i M + b of row i, column b: size's rows i, i + 1, i + 2 are at
    # idx, idx + M, idx + 2M of its raveled array
    idx = np.flatnonzero((here | mirrored) & ((weight == 2)[:, None] | first_half))
    flat = size.reshape(-1)
    plausible = _plausible(flat[idx], flat[idx + M], flat[idx + 2 * M])
    idx = idx[plausible]
    i, b = np.divmod(idx, M)
    y = (N // M) * b + a0 + i
    V = rows.reshape(-1)[idx + M * np.arange(2 * m + 1)[:, None]]  # rows[i + k, b], k <= 2m
    here = here.reshape(-1)[idx] & ((y < N // 2 + m) | (y >= N - m))
    mirrored = mirrored.reshape(-1)[idx] & ((y > N // 2 - m - 1) | (y < m))
    s = np.concatenate([np.where(y < N // 2 + m, y, y - N)[here],
                        np.where(y < m, -1 - y, N - 1 - y)[mirrored]])
    return s, np.concatenate([V[:, here], V[::-1, mirrored].conj()], axis=1)


def _plausible(below, at, above):
    """Whether the parabola through |P|^2 at three grid nodes puts its zeros within twice
    the window of the axis: b steps off it, b^2 = (its minimum) / curv."""
    below, at, above = below**2, at**2, above**2
    curv = (below + above) / 2 - at  # > 0 at a minimum
    window = 2 * NEAR_ROOT_WINDOW / (2 * np.pi)  # in grid steps
    return at - (above - below) ** 2 / (16 * curv) < (2 * window) ** 2 * curv


def _near_roots(s, V, N, centre):
    """Roots of P with N |log|r|| < 2 NEAR_ROOT_WINDOW, read off seeds s of the N-point grid.

    V[k] = P at grid index s - m + k, k = 0 .. 2m (m = _STENCIL), one column per seed
    (_root_seeds).  P(e^(i theta)) is an analytic function of theta with a simple zero at
    phi - i log rho for each root r = rho e^(i phi).  Times e^(-i centre theta), centre
    the midpoint of P's first and last exponents, its frequencies span half the degree on
    either side of 0, which halves what the interpolant has to follow.  The 2m nodes
    around a seed give the interpolant C(u) of that product, u = (theta - c) / h,
    h = 2 pi / N, c the midpoint of the minimum's cell, and complex Newton on C from the
    cell's end at the seed finds its zero z = a + ib: phi = c + h a, log rho = -h b.
    With P(w) = (w - r) R(w), the quotient Q = C / (u - z) has |Q(a)| = |1 - rho| |R| / |b|
    at the real point u = a (theta = phi), so the amplitude in |P| ~ A |e^(i theta) - r'|
    is A = |R| max(rho, 1) = |Q(a)| / h * (h |b| / |1 - rho|) * max(rho, 1), the middle
    factor -> 1 as b -> 0; r' is the root or its mirror 1/conj(r), whichever is inside
    the disk.  Newton runs that have not settled are dropped, so an unresolved root (a
    repeated one, on which Newton is slow) is missed, not misplaced; a missed root, or one
    found from two seeds, moves the N and N/2 grids apart.

    Returns the stacked rows (turns, ell, amp), turns = phi / 2 pi, one column per root;
    _upper_half keeps the ones that stand for the grid's first half.  The seeds come one
    grid block at a time (_root_seeds), so one Newton pass takes them all.
    """
    m = _STENCIL
    h = 2 * np.pi / N
    W = _interpolation_matrix()
    window = 2 * NEAR_ROOT_WINDOW / (2 * np.pi)  # in grid steps
    # e^(-i centre theta) at the nodes, less the factor e^(-i centre c) common to a stencil,
    # which moves neither the zero nor |Q|
    demodulate = np.exp(-1j * centre * h * (np.arange(2 * m) - m + 0.5))[:, None]
    upper = np.abs(V[m + 1]) <= np.abs(V[m - 1])  # minimum in [s, s+1]
    j0 = s - 1 + upper
    G = np.multiply(np.where(upper, V[1:], V[:-1]), demodulate, order="C")
    # G holds the nodes j0 + 1 - m .. j0 + m, and C[k] the coefficient of u^k, one column
    # per seed: W is real, so it acts on G's real and imaginary parts as one real product
    C = (W @ G.view(np.float64)).view(np.complex128)
    z = np.where(upper, -0.5, 0.5).astype(complex)
    with np.errstate(all="ignore"):  # a diverging run ends at inf or nan, and is dropped
        for _ in range(8):
            value, slope = _horner(C, z, z)
            step = value / slope
            z -= step
    ok = (np.abs(step) < 1e-7) & (np.abs(z.real) <= 2) & (np.abs(z.imag) < window)
    z, C, j0 = z[ok], C[:, ok], j0[ok]
    log_rho = -h * z.imag
    ell = np.abs(log_rho)
    gap = np.abs(np.expm1(log_rho))  # |1 - rho|
    ratio = np.divide(ell, gap, out=np.ones_like(ell), where=gap > 0)
    amp = np.abs(_horner(C, z, z.real)[1]) / h * ratio * np.exp(np.maximum(log_rho, 0))
    return np.stack([(j0 + 1 + z.real) / N, ell, amp])


def _upper_half(found, N):
    """The roots of _near_roots that stand for the grid's first half, as (turns, ell, amp,
    weight): phi / 2 pi in [0, 1/2], |log rho|, A, and 2 for a root that stands for its
    conjugate as well, 1 for a real root.  Seeds past either end of the half see mirror
    images, which this drops."""
    turns, ell, amp = found
    tol = 1e-7 / N
    real = (np.abs(turns) <= tol) | (np.abs(turns - 0.5) <= tol)
    keep = (turns >= -tol) & (turns <= 0.5 + tol)
    return turns[keep], ell[keep], amp[keep], np.where(real, 1.0, 2.0)[keep]


@functools.cache
def _interpolation_matrix():
    """W with W @ values = the monomial coefficients (constant first) of the polynomial
    through (u_t, values[t]), u_t = t - m + 1/2 for t < 2m.  In v = 2u the nodes are odd
    integers, so each Lagrange basis is an integer polynomial over an integer: exact until
    one rounding per entry."""
    m = _STENCIL
    nodes = range(1 - 2 * m, 2 * m, 2)
    W = np.empty((2 * m, 2 * m))
    for t, vt in enumerate(nodes):
        basis, scale = [1], 1  # prod over s != t of (v - v_s), and of (v_t - v_s)
        for vs in nodes:
            if vs != vt:
                basis = [shifted - vs * same for shifted, same in zip([0] + basis, basis + [0])]
                scale *= vt - vs
        W[:, t] = [Fraction(c * 2**k, scale) for k, c in enumerate(basis)]
    return W


def _horner(C, z, u):
    """(C(z), Q(u)) per column, for the polynomial C (C[k] the coefficient of u^k, one
    column each) and its quotient Q = (C - C(z)) / (u - z), so Q(z) = C'(z): Horner's rule
    at z, whose partial sums are Q's coefficients (synthetic division from the top, stable
    for a zero z near u = 0), and Horner's rule for Q at u in the same pass.  C has at least
    two rows; after the first step both sums are updated in place, by the same operations
    in the same order as quotient = quotient * u + value, value = value * z + c."""
    quotient = 0 * u + C[-1]
    value = C[-1] * z + C[-2]
    for c in C[-3::-1]:
        quotient *= u
        quotient += value
        value *= z
        value += c
    return value, quotient


def mahler_jensen(P):
    """Mahler measure via roots: |lead| * prod of root moduli outside the disk, certified.

    The nonzero roots come from _aberth_roots, simultaneous Aberth sweeps on the sparse
    form (no dense coefficient vector, no companion matrix), each with a radius within
    which a root of P is certified to lie.  log M = log|lead| + sum of log max(1, |root|),
    and detail["error"] bounds |log M_jensen - log M|: a root whose radius keeps it inside
    the circle costs nothing, an isolated one outside r / (|z| - r), and a cluster of m
    overlapping disks m times the spread of log max(1, |z|) over them (so a repeated root
    gets a stated error, of about the square root of the rounding).  Besides degree and
    roots_outside, detail holds error, sweeps, converged (every root met the stopping
    rule), clusters (components of more than one disk) and circle_components (components
    that meet the unit circle; counted, never raised).  An empty product is 1, so a
    constant a has measure |a|.  No grid is evaluated, so l1 is None; mahler_log reports
    it.  The route is the oracle of mahler_log, and a degree above the jensen budget
    raises BudgetError before any sweep runs; real and complex coefficients cost the same.
    """
    exps, coeffs = _nonzero_terms(P)
    degree = int(exps[-1])
    check_budget("jensen", degree)
    lead = abs(complex(coeffs[-1]))
    detail = {"degree": degree, "roots_outside": 0, "error": 0.0, "sweeps": 0,
              "converged": True, "clusters": 0, "circle_components": 0}
    log_outside = 0.0
    if degree > exps[0]:
        roots = _aberth_roots(exps - exps[0], coeffs)
        outside = np.abs(roots.z) > 1.0
        log_outside = math.fsum(np.log(np.abs(roots.z[outside])))
        error, clusters, circle = _log_measure_error(roots)
        rounding = 4 * _EPS * (roots.z.size + 2) * (abs(math.log(lead)) + log_outside + 1)
        detail.update(roots_outside=int(np.count_nonzero(outside)), error=error + rounding,
                      sweeps=roots.sweeps, converged=roots.converged, clusters=clusters,
                      circle_components=circle)
    return MahlerReport(q=getattr(P, "q", None), method="jensen",
                        value=lead * math.exp(log_outside), l1=None, detail=detail)


@dataclass(frozen=True)
class _Roots:
    z: np.ndarray  # the approximations, one per nonzero root with multiplicity
    radius: np.ndarray  # an isolated z has a root within radius; a cluster in its disks
    component: np.ndarray  # per root, the least index of its component of overlapping disks
    sweeps: int
    converged: bool  # every root met the stopping rule


def _aberth_roots(exps, coeffs):
    """Every root of P = sum c_s z^s (exps ascending, exps[0] = 0, degree n >= 1) by
    simultaneous Aberth sweeps, with certified inclusion radii.

    Start points lie on the annuli of the Newton polygon of (s, log|c_s|), the
    angles spread out (_start_points).  Each sweep evaluates P and zP' at the active
    roots (_evaluate, O(n k) for k terms) and moves each by the Aberth correction
    N / (1 - N sum_{j != i} 1 / (z_i - z_j)), N = P / P' (_aberth_sums, in row blocks of
    _BLOCK entries).  A root whose residual |P| is within the rounding bound of its
    evaluation leaves the active set; roots still active after _ABERTH_SWEEPS sweeps are
    kept as they are, and their radii say how good they are.

    Certification (O. Aberth, Math. Comp. 27 (1973); D. A. Bini and G. Fiorentino,
    Numer. Algorithms 23 (2000)).  With u_i >= |W_i|, W_i = P(z_i) / (c_n prod_{j != i}
    (z_i - z_j)) the Weierstrass correction (from the residual plus its rounding bound,
    in log form, _weierstrass), the disks D(z_i, n u_i) hold every root, and a connected
    component of m of them holds exactly m.  A singleton is sharpened by Gerschgorin's
    theorem on the matrix diag(z) - 1 W^T, whose characteristic polynomial is P / c_n:
    scaling row and column i by t = d_i / (2 u_i), d_i = min_{j != i} |z_i - z_j|, and
    U = sum u, disk i, D(z_i, u_i + (U - u_i) / t), is apart from every other disk
    D(z_j, U - u_i + d_i / 2) when it stays below d_i / 2 - (U - u_i), and then holds
    exactly one root: about u_i, where the Weierstrass disk says n u_i.
    """
    n = int(exps[-1])
    logc = np.log(coeffs.astype(complex))
    z = _start_points(exps, logc.real)
    active = np.arange(n)
    sweeps = 0
    while active.size and sweeps < _ABERTH_SWEEPS:
        sweeps += 1
        s0, s1, bound, _ = _evaluate(exps, logc, z[active])
        newton = z[active] * (s0 / s1)  # P / P' = z (P / zP')
        with np.errstate(divide="ignore", invalid="ignore"):
            step = newton / (1 - newton * _aberth_sums(z, active))
        z[active] -= np.where(np.isfinite(step), step, 0)  # P' = 0: wait a sweep
        active = active[np.abs(s0) > bound]  # a root that met the rule has had its last step
    if active.size:  # the last sweep moved these roots: test them again
        s0, _, bound, _ = _evaluate(exps, logc, z[active])
        active = active[np.abs(s0) > bound]
    return _Roots(z, *_weierstrass(exps, logc, z), sweeps, converged=not active.size)


def _start_points(exps, logabs):
    """Aberth start points: for each edge of the upper convex hull of (s, log|c_s|),
    from s_a to s_b, s_b - s_a points on the circle of radius
    exp((log|c_a| - log|c_b|) / (s_b - s_a)), the moduli of that many roots by the
    Newton polygon, at equally spaced angles offset by 2 pi s_a / n + _ABERTH_ANGLE."""
    hull = [0]
    for i in range(1, exps.size):
        while len(hull) > 1:
            a, b = hull[-2], hull[-1]
            if ((exps[b] - exps[a]) * (logabs[i] - logabs[a])
                    < (logabs[b] - logabs[a]) * (exps[i] - exps[a])):
                break
            hull.pop()  # b lies on or below the segment from a to i
        hull.append(i)
    n = exps[-1]
    pieces = []
    for a, b in zip(hull, hull[1:]):
        m = int(exps[b] - exps[a])
        log_radius = (logabs[a] - logabs[b]) / m
        angles = 2 * np.pi * (np.arange(m) / m + exps[a] / n) + _ABERTH_ANGLE
        pieces.append(np.exp(log_radius + 1j * angles))
    return np.concatenate(pieces)


def _evaluate(exps, logc, z):
    """P(z) and z P'(z) at the points z, scaled by e^-m, m = max_s Re(log c_s + s log z).

    Each term c_s z^s is exp(log c_s + s log z - m), so no |z|^s overflows.  Returns
    (s0, s1, bound, m): s0 = e^-m P(z), s1 = e^-m z P'(z), and bound on the rounding
    error of s0: a term's exponent carries about eps (|log c_s| + s (1 + |log z|)), the
    s eps relative error of z^s, and the sum of k terms k eps.  Rows go _BLOCK // k at once.
    """
    k = exps.size
    weights = exps.astype(float)
    base = _EPS * (k + 2 + np.abs(logc))  # per term, in units of |term|
    s0, s1 = np.empty(z.size, dtype=complex), np.empty(z.size, dtype=complex)
    bound, top = np.empty(z.size), np.empty(z.size)
    per = max(1, _BLOCK // k)
    for lo in range(0, z.size, per):
        logz = np.log(z[lo:lo + per])
        terms = np.multiply.outer(logz, weights)
        terms += logc
        m = terms.real.max(axis=1)
        terms -= m[:, None]
        np.exp(terms, out=terms)
        size = np.abs(terms)
        s0[lo:lo + per] = terms.sum(axis=1)
        s1[lo:lo + per] = terms @ weights
        bound[lo:lo + per] = size @ base + 3 * _EPS * (1 + np.abs(logz)) * (size @ weights)
        top[lo:lo + per] = m
    return s0, s1, bound, top


def _aberth_sums(z, rows):
    """sum over j != i of 1 / (z_i - z_j) for each i in rows, in real arithmetic,
    conj(d) / |d|^2, over blocks of rows holding at most _BLOCK differences."""
    out = np.empty(rows.size, dtype=complex)
    for lo, i, dx, dy, norm in _difference_blocks(z, rows):
        norm[np.arange(i.size), i] = np.inf  # no self term
        out.real[lo:lo + i.size] = np.divide(dx, norm, out=dx).sum(axis=1)
        out.imag[lo:lo + i.size] = -np.divide(dy, norm, out=dy).sum(axis=1)
    return out


def _difference_blocks(z, rows):
    """Yield (lo, i, dx, dy, norm) for consecutive blocks i = rows[lo:lo + len(i)] of at
    most _BLOCK // len(z) rows: dx + i dy = z_i - z_j and norm = |z_i - z_j|^2, one row
    per i, in buffers reused from block to block."""
    x, y = z.real.copy(), z.imag.copy()
    per = max(1, _BLOCK // z.size)
    buffers = np.empty((3, min(per, rows.size), z.size))
    for lo in range(0, rows.size, per):
        i = rows[lo:lo + per]
        dx, dy, norm = buffers[:, :i.size]
        np.subtract(x[i, None], x, out=dx)
        np.subtract(y[i, None], y, out=dy)
        np.multiply(dx, dx, out=norm)
        norm += dy * dy
        yield lo, i, dx, dy, norm


def _weierstrass(exps, logc, z):
    """Certified radii around the approximations z and their cluster labels (see
    _aberth_roots): (radius, component).

    log u_i = m_i + log(|s0_i| + bound_i) - log|c_n| - sum_{j != i} log|z_i - z_j|, the
    last sum in row blocks of _BLOCK entries, with its own summation error added.  An
    isolated root's radius is the smaller of n u_i and the Gerschgorin one; the members
    of a component of overlapping disks D(z_i, n u_i) share a label, its least index, and
    keep n u_i.
    """
    n = z.size
    s0, _, bound, top = _evaluate(exps, logc, z)
    log_dist, spread, nearest = np.empty(n), np.empty(n), np.empty(n)
    for lo, i, _, _, norm in _difference_blocks(z, np.arange(n)):
        norm[np.arange(i.size), i] = np.inf
        nearest[i] = np.sqrt(norm.min(axis=1))
        norm[np.arange(i.size), i] = 1.0  # log 1 = 0: no self term
        logs = np.log(norm, out=norm)
        log_dist[i] = logs.sum(axis=1) / 2  # log |d| = log |d|^2 / 2
        spread[i] = np.abs(logs).sum(axis=1) / 2
    with np.errstate(divide="ignore"):
        log_u = top + np.log(np.abs(s0) + bound) - logc[-1].real - log_dist
    log_u += _EPS * (n * spread + 4 * np.abs(log_u) + n)  # rounding of the log sums
    u = np.exp(log_u)
    weier = n * u
    # only rows with n u_i + max(n u) >= d_i can overlap another disk; each pass over them
    # lowers a label to the least among its overlapping disks, until a pass changes none
    suspect = np.flatnonzero(weier + weier.max() >= nearest)
    component = np.arange(n)
    changed = suspect.size > 0
    while changed:
        changed = False
        for _, i, _, _, norm in _difference_blocks(z, suspect):
            least = np.where(norm <= (weier[i, None] + weier) ** 2, component, n).min(axis=1)
            if np.any(least < component[i]):
                component[i] = np.minimum(least, component[i])
                changed = True
    sizes = np.bincount(component, minlength=n)
    total = u.sum()
    gerschgorin = u + 2 * u * (total - u) / nearest
    isolated = (sizes[component] == 1) & (gerschgorin < nearest / 2 - (total - u))
    return np.where(isolated, np.minimum(weier, gerschgorin), weier), component


def _log_measure_error(roots):
    """(error, clusters, circle_components) of the certified roots.

    error bounds |sum log max(1, |z_i|) - sum log max(1, |root|)|: an isolated disk that
    stays inside the circle contributes 0, one reaching out r / (|z| - r) (log is
    1/x-Lipschitz above |z| - r), or log(|z| + r) if it holds 0; a cluster of m disks m
    times the spread of log max(1, |w|) over their union.  clusters counts the
    components of more than one disk, circle_components those that meet the circle.
    """
    n = roots.z.size
    modulus = np.abs(roots.z)
    lo, hi = modulus - roots.radius, modulus + roots.radius
    low, high = np.full(n, np.inf), np.zeros(n)
    np.minimum.at(low, roots.component, lo)
    np.maximum.at(high, roots.component, hi)
    sizes = np.bincount(roots.component, minlength=n)
    head = roots.component == np.arange(n)  # one root per component
    cluster = head & (sizes > 1)
    reach = (sizes[roots.component] == 1) & (hi > 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        single = np.where(lo > 0, roots.radius / lo, np.log(hi))[reach]
    spread = np.log(np.maximum(high[cluster], 1.0)) - np.log(np.maximum(low[cluster], 1.0))
    error = math.fsum(np.concatenate([single, sizes[cluster] * spread]))
    circle = head & (low <= 1.0) & (high >= 1.0)
    return error, int(np.count_nonzero(cluster)), int(np.count_nonzero(circle))


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
