"""Flatness diagnostics: L^alpha means, interpolation ratios, kernels.

Conventions.  All circle integrals are means over uniform grids,
(1/N) sum f(theta_j); `lp_norm` returns the alpha-power mean, i.e. the
alpha-th power of the L^alpha norm.  The |P| grids are reduced as they
stream from poly._grid_blocks: numpy's pairwise sum over each fold row,
weighted by the row's mirror weight, then math.fsum over the rows (a
fixed partition of the grid) divided by N.  That is deterministic for a
given grid on a given numpy build, with rounding error of order log2(M)
ulps for rows of length M.  A mean over an array held whole (`lp_norm`,
the real-line circle grid) is numpy's pairwise sum of the array.

The sinc-squared kernel K_s(t) = (s/2pi) (sin(st/2)/(st/2))^2 is a
probability density on the line whose Fourier transform is the triangle
max(0, 1-|xi|/s).  Its periodization over 2*pi*Z therefore has the exact
finite form

    Ktilde_s(theta) = sum_{|k| < s} (1 - |k|/s) e^{ik theta},

which is what transports circle flatness integrals to the real line.
The truncated direct periodization is kept as a slower cross-check with
an explicit tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import check_budget
from .poly import DefectPolynomial, NewmanPolynomial, _grid_blocks, _perfect_defect_abs
from .poly import eval_support_grid, power_grid
from .singer import _BLOCK

__all__ = [
    "FlatnessReport",
    "MZReport",
    "KernelSpec",
    "KernelMassReport",
    "RealLineReport",
    "lp_norm",
    "flatness",
    "l2_defect_exact",
    "l2_defect_sq_exact",
    "mz_ratio",
    "kernel_value",
    "periodized_kernel",
    "periodized_kernel_truncated",
    "kernel_tail_bound",
    "kernel_mass",
    "realline_flatness",
]

GRID_MULTIPLIER = 16  # flat's grid points per unit of q; every other grid is power_grid's


def _mean(arr):
    """Mean of a float array by numpy's pairwise sum (error ~ log2(n) eps)."""
    return float(np.sum(arr)) / len(arr)


def _fsum_mean(row_sums, N):
    """Mean over N grid points from a list of arrays of weighted row sums, by math.fsum."""
    return math.fsum(np.concatenate(row_sums)) / N


# ---------------------------------------------------------------------------
# L^alpha means and flatness defects
# ---------------------------------------------------------------------------

def lp_norm(values, alpha):
    """Alpha-power quadrature mean (1/N) sum |values[j]|^alpha.

    This is the alpha-th power of the L^alpha norm.  The caller is
    responsible for supplying a grid at least 4x the trigonometric
    degree of the integrand.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _mean(np.abs(np.asarray(values)) ** alpha)


def _check_alpha(alpha):
    """ValueError unless alpha lies in (0, 2], the exponents of the flatness defects."""
    if not 0 < alpha <= 2:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")


@dataclass(frozen=True)
class FlatnessReport:
    """Defect norms of one polynomial at one exponent, from one N-point |P| grid.

    p is |support| - 1 (p^m for a Singer polynomial), defect_sq is || |P|^2 - 1 ||_alpha,
    defect_abs is || |P| - 1 ||_alpha and l1_norm the grid mean of |P|.  Computed for any
    support but meaningful for a Singer polynomial: l2_defect_closed = sqrt(p/(p+1)),
    s3_bound = p^alpha/q + ((q-1)/q) (p+1)^(-alpha), the interpolation bound on
    ||Q||_alpha^alpha with absolute constant 1, and defect_dominance_min_gap, the grid min
    of |Q| - ||P|^2 - 1| with |Q| in closed form for a perfect difference set.
    """

    p: int
    q: int
    alpha: float
    grid_size: int
    defect_sq: float
    defect_abs: float
    l1_norm: float
    l2_defect_closed: float
    s3_bound: float
    defect_dominance_min_gap: float


def flatness(P: NewmanPolynomial, alpha, grid_size=None):
    """Flatness defects of P from one uniform |P| grid (default GRID_MULTIPLIER * q points).

    The grid streams from poly._grid_blocks, one block of fold rows at a time: the
    three means are math.fsum over the weighted row sums, and the dominance gap is the
    min over the computed rows of |Q| - t, t = | |P|^2 - 1 |, with |Q| in closed form.
    |Q| >= 0, so only a point with t > -gap can lower the running min: the block is read
    _BLOCK // 8 points at a time (|Q| makes about eight temporaries), and |Q| is evaluated
    only at a chunk's points that pass that test against the min so far.  The min is
    exact, so the pruning leaves it bit for bit.  |Q| is even and the real |P| grid
    exactly mirrored, so that min is the whole grid's.  No N-long array is made.
    """
    _check_alpha(alpha)
    N = grid_size if grid_size is not None else GRID_MULTIPLIER * P.q
    if N < 4 * P.q:
        raise ValueError(f"grid {N} too small; need at least 4q = {4 * P.q}")
    l1, sq, ab = [], [], []  # weighted row sums of |P|, | |P|^2 - 1 |^alpha, | |P| - 1 |^alpha
    gap = math.inf
    for a0, rows, weight in _grid_blocks(P.support, [P.scale] * P.size, N):
        M = rows.shape[1]
        l1.append(weight * rows.sum(axis=1))
        t = np.square(rows)
        t -= 1.0
        np.abs(t, out=t)
        flat_t = t.reshape(-1)
        for lo in range(0, flat_t.size, _BLOCK // 8):
            k = lo + np.flatnonzero(flat_t[lo:lo + _BLOCK // 8] > -gap)
            if k.size:
                i, b = np.divmod(k, M)
                dominance = _perfect_defect_abs(P.q, P.size, N, (N // M) * b + a0 + i)
                dominance -= flat_t[k]
                gap = min(gap, float(dominance.min()))
        t **= alpha
        sq.append(weight * t.sum(axis=1))
        np.subtract(rows, 1.0, out=t)
        np.abs(t, out=t)
        t **= alpha
        ab.append(weight * t.sum(axis=1))
        del t, flat_t  # freed before the row kernel computes the next block
    pm = P.size - 1
    return FlatnessReport(
        p=pm,
        q=P.q,
        alpha=alpha,
        grid_size=N,
        defect_sq=_fsum_mean(sq, N) ** (1.0 / alpha),
        defect_abs=_fsum_mean(ab, N) ** (1.0 / alpha),
        l1_norm=_fsum_mean(l1, N),
        l2_defect_closed=math.sqrt(pm / (pm + 1)),
        s3_bound=pm**alpha / P.q + (P.q - 1) / P.q * (pm + 1) ** (-alpha),
        defect_dominance_min_gap=gap,
    )


def l2_defect_sq_exact(table):
    """Exact || |P|^2 - 1 ||_2^2 = sum_{l != 0} c_l^2 / |S|^2 from counts.

    The l = 0 term is c_0^2 = |S|^2, so it is subtracted from the full sum.  The
    squares are summed in int64 whatever the counts' dtype (an int16 dot would wrap),
    exact while sum c_l^2 <= |S| sum c_l = |S|^3 is below 2^63, and in Python ints past
    that bound.
    """
    k = table.size
    counts = table.aperiodic.numerators
    if k**3 < 2**63 and counts.dtype != object:
        total = int(np.einsum("i,i->", counts, counts, dtype=np.int64))
    else:
        total = sum(c * c for c in counts.tolist())
    return Fraction(total - k * k, k * k)


def l2_defect_exact(table):
    """sqrt of the exact squared L2 defect; sqrt(p^m/(p^m+1)) for Singer sets."""
    return math.sqrt(l2_defect_sq_exact(table))


# ---------------------------------------------------------------------------
# Marcinkiewicz-Zygmund ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MZReport:
    alpha: float
    n: int
    grid_size: int
    discrete_mean: float
    integral: float
    ratio: float


def _nonzero_terms(poly):
    """Nonzero terms (exponents ascending, coefficients) of a polynomial object.

    Accepts a NewmanPolynomial, a DefectPolynomial, an {exponent: coefficient}
    dict whose exponents are non-negative integers, or a one-dimensional nonempty
    coefficient sequence, constant term first; all-zero imaginary parts are dropped.
    The zero polynomial raises ValueError: mz_ratio, mahler_log and mahler_jensen
    are all undefined there.
    """
    if isinstance(poly, NewmanPolynomial):
        return np.array(poly.support), np.full(poly.size, poly.scale)
    if isinstance(poly, dict):
        bad = [e for e in poly if not isinstance(e, (int, np.integer)) or e < 0]
        if bad:
            raise ValueError(f"exponents must be non-negative integers, got {bad}")
        exps = np.array(sorted(poly), dtype=np.int64)
        coeffs = np.array([complex(poly[e]) for e in exps])
    else:
        coeffs = poly.coefficient_array() if isinstance(poly, DefectPolynomial) else np.asarray(poly)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("expected a one-dimensional coefficient sequence")
        exps = np.arange(coeffs.size)
    if np.iscomplexobj(coeffs) and not np.any(coeffs.imag):
        coeffs = coeffs.real
    keep = coeffs != 0
    if not np.any(keep):
        raise ValueError("expected a nonzero polynomial")
    return exps[keep], coeffs[keep]


def _power_mean(exps, coeffs, N, alpha):
    """(1/N) sum |P|^alpha over the N-point grid, reduced block by block."""
    return _fsum_mean([weight * (rows**alpha).sum(axis=1)
                       for _, rows, weight in _grid_blocks(exps, coeffs, N)], N)


def mz_ratio(poly, alpha, n):
    """Discrete n-point alpha-mean of |P| against its quadrature integral.

    Requires a nonzero P with real coefficients (both means stream from the
    mirrored |P| grid; a complex one raises ValueError), degree(P) <= n - 1
    (no aliasing on the sample grid) and alpha > 1.  For alpha = 2 and
    degree < n the ratio is 1 up to rounding, by discrete Parseval.  The
    integral is the mean over power_grid(max(2^14, 4(degree + 1))) points, reported as
    grid_size: 3.3e-6 off a 2^21-point mean at p = 67, where 4(degree + 1) were 3.2e-5 off.
    """
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    exps, coeffs = _nonzero_terms(poly)
    degree = int(exps[-1])
    if degree >= n:
        raise ValueError(f"degree {degree} >= n = {n}: sample grid would alias")
    N = power_grid(max(2**14, 4 * (degree + 1)))
    discrete, integral = (_power_mean(exps, coeffs, size, alpha) for size in (n, N))
    return MZReport(
        alpha=alpha,
        n=n,
        grid_size=N,
        discrete_mean=discrete,
        integral=integral,
        ratio=discrete / integral,
    )


# ---------------------------------------------------------------------------
# sinc^2 kernel, periodization, real-line flatness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Scale 0 < s < inf and the number of periodization terms per side."""

    s: float
    truncation: int = 32

    def __post_init__(self):
        if not 0 < self.s < math.inf:
            raise ValueError(f"kernel scale must be positive and finite, got {self.s}")
        if self.truncation < 8:
            raise ValueError(f"need at least 8 periodization terms, got {self.truncation}")


def kernel_value(spec: KernelSpec, theta):
    """K_s(theta) = (s/2pi) sinc(s theta / 2)^2; K_s(0) = s/(2pi)."""
    th = np.asarray(theta, dtype=float)
    out = spec.s / (2 * np.pi) * np.sinc(spec.s * th / (2 * np.pi)) ** 2
    return out if out.ndim else float(out)


def periodized_kernel(spec: KernelSpec, theta):
    """Exact periodization 2pi sum_n K_s(theta + 2pi n), via Poisson summation.

    Equals sum_{|k| < s} (1 - |k|/s) e^{ik theta}: the Fourier transform
    of K_s is the triangle max(0, 1 - |xi|/s), so only |k| < s survives.
    A finite cosine sum, hence no truncation error.
    """
    th = np.asarray(theta, dtype=float)
    out = np.ones_like(th)
    for k in range(1, math.ceil(spec.s)):
        out = out + 2.0 * (1.0 - k / spec.s) * np.cos(k * th)
    return out if out.ndim else float(out)


def periodized_kernel_truncated(spec: KernelSpec, theta):
    """Direct sum 2pi sum_{|n| <= truncation} K_s(theta + 2pi n).

    With u = s theta/2 and phi_n = pi s n the n-th term is s sin^2(u + phi_n)/(u + phi_n)^2,
    and sin(u + phi_n) = sin u cos phi_n + cos u sin phi_n, so every node takes two trig
    evaluations whatever the truncation.  sin^2 has period pi, so s n is reduced mod 1
    before it is multiplied by pi.  Where that phase is exactly 0 (every n at integer s,
    every even n at half-integer s) the numerator is sin u alone: the addition formula's
    cos u * 0 is a zero, or nan only where sin u is already nan, so it can change no more
    than the sign of a zero, which the square removes.  Where |u + phi_n| < 1 the
    addition formula would cancel, and the term is s sinc^2 as in kernel_value, s at
    u + phi_n = 0.  Each node's value depends on that node alone.
    """
    th = np.asarray(theta, dtype=float)
    u = 0.5 * spec.s * th.ravel()
    sin_u, cos_u = np.sin(u), np.cos(u)
    out = np.zeros_like(u)
    step = np.pi * spec.s
    lo, hi = (-1.0 - u.max(initial=0.0)) / step, (1.0 - u.min(initial=0.0)) / step
    # the n for which |x| < 1 can occur; all of them if theta is not finite
    shifts = range(-spec.truncation, spec.truncation + 1)
    near_n = range(math.ceil(lo), math.floor(hi) + 1) if math.isfinite(lo + hi) else shifts
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 only where |x| < 1
        for n in shifts:
            phi = np.pi * ((spec.s * n) % 1.0)
            x = u + step * n
            if phi == 0.0:
                term = sin_u / x
            else:
                term = sin_u * math.cos(phi) + cos_u * math.sin(phi)
                term /= x
            term *= term
            if n in near_n:
                near = np.abs(x) < 1.0
                term[near] = np.sinc(x[near] / np.pi) ** 2
            out += term
    out *= spec.s
    return out.reshape(th.shape) if th.ndim else float(out[0])


def kernel_tail_bound(spec: KernelSpec):
    """Upper bound on the truncation error of periodized_kernel_truncated.

    Each dropped term satisfies K_s(x) <= 2/(pi s x^2) with |x| >= 2pi(T-1),
    so the missing mass is at most 2/(pi^2 s (T-1)).
    """
    return 2.0 / (np.pi**2 * spec.s * (spec.truncation - 1))


_PANEL_TOL, _PANEL_MAX_DEPTH = 1e-12, 24  # _adaptive_panels: per-length tolerance, bisection cap
_GL16 = np.polynomial.legendre.leggauss(16)
_GL32 = np.polynomial.legendre.leggauss(32)


def _eval_chunked(fun, t, width):
    """fun at the nodes t, _BLOCK // width at a time: fun makes width entries per node."""
    per = max(1, _BLOCK // width)
    return np.concatenate([fun(t[i:i + per]) for i in range(0, max(len(t), 1), per)])


def _adaptive_panels(fun, edges):
    """Adaptive 16/32-node Gauss-Legendre over the given initial panels.

    Panels are processed in waves: the 16- and 32-node sets of a wave's panels go to fun
    together, _BLOCK nodes per call, so fun must give each node a value that depends on
    that node alone.  A panel is accepted when its 16- and 32-node values agree to
    _PANEL_TOL per unit length, otherwise it is bisected, at most _PANEL_MAX_DEPTH times.
    fsum makes the total independent of accumulation order, so the result is deterministic.
    Returns it with the count of panels accepted unconverged at _PANEL_MAX_DEPTH.
    """
    intervals = np.stack([edges[:-1], edges[1:]], axis=1)
    pieces, unconverged = [], 0
    for depth in range(_PANEL_MAX_DEPTH + 1):
        a, b = intervals[:, 0], intervals[:, 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        nodes = [(mid[:, None] + half[:, None] * gl[0]).ravel() for gl in (_GL16, _GL32)]
        f = _eval_chunked(fun, np.concatenate(nodes), 1)
        f16, f32 = f[:nodes[0].size], f[nodes[0].size:]
        v16 = half * (f16.reshape(len(intervals), -1) @ _GL16[1])
        v32 = half * (f32.reshape(len(intervals), -1) @ _GL32[1])
        done = np.abs(v32 - v16) <= _PANEL_TOL * np.maximum(b - a, 1e-6)
        if depth == _PANEL_MAX_DEPTH:
            unconverged = int(np.count_nonzero(~done))
            done[:] = True
        pieces.extend(v32[done].tolist())
        rest = intervals[~done]
        if not len(rest):
            break
        mid_r = 0.5 * (rest[:, 0] + rest[:, 1])
        intervals = np.concatenate(
            [np.stack([rest[:, 0], mid_r], 1), np.stack([mid_r, rest[:, 1]], 1)]
        )
    return math.fsum(pieces), unconverged


def _si_tail(y):
    """pi/2 - Si(y) for y > 0 (Numerical Recipes 6.8 `cisi`; Abramowitz & Stegun 5.2):
    the power series of Si up to y = 4, above it -Im E1(iy) by the modified-Lentz
    continued fraction (at most ~50 terms), which never cancels against pi/2."""
    if y <= 4.0:
        si, term, n = y, y, 1
        while abs(term) > 1e-17 * si:
            term *= -y * y / ((n + 1) * (n + 2))
            n += 2
            si += term / n
        return math.pi / 2 - si
    b = complex(1.0, y)
    c, d, h = math.inf, 1.0 / b, 1.0 / b
    for n in range(1, 100):
        b += 2.0
        d = 1.0 / (b - n * n * d)
        c = b - n * n / c
        h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return h.real * math.sin(y) - h.imag * math.cos(y)  # -Im(h e^(-iy)), h = e^(iy) E1(iy)


def _line_tail_mass(spec: KernelSpec, half_width):
    """Exact integral of K_s over |t| > half_width.

    Substituting u = st/2: integral_x^inf sin^2(u)/u^2 du
    = sin^2(x)/x + pi/2 - Si(2x).
    """
    x = spec.s * half_width / 2.0
    return 2.0 / np.pi * (np.sin(x) ** 2 / x + _si_tail(2.0 * x))


def _line_window(spec: KernelSpec):
    """The truncation window [-2 pi T, 2 pi (T+1)) of periodized_kernel_truncated, and the
    K_s mass outside it: the mean of the two one-sided tails, as the window is asymmetric."""
    window = (-2 * np.pi * spec.truncation, 2 * np.pi * (spec.truncation + 1))
    return window, (_line_tail_mass(spec, -window[0]) + _line_tail_mass(spec, window[1])) / 2.0


@dataclass(frozen=True)
class KernelMassReport:
    s: float
    circle_mass: float
    line_mass: float
    window: tuple
    tail_mass: float
    unconverged_panels: int  # line-route panels accepted at the bisection cap


def kernel_mass(spec: KernelSpec):
    """Total mass of K_s computed two ways; both should equal 1.

    Circle route: mean of the exact periodization, O(N s), on N = power_grid(2 ceil(s))
    midpoints, which resolve its frequencies |k| < s (4096 points read 0.82 at s = 4500).
    Line route: adaptive Gauss-Legendre panels, one initial panel per period of the
    truncation window, plus the analytic sinc^2 tail.  The kernel budget prices the
    circle route's N ceil(s) node evaluations, at least N, and the 48 (2T + 1) nodes of
    the line route's first wave of panels, before any work.
    """
    N = power_grid(2 * math.ceil(spec.s))
    check_budget("kernel", N * math.ceil(spec.s))  # periodized_kernel: an N-point pass per k < s
    check_budget("kernel", 48 * (2 * spec.truncation + 1))  # 16 + 32 nodes per initial panel
    theta = 2 * np.pi * (np.arange(N) + 0.5) / N
    circle = _mean(periodized_kernel(spec, theta))
    periods = 2 * np.pi * np.arange(-spec.truncation, spec.truncation + 2)
    line, unconverged = _adaptive_panels(lambda t: kernel_value(spec, t), periods)
    window, tail = _line_window(spec)
    return KernelMassReport(
        s=spec.s,
        circle_mass=circle,
        line_mass=line + tail,
        window=window,
        tail_mass=tail,
        unconverged_panels=unconverged,
    )


@dataclass(frozen=True)
class RealLineReport:
    """Two routes to integral_R | |P(t)| - 1 |^alpha K_s(t) dt.

    circle_value and circle_truncated are means on realline_grid's circle_grid points, with
    the exact and the window-truncated periodized kernel; line_value covers that window by
    adaptive panels (it differs from circle_truncated only by quadrature error), and
    tail_bound bounds what the window misses.
    """

    alpha: float
    s: float
    truncation: int
    circle_grid: int
    circle_value: float
    circle_truncated: float
    line_value: float
    window: tuple
    tail_mass: float
    integrand_sup: float
    tail_bound: float
    unconverged_panels: int  # line_value's panels accepted at the bisection cap


def realline_grid(q, s, grid_multiplier=GRID_MULTIPLIER):
    """Points of realline_flatness's circle grid for modulus q and kernel scale s."""
    return power_grid(max(grid_multiplier * q, 2 * math.ceil(s)))


def realline_flatness(P: NewmanPolynomial, alpha, spec: KernelSpec,
                      grid_multiplier=GRID_MULTIPLIER):
    """Real-line flatness of P against the density K_s.

    The 2pi-periodic integrand f(t) = | |P(e^{it})| - 1 |^alpha makes

        integral_R f dlambda_s = (1/2pi) integral_0^2pi f Ktilde_s,

    which is a mean over the N = realline_grid(q, s, grid_multiplier) midpoints, |P| read
    off eval_support_grid.  N is a power of two, so no node is a q-th root of unity (q is
    odd), and N >= 2s resolves Ktilde_s.  The grid budget prices N, and the kernel budget
    the N ceil(s) node evaluations of periodized_kernel and the N (2T + 1) terms of
    periodized_kernel_truncated, before any work.  The line-side value
    integrates f K_s over the truncation window by kink-seeded adaptive Gauss-Legendre
    panels, an independent quadrature; agreement with circle_truncated is limited only by
    the midpoint grid: 2e-5 or better at s = 3, alpha = 1 for 17 <= p <= 37 (2.0e-4 at
    p = 31 on a 16q grid).
    """
    _check_alpha(alpha)
    N = realline_grid(P.q, spec.s, grid_multiplier)
    check_budget("grid", N)
    check_budget("kernel", N * math.ceil(spec.s))  # periodized_kernel: an N-point pass per k < s
    check_budget("kernel", N * (2 * spec.truncation + 1))  # the truncated kernel: one per |n| <= T
    if N < 8 * P.q:
        raise ValueError(f"grid {N} too small; need at least 8q = {8 * P.q}")
    absP = np.abs(eval_support_grid(P.support, [P.scale] * P.size, N, offset=0.5))
    theta = 2 * np.pi * (np.arange(N) + 0.5) / N
    f = np.abs(absP - 1.0) ** alpha
    circle_exact = _mean(f * periodized_kernel(spec, theta))
    circle_trunc = _mean(f * periodized_kernel_truncated(spec, theta))

    # Line side.  Summing the window periods of integral f K_s dt is,
    # after the exact change of variables t -> theta + 2 pi n, one circle
    # integral of f against the truncated periodization; integrate it by
    # adaptive Gauss-Legendre panels seeded at the | |P| - 1 | kinks (sign
    # changes of |P| - 1, bisected to machine precision).  Panels split
    # until the 16- and 32-node values agree, which also absorbs the
    # high-curvature points near circle zeros of P.
    support = np.array(P.support)

    def defect(t):  # |P(e^{it})| - 1 by direct summation over the support
        return np.abs(np.exp(1j * t[:, None] * support).sum(axis=1)) * P.scale - 1.0

    def integrand(t):  # the kernel takes _BLOCK nodes at a time, the direct sum _BLOCK // k
        defect_t = _eval_chunked(defect, t, support.size)
        return np.abs(defect_t) ** alpha * periodized_kernel_truncated(spec, t)

    crossings = np.nonzero(np.diff(np.sign(absP - 1.0)))[0]
    lo, hi = theta[crossings], theta[crossings + 1]
    flo = _eval_chunked(defect, lo, support.size)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        fmid = _eval_chunked(defect, mid, support.size)
        left = flo * fmid <= 0
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fmid)
    kinks = 0.5 * (lo + hi)
    base = np.concatenate(([0.0], kinks, [2 * np.pi]))
    # grade panels geometrically into each kink: |.|^alpha has unbounded
    # derivatives there for fractional alpha, and grading restores fast
    # Gauss-Legendre convergence without deep adaptive splitting
    edges = []
    for a, b in zip(base, base[1:]):
        length = b - a
        lower = [a + length * ratio for ratio in (0.25**k for k in range(6, 0, -1))]
        upper = [b - length * ratio for ratio in (0.25**k for k in range(1, 7))]
        edges.extend([a] + lower + [a + 0.5 * length] + upper)
    edges.append(2 * np.pi)
    line_value, unconverged = _adaptive_panels(integrand, np.array(edges))
    window, tail_mass = _line_window(spec)
    sup = float(f.max())
    return RealLineReport(
        alpha=alpha,
        s=spec.s,
        truncation=spec.truncation,
        circle_grid=N,
        circle_value=circle_exact,
        circle_truncated=circle_trunc,
        line_value=line_value / (2 * np.pi),
        window=window,
        tail_mass=tail_mass,
        integrand_sup=sup,
        tail_bound=sup * tail_mass,
        unconverged_panels=unconverged,
    )
