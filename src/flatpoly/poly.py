"""Normalized 0/1-support polynomials, correlations, and grid evaluation.

The central object is the L2-normalized analytic polynomial with support
S inside [0, q):

    P(z) = (1/sqrt(|S|)) * sum_{s in S} z^s.

Counting ordered pairs of support elements by their difference gives the
aperiodic autocorrelations c_l (integer differences l) and the cyclic
ones gamma_r (differences mod q); the two are linked by
gamma_r = c_r + c_{r-q}.  For a perfect difference set gamma_r = 1 for
every r != 0, which is what makes |P|^2 close to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError
from .singer import ExactVector, SingerSet, _BLOCK, _exact_fields, _factorint, _pair_counts

GRID_BUDGET = 2**28  # points of one grid: 4 GiB per complex array of eval_support_grid
_ROW_MIN, _ROW_MAX = 2**8, 2**14  # row lengths _grid_blocks aims for
_ROW_FAST = 2**11  # longest row that fits L1 as complex128 (32 KiB): the first tier's cap
_ROW_PRIME_MAX = 64  # largest prime factor of a fast row length
_TWIST_SPAN = 2**16  # entries of the twist table step: its rows R are this // the row length

__all__ = [
    "NewmanPolynomial",
    "CorrelationTable",
    "DefectPolynomial",
    "build_polynomial",
    "newman_from_support",
    "correlations",
    "correlation_table",
    "defect_poly",
    "eval_support_grid",
]


@dataclass(frozen=True)
class NewmanPolynomial:
    """(1/sqrt(k)) * sum z^s over a k-element support inside [0, q)."""

    q: int
    support: tuple

    def __post_init__(self):
        if not self.support:
            raise ValueError("support must be nonempty")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be strictly increasing")
        if self.support[0] < 0 or self.support[-1] >= self.q:
            raise ValueError("support must lie in [0, q)")

    @property
    def size(self):
        return len(self.support)

    @property
    def degree(self):
        return self.support[-1]

    @property
    def scale(self):
        """Floating rendering of 1/sqrt(|support|)."""
        return 1.0 / np.sqrt(self.size)

    @property
    def scale_sq(self):
        """Exact squared coefficient, 1/|support|."""
        return Fraction(1, self.size)

    def coefficient_array(self):
        """Dense float coefficients of length q, constant term first."""
        c = np.zeros(self.q)
        c[list(self.support)] = self.scale
        return c


@dataclass(frozen=True)
class CorrelationTable:
    """Ordered-pair difference counts of a support, aperiodic and cyclic.

    Both are ExactVectors of integers (denominator 1), 2q - 1 and q long:
    aperiodic[l + q - 1] counts pairs with integer difference l for
    l in [-(q-1), q-1]; cyclic[r] counts pairs with difference r mod q.
    """

    q: int
    size: int
    aperiodic: ExactVector
    cyclic: ExactVector

    def __post_init__(self):
        _exact_fields(self, "aperiodic", "cyclic")

    def c(self, l):
        if abs(l) > self.q - 1:
            return 0
        return self.aperiodic[l + self.q - 1]

    def gamma(self, r):
        return self.cyclic[r % self.q]

    @property
    def is_perfect(self):
        return self.cyclic[1:].count(1) == self.q - 1


@dataclass(frozen=True)
class DefectPolynomial:
    """Q(z) = sum_{l=1}^{q-1} (gamma_l / |S|) z^l with exact coefficients.

    Built from cyclic correlation counts, so for a perfect difference set
    every coefficient is 1/|S|, Q(1) = (q-1)/|S|, and Q agrees with
    |P|^2 - 1 at the q-th roots of unity.  coefficients, for exponents
    1 .. q-1, is an ExactVector that reads as Fractions: defect_poly's
    holds the counts gamma_l over |S|, and any other rationals are held
    over their common denominator.
    """

    q: int
    size: int
    coefficients: ExactVector

    def __post_init__(self):
        _exact_fields(self, "coefficients")

    @property
    def degree(self):
        return self.q - 1

    def value_at_one(self):
        """Q(1), the exact sum of the coefficients."""
        return Fraction(self.coefficients._total(), self.coefficients.denominator)

    def coefficient_array(self):
        """Dense float coefficients of length q, each rounded as float(Fraction) is: one
        IEEE division while numerators and denominator are below 2^53, correctly rounded
        Python-int division past that."""
        num, den = self.coefficients.numerators, self.coefficients.denominator
        exact = max(self.coefficients.numerator_bound, den) < 2**53
        c = np.zeros(self.q)
        c[1:] = num / den if exact else [n / den for n in num.tolist()]
        return c


def build_polynomial(sset: SingerSet):
    """The normalized support polynomial of a Singer set."""
    return NewmanPolynomial(q=sset.q, support=sset.residues)


def newman_from_support(support, q=None):
    """Normalized 0/1-support polynomial on an explicit support."""
    support = tuple(sorted(set(int(s) for s in support)))
    if q is None:
        q = support[-1] + 1
    return NewmanPolynomial(q=q, support=support)


def correlation_table(support, q):
    """Exact integer pair counts for any distinct support in [0, q)."""
    support = list(support)
    aper = _pair_counts(support, q)
    cyc = np.empty(q, dtype=np.int64)  # gamma_r = c_r + c_(r-q), in one add
    cyc[0] = aper[q - 1]
    np.add(aper[q:], aper[:q - 1], out=cyc[1:])
    return CorrelationTable(q=q, size=len(support), aperiodic=ExactVector._adopt(aper),
                            cyclic=ExactVector._adopt(cyc))


def correlations(sset: SingerSet):
    return correlation_table(sset.residues, sset.q)


def defect_poly(sset: SingerSet):
    gamma = _pair_counts(sset.residues, sset.q, cyclic=True)[1:]
    return DefectPolynomial(q=sset.q, size=sset.size,
                            coefficients=ExactVector._adopt(gamma, sset.size))


def power_grid(points):
    """The least power of two >= max(4096, points): the size of every grid the library
    picks for itself (Mahler, real line, kernel mass, the MZ integral), all but flat's."""
    return max(4096, 1 << (points - 1).bit_length())


def eval_support_grid(exponents, coeffs, N, offset=0.0):
    """values[j] = sum_k coeffs[k] exp(2*pi*i*(j+offset)*exponents[k]/N), by one FFT.

    Exponents must lie in [0, N) so the grid resolves the polynomial, and N must fit
    GRID_BUDGET.  The one route that materializes a grid, complex and 32 bytes per
    point: realline_flatness reads |P| off it, and it is the oracle of the streamed
    |P| grids of _grid_blocks.
    """
    check_grid_budget(N)
    exponents = np.asarray(exponents, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if exponents.size and (exponents.min() < 0 or exponents.max() >= N):
        raise ValueError(f"exponents must lie in [0, N) with N={N}")
    if offset:
        coeffs = coeffs * np.exp(2j * np.pi * offset * exponents / N)
    dense = np.zeros(N, dtype=np.complex128)
    np.add.at(dense, exponents, coeffs)
    values = np.fft.ifft(dense)
    values *= N
    return values


def _divisors(factors):
    """Every divisor of the number with prime factorization {prime: exponent}, ascending."""
    divs = [1]
    for prime, e in factors.items():
        divs = [d * prime**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _row_length(N, degree, terms):
    """Row length M of _grid_blocks' N-point grid, by one rule applied in two tiers.

    The rule, over the divisors of N of at most a cap with every prime factor at most
    _ROW_PRIME_MAX and at least the term count: the smallest one at or above
    clamp(degree + 1, _ROW_MIN, cap), else the largest one.  The first tier caps rows at
    _ROW_FAST, whose complex row (32 KiB) fits a 48 KiB L1 data cache; only a grid with
    no such divisor takes the second tier's cap _ROW_MAX, so no grid gives up a fast row
    (p = 1597's 16q grid keeps 2064 = 2^4 3 43 where a plain 2^11 cap finds only the
    Bluestein length 1626 = 2 3 271).  np.fft.ifft over 2^16 entries took 5.7 ns per
    point in rows of 2^11, 13 ns in rows of 2^14 (256 KiB) and 30 ns in p = 211's old
    rows of 14911 = 13 31 37 (on a Xeon with 48 KiB L1d per core; minimum of 15 runs).
    With neither tier, M is the smallest divisor of N with at least the term count.  Such
    a row is a Bluestein FFT, and one of length 4014013 (q at p = 2003) raises the peak
    RSS by 550 MB, so the shortest row that holds the terms is the cheapest; the fold
    lets M sit below the degree.
    """
    factors = _factorint(N)
    smooth = _divisors({prime: e for prime, e in factors.items() if prime <= _ROW_PRIME_MAX})
    for cap in (_ROW_FAST, _ROW_MAX):
        fast = [m for m in smooth if terms <= m <= cap]
        if fast:
            target = min(max(degree + 1, _ROW_MIN), cap)
            return next((m for m in fast if m >= target), fast[-1])
    return next(m for m in _divisors(factors) if m >= terms)


def check_grid_budget(N):
    """BudgetError unless an N-point grid fits GRID_BUDGET: the one place that budget is
    compared, by both grid routes and by callers that price a grid before building P."""
    if N > GRID_BUDGET:
        raise BudgetError(f"grid of {N} points exceeds the grid budget {GRID_BUDGET}")


def _grid_blocks(exponents, coeffs, N, offset=0.0, halo=0):
    """|P|, or P with a halo, on the N-point grid e^(2 pi i (j+offset)/N), in blocks of rows,
    for real coefficients at offset 0 or 1/2, the geometry of every library |P| grid.  Any
    other input raises ValueError: eval_support_grid evaluates it.  Every consumer streams
    the blocks: flatness, analysis._power_mean and mahler._grid_means.

    Fold.  With L = N/M, grid index j = L*b + a has
    P(e^(2 pi i (j+offset)/N)) = sum_m x_a[m] e^(2 pi i m b/M), where x_a[m] sums the twisted
    terms c_s e^(2 pi i (a+offset) s/N) over s = m mod M: row a is one length-M FFT, and M
    need not exceed the degree.  M comes from _row_length: a divisor of N with small
    prime factors and at least as many bins as terms, of at most _ROW_FAST points (a
    complex row that fits L1) where N has one, else of at most _ROW_MAX.

    Mirror.  For real coefficients P(e^(-i theta)) = conj P(e^(i theta)).  At offset 0,
    N - (L*b + a) = L*(M-1-b) + (L-a), so row L-a is row a reversed (and conjugated) and
    rows 0 .. L//2 are computed; at offset 1/2, N-1 - (L*b + a) = L*(M-1-b) + (L-1-a), so
    row L-1-a is row a reversed and rows 0 .. ceil(L/2)-1 are computed.  A self-paired
    row (row 0 at offset 0, the middle row when there is one) has its second half set to
    its first reversed, so |P| is exactly symmetric.

    Yields (a0, rows, weight) for the computed rows a0 .. a0+n-1 in ascending blocks of
    max(1, _BLOCK // M) rows: rows[halo + i, b] is |P| at grid index L*b + a0 + i, and
    weight[i] is 2 when row a0 + i stands for a mirror partner as well, else 1, so the
    weighted rows cover every grid index exactly once.  With halo > 0 rows holds complex
    P, whose |P| is the halo-free rows' bit for bit, and the halo rows a0 - halo .. a0 - 1
    and a0 + n .. a0 + n + halo - 1, rolled by a row of L where they leave [0, L) and taken
    from computed rows and the mirror, so rows[i - 1] and rows[i + 1] hold the grid
    neighbours j -+ 1 of rows[i].  rows is a view that the next block overwrites.  Memory:
    one block of FFT temporaries and a window of a block's rows plus 2 halo, or all
    computed rows plus 2 halo where there are at most 2 max(block rows, halo) + 2 of them;
    N-long only on such small grids.
    """
    check_grid_budget(N)
    exponents = np.asarray(exponents, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if exponents.size and (exponents.min() < 0 or exponents.max() >= N):
        raise ValueError(f"exponents must lie in [0, N) with N={N}")
    s, inverse = np.unique(exponents, return_inverse=True)
    c = np.zeros(s.size, dtype=np.complex128)
    np.add.at(c, inverse, coeffs)
    if np.any(c.imag) or offset not in (0.0, 0.5):
        raise ValueError("the |P| grid takes real coefficients at offset 0 or 1/2; "
                         "eval_support_grid evaluates complex ones or other offsets")
    M = _row_length(N, int(s.max(initial=0)), s.size)
    L = N // M
    sigma = int(2 * offset)
    h = (L - sigma) // 2 + 1  # rows computed by FFT
    weight = np.full(h, 2.0)
    selfpaired = [0] if sigma == 0 else []
    if (L + sigma) % 2 == 0:
        selfpaired.append((L - sigma) // 2)
    weight[selfpaired] = 1.0
    return _fold_rows(s, c, N, M, offset, sigma, weight, selfpaired, halo)


def _fold_rows(s, c, N, M, offset, sigma, weight, selfpaired, halo):
    """The generator of _grid_blocks, whose arguments it has checked and reduced.

    Twist.  Row a = R*u + v, with R = max(1, min(_TWIST_SPAN // M, h)), takes the twist
    step[v] * lift[u]: step[v] = e^(2 pi i (v s mod N)/N) and
    lift[u] = c_s e^(2 pi i (R u s mod N + offset s)/N), each numerator reduced exactly in
    int64 (offset*s is exact for offset 1/2), so no trig call sees a large angle.  This
    is the four-step FFT's twiddle split: the twist is a function of the row index alone,
    so a row's bits do not depend on _BLOCK, which only decides how many rows go through
    one 2-D FFT (and so the buffer of rows), nor on the blocks it was computed in.
    """
    L, h = N // M, len(weight)
    per = max(1, min(_BLOCK // M, h))  # rows per FFT block
    R = max(1, min(_TWIST_SPAN // M, h))  # twist radix
    step = np.exp((2j * np.pi / N) * (np.arange(R, dtype=np.int64)[:, None] * s % N))
    t = np.arange(per, dtype=np.int64)[:, None]
    # bins of the real and imaginary parts of the folded rows, as one float array
    bins = (2 * (t * M + s % M))[:, :, None] + np.arange(2)
    # buf holds rows lo .. lo + cap - 1: a block's rows and its halo rows, or all rows of
    # a grid too small for the halo to stay within [0, L).  Past the last computed row h - 1
    # the halo mirrors rows h - 1 - halo and later, none older than the block's own halo.
    hold_all = halo and h <= 2 * max(per, halo) + 2
    cap = h + 2 * halo if hold_all else per + 2 * halo
    buf = np.empty((cap, M), dtype=np.complex128 if halo else np.float64)
    lo, filled = -halo, 0  # buf[r - lo] is row r; rows below filled are in buf

    def source(r):
        """The computed row whose (reversed, rolled) copy is row r, and that roll."""
        roll, r1 = divmod(r, L)
        return (r1, False, roll) if r1 < h else (L - sigma - r1, True, roll)

    def fill(r):
        row, flip, roll = source(r)
        row = buf[row - lo][::-1].conj() if flip else buf[row - lo]
        buf[r - lo] = np.roll(row, -roll) if roll else row

    for a0 in range(0, h, per):
        a1 = min(a0 + per, h)
        while filled < a1 + halo:
            # the rows this block needs that share one lift, at most per of them, or one
            # mirror row
            u, v = divmod(filled, R)
            n = min(filled + per, filled + R - v, h, a1 + halo) - filled if filled < h else 1
            if filled + n - lo > cap:
                keep = a0 - halo
                for r in range(keep, filled):  # row by row: no temporary for the overlap
                    buf[r - keep] = buf[r - lo]
                lo = keep
            if filled >= h:
                fill(filled)
            else:
                twist = step[v:v + n] * (c * np.exp((2j * np.pi / N)
                                                    * (R * u * s % N + offset * s)))
                x = np.bincount(bins[:n].ravel(), twist.view(np.float64).ravel(), 2 * n * M)
                x = x.view(np.complex128).reshape(n, M)
                rows = buf[filled - lo:filled - lo + n]
                if halo:  # no out= for ifft below numpy 2.0
                    rows[:] = np.fft.ifft(x, axis=1, norm="forward")
                else:
                    np.abs(np.fft.ifft(x, axis=1, norm="forward"), out=rows)
                for a in selfpaired:
                    if filled <= a < filled + n:  # row 0 at offset 0 pairs b with M-b
                        row = rows[a - filled, 1:] if a == sigma == 0 else rows[a - filled]
                        half = len(row) // 2
                        row[len(row) - half:] = row[:half][::-1].conj()
            filled += n
        if a0 == 0:
            for r in range(-halo, 0):
                fill(r)
        yield a0, buf[a0 - halo - lo:a1 + halo - lo], weight[a0:a1]


def _perfect_defect_abs(q, size, N, j):
    """|Q| at the N-th roots of unity e^(2 pi i j/N) for the int64 array of indices j, for
    a perfect difference set of the given size mod q.

    Every coefficient of Q is 1/size, so Q(z) = (z - z^q) / (size (1 - z)) and
    |Q(e^(i theta))| = |sin((q-1) theta/2)| / (size |sin(theta/2)|), (q-1)/size at
    theta = 0.  Both sine arguments are folded exactly in int64 into [0, pi/2]
    before sin is called, so no large angle loses digits, and the value at j equals
    the value at N - j bit for bit.  The scratch is about eight arrays of j's shape:
    flatness hands it _BLOCK // 8 indices at most.
    """
    a = np.minimum(j, N - j)  # |Q| is even in theta
    r = a * (q - 1) % N
    r = np.minimum(r, N - r)
    out = np.full(j.shape, (q - 1) / size)
    nonzero = a != 0
    out[nonzero] = np.sin(np.pi * r[nonzero] / N) / (size * np.sin(np.pi * a[nonzero] / N))
    return out
