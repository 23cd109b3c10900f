"""Singer perfect difference sets built from finite-field arithmetic.

A Singer set is a subset S of Z/qZ with q = p^(2m) + p^m + 1 and
|S| = p^m + 1 such that every nonzero residue mod q occurs exactly once
as a difference s - t of elements of S.  The classical construction:
take a generator g of the multiplicative group of GF(p^(3m)) and collect
the exponents i in [0, q) for which g^i falls in the 2-dimensional
GF(p^m)-subspace W spanned by {1, g}.  Cosets of GF(p^m)* partition the
exponents mod q, and the subspace is GF(p^m)-stable, so scanning
i = 0 .. q-1 suffices.

Field arithmetic is d x d int64 matrices mod p, d = 3m: an element of
GF(p)[x]/(f) acts as the matrix of multiplication by it, whose row 0 is
the element itself.

The scan runs on numpy blocks of B exponents, B the least power of two
at or above min(_BLOCK // 3m, q).  W is the zero set of m
functionals mod p.  Block 0 (coordinates of g^0 .. g^(B-1)) is built by
doubling; block j is block 0 times "multiply by g^(jB)", which the scan
applies to the functionals instead, so each block costs one float64
(B x 3m) @ (3m x m) product, exact because 3m p^2 < 2^53, and its
residues are the rows whose m values are all multiples of p.

Everything here is deterministic: the modulus polynomial is the first
irreducible monic polynomial of degree 3m in lexicographic coefficient
order, and the generator is the smallest primitive field element in the
same order.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetError, check_budget

__all__ = [
    "FieldSpec",
    "SingerSet",
    "DifferenceReport",
    "ExactVector",
    "canonical_field_spec",
    "construct_singer",
    "verify_perfect_difference",
    "verify_field_spec",
    "normalize",
    "gap_statistic",
]

_NARROW = (np.int8, np.int16, np.int32, np.int64)  # the dtypes _pair_counts marks in
_BLOCK = 2**16  # entries per temporary of a chunked loop (1 MB complex): _BLOCK // width rows
# (the grid kernel's twist table is sized by poly._TWIST_SPAN, not by _BLOCK)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# ---------------------------------------------------------------------------
# Integer and GF(p)[x] helpers.  Polynomials are tuples of ints, constant term first.
# ---------------------------------------------------------------------------

def _is_prime(n):
    """Miller-Rabin on the first 12 prime bases: exact below 318665857834031151167461
    (the least strong pseudoprime to all of them), never slow on long input."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in _PRIME_BASES)


def _factorint(n):
    """Prime factorization {prime: exponent} of n >= 1 by trial division."""
    factors, f = Counter(), 2
    while f * f <= n:
        while n % f == 0:
            factors[f] += 1
            n //= f
        f += 1
    if n > 1:
        factors[n] += 1
    return factors


def _factor_group_order(p, m):
    """Factorization of p^(3m) - 1 = (p^m - 1)(p^(2m) + p^m + 1), factor by factor."""
    pm = p**m
    return _factorint(pm - 1) + _factorint(pm * pm + pm + 1)


def _digits(n, p, width):
    """Base-p digits of n, least significant first, padded to `width`."""
    out = [0] * width
    i = 0
    while n:
        out[i] = n % p
        n //= p
        i += 1
    return tuple(out)


def _mat_pow(M, e, p):
    """M^e mod p by repeated squaring, for one matrix or a stack of them."""
    out = np.eye(M.shape[-1], dtype=np.int64)
    while e:
        if e & 1:
            out = out @ M % p
        M = M @ M % p
        e >>= 1
    return out


def _mul_matrix(a, modulus, p):
    """Matrix of "multiply by a(x)" on GF(p)[x]/(f), f monic, a constant term first.

    Row j holds the coordinates of x^j * a, so row 0 is a itself and
    (coordinates of e) @ M = coordinates of e * a.  Built by Horner in
    the companion matrix of x.  A (B, len) stack of elements gives the
    (B, d, d) stack of their matrices.
    """
    d = len(modulus) - 1
    x = np.eye(d, k=1, dtype=np.int64)  # row j < d-1 is x^(j+1)
    x[-1] = [-c % p for c in modulus[:-1]]  # x^d mod f
    eye = np.eye(d, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    out = np.zeros(a.shape[:-1] + (d, d), dtype=np.int64)
    for c in np.moveaxis(a, -1, 0)[::-1]:
        out = (out @ x + (c % p)[..., None, None] * eye) % p
    return out


def _is_irreducible(modulus, p):
    """Rabin's test for a monic f over GF(p), constant term first, on X = "multiply by x":
    X^(p^d) = X, and X^(p^(d/l)) - X has full rank (its gcd with f is 1) for each prime l | d."""
    d = len(modulus) - 1
    x = _mul_matrix((0, 1), modulus, p)
    if not np.array_equal(_mat_pow(x, p**d, p), x):
        return False
    return all(_annihilator(((_mat_pow(x, p ** (d // ell), p) - x) % p).tolist(), p).size == 0
               for ell in _factorint(d))


def _is_primitive(g, modulus, p, prime_divisors):
    """g has order exactly n = p^d - 1 mod f: g^n = 1 and g^(n/l) != 1 for every prime l | n."""
    n = p ** (len(modulus) - 1) - 1
    G = _mul_matrix(g, modulus, p)
    one = np.eye(len(G), dtype=np.int64)
    return (all(not np.array_equal(_mat_pow(G, n // ell, p), one) for ell in prime_divisors)
            and np.array_equal(_mat_pow(G, n, p), one))


def _first_primitive(candidates, modulus, p, prime_divisors):
    """Index of the first row of a (B, d) stack of elements that _is_primitive accepts,
    or None.

    Each power is taken of the whole (B, d, d) stack of multiplication matrices at
    once, and a candidate leaves the stack at its first failed test.  Entries stay
    below p, so a row-by-column sum stays below d p^2 < 2^63 in int64.
    """
    n = p ** (len(modulus) - 1) - 1
    G = _mul_matrix(candidates, modulus, p)
    one = np.eye(G.shape[-1], dtype=np.int64)
    alive = np.arange(len(G))
    for ell in prime_divisors:
        keep = ~(_mat_pow(G, n // ell, p) == one).all(axis=(1, 2))
        G, alive = G[keep], alive[keep]
    alive = alive[(_mat_pow(G, n, p) == one).all(axis=(1, 2))]
    return int(alive[0]) if alive.size else None


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class ExactVector(Sequence):
    """A read-only vector of rationals: numerators over one positive denominator.

    The exact layer's long results (difference counts, correlation counts, defect
    coefficients, the two halves of a riesz.CoefficientMap) are this type, 8 bytes per
    entry, or fewer for the counts of a support that repeats no difference: 1 for the
    int8 difference counts and defect numerators, 1 or 2 for the correlation counts,
    whose int8 or int16 holds the support's size.  It reads as the tuple it stands for:
    indexing and iteration give ints when the denominator is 1 and Fractions otherwise,
    slices are vectors, and ==, hash and repr are the tuple's (2/4 equals 1/2), whatever
    the numerators' dtype; sums accumulate in int64 or Python ints.  count compares
    numerators in numpy, one block at a time; index and `in` scan as a tuple's do.
    np.asarray gives a read-only view of the numerators, in their own dtype, when the
    denominator is 1; np.array a copy.

    ExactVector(values, denominator=1) holds values[i] / denominator, for an integer
    array or any sequence of rationals, which are brought to their common denominator.
    The numerators are copied: int64, or Python ints (object dtype) where some do not
    fit int64.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, values=(), denominator=1):
        den = operator.index(denominator)
        if den < 1:
            raise ValueError(f"denominator must be positive, got {den}")
        if isinstance(values, np.ndarray) and values.dtype.kind in "ib":
            if values.ndim != 1:
                raise ValueError("expected a one-dimensional array")
            num = values.astype(np.int64)
        else:
            values = list(values)
            bad = [v for v in values if not isinstance(v, numbers.Rational)]
            if bad:
                raise TypeError(f"expected rationals, got {bad[0]!r}")
            lcm = math.lcm(*(int(v.denominator) for v in values))
            nums = [int(v.numerator) * (lcm // int(v.denominator)) for v in values]
            fits = all(-2**63 <= n < 2**63 for n in nums)
            num = np.array(nums, dtype=np.int64 if fits else object)
            den *= lcm
        self._set(num, den)

    @classmethod
    def _adopt(cls, num, denominator=1):
        """The vector num / denominator over the library's own 1-D array num, which it
        takes over without a copy and makes read-only."""
        vec = cls.__new__(cls)
        vec._set(num, denominator)
        return vec

    def _set(self, num, den):
        num.flags.writeable = False
        self._num, self._den, self._hash = num, den, None

    @property
    def numerators(self):
        """A read-only view of the numerators: int64, object where they exceed int64, or
        for a support that repeats no difference the int8 of verify_perfect_difference's
        counts and of defect coefficients, and the narrow dtype of _pair_counts (int8 or
        int16 for every Singer set) in correlation counts."""
        return self._num.view()

    @property
    def denominator(self):
        return self._den

    @property
    def numerator_bound(self):
        """The largest |numerator|, 0 for an empty vector."""
        return max(int(self._num.max(initial=0)), -int(self._num.min(initial=0)))

    def __len__(self):
        return len(self._num)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ExactVector._adopt(self._num[i], self._den)
        n = int(self._num[operator.index(i)])
        return n if self._den == 1 else Fraction(n, self._den)

    def __iter__(self):
        blocks = (self._num[lo:lo + _BLOCK].tolist() for lo in range(0, len(self._num), _BLOCK))
        if self._den != 1:  # one Fraction per distinct numerator of a block
            blocks = (map({n: Fraction(n, self._den) for n in set(b)}.__getitem__, b)
                      for b in blocks)
        return itertools.chain.from_iterable(blocks)

    def _numerator_of(self, x):
        """The integer n with n / denominator == x, None where no entry can equal x: x is
        no finite rational, float or complex with imaginary part 0, or n lies outside
        int64 and the numerators are int64 or narrower, which numpy compares with any
        int64."""
        if isinstance(x, complex) and x.imag == 0:  # np.complex128 too: 1+0j == 1
            x = x.real
        if not (isinstance(x, numbers.Rational) or isinstance(x, float) and math.isfinite(x)):
            return None
        n = Fraction(x) * self._den
        if n.denominator != 1 or (self._num.dtype != object and not -2**63 <= n.numerator < 2**63):
            return None
        return int(n.numerator)

    def count(self, x):
        if not isinstance(x, (numbers.Rational, float, complex)):  # as tuple.count, by ==
            return sum(1 for v in self if v == x)
        n = self._numerator_of(x)
        if n is None:
            return 0
        return sum(int(np.count_nonzero(self._num[lo:lo + _BLOCK] == n))
                   for lo in range(0, len(self._num), _BLOCK))

    def _total(self):
        """The exact sum of the numerators, in int64 where no partial sum can overflow."""
        if self._num.dtype == object or self.numerator_bound * len(self) >= 2**63:
            return sum(self._num.tolist())
        return int(self._num.sum(dtype=np.int64))

    def _lowest(self):
        """(denominator, numerators) in lowest terms, the same for equal vectors."""
        g = math.gcd(self._den, int(np.gcd.reduce(self._num, initial=0)))
        return self._den // g, self._num // g

    def __eq__(self, other):
        if isinstance(other, ExactVector):
            (a, x), (b, y) = self._lowest(), other._lowest()
            return a == b and bool(np.array_equal(x, y))
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(self))
        return self._hash

    def __repr__(self):
        return repr(tuple(self))

    def __reduce__(self):
        return ExactVector._adopt, (self._num, self._den)

    def __array__(self, dtype=None, copy=None):
        """The numerators when the denominator is 1: a read-only view unless dtype or
        copy asks for a new array.  Otherwise a new object array of the Fractions."""
        if self._den != 1:
            if copy is False:
                raise ValueError("a vector over a denominator has no array view")
            return np.array(list(self), dtype=object if dtype is None else dtype)
        if copy:
            return np.array(self._num, dtype=dtype)
        view = self._num.view()
        if dtype is None or view.dtype == np.dtype(dtype):
            return view
        if copy is False:
            raise ValueError(f"{view.dtype} numerators have no {np.dtype(dtype)} view")
        return view.astype(dtype)


def _exact_fields(obj, *names):
    """Hold each named field of a frozen dataclass as an ExactVector, converting a tuple
    or array once."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, ExactVector):
            object.__setattr__(obj, name, ExactVector(value))


@dataclass(frozen=True)
class FieldSpec:
    """Canonical model of GF(p^(3m)) used by the Singer construction.

    modulus_poly lists coefficients over the prime field, constant term
    first, monic of degree 3m.  generator is a coefficient vector of
    length 3m, certified primitive in the group of order p^(3m) - 1.
    """

    p: int
    m: int
    modulus_poly: tuple
    generator: tuple


@dataclass(frozen=True)
class SingerSet:
    """A perfect difference set mod q = p^(2m) + p^m + 1.

    The constructor checks the shape only, and normalized is no init argument: normalize
    sets it after its difference check passed, so a normalized set is a verified perfect
    difference set.  dataclasses.replace drops the flag; pickling keeps it.
    """

    p: int
    m: int
    q: int
    residues: tuple
    normalized: bool = field(default=False, init=False)

    def __post_init__(self):
        pm = self.p**self.m
        if self.q != pm * pm + pm + 1:
            raise ValueError(f"q={self.q} is not p^2m + p^m + 1 for p={self.p}, m={self.m}")
        if len(self.residues) != pm + 1:
            raise ValueError(f"expected {pm + 1} residues, got {len(self.residues)}")
        if list(self.residues) != sorted(set(self.residues)):
            raise ValueError("residues must be strictly increasing")
        if self.residues[0] < 0 or self.residues[-1] >= self.q:
            raise ValueError("residues out of range [0, q)")

    @property
    def size(self):
        return len(self.residues)


@dataclass(frozen=True)
class DifferenceReport:
    """Exhaustive ordered-pair difference counts for a residue set.

    counts is an ExactVector of q integers (denominator 1): counts[r] is the
    number of ordered pairs (s, t), s != t, with s - t = r mod q; counts[0]
    is 0 by convention.  valid means every count for r in [1, q) equals one.
    verify_perfect_difference holds the counts of a support that repeats no
    difference as its q-byte difference mask, int8 numerators of 0 and 1.
    """

    valid: bool
    counts: ExactVector
    first_violation: int | None

    def __post_init__(self):
        _exact_fields(self, "counts")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def canonical_field_spec(p, m=1):
    """Deterministic GF(p^(3m)): first irreducible modulus, smallest primitive generator."""
    _check_pm(p, m)
    check_budget("construction", singer_modulus(p, m))  # construct_singer's q-byte mask
    d = 3 * m
    order = p**d
    if d * p * p >= 2**53:  # bounds every row-by-column sum: the scan's float64 products are exact
        raise BudgetError(f"3m * p^2 = {d * p * p} reaches 2^53: the scan's float64 products "
                          "of int64 residues mod p would round")
    # p = 2 mod 3: cubing permutes GF(p), so each x^(3m) + c, c = -r^3, has the factor x^m - r
    start = p if p % 3 == 2 else 0
    modulus = next(f for f in (_digits(n, p, d) + (1,) for n in range(start, order))
                   if _is_irreducible(f, p))
    # The constants (n < p) have orders dividing p - 1, so none of them is primitive.  The
    # candidates n = p, p + 1, .. are tested in stacks of doubling size, so the first primitive
    # one is found in a few numpy calls per power, and at most twice as many are tested.
    prime_divisors = sorted(_factor_group_order(p, m))
    place = p ** np.arange(d, dtype=np.int64)  # p^d fits int64 within the construction budget
    start, batch = p, 8
    while True:
        block = np.arange(start, min(start + batch, order), dtype=np.int64)[:, None] // place % p
        hit = _first_primitive(block, modulus, p, prime_divisors)
        if hit is not None:
            break
        start, batch = start + batch, 2 * batch
    generator = tuple(block[hit].tolist())
    return FieldSpec(p=p, m=m, modulus_poly=modulus, generator=generator)


def verify_field_spec(spec):
    """Re-check the FieldSpec invariants (irreducibility, primitivity)."""
    return _is_irreducible(spec.modulus_poly, spec.p) and _is_primitive(
        spec.generator, spec.modulus_poly, spec.p, sorted(_factor_group_order(spec.p, spec.m))
    )


def singer_modulus(p, m=1):
    """q = p^(2m) + p^m + 1, the modulus of the Singer sets of GF(p^(3m))."""
    return p ** (2 * m) + p**m + 1


def _check_pm(p, m):
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _annihilator(vectors, p):
    """Matrix F over GF(p) with v @ F = 0 mod p exactly when v lies in span(vectors).

    Reducing v against an echelon basis of the span is linear in v and
    vanishes exactly on the span; row j of F is the reduction of the j-th
    unit vector, less the pivot columns, which reduction always zeroes.
    """
    pivots = []  # (column, echelon row scaled to 1 there)

    def reduce(row):
        for col, piv in pivots:
            c = row[col]
            row = [(a - c * b) % p for a, b in zip(row, piv)]
        return row

    for v in vectors:
        row = reduce([c % p for c in v])
        col = next((i for i, c in enumerate(row) if c), None)
        if col is not None:
            inv = pow(row[col], p - 2, p)
            pivots.append((col, [a * inv % p for a in row]))
    d = len(vectors[0])
    funcs = np.array([reduce([int(i == j) for i in range(d)]) for j in range(d)], dtype=np.int64)
    return funcs[:, funcs.any(axis=0)]


def _scan_singer(spec):
    """The raw Singer set of a field spec: the i in [0, q) with g^i in W, ascending."""
    p, m = spec.p, spec.m
    pm = p**m
    q = singer_modulus(p, m)
    step = _mul_matrix(spec.generator, spec.modulus_poly, p)  # multiplies by g

    # GF(p^m)* is generated by omega = g^q; its powers 1, omega, .., omega^(m-1)
    # form a GF(p)-basis of the subfield, so {omega^t, omega^t * g} spans
    # W = GF(p^m) + GF(p^m)*g over the prime field.  Row 0 of an element's
    # matrix is the element.
    omega = _mat_pow(step, q, p)
    eye = np.eye(len(step), dtype=np.int64)
    basis = [(_mat_pow(omega, t, p) @ h % p)[0].tolist() for t in range(m) for h in (eye, step)]
    funcs = _annihilator(basis, p)
    assert funcs.shape[1] == m  # W has dimension 2m

    rows = eye[:1]
    while len(rows) < min(_BLOCK // (3 * m), q):
        rows = np.vstack([rows, rows @ step % p])
        step = step @ step % p
    rows = rows.astype(np.float64)  # g^0 .. g^(B-1); step multiplies by g^B
    residues = []
    for start in range(0, q, len(rows)):
        v = rows @ funcs.astype(np.float64)  # integers below 3m p^2 < 2^53: exact
        hits = start + np.flatnonzero((np.rint(v / p) * p == v).all(axis=1))
        residues.extend(hits[hits < q].tolist())
        funcs = step @ funcs % p
    assert len(residues) == pm + 1
    return SingerSet(p=p, m=m, q=q, residues=tuple(residues))


def construct_singer(p, m=1):
    """Build the canonical normalized Singer set for the prime p (exponent m).

    Deterministic across runs: the field, the generator, and hence the
    residues are all canonical.  normalize checks the scanned set with one
    verify_perfect_difference call.  Raises ValueError for non-prime p and
    BudgetError when q bytes exceed the construction budget.
    """
    return normalize(_scan_singer(canonical_field_spec(p, m)))


def _checked_support(support, q):
    """The support as int64, and ascending; ValueError unless it is distinct and
    inside [0, q)."""
    s = np.asarray(support, dtype=np.int64)
    ordered = np.sort(s)  # not np.unique, whose first plain call imports numpy.ma
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("support must be distinct")
    if s.size and (ordered[0] < 0 or ordered[-1] >= q):
        raise ValueError(f"support must lie in [0, {q})")
    return s, ordered


def _pair_counts(support, q):
    """Aperiodic ordered-pair difference counts of a support:
    counts[l + q - 1] = #{(s, t) in support^2 : s - t = l}.

    Where the k(k - 1) off-diagonal pairs fit in the 2q - 2 nonzero
    differences, they are first marked (_mark_differences) in counts of the
    narrowest signed integer type that holds k: int8 up to k = 127, int16 up
    to 2^15 - 1 (every Singer set with p^m < 2^15), then int32.  When no
    difference repeats, as in a Singer set, those marks are the counts, with
    k at difference 0.  Otherwise _add_pairs counts them in int64.  The
    cyclic counts are verify_perfect_difference's.  Raises ValueError unless
    the support is distinct and inside [0, q).
    """
    s, ordered = _checked_support(support, q)
    k = s.size
    if k * (k - 1) <= 2 * q - 2:  # else some difference repeats, by pigeonhole
        counts = np.zeros(2 * q - 1, dtype=next(t for t in _NARROW if k <= np.iinfo(t).max))
        if _mark_differences(ordered, q, False, counts):
            counts[q - 1] = k
            return counts
        del counts  # not held beside the int64 counts
    return _add_pairs(s, q, cyclic=False)


def _add_pairs(s, q, cyclic):
    """Ordered-pair difference counts of the int64 support s, s = t included, pair by pair
    with np.add.at into int64 counts: aperiodic as _pair_counts' (index l + q - 1), or
    cyclic (index l mod q).  Rows are taken _BLOCK // k at a time, so no k x k difference
    array is built."""
    k = s.size
    counts = np.zeros(q if cyclic else 2 * q - 1, dtype=np.int64)
    shifted = s if cyclic else s - (q - 1)
    per = max(1, _BLOCK // max(k, 1))
    for lo in range(0, k, per):
        diffs = s[lo:lo + per, None] - shifted
        if cyclic:
            diffs[diffs < 0] += q
        np.add.at(counts, diffs.ravel(), 1)  # no q-long temporary per block
    return counts


def _mark_differences(ordered, q, cyclic, mask):
    """Set to 1 the entry of each nonzero difference of an ascending support in a zeroed
    bool or integer mask: l + q - 1 for the difference l, or the residue l mod q when
    cyclic.  Returns whether no nonzero difference repeats, when the mask holds exactly
    the support's k(k - 1) nonzero differences.

    The pairs run by diagonals, _BLOCK // k at a time: diagonal t pairs
    s_((j + t) mod k) with s_j, whose differences lie near t q / k, so each
    block writes into a narrow stretch of the mask.  Two equal gaps between
    neighbours are a repeat found before any mask is written: a random
    support of the same density almost always has them.
    """
    gaps = np.sort(np.diff(ordered))
    if np.any(gaps[1:] == gaps[:-1]):
        return False
    k = ordered.size
    if cyclic:  # s_(j + t - k) + q - s_j is the residue of a wrapped pair
        ahead = np.concatenate((ordered, ordered + q))
    else:
        ahead = np.concatenate((ordered, ordered)) + (q - 1)
    diagonals = np.lib.stride_tricks.sliding_window_view(ahead, k)[:k]  # row t: s_(j + t)
    per = max(1, _BLOCK // max(k, 1))
    for t in range(0, k, per):
        mask[(diagonals[t:t + per] - ordered).ravel()] = 1
    mask[0 if cyclic else q - 1] = 0  # difference 0: the k pairs s = t
    return np.count_nonzero(mask) == k * (k - 1)


def verify_perfect_difference(residues, q):
    """Count every ordered-pair difference mod q; exact, no tolerance.

    first_violation is the least r in [1, q) whose count is not one, or None.
    A support that repeats no difference is counted in a q-byte mask of its
    differences, which is then its counts, held as int8: by pigeonhole,
    k(k - 1) = q - 1 distinct nonzero differences cover every nonzero residue
    once.  A support with a repeated difference is counted pair by pair, in
    int64.  Raises ValueError unless the residues are distinct and in [0, q).
    """
    s, ordered = _checked_support(residues, q)
    k = s.size
    mask = np.zeros(q, dtype=bool) if k * (k - 1) <= q - 1 else None
    if mask is not None and _mark_differences(ordered, q, True, mask):
        counts = mask.view(np.int8)  # no difference repeats: every count is 0 or 1
    else:
        mask = None  # not held beside the int64 counts
        counts = _add_pairs(s, q, cyclic=True)
        counts[0] = 0  # only the pairs s = t have difference 0
    first = None
    for lo in range(1, q, _BLOCK):  # no q-long temporary
        bad = np.flatnonzero(counts[lo:lo + _BLOCK] != 1)
        if bad.size:
            first = lo + int(bad[0])
            break
    return DifferenceReport(valid=first is None, counts=ExactVector._adopt(counts),
                            first_violation=first)


def normalize(sset):
    """Translate a Singer set so that it contains 0 and 1, and mark it normalized.

    The ordered pair with difference 1 is unique in a perfect difference
    set, so the normalized translate is unique; the map is idempotent.
    ValueError names the least residue whose difference count is not one
    in verify_perfect_difference's report.  Only this function sets
    normalized, right after that one exhaustive check passed, so every
    normalized set is a verified perfect difference set.
    """
    report = verify_perfect_difference(sset.residues, sset.q)
    if not report.valid:
        first = report.first_violation
        raise ValueError(
            f"not a perfect difference set (residue {first} has count {report.counts[first]})"
        )
    members = set(sset.residues)
    starts = [y for y in sset.residues if (y + 1) % sset.q in members]
    assert len(starts) == 1
    shifted = tuple(sorted((r - starts[0]) % sset.q for r in sset.residues))
    out = SingerSet(p=sset.p, m=sset.m, q=sset.q, residues=shifted)
    object.__setattr__(out, "normalized", True)
    return out


def gap_statistic(sset):
    """Top gap q - max(S) of a normalized Singer set."""
    if sset.residues[:2] != (0, 1):
        raise ValueError("gap_statistic expects a normalized set")
    return sset.q - sset.residues[-1]
