import math
import pickle
import random
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem

from flatpoly import singer
from flatpoly.errors import BudgetError
from flatpoly.singer import (
    _BLOCK,
    DifferenceReport,
    FieldSpec,
    SingerSet,
    _annihilator,
    _factor_group_order,
    _first_primitive,
    _is_irreducible,
    _is_prime,
    _is_primitive,
    _mat_pow,
    _mul_matrix,
    _scan_singer,
    canonical_field_spec,
    construct_singer,
    gap_statistic,
    normalize,
    singer_modulus,
    verify_perfect_difference,
    verify_field_spec,
)


def brute_force_difference_counts(residues, q):
    """Independent oracle: dict of difference counts over ordered pairs."""
    counts = {}
    for s in residues:
        for t in residues:
            if s != t:
                d = (s - t) % q
                counts[d] = counts.get(d, 0) + 1
    return counts


def brute_force_pair_counts(support, q, cyclic):
    """Independent oracle for _pair_counts: every ordered pair, s = t included, one at
    a time; index l + q - 1 for the difference l, or l mod q when cyclic."""
    counts = [0] * (q if cyclic else 2 * q - 1)
    for s in support:
        for t in support:
            counts[(s - t) % q if cyclic else s - t + q - 1] += 1
    return np.array(counts, dtype=np.int64)


def bincount_report(residues, q):
    """Independent recount of a DifferenceReport: (valid, first_violation, counts)."""
    s = np.array(residues, dtype=np.int64)
    counts = np.bincount(((s[:, None] - s) % q).ravel(), minlength=q)
    counts[0] = 0
    bad = np.flatnonzero(counts[1:] != 1)
    return bad.size == 0, 1 + int(bad[0]) if bad.size else None, tuple(counts.tolist())


# (residues, q), or (p, m) of a Singer set with q None
REPORT_CASES = [
    ((2, 1), None), ((13, 1), None), ((3, 2), None),  # perfect difference sets
    ((0, 1, 3), 8), ((0, 1, 4, 6), 14),  # no repeated difference, some residues missed
    ((0, 1, 2), 7),  # differences 1 and -1 occur twice
]


def report_case(residues, q, singer_cache):
    if q is None:
        s = singer_cache(*residues)
        return s.residues, s.q
    return residues, q


def int64_scan_residues(spec):
    """Oracle for _scan_singer's float64 test: the same blockwise scan, with each
    block's functional values reduced by int64 % p and tested for zero rows."""
    p, m = spec.p, spec.m
    q = singer_modulus(p, m)
    step = _mul_matrix(spec.generator, spec.modulus_poly, p)
    omega = _mat_pow(step, q, p)
    eye = np.eye(len(step), dtype=np.int64)
    funcs = _annihilator([(_mat_pow(omega, t, p) @ h % p)[0].tolist()
                          for t in range(m) for h in (eye, step)], p)
    rows = eye[:1]
    while len(rows) < min(_BLOCK // (3 * m), q):
        rows = np.vstack([rows, rows @ step % p])
        step = step @ step % p
    residues = []
    for start in range(0, q, len(rows)):
        hits = start + np.flatnonzero(~(rows @ funcs % p).any(axis=1))
        residues.extend(hits[hits < q].tolist())
        funcs = step @ funcs % p
    return residues


class _SubspaceTest:
    """Membership test for the GF(p)-span of a list of field elements."""

    def __init__(self, p, vectors):
        self.p = p
        self.pivots = []  # (column, normalized row)
        for v in vectors:
            self._insert(list(v))

    def _reduce(self, row):
        p = self.p
        for col, piv in self.pivots:
            c = row[col]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, piv)]
        return row

    def _insert(self, row):
        row = self._reduce([c % self.p for c in row])
        for col, c in enumerate(row):
            if c:
                inv = pow(c, self.p - 2, self.p)
                self.pivots.append((col, [(a * inv) % self.p for a in row]))
                return

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, v):
        return not any(self._reduce(list(v)))


def to_gf(v):
    """Constant-term-first coefficients as sympy's GF(p)[x] list, highest degree first."""
    f = [int(c) for c in reversed(v)]
    while f and not f[0]:
        f.pop(0)
    return f


def from_gf(f, d):
    """sympy's GF(p)[x] list back to d coefficients, constant term first."""
    return tuple(int(c) for c in reversed(f)) + (0,) * (d - len(f))


def element(n, p, d):
    """The n-th element of GF(p)[x]/(f) in lexicographic order, constant term first."""
    return tuple(n // p**i % p for i in range(d))


def element_order(a, modulus, p):
    """Multiplicative order of a nonzero element, by sympy's arithmetic and factorint."""
    n = p ** (len(modulus) - 1) - 1
    f, g = to_gf(modulus), to_gf(a)
    order = n
    for ell, e in sympy.factorint(n).items():
        for _ in range(e):
            if gf_pow_mod(g, order // ell, f, p, ZZ) != [1]:
                break
            order //= ell
    return order


def scalar_scan_residues(spec):
    """Independent oracle: test g^i for membership in W one exponent at a time,
    with sympy's GF(p)[x] arithmetic modulo the spec's modulus."""
    p, m = spec.p, spec.m
    d = 3 * m
    f, g = to_gf(spec.modulus_poly), to_gf(spec.generator)

    def mul(a, b):
        return gf_rem(gf_mul(a, b, p, ZZ), f, p, ZZ)

    pm = p**m
    q = pm * pm + pm + 1
    omega = gf_pow_mod(g, q, f, p, ZZ)
    basis = []
    w = [1]
    for _ in range(m):
        basis.append(from_gf(w, d))
        basis.append(from_gf(mul(w, g), d))
        w = mul(w, omega)
    subspace = _SubspaceTest(p, basis)
    assert subspace.rank == 2 * m
    residues = []
    e = [1]
    for i in range(q):
        if subspace.contains(from_gf(e, d)):
            residues.append(i)
        e = mul(e, g)
    return residues


class TestConstruct:
    def test_p2(self):
        s = construct_singer(2)
        assert s.q == 7
        assert s.residues == (0, 1, 3)
        assert s.normalized

    def test_p3(self):
        s = construct_singer(3)
        assert s.q == 13
        assert len(s.residues) == 4
        counts = brute_force_difference_counts(s.residues, 13)
        assert counts == {r: 1 for r in range(1, 13)}

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            construct_singer(4)
        with pytest.raises(ValueError):
            construct_singer(1)
        with pytest.raises(ValueError, match="m must be a positive integer, got 0"):
            construct_singer(2, 0)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(singer, "DEFAULT_MAX_FIELD_ORDER", 10**5)
        with pytest.raises(BudgetError, match="budget 100000"):
            construct_singer(101)

    def test_deterministic(self):
        assert construct_singer(11) == construct_singer(11)

    def test_m2(self):
        s = construct_singer(2, m=2)
        assert s.q == 21
        assert len(s.residues) == 5
        assert verify_perfect_difference(s.residues, 21).valid

    def test_construction_peaks_below_two_bytes_a_residue(self):
        # normalize's check holds a q-byte mask of the differences, not 8q bytes of counts
        construct_singer(13)  # first-call set-up outside the trace
        q = singer_modulus(1009)
        tracemalloc.start()
        try:
            s = construct_singer(1009)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.q == q and peak < 2 * q

    @pytest.mark.parametrize(
        "p, m", [(p, 1) for p in sympy.primerange(2, 102)] + [(2, 2), (3, 2), (5, 2), (2, 3)]
    )
    def test_scan_matches_scalar_oracle(self, p, m):
        spec = canonical_field_spec(p, m)
        assert list(_scan_singer(spec).residues) == scalar_scan_residues(spec)

    @pytest.mark.parametrize(
        "p, m",
        [(p, 1) for p in sympy.primerange(2, 400)] + [(1009, 1)]
        + [(2, 2), (3, 2), (5, 2), (7, 2), (13, 2), (2, 3), (3, 3), (2, 4)],
    )
    def test_float_scan_matches_int64_scan(self, p, m):
        spec = canonical_field_spec(p, m)
        assert list(_scan_singer(spec).residues) == int64_scan_residues(spec)

    @pytest.mark.parametrize("p", list(sympy.primerange(2, 32)))
    def test_small_primes_are_perfect(self, p, singer_cache):
        s = singer_cache(p)
        assert len(s.residues) == p + 1
        assert all(0 <= r < s.q for r in s.residues)
        report = verify_perfect_difference(s.residues, s.q)
        assert report.valid
        assert set(report.counts[1:]) == {1}


class TestVerify:
    def test_valid_singer(self):
        report = verify_perfect_difference([0, 1, 3], 7)
        assert report.valid
        assert report.counts == (0, 1, 1, 1, 1, 1, 1)
        assert report.first_violation is None

    def test_invalid(self):
        report = verify_perfect_difference([0, 1, 2], 7)
        assert not report.valid
        assert report.first_violation == 1
        assert report.counts[1] == 2

    def test_two_element(self):
        assert verify_perfect_difference([0, 1], 3).valid

    def test_counts_sum_is_pair_count(self):
        rng = random.Random(7)
        for _ in range(20):
            q = rng.randrange(5, 40)
            k = rng.randrange(2, q)
            residues = rng.sample(range(q), k)
            report = verify_perfect_difference(residues, q)
            assert sum(report.counts) == k * (k - 1)
            assert report.counts == tuple(
                brute_force_difference_counts(residues, q).get(r, 0) for r in range(q)
            )
        # one support spanning two row blocks of the pair kernel (_BLOCK // k rows each)
        k = math.isqrt(_BLOCK) + 37
        q = 16 * k
        residues = rng.sample(range(q), k)
        report = verify_perfect_difference(residues, q)
        assert sum(report.counts) == k * (k - 1)
        oracle = brute_force_difference_counts(residues, q)
        assert report.counts == tuple(oracle.get(r, 0) for r in range(q))

    def test_duplicates_rejected(self):
        # the mask route ([0, 0, 3]) and the counting route (5 residues, 20 pairs > 6)
        for residues in ([0, 0, 3], [0, 1, 2, 3, 3]):
            with pytest.raises(ValueError, match="^support must be distinct$"):
                verify_perfect_difference(residues, 7)

    def test_out_of_range_rejected(self):
        for residues in ([0, 1, 7], [-1, 1, 3], [0, 1, 2, 3, 7]):
            with pytest.raises(ValueError, match=r"^support must lie in \[0, 7\)$"):
                verify_perfect_difference(residues, 7)

    @pytest.mark.parametrize("residues, q", REPORT_CASES)
    def test_matches_a_bincount_recount(self, residues, q, singer_cache):
        residues, q = report_case(residues, q, singer_cache)
        report = verify_perfect_difference(residues, q)
        valid, first, counts = bincount_report(residues, q)
        assert (report.valid, report.first_violation) == (valid, first)
        assert report.counts == counts and report.counts.denominator == 1

    @pytest.mark.parametrize("residues, q", REPORT_CASES)
    def test_reading_counts_changes_no_comparison_or_pickle(self, residues, q, singer_cache):
        residues, q = report_case(residues, q, singer_cache)
        report, other = (verify_perfect_difference(residues, q) for _ in range(2))
        pickled = pickle.dumps(report)
        assert report == other
        counts = report.counts
        assert pickle.dumps(report) == pickled
        assert report == other and other == report and hash(report) == hash(other)
        restored = pickle.loads(pickled)
        assert restored == report and restored.counts == counts
        public = DifferenceReport(valid=report.valid, counts=tuple(counts),
                                  first_violation=report.first_violation)
        assert public == report and report == public and hash(public) == hash(report)
        assert pickle.loads(pickle.dumps(public)) == public
        assert repr(public) == repr(report)
        with pytest.raises(AttributeError):
            report.valid = not report.valid

    def test_report_compares_only_with_reports(self):
        valid = verify_perfect_difference((0, 1, 3), 7)
        assert valid.__eq__((0, 1, 3)) is NotImplemented and valid != (0, 1, 3)
        assert valid != verify_perfect_difference((0, 1, 2), 7)

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_pair_kernel_scratch_is_one_block(self, cyclic):
        # 4096 rows of 4096 differences: _BLOCK // k = 16 rows a block, 0.5 MB, where rows of
        # 1024 would take 32 MB; the counts array is the only large allocation
        q = 2**20
        support = np.sort(np.random.default_rng(4).choice(q, 4096, replace=False))
        tracemalloc.start()
        try:
            counts = singer._pair_counts(support, q, cyclic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 4096**2
        assert peak <= counts.nbytes + 4 * 2**20


PAIR_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)

GOLOMB_RULERS = [(0, 1), (0, 1, 3), (0, 1, 4, 6), (0, 1, 4, 9, 11), (0, 1, 4, 10, 12, 17),
                 (0, 1, 4, 10, 18, 23, 25), (0, 1, 4, 9, 15, 22, 32, 34),
                 (0, 1, 5, 12, 25, 27, 35, 41, 44), (0, 1, 6, 10, 23, 26, 34, 41, 53, 55)]


@st.composite
def supports(draw):
    """(support, q): distinct residues in [0, q), sparse enough that some repeat no
    difference and dense enough that others must."""
    q = draw(st.integers(1, 600))
    k = draw(st.integers(0, min(q, 40)))
    return draw(st.lists(st.integers(0, q - 1), min_size=k, max_size=k, unique=True)), q


class TestPairCounts:
    """_pair_counts against the pair-by-pair oracle: the bitmap route for supports
    that repeat no difference, the np.add.at route for the rest."""

    @staticmethod
    def check(support, q):
        for cyclic in (False, True):
            counts = singer._pair_counts(support, q, cyclic)
            assert counts.dtype == np.int64 and counts.flags.writeable
            assert np.array_equal(counts, brute_force_pair_counts(support, q, cyclic)), cyclic

    @pytest.mark.parametrize("p, m", [(p, m) for m in (1, 2) for p in sympy.primerange(2, 32)])
    def test_singer_sets(self, p, m, singer_cache):
        s = singer_cache(p, m)
        self.check(s.residues, s.q)

    @pytest.mark.parametrize("ruler", GOLOMB_RULERS)
    def test_golomb_rulers(self, ruler):
        # q = length + 1 and + 2 wrap differences onto each other; 2 * length + 1 does not
        for q in (ruler[-1] + 1, ruler[-1] + 2, 2 * ruler[-1] + 1, 3 * ruler[-1] + 7):
            self.check(ruler, q)
            self.check([q - 1 - r for r in reversed(ruler)], q)

    @PAIR_SETTINGS
    @given(supports())
    def test_random_supports(self, case):
        support, q = case
        self.check(support, q)

    def test_empty_and_singleton(self):
        for support, q in (([], 1), ([], 9), ([0], 1), ([0], 9), ([8], 9)):
            self.check(support, q)

    # slots: the nonzero differences, q - 1 residues cyclic, 2q - 2 integers aperiodic.  The
    # bitmap is tried up to k(k - 1) = slots; k(k - 1) is even, so slots - 1 only occurs cyclic.
    @pytest.mark.parametrize("support, q, cyclic, distinct", [
        ((0, 1, 3), 8, True, True),  # k(k - 1) = slots - 1
        ((0, 1, 4, 6), 14, True, True),
        ((0, 1, 2), 8, True, False),
        ((0, 1, 3, 7), 14, True, False),  # 7 = -7 mod 14
        ((0, 1, 3), 7, True, True),  # k(k - 1) = slots: a perfect difference set
        ((0, 1, 3), 4, False, True),  # a perfect ruler
        ((0, 1, 4, 6), 7, False, True),
        ((0, 1, 3), 5, False, True),  # k(k - 1) = slots - 2
        ((0, 1, 2), 5, False, False),
        ((0, 1, 3), 6, True, False),  # k(k - 1) = slots + 1: skipped by pigeonhole
        ((0, 1, 2, 4), 5, False, False),  # k(k - 1) = slots + 4
    ])
    def test_boundary_of_the_bitmap(self, monkeypatch, support, q, cyclic, distinct):
        slots = q - 1 if cyclic else 2 * q - 2
        k = len(support)
        tried = []

        def spy(*args):
            tried.append(mark_differences(*args))
            return tried[-1]

        mark_differences = singer._mark_differences
        monkeypatch.setattr(singer, "_mark_differences", spy)
        counts = singer._pair_counts(support, q, cyclic)
        assert np.array_equal(counts, brute_force_pair_counts(support, q, cyclic))
        if k * (k - 1) > slots:
            assert tried == []
        else:
            assert tried == [distinct]

    def test_perfect_set_peaks_at_its_counts(self, singer_cache):
        # the mask takes no memory of its own: the peak is the 8q-byte counts, one block of
        # differences and numpy's iteration buffers (2^18 bytes), where a q-byte mask
        # beside the counts would not fit
        s = singer_cache(1009)
        support = np.array(s.residues)
        tracemalloc.start()
        try:
            counts = singer._pair_counts(support, s.q, cyclic=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts[0] == s.size and counts.sum() == s.size + s.q - 1
        assert peak <= counts.nbytes + 8 * _BLOCK + 2**18 < counts.nbytes + s.q

    def test_corrupted_singer_set(self, singer_cache):
        s = singer_cache(31)
        residues = (0, 2) + s.residues[2:]  # 2 - 0 is now a second difference 2
        counts = singer._pair_counts(residues, s.q, cyclic=True)
        assert np.array_equal(counts, brute_force_pair_counts(residues, s.q, True))
        report = verify_perfect_difference(residues, s.q)
        assert not report.valid and report.first_violation == 1 and report.counts[2] == 2


class TestNormalize:
    def test_translate(self):
        s = SingerSet(p=2, m=1, q=7, residues=(1, 2, 4))
        assert normalize(s).residues == (0, 1, 3)

    def test_idempotent(self):
        s = SingerSet(p=2, m=1, q=7, residues=(0, 1, 3))
        assert normalize(s).residues == (0, 1, 3)

    def test_other_translate(self):
        s = SingerSet(p=2, m=1, q=7, residues=(0, 2, 3))
        assert normalize(s).residues == (0, 1, 5)

    def test_rejects_non_difference_set(self):
        s = SingerSet(p=2, m=1, q=7, residues=(0, 1, 2))
        with pytest.raises(ValueError, match=r"residue 1 has count 2\)"):
            normalize(s)

    def test_names_first_violation_of_corrupted_set(self, singer_cache):
        s = singer_cache(13)
        residues = sorted(set(s.residues[:-1]) | {s.residues[-1] - 1})
        assert len(residues) == s.size
        corrupted = SingerSet(p=13, m=1, q=s.q, residues=tuple(residues))
        report = verify_perfect_difference(corrupted.residues, s.q)
        r = report.first_violation
        with pytest.raises(ValueError, match=rf"residue {r} has count {report.counts[r]}\)"):
            normalize(corrupted)

    @pytest.mark.parametrize("p, m", [(2, 1), (13, 1), (3, 2)])
    def test_construction_runs_the_public_verifier_once(self, monkeypatch, p, m):
        calls = []

        def counted(residues, q):
            calls.append(q)
            return verify_perfect_difference(residues, q)

        monkeypatch.setattr(singer, "verify_perfect_difference", counted)
        sset = construct_singer(p, m)
        assert calls == [sset.q]

    def test_preserves_difference_property(self, singer_cache):
        rng = random.Random(11)
        for p in (2, 3, 5):
            s = singer_cache(p)
            for _ in range(5):
                t = rng.randrange(s.q)
                shifted = SingerSet(
                    p=p, m=1, q=s.q,
                    residues=tuple(sorted((r + t) % s.q for r in s.residues)),
                )
                renorm = normalize(shifted)
                assert renorm == s  # translates all normalize to the same set
                assert verify_perfect_difference(renorm.residues, s.q).valid


class TestGap:
    def test_examples(self):
        assert gap_statistic(SingerSet(p=2, m=1, q=7, residues=(0, 1, 3))) == 4
        assert gap_statistic(SingerSet(p=3, m=1, q=13, residues=(0, 1, 3, 9))) == 4
        assert gap_statistic(SingerSet(p=1, m=1, q=3, residues=(0, 1))) == 2

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            gap_statistic(SingerSet(p=2, m=1, q=7, residues=(1, 2, 4)))

    def test_positive(self, singer_cache):
        for p in (2, 3, 5, 7, 11):
            assert gap_statistic(singer_cache(p)) > 0


class TestIntegerHelpers:
    def test_is_prime_matches_sympy(self):
        assert [n for n in range(10**5) if _is_prime(n)] == list(sympy.primerange(0, 10**5))

    @pytest.mark.parametrize("n", [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,  # strong pseudoprimes
        341550071728321, 3825123056546413051,
    ])
    def test_pseudoprimes_rejected(self, n):
        assert not sympy.isprime(n)
        assert not _is_prime(n)

    def test_thirty_digits_return_at_once(self):
        prime = sympy.nextprime(10**29)
        start = time.perf_counter()
        assert _is_prime(prime)
        assert not _is_prime(prime + 2 * 3 * 5)
        assert not _is_prime(prime * sympy.nextprime(prime))
        assert time.perf_counter() - start < 1.0

    def test_group_order_factorization_matches_sympy(self):
        extra = [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]
        for p, m in [(p, 1) for p in sympy.primerange(2, 200)] + extra:
            assert dict(_factor_group_order(p, m)) == sympy.factorint(p ** (3 * m) - 1)


class TestFieldSpec:
    def test_cubic_has_no_roots(self):
        for p in (2, 3, 5, 7, 11):
            spec = canonical_field_spec(p)
            c0, c1, c2, c3 = spec.modulus_poly
            assert c3 == 1
            assert all((c0 + c1 * x + c2 * x * x + x**3) % p != 0 for x in range(p))

    def test_generator_is_primitive(self):
        for p in (2, 3, 5, 13):
            assert verify_field_spec(canonical_field_spec(p))

    def test_m2_spec(self):
        spec = canonical_field_spec(2, m=2)
        assert len(spec.modulus_poly) == 7
        assert verify_field_spec(spec)

    @pytest.mark.parametrize("p, degrees", [(2, range(1, 9)), (3, range(1, 6)), (5, range(1, 5)),
                                            (7, (3,))])
    def test_rabin_matches_sympy_on_every_monic_polynomial(self, p, degrees):
        for d in degrees:
            for n in range(p**d):
                f = element(n, p, d) + (1,)
                assert _is_irreducible(f, p) == gf_irreducible_p(to_gf(f), p, ZZ), f

    def test_verify_rejects_bad_specs(self):
        spec = canonical_field_spec(5)
        reducible = (0, 4, 0, 1)  # x^3 - x
        assert not verify_field_spec(FieldSpec(5, 1, reducible, spec.generator))
        assert not verify_field_spec(FieldSpec(5, 1, spec.modulus_poly, (0, 0, 0)))
        for g in ((1, 0, 0), (4, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)):
            primitive = element_order(g, spec.modulus_poly, 5) == 5**3 - 1
            assert verify_field_spec(FieldSpec(5, 1, spec.modulus_poly, g)) == primitive
        assert verify_field_spec(FieldSpec(5, 1, spec.modulus_poly, (1, 2, 0)))

    @pytest.mark.parametrize(
        "p, m", [(p, 1) for p in sympy.primerange(2, 30)] + [(2, 2), (3, 2), (5, 2), (2, 3)]
    )
    def test_canonical_choice_against_sympy(self, p, m):
        """The modulus is the first irreducible candidate and the generator the first
        element of full order, both in lexicographic order, by sympy's arithmetic."""
        spec = canonical_field_spec(p, m)
        d = 3 * m
        n_f = sum(c * p**i for i, c in enumerate(spec.modulus_poly[:-1]))
        for n in range(n_f):
            assert not gf_irreducible_p(to_gf(element(n, p, d) + (1,)), p, ZZ)
        assert gf_irreducible_p(to_gf(spec.modulus_poly), p, ZZ)
        group_order = p**d - 1
        n_g = sum(c * p**i for i, c in enumerate(spec.generator))
        for n in range(1, n_g):  # includes the constants, which the search skips
            assert element_order(element(n, p, d), spec.modulus_poly, p) < group_order
        assert element_order(spec.generator, spec.modulus_poly, p) == group_order

    @pytest.mark.parametrize(
        "p, m",
        [(p, 1) for p in sympy.primerange(2, 400)] + [(1009, 1), (2003, 1), (7919, 1), (21529, 1)]
        + [(p, 2) for p in sympy.primerange(2, 32)] + [(p, 3) for p in (2, 3, 5, 7)] + [(2, 4)],
    )
    def test_stacked_generator_search_matches_the_one_candidate_oracle(self, p, m):
        spec = canonical_field_spec(p, m)
        d = 3 * m
        divisors = sorted(_factor_group_order(p, m))
        oracle = next(g for g in (element(n, p, d) for n in range(p, p**d))
                      if _is_primitive(g, spec.modulus_poly, p, divisors))
        assert spec.generator == oracle

    @pytest.mark.parametrize("p, m", [(5, 1), (2, 2)])
    def test_first_primitive_of_every_window(self, p, m):
        spec = canonical_field_spec(p, m)
        d = 3 * m
        divisors = sorted(_factor_group_order(p, m))
        stack = np.array([element(n, p, d) for n in range(p**d)])  # zero and constants included
        primitive = [_is_primitive(g, spec.modulus_poly, p, divisors) for g in stack.tolist()]
        for lo in range(len(stack)):
            window = primitive[lo:lo + 8]
            expected = window.index(True) if True in window else None
            assert _first_primitive(stack[lo:lo + 8], spec.modulus_poly, p, divisors) == expected

    def test_budget_edge_spec(self):
        """21529 is the largest prime with p^3 <= 10^13, the default field budget."""
        p = 21529
        assert p**3 <= 10**13 < sympy.nextprime(p) ** 3
        spec = canonical_field_spec(p)
        assert gf_irreducible_p(to_gf(spec.modulus_poly), p, ZZ)
        assert element_order(spec.generator, spec.modulus_poly, p) == p**3 - 1
        assert verify_field_spec(spec)

    def test_int64_overflow_refused_before_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(singer, "_is_irreducible", no_search)
        monkeypatch.setattr(singer, "_factor_group_order", no_search)
        monkeypatch.setattr(singer, "DEFAULT_MAX_FIELD_ORDER", 10**40)
        p = sympy.nextprime(2**31)  # 3 * p^2 > 2^63
        with pytest.raises(BudgetError, match="int64"):
            canonical_field_spec(p)

    def test_float_scan_bound_refused_before_search(self, monkeypatch):
        # the scan's float64 products are exact while 3m * p^2 < 2^53
        def no_search(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(singer, "_is_irreducible", no_search)
        monkeypatch.setattr(singer, "DEFAULT_MAX_FIELD_ORDER", 10**60)
        top = math.isqrt((2**53 - 1) // 3)  # the largest p with 3 p^2 < 2^53
        with pytest.raises(BudgetError, match=r"2\^53"):
            canonical_field_spec(sympy.nextprime(top))
        with pytest.raises(BudgetError, match=r"2\^53"):
            canonical_field_spec(sympy.nextprime(math.isqrt((2**53 - 1) // 6)), 2)
        with pytest.raises(AssertionError, match="the search started"):
            canonical_field_spec(sympy.prevprime(top + 1))


class TestSingerSetValidation:
    def test_wrong_count(self):
        with pytest.raises(ValueError):
            SingerSet(p=2, m=1, q=7, residues=(0, 1))

    def test_wrong_q(self):
        with pytest.raises(ValueError):
            SingerSet(p=2, m=1, q=8, residues=(0, 1, 3))

    def test_unsorted(self):
        with pytest.raises(ValueError):
            SingerSet(p=2, m=1, q=7, residues=(1, 0, 3))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SingerSet(p=2, m=1, q=7, residues=(1, 3, 7))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            SingerSet(p=2, m=1, q=7, residues=(0, 2, 3), normalized=True)
