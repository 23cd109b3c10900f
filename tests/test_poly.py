import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from flatpoly import analysis, mahler, poly, singer
from flatpoly.analysis import mz_ratio
from flatpoly.errors import BudgetError
from flatpoly.poly import (
    DefectPolynomial,
    NewmanPolynomial,
    _grid_blocks,
    _perfect_defect_abs,
    _row_length,
    build_polynomial,
    correlation_table,
    correlations,
    defect_poly,
    eval_support_grid,
    newman_from_support,
)
from flatpoly.singer import ExactVector, SingerSet

NON_PERFECT = SingerSet(p=2, m=1, q=7, residues=(0, 1, 2))  # cyclic counts 2, 1, 0, 0, 1, 2


def _smooth(m):
    return max(sympy.factorint(m), default=1) <= 64


def _row_length_up_to_2_14(N, degree, terms):
    """The one-tier row rule _row_length had before its 2^11 tier: the oracle that a grid
    with a 64-smooth row keeps one."""
    fast = [d for d in sympy.divisors(N) if terms <= d <= 2**14 and _smooth(d)]
    target = min(max(degree + 1, 2**8), 2**14)
    above = [d for d in fast if d >= target]
    if above:
        return above[0]
    if fast:
        return fast[-1]
    return next(d for d in sympy.divisors(N) if d >= terms)


def grid_values(P, N):
    """P at the N-th roots of unity, by the library's complex grid route."""
    return eval_support_grid(P.support, [P.scale] * P.size, N)


def defect_at_roots(Q):
    """Q at every q-th root of unity, e^(2 pi i r/q) for r = 0 .. q-1."""
    return eval_support_grid(np.arange(1, Q.q), Q.coefficient_array()[1:], Q.q)


def defect_oracle(sset):
    """Q's coefficients gamma_r / |S|, r = 1 .. q-1, read off the correlation table."""
    table = correlations(sset)
    return tuple(Fraction(g, table.size) for g in table.cyclic[1:])


def direct_values(support, scale, N):
    """Independent dense oracle: no FFT anywhere."""
    j = np.arange(N)[:, None]
    return (np.exp(2j * np.pi * j * np.asarray(support)[None, :] / N)).sum(axis=1) * scale


@pytest.fixture
def P7(singer_cache):
    return build_polynomial(singer_cache(2))


@pytest.fixture
def P13(singer_cache):
    return build_polynomial(singer_cache(3))


class TestNewman:
    def test_scale(self, P7, P13):
        assert P7.support == (0, 1, 3)
        assert P7.scale == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert P13.scale == pytest.approx(0.5, abs=1e-15)
        assert P7.scale_sq == Fraction(1, 3)

    def test_l2_normalized(self, P7):
        assert P7.size * P7.scale_sq == 1

    def test_value_at_one(self, P7):
        value = grid_values(P7, 7)[0]
        assert value == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            newman_from_support([], q=3)
        with pytest.raises(ValueError):
            newman_from_support([0, 5], q=4)
        with pytest.raises(ValueError, match="strictly increasing"):
            NewmanPolynomial(q=4, support=(2, 1))


class TestEvalGrid:
    def test_root_of_unity_law(self, P7):
        sq = np.abs(grid_values(P7, 7)) ** 2
        assert sq[0] == pytest.approx(3.0, abs=1e-12)
        assert np.max(np.abs(sq[1:] - 2 / 3)) < 1e-10

    def test_cross_check_defect(self, P7):
        sq = np.abs(grid_values(P7, 7)) ** 2
        assert np.max(np.abs(sq[1:] - 1 - (-1 / 3))) < 1e-10

    def test_subgrid_consistency(self, P7):
        v7 = grid_values(P7, 7)
        v14 = grid_values(P7, 14)
        assert np.max(np.abs(v14[::2] - v7)) < 1e-12

    def test_requires_n_above_the_degree(self, P7):
        with pytest.raises(ValueError):
            grid_values(P7, P7.degree)

    @pytest.mark.parametrize("N", [7, 63, 64, 100, 1024])
    def test_matches_direct_summation(self, P7, N):
        got = grid_values(P7, N)
        want = direct_values(P7.support, P7.scale, N)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_offset_evaluation(self, P7):
        N = 64
        got = eval_support_grid(P7.support, [P7.scale] * 3, N, offset=0.5)
        j = (np.arange(N) + 0.5)[:, None]
        want = (np.exp(2j * np.pi * j * np.array(P7.support)[None, :] / N)).sum(axis=1) * P7.scale
        assert np.max(np.abs(got - want)) < 1e-12

    def test_parseval(self, P7, P13):
        for P, N in ((P7, 8), (P7, 101), (P13, 64)):
            mean_sq = np.mean(np.abs(grid_values(P, N)) ** 2)
            assert abs(mean_sq - 1.0) < 1e-12

    def test_grid_budget_fails_before_allocating(self):
        # the one materializing route prices its grid as the row kernel does
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="268435457 points exceeds the grid budget 268435456"):
                eval_support_grid([0], [1.0], 2**28 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@pytest.mark.parametrize("points, N", [(-5, 4096), (0, 4096), (1, 4096), (4096, 4096),
                                       (4097, 8192), (2**20 - 1, 2**20), (2**20, 2**20),
                                       (10**9, 2**30)])
def test_power_grid(points, N):
    assert poly.power_grid(points) == N


class TestAbsSupportGrid:
    def test_memory_is_one_float_per_point(self, abs_grid):
        # 2^22 points of a 3-term polynomial: the 32 MB result plus one block,
        # against 192 MB for three N-long complex arrays
        N, exps, coeffs = 2**22, [0, 1000, 4095], np.array([1.0, -0.5, 2.0])
        tracemalloc.start()
        try:
            absv = abs_grid(exps, coeffs, N, offset=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        j = np.array([0, 1, 2047, 2048, 123457, N - 1])  # 2048 rows of length 2048
        direct = np.abs(np.exp(2j * np.pi * np.outer(j + 0.5, exps) / N) @ coeffs)
        assert np.max(np.abs(absv[j] - direct)) < 1e-12

    def test_grid_budget_fails_before_allocating(self, abs_grid):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="268435457 points exceeds the grid budget 268435456"):
                abs_grid([0], [1.0], 2**28 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_fold_path_memory_and_values(self, singer_cache, abs_grid):
        # p = 307 at 16q: rows of M = 1032 fold 308 terms of degree 94k; the result
        # (11.5 MB) plus one block of rows in flight
        s = singer_cache(307)
        N, c = 16 * s.q, np.full(s.size, 1 / np.sqrt(s.size))
        tracemalloc.start()
        try:
            absv = abs_grid(s.residues, c, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * N + 4 * 2**20
        oracle = np.abs(eval_support_grid(s.residues, c, N))
        assert np.max(np.abs(absv - oracle)) <= 1e-12 * (1 + c.sum())

    @pytest.mark.parametrize("N, offset, M", [(None, 0.0, 1924), (2**20, 0.5, 2**11)])
    def test_p211_grids_against_the_complex_route(self, N, offset, M, singer_cache, abs_grid):
        # p = 211's 16q grid and its offset-1/2 Mahler grid
        s = singer_cache(211)
        N, c = N or 16 * s.q, np.full(s.size, 1 / np.sqrt(s.size))
        assert _row_length(N, s.residues[-1], s.size) == M
        absv = abs_grid(s.residues, c, N, offset)
        oracle = np.abs(eval_support_grid(s.residues, c, N, offset))
        assert np.max(np.abs(absv - oracle)) <= 1e-12 * (1 + c.sum())

    @pytest.mark.parametrize("p, m16q, m22", [(31, 48, 1024), (211, 1924, 2**11), (307, 1032, 2**11)])
    def test_row_length_on_the_benchmark_grids(self, p, m16q, m22, singer_cache):
        s = singer_cache(p)
        assert _row_length(16 * s.q, s.residues[-1], s.size) == m16q
        assert _row_length(2**22, s.residues[-1], s.size) == m22

    @pytest.mark.parametrize("p", [31, 101, 401, 1009, 2003, *sympy.primerange(900, 1200)])
    def test_row_length_sweep(self, p, singer_cache):
        # the 16q grid and the Mahler grid: a row of at most 2^11 wherever one holds the
        # terms, and never a Bluestein row where the one-tier rule found a fast one
        s = singer_cache(p)
        degree = s.residues[-1]
        for N in (16 * s.q, mahler.mahler_grid(degree)):
            M = _row_length(N, degree, s.size)
            assert N % M == 0 and M >= s.size
            if any(N % d == 0 and _smooth(d) for d in range(s.size, 2**11 + 1)):
                assert M <= 2**11
            if _smooth(_row_length_up_to_2_14(N, degree, s.size)):
                assert _smooth(M)

    @pytest.mark.parametrize("N, degree, terms, M", [
        (2**22, 6, 3, 256),  # tiny degree: rows of the smallest fast length, not length 7
        (3 * 2**15, 20000, 10, 2**11),  # the smallest fast divisor at the clamped target
        # 16q grids with no 64-smooth divisor in [terms, 2^11] keep a fast row of at most
        # 2^14, not the Bluestein row that a plain 2^11 cap falls back to
        (16 * 2552007, 2552006, 1598, 2064),  # p = 1597: not 1626 = 2 3 271
        (16 * 2888301, 2888300, 1700, 9672),  # p = 1699: not the prime 2389
        (16 * 4159561, 4159560, 2040, 5488),  # p = 2039: not 2534 = 2 7 181
        (64 * 8191, 100000, 20, 64),  # every fast divisor below the degree: the largest
        (64 * 8191, 100000, 100, 8191),  # too few fast bins: the shortest row that holds the terms
        (397, 396, 3, 397),  # N prime: one row
        (397, 0, 1, 1),  # one term: N rows of one bin
    ])
    def test_row_length_rule(self, N, degree, terms, M):
        assert _row_length(N, degree, terms) == M

    @pytest.mark.parametrize("N, exps", [
        (16 * 94557, [0, 17, 94556]),  # M = 1032 folds the terms, L = 1466 rows
        (3 * 2**15, [1, 5000, 20000]),  # M = 2^11 folds the terms, L = 48
        (5 * 2**12, [0, 7, 300]),  # M = 320, L = 64
        (3 * 2**8, [0, 2]),  # M = 256, L = 3
        (397, [0, 5, 396]),  # N prime: M = N, L = 1
    ])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_real_grids_are_exactly_symmetric(self, N, exps, offset, abs_grid):
        coeffs = np.array([1.0, -0.7, 0.3])[:len(exps)]
        absv = abs_grid(exps, coeffs, N, offset)
        mirrored = absv[::-1] if offset else np.roll(absv[::-1], 1)  # theta -> -theta
        assert absv.tobytes() == mirrored.tobytes()
        oracle = np.abs(eval_support_grid(exps, coeffs, N, offset))
        assert np.max(np.abs(absv - oracle)) <= 1e-12 * (1 + np.abs(coeffs).sum())

    def test_merges_repeated_exponents(self, abs_grid):
        got = abs_grid([3, 0, 3], [1.0, 2.0, 0.5], 10)
        assert np.max(np.abs(got - np.abs(eval_support_grid([0, 3], [2.0, 1.5], 10)))) < 1e-14

    @pytest.mark.parametrize("exps", [[0, 8], [-1, 2]])
    def test_rejects_exponents_outside_the_grid(self, exps, abs_grid):
        with pytest.raises(ValueError):
            abs_grid(exps, [1.0, 1.0], 8)

    @pytest.mark.parametrize("coeffs, offset", [([1.0, -0.5j], 0.0), ([1.0, 2.0], 0.25),
                                                ([1.0, 1j], 0.5)])
    def test_mirrored_geometry_only(self, coeffs, offset):
        # complex coefficients or an offset other than 0 and 1/2 are eval_support_grid's
        with pytest.raises(ValueError, match="eval_support_grid"):
            _grid_blocks([0, 5], coeffs, 64, offset)
        if offset == 0.0:
            with pytest.raises(ValueError, match="eval_support_grid"):
                mz_ratio({0: coeffs[0], 5: coeffs[1]}, 1.5, 64)
        direct = np.exp(2j * np.pi * np.outer(np.arange(64) + offset, [0, 5]) / 64) @ coeffs
        assert np.max(np.abs(eval_support_grid([0, 5], coeffs, 64, offset) - direct)) < 1e-13

    @pytest.mark.parametrize("block", [2**14, 2**12])
    @pytest.mark.parametrize("p, N, offset, halo", [
        (211, 2**20, 0.5, mahler._STENCIL),  # p = 211's Mahler grid, halo'd: 512 rows of 2^11
        (211, None, 0.0, 0),  # its 16q grid: 372 rows of 1924
        (401, None, 0.0, 0),  # 16q: 112 Bluestein rows of the prime 23029
    ])
    def test_rows_do_not_depend_on_the_block_size(self, p, N, offset, halo, block,
                                                  monkeypatch, singer_cache):
        # every grid row, halo copies included, keeps its bits when _BLOCK shrinks: the
        # twist is a function of the row index, not of the FFT block it is computed in
        s = singer_cache(p)
        N = N or 16 * s.q
        c = np.full(s.size, 1 / np.sqrt(s.size))

        def rows_by_index():
            out = {}
            for a0, rows, weight in _grid_blocks(s.residues, c, N, offset, halo):
                for i, row in enumerate(rows):
                    out.setdefault(a0 - halo + i, row.tobytes())
                    assert out[a0 - halo + i] == row.tobytes()
                out.update({("weight", a0 + i): w for i, w in enumerate(weight)})
            return out

        default = rows_by_index()
        for module in (singer, poly, mahler, analysis):
            monkeypatch.setattr(module, "_BLOCK", block)
        assert rows_by_index() == default


class TestCorrelations:
    def test_cyclic_all_one(self, singer_cache):
        t = correlations(singer_cache(2))
        assert t.cyclic == (3, 1, 1, 1, 1, 1, 1)
        assert t.is_perfect

    def test_aperiodic_examples(self, singer_cache):
        t = correlations(singer_cache(2))
        assert t.c(1) == 1
        assert t.c(6) == 0
        assert t.c(-3) == 1
        assert t.c(0) == 3 == t.gamma(0)

    def test_reduction_identity(self, singer_cache):
        for p in (2, 3, 5, 7):
            t = correlations(singer_cache(p))
            for r in range(1, t.q):
                assert t.gamma(r) == t.c(r) + t.c(r - t.q)

    def test_symmetry(self, singer_cache):
        for p in (2, 3, 5):
            t = correlations(singer_cache(p))
            for l in range(t.q):
                assert t.c(l) == t.c(-l)

    def test_gamma_is_aperiodic_folded(self, singer_cache):
        t = correlations(singer_cache(3))
        for r in range(t.q):
            folded = sum(
                t.c(l) for l in range(-(t.q - 1), t.q) if (l - r) % t.q == 0
            )
            assert t.gamma(r) == folded

    def test_general_support(self):
        t = correlation_table([0], 5)
        assert t.cyclic == (1, 0, 0, 0, 0)
        assert not t.is_perfect

    def test_errors(self):
        with pytest.raises(ValueError):
            correlation_table([0, 0], 5)
        with pytest.raises(ValueError):
            correlation_table([0, 6], 5)


class TestDefectPolynomial:
    def test_values_at_roots_p2(self, singer_cache):
        Q = defect_poly(singer_cache(2))
        assert Q.value_at_one() == 2
        assert np.max(np.abs(defect_at_roots(Q)[1:] - (-1 / 3))) < 1e-10

    def test_values_at_roots_p3(self, singer_cache):
        Q = defect_poly(singer_cache(3))
        assert Q.value_at_one() == 3
        assert np.max(np.abs(defect_at_roots(Q)[1:] - (-1 / 4))) < 1e-10

    def test_value_at_one_mixed_denominators(self):
        coeffs = (Fraction(1, 3), Fraction(-5, 12), Fraction(0), Fraction(7, 10), Fraction(2),
                  Fraction(-1, 3), Fraction(9, 8), Fraction(1, 3))
        Q = DefectPolynomial(q=len(coeffs) + 1, size=4, coefficients=coeffs)
        value = Q.value_at_one()
        assert value == sum(coeffs, Fraction(0)) == Fraction(449, 120)
        assert isinstance(value, Fraction)
        assert DefectPolynomial(q=1, size=1, coefficients=()).value_at_one() == 0
        assert Q.degree == len(coeffs)

    def test_value_at_one_past_int64(self):
        # int64 numerators of 2^62 whose sum 2^63 does not fit: summed as Python ints
        coeffs = ExactVector(np.full(2, 2**62, dtype=np.int64), denominator=3)
        assert DefectPolynomial(q=3, size=2, coefficients=coeffs).value_at_one() == Fraction(2**63, 3)

    def test_coefficient_array_matches_float_of_each_fraction(self, singer_cache):
        Q = defect_poly(singer_cache(1009))
        oracle = np.array([0.0] + [float(c) for c in Q.coefficients])
        assert Q.coefficient_array().tobytes() == oracle.tobytes()

    def test_coefficient_array_mixed_denominators(self):
        # the second pass adds terms beyond 2^53, where one float division would round twice
        coeffs = (Fraction(1, 3), Fraction(-5, 12), Fraction(0), Fraction(7, 10), Fraction(2),
                  Fraction(-1, 3), Fraction(9, 8), Fraction(1, 7), Fraction(2**52 - 1, 2**52 - 3))
        for tail in ((), (Fraction(2**53 + 1, 7), Fraction(1, 2**53 + 1))):
            Q = DefectPolynomial(q=len(coeffs + tail) + 1, size=4, coefficients=coeffs + tail)
            oracle = np.array([0.0] + [float(c) for c in coeffs + tail])
            assert Q.coefficient_array().tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("p", [2, 3, 7, 31, 1009])
    def test_matches_correlation_route(self, p, singer_cache):
        s = singer_cache(p)
        Q = defect_poly(s)
        assert (Q.q, Q.size) == (s.q, s.size)
        assert Q.coefficients == defect_oracle(s)
        assert {type(c) for c in Q.coefficients} == {Fraction}

    def test_non_perfect_set(self):
        Q = defect_poly(NON_PERFECT)
        assert Q.coefficients == defect_oracle(NON_PERFECT)
        assert Q.coefficients == (Fraction(2, 3), Fraction(1, 3), 0, 0, Fraction(1, 3), Fraction(2, 3))
        assert {type(c) for c in Q.coefficients} == {Fraction}

    def test_reads_no_correlation_table(self, monkeypatch, singer_cache):
        calls = []

        def counted(support, q):
            calls.append(q)
            return correlation_table(support, q)

        monkeypatch.setattr(poly, "correlation_table", counted)
        defect_poly(singer_cache(7))
        defect_poly(NON_PERFECT)
        assert calls == []

    def test_coefficients_are_uniform(self, singer_cache):
        Q = defect_poly(singer_cache(2))
        assert set(Q.coefficients) == {Fraction(1, 3)}

    def test_coincidence_law(self, singer_cache):
        for p in (2, 3, 5):
            s = singer_cache(p)
            Q = defect_poly(s)
            lhs = defect_at_roots(Q)
            rhs = np.abs(grid_values(build_polynomial(s), s.q)) ** 2 - 1
            assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPerfectDefectAbs:
    @pytest.mark.parametrize("p", [2, 7, 31, 307])
    def test_closed_form_against_mpmath(self, p, singer_cache):
        # |Q(e^(2 pi i j/N))| = |sin((q-1) pi j/N)| / (k |sin(pi j/N)|) at 40 digits; sinpi
        # keeps the exact zeros (q-1)j = 0 mod N exact, where the bound demands 0
        s = singer_cache(p)
        N = 16 * s.q
        got = _perfect_defect_abs(s.q, s.size, N, np.arange(N))
        rng = np.random.default_rng(p)
        js = [1, 2, N // 2 + 1, N - 2, N - 1] + rng.integers(1, N, 60).tolist()
        with mpmath.workdps(40):
            for j in js:
                ref = abs(mpmath.sinpi(mpmath.mpf((s.q - 1) * j) / N)) / (
                    s.size * abs(mpmath.sinpi(mpmath.mpf(j) / N)))
                assert abs(got[j] - ref) <= 8e-16 * ref, j
        assert got[0] == (s.q - 1) / s.size

    @pytest.mark.parametrize("p", [5, 31])
    def test_blocks_equal_the_whole_grid(self, p, singer_cache):
        # flatness reads |Q| at the indices L*b + a of a block of fold rows
        s = singer_cache(p)
        N = 16 * s.q
        whole = _perfect_defect_abs(s.q, s.size, N, np.arange(N))
        M = _row_length(N, s.residues[-1], s.size)
        for a0 in range(0, N // M, 5):
            j = (N // M) * np.arange(M) + np.arange(a0, min(a0 + 5, N // M))[:, None]
            assert _perfect_defect_abs(s.q, s.size, N, j).tobytes() == whole[j].tobytes()
        assert whole[1:].tobytes() == whole[:0:-1].tobytes()  # even in theta, bit for bit

    def test_matches_defect_poly_on_the_grid(self, singer_cache):
        s = singer_cache(5)
        N = 16 * s.q
        Q = defect_poly(s)
        oracle = np.abs(eval_support_grid(np.arange(1, s.q), Q.coefficient_array()[1:], N))
        assert np.max(np.abs(_perfect_defect_abs(s.q, s.size, N, np.arange(N)) - oracle)) <= 1e-13


class TestFourierIdentity:
    def test_power_spectrum_equals_correlations(self, singer_cache):
        for p in (2, 3, 5):
            s = singer_cache(p)
            P = build_polynomial(s)
            t = correlations(s)
            N = 2 * s.q + 5
            chat = np.fft.fft(np.abs(grid_values(P, N)) ** 2) / N  # coefficient of z^l at l mod N
            for l in range(-(s.q - 1), s.q):
                assert abs(chat[l % N] - t.c(l) / t.size) < 1e-10
