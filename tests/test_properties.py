"""Property tests: identities that hold for any support or any plan.

Supports are random subsets of [0, q); plans are assembled by hand from
small Singer sets at arbitrary scales, so they need not be dissociated.
Each property is checked against an independent route: the pair-count
folding against its definition, the exact L2 defect against a grid
mean, the FFT route and the blocked |P| kernel against direct summation,
the streamed row blocks (|P|, or P with a halo) against the materialized
grids, the integer Riesz coefficients against a convolution over
Fractions, the plan layer's numpy enumerations against plain Python
loops, the near-root-corrected Mahler measure against Jensen's formula,
and the certified Aberth roots of Jensen's route against np.roots.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flatpoly.analysis import l2_defect_sq_exact
from flatpoly.mahler import _STENCIL, mahler_jensen, mahler_log
from flatpoly.poly import (
    _grid_blocks,
    correlation_table,
    correlations,
    eval_support_grid,
    newman_from_support,
)
from flatpoly.rankone import base_occurrences, derive_map_params
from flatpoly.riesz import (
    DissociationCertificate,
    PlanStage,
    RieszPlan,
    _stage_map,
    check_dissociated,
    make_plan,
    partial_coeffs,
)
from flatpoly.singer import construct_singer

# few examples and a fixed seed keep the tier-1 run fast and repeatable
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None, derandomize=True)

SINGER_STAGES = ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))  # (p, m), q <= 91
_SETS = {}


@st.composite
def supports(draw, max_q=64):
    q = draw(st.integers(2, max_q))
    support = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=24))
    return sorted(support), q


def manual_plan(picks, scales):
    """A plan over (p, m) stages at the given scales, with no growth-rule check."""
    stages, h = [], 1
    for (p, m), N in zip(picks, scales):
        if (p, m) not in _SETS:
            _SETS[(p, m)] = construct_singer(p, m)
        sset = _SETS[(p, m)]
        h = sset.residues[-1] * N + h
        stages.append(PlanStage(prime=p, m=m, singer=sset, scale=N, height=h))
    return RieszPlan(stages=tuple(stages), rule="explicit")


@st.composite
def manual_plans(draw):
    """1-3 stages of small Singer sets at arbitrary scales (m = 2 included)."""
    picks = draw(st.lists(st.sampled_from(SINGER_STAGES), min_size=1, max_size=3))
    scales = draw(st.lists(st.integers(1, 40), min_size=len(picks), max_size=len(picks)))
    return manual_plan(picks, scales)


# always-run cases: scales (1, 2) collide, and two m = 2 stages
NON_DISSOCIATED = manual_plan([(2, 1), (3, 1)], [1, 2])
PRIME_SQUARES = manual_plan([(2, 2), (3, 2)], [1, 17])


def fraction_partial_coeffs(plan, k):
    """Oracle: the stage maps {N_j l: c_l / |S_j|} convolved over Fractions."""
    acc = {0: Fraction(1)}
    for stage in plan.stages[:k]:
        table = correlations(stage.singer)
        stage_map = {}
        for l in range(-(table.q - 1), table.q):
            c = table.c(l)
            if c:
                stage_map[stage.scale * l] = Fraction(c, table.size)
        new = {}
        for f1, v1 in acc.items():
            for f2, v2 in stage_map.items():
                f = f1 + f2
                new[f] = new.get(f, Fraction(0)) + v1 * v2
        acc = new
    return acc


def python_stage_map(stage):
    """Oracle: {N_j l: c_l}, ascending, by counting the pairwise differences."""
    freqs = stage.frequencies
    return dict(sorted(Counter(a - b for a in freqs for b in freqs).items()))


def python_check_dissociated(plan, k, mode):
    """Oracle: every tuple in itertools.product order; the witness is the first
    tuple whose sum already occurred, with that sum's first tuple."""
    if mode == "sums":
        blocks = [stage.frequencies for stage in plan.stages[:k]]
    else:
        blocks = [list(python_stage_map(stage)) for stage in plan.stages[:k]]
    seen = {}
    for combo in itertools.product(*blocks):
        value = sum(combo)
        if value in seen and seen[value] != combo:
            return DissociationCertificate(k, mode, False, (seen[value], combo, value))
        seen[value] = combo
    return DissociationCertificate(k, mode, True, None)


def python_partial_coeffs(plan, k):
    """Oracle: (numerators, denominator) by a dict convolution of the stage maps."""
    acc, denominator = {0: 1}, 1
    for stage in plan.stages[:k]:
        new = {}
        for f1, v1 in acc.items():
            for f2, v2 in python_stage_map(stage).items():
                new[f1 + f2] = new.get(f1 + f2, 0) + v1 * v2
        acc = new
        denominator *= stage.singer.size
    return acc, denominator


def python_base_occurrences(params, k, K):
    """Oracle: the sumset of the column offsets of stages k+1 .. K, sorted."""
    offsets = [0]
    for j in range(k, K):
        offsets = [o + c for o in offsets for c in params.column_offsets(j)]
    return tuple(sorted(offsets))


def all_python_ints(values):
    return all(all_python_ints(v) if isinstance(v, tuple) else type(v) is int for v in values)


@st.composite
def rule_plans(draw):
    """Plans from the margin, margin:c and explicit rules, primes repeating; explicit
    scales, unchecked against the growth rule, reach both sides of 2^63."""
    m = draw(st.sampled_from((1, 2)))
    primes = draw(st.lists(st.sampled_from((2, 3, 5) if m == 1 else (2, 3)),
                           min_size=1, max_size=3))
    rule = draw(st.sampled_from(("margin", "margin:c", "explicit")))
    if rule == "margin":
        return make_plan(primes, m=m)
    if rule == "margin:c":
        return make_plan(primes, rule=f"margin:{draw(st.integers(2, 6))}", m=m)
    scale = st.one_of(st.integers(1, 40), st.integers(2**56, 2**62))
    scales = draw(st.lists(scale, min_size=len(primes), max_size=len(primes)))
    return manual_plan([(p, m) for p in primes], scales)


@PROPERTY_SETTINGS
@given(rule_plans())
@example(NON_DISSOCIATED)  # scales (1, 2)
@example(make_plan([2, 3], scales=[1, 3]))  # collides at the growth-rule boundary
@example(make_plan([2, 3, 2], rule="margin:2"))
@example(make_plan([2, 3], scales=[1, 2**58]))  # int64
@example(make_plan([2, 3], scales=[1, 2**62]))  # sums past 2^63: Python ints
@example(make_plan([2, 3], scales=[1, 10**19]))
@example(manual_plan([(2, 1), (2, 1)], [2**61, 2**62]))  # collides past 2^63
def test_plan_kernel_routes_equal_the_python_loops(plan):
    assume(np.prod([stage.singer.q for stage in plan.stages]) <= 30_000)
    K = len(plan.stages)
    for mode in ("sums", "differences"):
        cert = check_dissociated(plan, mode=mode)
        assert cert == python_check_dissociated(plan, K, mode)
        assert cert.collision is None or all_python_ints(cert.collision)
    for k in range(1, K + 1):
        coeffs = partial_coeffs(plan, k)
        assert (coeffs.coefficients, coeffs.denominator) == python_partial_coeffs(plan, k)
        assert all_python_ints(tuple(coeffs.coefficients.items()) + (coeffs.denominator,))
    try:
        params = derive_map_params(plan)
    except ValueError:  # a negative spacer: no tower to take offsets in
        return
    for K_ in range(1, K + 1):
        for k in range(K_):
            occ = base_occurrences(params, k, K_)
            assert occ == python_base_occurrences(params, k, K_) and all_python_ints(occ)


@PROPERTY_SETTINGS
@given(supports())
def test_cyclic_counts_fold_the_aperiodic_ones(case):
    support, q = case
    table = correlation_table(support, q)
    k = len(support)
    for r in range(q):
        assert table.gamma(r) == table.c(r) + table.c(r - q)
    assert sum(table.cyclic) == sum(table.aperiodic) == k * k
    assert table.c(0) == k


@PROPERTY_SETTINGS
@given(supports(), st.integers(0, 64))
def test_parseval_exact_l2_defect_equals_grid_mean(case, extra):
    # (|P|^2 - 1)^2 has degree 2(q-1) < N, so the N-point mean is exact
    support, q = case
    N = 2 * q + extra
    P = newman_from_support(support, q)
    values = eval_support_grid(P.support, [P.scale] * P.size, N)
    mean = float(np.mean((np.abs(values) ** 2 - 1.0) ** 2))
    exact = l2_defect_sq_exact(correlation_table(support, q))
    assert abs(mean - float(exact)) <= 1e-12


@PROPERTY_SETTINGS
@given(st.integers(1, 400), st.data())
def test_fft_route_matches_direct_summation(N, data):
    exps = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=20))
    reals = st.floats(-2.0, 2.0, allow_nan=False)
    coeffs = np.array([complex(data.draw(reals), data.draw(reals)) for _ in exps])
    offset = data.draw(st.sampled_from((0.0, 0.5, 0.25)))
    got = eval_support_grid(exps, coeffs, N, offset=offset)
    direct = np.exp(2j * np.pi * np.outer(np.arange(N) + offset, exps) / N) @ coeffs
    assert np.max(np.abs(got - direct)) <= 1e-12 * (1 + np.sum(np.abs(coeffs)))


@st.composite
def grid_cases(draw):
    """(N, exponents, real coefficients, offset 0 or 1/2): any N up to 400, or N = 16q with
    degree < q."""
    q = draw(st.sampled_from((0, 7, 13, 31, 57)))
    N = 16 * q if q else draw(st.integers(1, 400))
    exps = draw(st.lists(st.integers(0, (q or N) - 1), min_size=1, max_size=20))
    coeffs = [draw(st.floats(-2.0, 2.0, allow_nan=False)) for _ in exps]
    return N, exps, coeffs, draw(st.sampled_from((0.0, 0.5)))


SINGER_2, SINGER_307 = construct_singer(2).residues, construct_singer(307).residues


@PROPERTY_SETTINGS
@given(grid_cases())
@example((397, [0, 5, 396], [1.0, -1.0, 0.5], 0.0))  # N prime, real: one row, mirrored in itself
@example((16 * 31, [1, 5, 11, 24, 25, 27], [0.5] * 6, 0.0))  # the p = 5 Singer set at 16q
@example((400, [0, 2], [1.0, 3.0], 0.5))  # degree 2: one row of the fast length 400
@example((16 * 94557, SINGER_307, [308**-0.5] * 308, 0.0))  # p = 307 at 16q: fold, L = 1466 even
@example((7 * 2**11, [0, 17, 14000], [1.0, -0.7, 0.3], 0.0))  # fold, L = 7 odd
@example((16 * 94557, SINGER_307, [308**-0.5] * 308, 0.5))
@example((64 * 8191, [0, 9, 70000, 99999], [1.0, -2.0, 0.5, 1.5], 0.5))  # fast rows all below the degree
@example((3 * 2**15, [1, 5000, 20000], [1.0, -0.7, 0.3], 0.0))  # fold, L = 48 even
@example((3 * 2**15, [1, 5000, 20000], [1.0, -0.7, 0.3], 0.5))
@example((5 * 2**12, [0, 7, 300], [1.0, 0.25, -1.0], 0.0))  # L = 64 even
@example((3 * 2**8, [0, 2], [1.0, 3.0], 0.5))  # L = 3 odd
@example((2**22, SINGER_2, [3**-0.5] * 3, 0.5))  # p = 2 on the fine grid the Mahler l1 tests read
def test_abs_grid_kernel_matches_direct_summation(abs_grid, case):
    N, exps, coeffs, offset = case
    coeffs = np.array(coeffs)
    got = abs_grid(exps, coeffs, N, offset=offset)
    oracle = np.abs(eval_support_grid(exps, coeffs, N, offset=offset))
    # direct sums at every point of small grids, else at both ends and 2000 drawn points;
    # the angle's numerator j*s is reduced mod N exactly first
    rng = np.random.default_rng(N)
    j = np.arange(N) if N <= 4096 else np.r_[0:64, N - 64:N, rng.integers(0, N, 2000)]
    turns = (np.outer(j, exps) % N + offset * np.asarray(exps)) / N
    direct = np.abs(np.exp(2j * np.pi * turns) @ coeffs)
    bound = 1e-12 * (1 + np.sum(np.abs(coeffs)))
    assert np.max(np.abs(got[j] - direct)) <= bound
    assert np.max(np.abs(got - oracle)) <= bound


@st.composite
def stream_cases(draw):
    """(N, exponents, real coefficients, offset 0 or 1/2): any N up to 400, N = 16q, or
    N = 8 * 127 and 4 * 1021, whose rows fall back to a length with the prime factor 127 or
    1021 once there are more than 8 or 4 terms."""
    N = draw(st.one_of(st.integers(1, 400), st.sampled_from((16 * 7, 16 * 57, 8 * 127, 4 * 1021))))
    exps = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=24))
    coeffs = [draw(st.floats(-2.0, 2.0, allow_nan=False)) for _ in exps]
    return N, exps, coeffs, draw(st.sampled_from((0.0, 0.5)))


SINGER_101 = construct_singer(101).residues


@PROPERTY_SETTINGS
@given(stream_cases())
@example((16 * 10303, SINGER_101, [102**-0.5] * 102, 0.0))  # p = 101 at 16q: rows of M = q
@example((16 * 94557, SINGER_307, [308**-0.5] * 308, 0.5))  # 1466 rows of 1032, L even
@example((7 * 2**11, [0, 17, 14000], [1.0, -0.7, 0.3], 0.5))  # 7 rows of 2^11: a self-paired middle row
@example((2**21, SINGER_307, [308**-0.5] * 308, 0.5))  # mahler_log's grid: a sliding window
@example((8 * 127, list(range(0, 1016, 40)), [1.0] * 26, 0.0))  # fallback rows of 127, L = 8
@example((397, [0, 5, 396], [1.0, -1.0, 0.5], 0.5))  # N prime: one self-paired row
def test_block_stream_equals_the_materialized_grid(abs_grid, case):
    # each computed row and, where its weight is 2, its mirror partner cover every grid
    # index once; the halo rows are the grid's rows beyond the block, and the reductions
    # of the stream are those of the materialized grid.  Halo'd rows hold P itself: their
    # |P| is the halo-free stream's bit for bit, and P is the complex FFT's to rounding
    N, exps, coeffs, offset = case
    coeffs = np.array(coeffs)
    full = abs_grid(exps, coeffs, N, offset=offset)
    values = eval_support_grid(exps, coeffs, N, offset=offset)
    for halo in (0, _STENCIL):
        cover = np.zeros(N, dtype=np.int64)
        sums, low = [], math.inf
        for a0, rows, weight in _grid_blocks(exps, coeffs, N, offset, halo):
            M = rows.shape[1]
            j = (N // M) * np.arange(M) + np.arange(a0 - halo, a0 + len(weight) + halo)[:, None]
            assert np.abs(rows).tobytes() == full[j % N].tobytes()
            if halo:
                bound = 1e-12 * (1 + np.abs(coeffs).sum())
                assert np.max(np.abs(rows - values[j % N])) <= bound
            central, core = j[halo:len(j) - halo], np.abs(rows[halo:len(rows) - halo])
            np.add.at(cover, central, 1)
            np.add.at(cover, (N - int(2 * offset) - central[weight == 2]) % N, 1)
            sums.append(weight * core.sum(axis=1))
            low = min(low, core.min())
        assert np.all(cover == 1)
        total = math.fsum(np.concatenate(sums))
        assert abs(total - np.sum(full)) <= 1e-15 * np.sum(full)
        assert low == full.min()


@PROPERTY_SETTINGS
@given(manual_plans())
@example(NON_DISSOCIATED)
@example(PRIME_SQUARES)
def test_integer_coefficients_equal_the_fraction_oracle(plan):
    assume(np.prod([stage.singer.q for stage in plan.stages]) <= 30_000)
    k = len(plan.stages)
    coeffs = partial_coeffs(plan, k)
    oracle = fraction_partial_coeffs(plan, k)
    assert coeffs.denominator == np.prod([stage.singer.size for stage in plan.stages])
    assert {f: Fraction(n, coeffs.denominator) for f, n in coeffs.coefficients.items()} == oracle
    assert coeffs.zero_coefficient == oracle[0]
    assert coeffs.total_mass == sum(oracle.values())
    assert coeffs.dissociation_consistent == (oracle[0] == 1)


@PROPERTY_SETTINGS
@given(manual_plans())
@example(NON_DISSOCIATED)
def test_stage_map_keys_are_the_sorted_difference_block(plan):
    for stage in plan.stages:
        freqs, counts = _stage_map(stage)
        assert dict(zip(freqs.tolist(), counts.tolist())) == python_stage_map(stage)
        assert freqs.tolist() == sorted({a - b for a in stage.frequencies for b in stage.frequencies})


@st.composite
def zero_one_polynomials(draw, max_degree=256):
    """Coefficients of 1 + ... + z^d, d <= max_degree, with 0/1 coefficients in between."""
    d = draw(st.integers(1, max_degree))
    inner = draw(st.lists(st.integers(0, 1), min_size=d - 1, max_size=d - 1))
    return [1.0] + [float(c) for c in inner] + [1.0]


@PROPERTY_SETTINGS
@given(zero_one_polynomials())
@example([1.0] + [0.0] * 255 + [1.0])  # 1 + z^256: every root on the circle
@example([1.0, 1.0])
def test_corrected_log_integral_agrees_with_jensen(coeffs):
    # squarefree only: mahler_log leaves a repeated root uncorrected and says so, and
    # mahler_jensen's certified error grows to about the square root of the rounding
    # there (both in tests/test_mahler.py)
    z = sympy.Symbol("z")
    P = sympy.Poly([int(c) for c in coeffs[::-1]], z)
    assume(sympy.degree(sympy.gcd(P, P.diff(z)), z) == 0)
    rep = mahler_log(coeffs)
    gap = abs(math.log(rep.value) - math.log(mahler_jensen(coeffs).value))
    assert gap <= (1e-9 if rep.detail["converged"] else rep.detail["error"])


@PROPERTY_SETTINGS
@given(zero_one_polynomials())
@example([1.0] + [0.0] * 255 + [1.0])
@example([1.0, 1.0, 0.0, 1.0, 1.0])  # (1 + z)^2 (1 - z + z^2): a double zero at -1
def test_aberth_roots_match_np_roots(assert_roots_match_np_roots, coeffs):
    # repeated roots included: a cluster's disks must still cover np.roots' roots there
    assert_roots_match_np_roots(coeffs)
    rep, grid = mahler_jensen(coeffs), mahler_log(coeffs)
    gap = abs(math.log(rep.value) - math.log(grid.value))
    assert gap <= rep.detail["error"] + max(grid.detail["error"], 1e-9)
