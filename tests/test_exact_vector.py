"""ExactVector against the tuple it stands for, and the exact layer's memory.

Every property compares a vector with the tuple of ints (denominator 1) or
Fractions (any other denominator) that the same numerators give: the tuple
oracle of the exact layer's counts, correlation tables and defect
coefficients.
"""

import dataclasses
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatpoly.poly import DefectPolynomial, correlations, defect_poly
from flatpoly.singer import _BLOCK, ExactVector, construct_singer, verify_perfect_difference

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

BIG = 2**63  # numerators at or past it are held as Python ints


def as_tuple(numerators, denominator):
    """The tuple a vector reads as: ints over 1, Fractions over anything else."""
    if denominator == 1:
        return tuple(numerators)
    return tuple(Fraction(n, denominator) for n in numerators)


@st.composite
def vectors(draw):
    """(vector, tuple oracle, numerators, denominator), int64 or past it."""
    small = st.integers(-5, 5)
    wide = st.integers(-2**70, 2**70)
    numerators = draw(st.lists(st.one_of(small, small, wide), max_size=12))
    denominator = draw(st.sampled_from([1, 1, 2, 3, 4, 6, 7, 2**61, 2**65]))
    if all(-BIG <= n < BIG for n in numerators) and draw(st.booleans()):
        vec = ExactVector(np.array(numerators, dtype=np.int64), denominator)
    else:
        vec = ExactVector(numerators, denominator)
    return vec, as_tuple(numerators, denominator), numerators, denominator


def probes(numerators, denominator):
    """Numbers in and out of the vector, of every type tuple.count meets."""
    out = [0, 1, -1, True, 2**64, Fraction(1, 2), Fraction(1, 3), 0.5, 1.0, -0.0,
           float("nan"), float("inf"), 1 + 0j, 0j, 1 + 1j, complex(float("nan"), 0),
           np.complex128(0.5), "1", None, np.int64(1), np.float64(0.25)]
    for n in numerators[:3]:
        value = Fraction(n, denominator)
        out += [value, value + Fraction(1, 7), float(value), complex(value),
                np.complex128(value), complex(value, 1)]
        if value.denominator == 1:
            out.append(int(value))
    return out


@PROPERTY_SETTINGS
@given(vectors(), st.slices(14))
def test_indexing_slicing_and_iteration_read_as_the_tuple(case, cut):
    vec, oracle, _, _ = case
    assert len(vec) == len(oracle)
    for i in range(-len(oracle), len(oracle)):
        assert vec[i] == oracle[i] and type(vec[i]) is type(oracle[i])
    for i in (len(oracle), -len(oracle) - 1):
        with pytest.raises(IndexError):
            vec[i]
    assert isinstance(vec[cut], ExactVector)
    assert vec[cut] == oracle[cut] and repr(vec[cut]) == repr(oracle[cut])
    assert [type(x) for x in vec] == [type(x) for x in oracle]
    assert list(vec) == list(oracle) and list(reversed(vec)) == list(reversed(oracle))
    assert repr(vec) == repr(oracle) and str(vec) == str(oracle)


@PROPERTY_SETTINGS
@given(vectors())
def test_count_index_and_in_agree_with_the_tuple(case):
    vec, oracle, numerators, denominator = case
    for x in probes(numerators, denominator):
        assert vec.count(x) == oracle.count(x), x
        assert (x in vec) == (x in oracle), x
        for start, stop in ((0, None), (1, None), (-2, None), (0, -1), (1, 3)):
            bounds = (start,) if stop is None else (start, stop)
            try:
                expected = oracle.index(x, *bounds)
            except ValueError:
                with pytest.raises(ValueError):
                    vec.index(x, *bounds)
            else:
                assert vec.index(x, *bounds) == expected, (x, bounds)


@PROPERTY_SETTINGS
@given(vectors(), st.integers(2, 5))
def test_equality_and_hash_agree_with_the_tuple(case, scale):
    vec, oracle, numerators, denominator = case
    assert vec == oracle and oracle == vec and not vec != oracle
    assert vec != list(oracle)
    assert hash(vec) == hash(oracle)
    # the same rationals over a scaled denominator: 2/4 is 1/2
    scaled = ExactVector([n * scale for n in numerators], denominator * scale)
    assert scaled == vec and hash(scaled) == hash(vec)
    assert (ExactVector(numerators, denominator * scale) == vec) == all(n == 0 for n in numerators)
    if numerators:
        changed = ExactVector(numerators[:-1] + [numerators[-1] + 1], denominator)
        assert changed != vec and changed != oracle
    assert vec != oracle + (0,) and vec != ExactVector(numerators + [0], denominator)
    assert pickle.loads(pickle.dumps(vec)) == vec


@pytest.mark.parametrize("route", ["int64 over 1", "int64 over 6", "object over 1"])
def test_iteration_crosses_block_boundaries(route):
    # _BLOCK + 3 entries: iteration reads a full block of numerators, then three more
    numerators = [n % 7 - 3 for n in range(_BLOCK + 3)]
    denominator = 6 if route == "int64 over 6" else 1
    if route == "object over 1":
        numerators[_BLOCK + 1] = 2**64
    vec = ExactVector(numerators, denominator)
    assert vec.numerators.dtype == (object if route == "object over 1" else np.int64)
    oracle = as_tuple(numerators, denominator)
    assert list(vec) == list(oracle) and [type(x) for x in vec] == [type(x) for x in oracle]
    assert vec == oracle and hash(vec) == hash(oracle)
    for n in (-3, 0, 3, 2**64):
        x = Fraction(n, denominator)
        assert vec.count(x) == oracle.count(x), x


def test_int8_numerators_read_as_their_int64_and_tuple_forms():
    # the difference counts of a support that repeats no difference: its q-byte mask
    numerators = np.array([0, 1, 1, 0, 1, -128, 127], dtype=np.int8)
    vec, wide = ExactVector._adopt(numerators.copy()), ExactVector(numerators)
    oracle = tuple(numerators.tolist())
    assert vec.numerators.dtype == np.int8 and wide.numerators.dtype == np.int64
    for x in (1, 1.0, 1 + 0j, Fraction(1, 2), 300, -129, 2**62, 2**63, -128, 127, 0):
        assert vec.count(x) == wide.count(x) == oracle.count(x), x
    assert vec == wide and wide == vec and vec == oracle and oracle == vec
    assert hash(vec) == hash(wide) == hash(oracle) and repr(vec) == repr(oracle)
    assert vec != ExactVector(oracle[:-1] + (126,))
    assert vec._total() == wide._total() == sum(oracle) == 2
    assert vec.numerator_bound == wide.numerator_bound == 128
    again = pickle.loads(pickle.dumps(vec))
    assert again == vec and again.numerators.dtype == np.int8
    assert not again.numerators.flags.writeable
    view = np.asarray(vec)
    assert view.dtype == np.int8 and not view.flags.writeable
    assert np.shares_memory(view, vec.numerators)
    assert np.asarray(vec, dtype=np.int64).tolist() == list(oracle)
    mask = verify_perfect_difference((0, 1, 3), 7).counts
    assert mask.numerators.dtype == np.int8 and mask == (0, 1, 1, 1, 1, 1, 1)


def test_two_fourths_equal_one_half():
    assert ExactVector([2, 4], 4) == ExactVector([1, 2], 2) == (Fraction(1, 2), 1)
    assert ExactVector([2, 4], 4) != ExactVector([1, 3], 2)
    assert hash(ExactVector([2, 4], 4)) == hash((Fraction(1, 2), Fraction(1)))


def test_rejects_what_is_not_a_vector_of_rationals():
    with pytest.raises(ValueError, match="denominator must be positive, got 0"):
        ExactVector([1], denominator=0)
    with pytest.raises(ValueError, match="one-dimensional"):
        ExactVector(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(TypeError, match="expected rationals, got 1.5"):
        ExactVector([1, 1.5])


def test_no_array_view_where_a_copy_is_needed():
    # __array__ called directly, as np.asarray(copy=False) does on numpy 2 only
    with pytest.raises(ValueError, match="a vector over a denominator has no array view"):
        ExactVector([1, 2], denominator=3).__array__(copy=False)
    with pytest.raises(ValueError, match="int64 numerators have no float64 view"):
        ExactVector([1, 2]).__array__(np.float64, copy=False)


def test_is_read_only_and_never_aliases_its_caller():
    caller = np.array([3, 1, 1, 1], dtype=np.int64)
    vec = ExactVector(caller)
    with pytest.raises(TypeError):
        vec[0] = 2
    view = np.asarray(vec)
    assert view.dtype == np.int64 and not view.flags.writeable
    assert not np.shares_memory(view, caller)
    caller[0] = 9
    assert vec[0] == 3
    with pytest.raises(ValueError):
        view[0] = 2
    with pytest.raises(ValueError):
        view.flags.writeable = True
    assert np.shares_memory(np.asarray(vec), view)  # a view of the vector, not a copy
    copy = np.array(vec)
    assert copy.flags.writeable and not np.shares_memory(copy, view)
    copy[0] = 7
    assert vec[0] == 3
    assert np.asarray(vec, dtype=float).tolist() == [3.0, 1.0, 1.0, 1.0]
    assert np.asarray(ExactVector([1, 2], 3)).tolist() == [Fraction(1, 3), Fraction(2, 3)]


def test_library_vectors_are_read_only_views():
    sset = construct_singer(3)
    table = correlations(sset)
    cyclic = np.asarray(table.cyclic)
    assert cyclic.tolist() == [4] + [1] * 12 and not cyclic.flags.writeable
    assert np.shares_memory(cyclic, np.asarray(table.cyclic))
    assert np.array(table.cyclic).flags.writeable
    assert verify_perfect_difference(sset.residues, sset.q).counts.count(1) == sset.q - 1


@st.composite
def rationals(draw):
    numerator = st.one_of(st.integers(-50, 50), st.integers(-2**70, 2**70))
    denominator = st.one_of(st.integers(1, 60), st.integers(1, 2**66))
    return [Fraction(draw(numerator), draw(denominator)) for _ in range(draw(st.integers(0, 10)))]


@PROPERTY_SETTINGS
@given(rationals())
@example([Fraction(2**53 + 1, 7), Fraction(1, 2**53 + 1), Fraction(0)])
@example([Fraction(2**64), Fraction(-1, 3)])
def test_defect_polynomial_from_rationals_equals_the_tuple_route(coeffs):
    oracle = tuple(coeffs)
    Q = DefectPolynomial(q=len(oracle) + 1, size=4, coefficients=oracle)
    assert isinstance(Q.coefficients, ExactVector)
    assert Q.coefficients == oracle and hash(Q.coefficients) == hash(oracle)
    assert Q.coefficients.denominator == math.lcm(*(c.denominator for c in oracle))
    assert {type(c) for c in Q.coefficients} <= {Fraction, int}
    assert Q.value_at_one() == sum(oracle, Fraction(0))
    dense = np.array([0.0] + [float(c) for c in oracle])
    assert Q.coefficient_array().tobytes() == dense.tobytes()
    replaced = dataclasses.replace(Q, coefficients=oracle[::-1])
    assert replaced.coefficients == oracle[::-1]


def test_defect_coefficients_are_fractions_over_the_set_size():
    Q = defect_poly(construct_singer(5))
    assert Q.coefficients.denominator == 6 and Q.coefficients.numerators.dtype == np.int64
    assert {type(c) for c in Q.coefficients} == {Fraction}
    assert Q.coefficients.count(Fraction(1, 6)) == len(Q.coefficients) == 30


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def verify_and_count_ones(residues, q):
    report = verify_perfect_difference(residues, q)
    return report, report.counts.count(1)


def test_exact_layer_holds_its_arrays_and_no_more(singer_cache):
    # q = 4014013: correlations hold 2q - 1 + q int64 counts, the other two q each; a
    # tuple of q Python ints (or a list on the way to one) would add 8 bytes per residue
    sset = singer_cache(2003)
    q, slack = sset.q, 4 * 2**20
    table, peak = traced_peak(correlations, sset)
    assert peak <= 24 * q + slack and table.is_perfect
    (report, ones), peak = traced_peak(verify_and_count_ones, sset.residues, q)
    assert peak <= q + slack and report.valid and ones == q - 1  # the q-byte mask is the counts
    defect, peak = traced_peak(defect_poly, sset)
    assert peak <= 8 * q + slack and defect.coefficients.count(Fraction(1, 2004)) == q - 1
