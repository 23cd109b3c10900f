"""Plans for generalized Riesz products over Singer polynomials.

A plan is a list of stages (prime p_j, Singer set S_j, scale N_j); stage
j contributes the factor |P_j(z^{N_j})|^2 whose frequency support is
F_j = N_j * S_j.  Scales grow fast enough that (a) each scale exceeds
the previous stage's top frequency (the growth rule) and (b) the
difference blocks F_j - F_j admit unique sum representations
(1-dissociation), which is what makes the partial products honest
probability densities with exactly computable sparse coefficients.

The default "margin" rule sets N_{j+1} = 2^j (p_j^m + 1) h_j, where
h_j = max(S_j) N_j + h_{j-1} is the running height shared with the
rank-one construction; it forces the quasi-invariance series
sum ((p_j+1) N_j / N_{j+1})^2 under the geometric bound sum 4^{-j}.
"margin:<c>" uses the constant multiplier c >= 2 instead (still
1-dissociated, but with no closed-form tail bound for the series).

Dissociation sums, partial-product coefficients and the rank-one tower's
base-copy offsets take one element per stage: one numpy outer-product
kernel enumerates them, in int64, or in Python ints past 2^63.

No sort is needed to order those sums.  Under the margin rules N_{j+1} =
c h_j with c >= 2, the sums over stages 1..j lie in [-(h_j - 1), h_j - 1],
while stage j+1's ascending frequencies lie at least N_{j+1} >= 2 h_j apart.
So enumerating with the newest stage slowest (outer(stage, earlier sums))
yields strictly increasing sums, and one pass over neighbours proves them
distinct for any plan.  A sequence that fails that pass, as explicit
scales may, takes the sort-and-merge fallback instead.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import check_budget
from .singer import ExactVector, SingerSet, _pair_counts, construct_singer

__all__ = [
    "PlanStage",
    "RieszPlan",
    "DissociationCertificate",
    "SparseCoefficients",
    "ErgodicityReport",
    "QuasiInvarianceReport",
    "make_plan",
    "check_dissociated",
    "partial_coeffs",
    "ergodicity_sum",
    "quasi_invariance_sum",
    "plan_to_json",
    "plan_from_json",
]

@dataclass(frozen=True)
class PlanStage:
    prime: int
    m: int
    singer: SingerSet
    scale: int
    height: int  # h_j = max(S_j) * N_j + h_{j-1}

    @property
    def frequencies(self):
        return tuple(self.scale * s for s in self.singer.residues)


@dataclass(frozen=True)
class RieszPlan:
    stages: tuple
    rule: str
    m: int = 1

    base_height = 1

    @property
    def primes(self):
        return tuple(st.prime for st in self.stages)

    @property
    def scales(self):
        return tuple(st.scale for st in self.stages)

    @property
    def heights(self):
        return tuple(st.height for st in self.stages)


def _margin_constant(rule):
    """c of the scale rule "margin:c" (an integer >= 2), None of "margin"; ValueError otherwise."""
    if rule == "margin":
        return None
    if not rule.startswith("margin:"):
        raise ValueError(f"unknown scale rule {rule!r}")
    try:
        c = int(rule[len("margin:"):])
    except ValueError:
        raise ValueError(f"margin multiplier must be an integer, got {rule!r}") from None
    if c < 2:
        raise ValueError(f"margin multiplier must be >= 2, got {c}")
    return c


def make_plan(primes, rule="margin", m=1, scales=None):
    """Build a plan over the given primes under a scale rule.

    Explicit `scales` override the rule (recorded as rule "explicit")
    and are validated against the growth requirement
    N_j >= N_{j-1} * max(S_{j-1}).  A prime that repeats reuses its
    Singer set.
    """
    primes = tuple(int(p) for p in primes)
    if not primes:
        raise ValueError("need at least one prime")
    if scales is None:
        if rule == "explicit":
            raise ValueError("rule 'explicit' requires scales")
        c = _margin_constant(rule)  # checked up front, so a one-prime plan checks it too
    sets = {p: construct_singer(p, m) for p in dict.fromkeys(primes)}
    if scales is not None:
        scales = tuple(int(N) for N in scales)
        if len(scales) != len(primes):
            raise ValueError("need one scale per prime")
        if scales[0] < 1:
            raise ValueError("the first scale must be at least 1")
        rule = "explicit"
    stages = []
    h = RieszPlan.base_height
    for j, p in enumerate(primes):
        prev = stages[-1].singer if j else None
        if scales is None:
            # N_{j+1} = m_j h_j, with multiplier m_j = 2^j |S_j| under "margin" (stages from 1)
            N = (c or 2**j * prev.size) * h if j else 1
        else:
            N = scales[j]
            floor = scales[j - 1] * prev.residues[-1] if j else N
            if N < floor:
                raise ValueError(
                    f"scale N_{j + 1} = {N} violates the growth rule: "
                    f"need at least N_{j} * max(S_{j}) = {floor}"
                )
        h = sets[p].residues[-1] * N + h  # h_j = max(S_j) N_j + h_{j-1}
        stages.append(PlanStage(prime=p, m=m, singer=sets[p], scale=N, height=h))
    return RieszPlan(stages=tuple(stages), rule=rule, m=m)


# ---------------------------------------------------------------------------
# Dissociation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DissociationCertificate:
    stages_checked: int
    mode: str  # "sums" | "differences"
    valid: bool
    collision: tuple | None  # (tuple_a, tuple_b, common_sum)


def check_dissociated(plan, stages=None, mode="differences"):
    """Exhaustively certify unique sum representations across stages.

    mode "sums": all sums with one frequency per stage are distinct
    (enough for the partial products to have unit mass).  mode
    "differences": every integer has at most one representation with one
    difference-block element per stage, the stronger property the
    quasi-invariance criteria rest on.
    """
    k = len(plan.stages) if stages is None else stages
    if not 1 <= k <= len(plan.stages):
        raise ValueError(f"stages must lie in [1, {len(plan.stages)}]")
    if mode == "sums":
        blocks = [st.frequencies for st in plan.stages[:k]]
    elif mode == "differences":
        blocks = [_stage_map(st)[0] for st in plan.stages[:k]]
    else:
        raise ValueError(f"mode must be 'sums' or 'differences', got {mode!r}")
    total = math.prod(len(b) for b in blocks)
    check_budget("dissociation", total)
    bound = sum(st.scale * (st.singer.q - 1) for st in plan.stages[:k])  # caps every |sum|
    if _ordered_sums(blocks, bound)[1]:
        return DissociationCertificate(stages_checked=k, mode=mode, valid=True, collision=None)
    # the witness search, in itertools.product order
    sums = _stage_product(blocks, np.add, bound)
    _, first, inverse = np.unique(sums, return_index=True, return_inverse=True)
    first = first[inverse]  # index of each sum's first occurrence
    repeats = np.flatnonzero(first != np.arange(total))
    if repeats.size:  # witness: the first tuple whose sum already occurred, and that sum's first
        i, shape = repeats[0], [len(b) for b in blocks]
        earlier, later = (tuple(int(x[j]) for x, j in zip(blocks, np.unravel_index(t, shape)))
                          for t in (first[i], i))
        return DissociationCertificate(stages_checked=k, mode=mode, valid=False,
                                       collision=(earlier, later, int(sums[i])))
    return DissociationCertificate(stages_checked=k, mode=mode, valid=True, collision=None)


# ---------------------------------------------------------------------------
# Exact partial-product coefficients
# ---------------------------------------------------------------------------

class CoefficientMap(Mapping):
    """A read-only mapping frequency -> numerator over two ExactVectors of integers.

    It reads as the dict {frequency: numerator} it stands for: == compares
    with any mapping (a dict, a Counter), keys and values are Python ints,
    len is O(1), and a lookup is one searchsorted.  frequencies (ascending)
    and numerators are the vectors' read-only numerator arrays: int64, or
    object arrays of Python ints where some value does not fit int64.

    CoefficientMap(mapping) holds the integer items of any mapping.
    """

    __slots__ = ("_freq", "_num")

    def __init__(self, mapping=()):
        items = sorted((operator.index(f), operator.index(n)) for f, n in dict(mapping).items())
        self._freq = ExactVector([f for f, _ in items])
        self._num = ExactVector([n for _, n in items])

    @classmethod
    def _adopt(cls, frequencies, numerators):
        """The map over the library's own arrays, strictly increasing frequencies, taken
        over without a copy and made read-only."""
        out = cls.__new__(cls)
        out._freq, out._num = ExactVector._adopt(frequencies), ExactVector._adopt(numerators)
        return out

    @property
    def frequencies(self):
        return self._freq.numerators

    @property
    def numerators(self):
        return self._num.numerators

    def __len__(self):
        return len(self._freq)

    def __iter__(self):
        return iter(self._freq)

    def __getitem__(self, key):
        freq, f = self._freq.numerators, self._freq._numerator_of(key)
        i = len(freq) if f is None else int(np.searchsorted(freq, f))
        if i == len(freq) or freq[i] != f:
            raise KeyError(key)
        return self._num[i]

    def _dict(self):
        return dict(zip(self._freq, self._num))

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __eq__(self, other):
        if isinstance(other, CoefficientMap):
            return self._freq == other._freq and self._num == other._num
        return super().__eq__(other)

    def __repr__(self):
        return repr(self._dict())


@dataclass(frozen=True, eq=False)
class SparseCoefficients:
    """Exact Fourier coefficients of a partial product over one denominator.

    coefficients maps a frequency f to an integer numerator: the number
    of ways to pick one ordered pair (a_j, b_j) from N_j S_j per stage
    with sum_j (a_j - b_j) = f.  The coefficient is numerator /
    denominator, with denominator = prod_{j<=k} |S_j|.

    The map is a read-only CoefficientMap over two ExactVectors, frequencies
    ascending and their numerators: int64, or Python ints past 2^63.
    partial_coeffs makes both without a sort when the stage sums come out
    strictly increasing (the margin rules; see the module docstring), and
    merges equal sums with a sort otherwise.  Any other mapping given as
    coefficients is converted once.
    """

    stages: int
    coefficients: CoefficientMap
    denominator: int

    def __post_init__(self):
        if not isinstance(self.coefficients, CoefficientMap):
            object.__setattr__(self, "coefficients", CoefficientMap(self.coefficients))

    @property
    def frequencies(self):
        return self.coefficients.frequencies

    @property
    def numerators(self):
        return self.coefficients.numerators

    @property
    def zero_coefficient(self):
        return Fraction(self.coefficients.get(0, 0), self.denominator)

    @property
    def dissociation_consistent(self):
        """Unit zero-coefficient; fails exactly when stage sums collide."""
        return self.coefficients.get(0) == self.denominator

    @property
    def total_mass(self):
        return Fraction(self.coefficients._num._total(), self.denominator)


def _stage_product(blocks, ufunc, bound):
    """ufunc over one element of each block, for every choice in itertools.product
    order (the last block varies fastest), as one flat array.  Exact: int64 when
    bound, a cap on every |value| along the way, is below 2^63, else Python ints."""
    dtype = np.int64 if bound < 2**63 else object
    out = np.array(blocks[0], dtype=dtype)
    for block in blocks[1:]:
        out = ufunc.outer(out, np.array(block, dtype=dtype)).ravel()
    return out


def _ordered_sums(blocks, bound):
    """(sums, increasing): the sums with one element of each block, the last block
    varying slowest, and whether they are strictly increasing (hence distinct).

    With ascending blocks whose every gap exceeds the span of all earlier blocks'
    sums, as under the margin rules (see the module docstring), they are: the sums
    are then the sorted sumset with no sort.  bound caps every |sum|, as in
    _stage_product."""
    sums = _stage_product(blocks[::-1], np.add, bound)
    return sums, bool(np.all(sums[1:] > sums[:-1]))


def _stage_map(st):
    """(frequencies, counts): N_j * l ascending over the l with a nonzero
    aperiodic pair count c_l of S_j, and those counts in _pair_counts' dtype
    (int8 or int16 for a Singer set), which _stage_product widens."""
    q = st.singer.q
    counts = _pair_counts(st.singer.residues, q)
    l = np.flatnonzero(counts)
    return _stage_product([l - (q - 1), [st.scale]], np.multiply, st.scale * (q - 1)), counts[l]


def partial_coeffs(plan, k):
    """Sparse convolution of the stage pair-count maps, exact integers.

    Stage j contributes frequency N_j*l with count c_l over the
    aperiodic correlations c_l of S_j, so the numerators are products of
    counts and the denominator is prod |S_j|.  For a dissociated plan the
    coefficient at 0 is exactly 1; a larger value is the diagnostic that
    representations collided (reported via dissociation_consistent, not
    an error).  BudgetError is raised before a stage's convolution when
    the product of the two supports, the size a dissociated stage
    produces, exceeds the coefficient budget.

    Each stage's sums come out ascending with the stage slowest; where
    they are strictly increasing the outer product of counts already
    holds the numerators, and only colliding sums are sorted and merged.
    """
    if not 1 <= k <= len(plan.stages):
        raise ValueError(f"k must lie in [1, {len(plan.stages)}]")
    stages = plan.stages[:k]
    denominator = math.prod(st.singer.size for st in stages)
    # |frequency| <= sum_j N_j (q_j - 1), and the numerators sum to denominator^2
    bound = max(sum(st.scale * (st.singer.q - 1) for st in stages), denominator**2)
    freqs, numerators = [0], [1]
    for st in stages:
        stage_freqs, stage_counts = _stage_map(st)
        check_budget("coefficient", len(freqs) * len(stage_freqs))
        products = _stage_product([stage_counts, numerators], np.multiply, bound)
        freqs, increasing = _ordered_sums([freqs, stage_freqs], bound)
        if increasing:
            numerators = products
        else:  # merge the numerators of equal sums
            freqs, inverse = np.unique(freqs, return_inverse=True)
            numerators = np.zeros(freqs.size, dtype=products.dtype)
            np.add.at(numerators, inverse, products)
    return SparseCoefficients(stages=k, coefficients=CoefficientMap._adopt(freqs, numerators),
                              denominator=denominator)


# ---------------------------------------------------------------------------
# Ergodicity and quasi-invariance diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ErgodicityReport:
    """Partial sums of sum_j ((p_j^m + 1) N_j / N_{j+1})^2, exact.

    terms_top_frequency is the companion series with max(S_j) in place
    of p_j^m + 1 (the form the scale growth rule is stated with); both
    converge under the default margin rule.
    """

    terms: tuple
    partial_sums: tuple
    converged_below: Fraction | None
    criterion_met: bool
    terms_top_frequency: tuple


def ergodicity_sum(plan):
    if len(plan.stages) < 2:
        raise ValueError("need at least two stages")
    pairs = list(zip(plan.stages, plan.stages[1:]))
    terms = [Fraction(st.singer.size * st.scale, nxt.scale) ** 2 for st, nxt in pairs]
    terms_top = [Fraction(st.singer.residues[-1] * st.scale, nxt.scale) ** 2 for st, nxt in pairs]
    default_rule = plan.rule == "margin"
    return ErgodicityReport(
        terms=tuple(terms),
        partial_sums=tuple(itertools.accumulate(terms)),
        converged_below=Fraction(1, 3) if default_rule else None,
        criterion_met=default_rule,
        terms_top_frequency=tuple(terms_top),
    )


@dataclass(frozen=True)
class QuasiInvarianceReport:
    """Partial sums of sum_j (p_j^m + 1)^2 ||N_j x||^2 at one rotation x.

    suggests_membership is diagnostic only: it records that the computed
    partial sums stabilized, not that the full series converges.
    """

    x: Fraction
    terms: tuple
    partial_sums: tuple
    suggests_membership: bool


def quasi_invariance_sum(plan, x):
    """Exact in integers: with x = a/b and r = N_j a mod b, ||N_j x|| = min(r, b - r) / b,
    so every term and partial sum is an integer over b^2."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    rs = [st.scale * a % b for st in plan.stages]
    nums = [(st.singer.size * min(r, b - r)) ** 2 for st, r in zip(plan.stages, rs)]
    sums = list(itertools.accumulate(nums))
    half = len(nums) // 2
    tail_growth = sums[-1] - sums[half - 1] if half >= 1 else sums[-1]
    return QuasiInvarianceReport(
        x=x,
        terms=tuple(Fraction(n, b * b) for n in nums),
        partial_sums=tuple(Fraction(n, b * b) for n in sums),
        suggests_membership=tail_growth * 10**9 < b * b,
    )


# ---------------------------------------------------------------------------
# Plan files
# ---------------------------------------------------------------------------

def plan_to_json(plan):
    """Canonical JSON for a plan; round-trips bit-exactly."""
    payload = {
        "primes": list(plan.primes),
        "m": plan.m,
        "rule": plan.rule,
        "scales": list(plan.scales),
        "seeds": None,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def plan_from_json(text):
    payload = json.loads(text)
    rule = payload["rule"]
    if rule == "explicit":
        plan = make_plan(payload["primes"], m=payload["m"], scales=payload["scales"])
    else:
        plan = make_plan(payload["primes"], rule=rule, m=payload["m"])
        if list(plan.scales) != list(payload["scales"]):
            raise ValueError("stored scales disagree with the stored rule")
    return plan
