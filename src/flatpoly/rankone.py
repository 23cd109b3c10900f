"""Rank-one cutting-and-stacking parameters, exact towers, correlations.

Stage j of a plan cuts the previous tower (height h_{j-1}) into
r_j = p_j^m + 1 columns and inserts spacers so that column i starts at
level max-frequency offset s_i * N_j; concretely

    a_{i,j} = (s_i - s_{i-1}) * N_j - h_{j-1},   i = 1 .. r_j - 1,

with no spacer above the last column.  Two height recursions then hold
exactly and must agree:

    h_j = max(S_j) * N_j + h_{j-1}        (frequency form)
    h_j = r_j * h_{j-1} + sum_i a_{i,j}   (stacking form)

Everything measurable about a finite tower is exact rational
arithmetic: level widths are 1 / prod r_j, so empirical correlations,
growth terms, and offset histograms are Fractions with zero tolerance.
The only inexactness is truncation at the tower top, which the
correlation check bounds by n / h_K.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BudgetError
from .riesz import _ordered_sums

__all__ = [
    "StageParams",
    "RankOneParams",
    "FlowParams",
    "GrowthReport",
    "Tower",
    "CorrelationCheck",
    "derive_map_params",
    "derive_flow_params",
    "measure_growth",
    "build_tower",
    "base_occurrences",
    "correlation",
]

TOWER_BUDGET = 10**7
OCCURRENCE_BUDGET = 10**6


@dataclass(frozen=True)
class StageParams:
    cutting: int   # r_j = p_j^m + 1
    spacers: tuple  # a_{1,j} .. a_{r_j,j}, top spacer 0
    height: int    # h_j
    scale: int     # N_j


@dataclass(frozen=True)
class RankOneParams:
    base_height: int
    stages: tuple

    @property
    def heights(self):
        return tuple(st.height for st in self.stages)

    def column_offsets(self, j):
        """Start levels of the stage-j columns; equal to N_j * S_j."""
        st = self.stages[j]
        prev = self.stages[j - 1].height if j > 0 else self.base_height
        return tuple(itertools.accumulate((prev + a for a in st.spacers[:-1]), initial=0))


@dataclass(frozen=True)
class FlowParams:
    """Real-height analogue: every height, spacer, and scale times tau."""

    tau: Fraction
    base_height: Fraction
    stages: tuple

    @property
    def heights(self):
        return tuple(st.height for st in self.stages)


def derive_map_params(plan):
    """Cutting and spacer parameters realizing the plan's frequencies and its heights h_j."""
    h = plan.base_height
    stages = []
    for st in plan.stages:
        s = st.singer.residues
        spacers = tuple((b - a) * st.scale - h for a, b in zip(s, s[1:])) + (0,)
        if min(spacers) < 0:
            raise ValueError(
                f"negative spacer at stage p={st.prime}: scale {st.scale} "
                f"is below the previous height {h}"
            )
        assert len(s) * h + sum(spacers) == st.height  # stacking form, by telescoping
        stages.append(StageParams(cutting=len(s), spacers=spacers, height=st.height,
                                  scale=st.scale))
        h = st.height
    return RankOneParams(base_height=plan.base_height, stages=tuple(stages))


def derive_flow_params(plan, tau):
    """Flow construction parameters: the integer solution scaled by tau > 0."""
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    base = derive_map_params(plan)
    stages = tuple(
        StageParams(
            cutting=st.cutting,
            spacers=tuple(tau * a for a in st.spacers),
            height=tau * st.height,
            scale=tau * st.scale,
        )
        for st in base.stages
    )
    return FlowParams(tau=tau, base_height=tau, stages=stages)


@dataclass(frozen=True)
class GrowthReport:
    """Stage terms sum(a_{i,j}) / (r_j h_{j-1}) of the measure series.

    finite_measure is a desk-scale observation (last term zero, or terms
    not nondecreasing over the computed stages); the true criterion is
    about the infinite series and is not decidable from finitely many
    stages.
    """

    terms: tuple
    partial_sums: tuple
    terms_nondecreasing: bool
    finite_measure: bool


def measure_growth(params):
    if not params.stages:
        raise ValueError("need at least one stage")
    prevs = (params.base_height,) + params.heights[:-1]
    terms = [sum(st.spacers, Fraction(0)) / (st.cutting * h) for st, h in zip(params.stages, prevs)]
    nondecreasing = all(terms[i + 1] >= terms[i] for i in range(len(terms) - 1))
    finite = terms[-1] == 0 or not nondecreasing
    return GrowthReport(terms=tuple(terms), partial_sums=tuple(itertools.accumulate(terms)),
                        terms_nondecreasing=nondecreasing, finite_measure=finite)


@dataclass(frozen=True, eq=False)
class Tower:
    """Exact stage-K tower: h_K levels of equal width 1 / prod r_j.

    origins[level] is the stage at which the level's interval appeared:
    0 for descendants of the original base, j >= 1 for spacers added at
    stage j.  The map sends level i to level i + 1 for i < h_K - 1 and
    is undefined at the top.
    """

    stage: int
    level_count: int
    width: Fraction
    total_measure: Fraction
    origins: np.ndarray = field(repr=False)

    def spacer_measure(self, j):
        """Total measure of the spacer levels added at stage j."""
        return int(np.count_nonzero(self.origins == j)) * self.width


def _check_tower_budget(height):
    if height > TOWER_BUDGET:
        raise BudgetError(f"height {height} exceeds the tower budget {TOWER_BUDGET}")


def _cut_and_stack(levels, spacers, fill):
    """One stage of cutting and stacking: a copy of the column `levels` under each spacer,
    spacer i being spacers[i] new levels valued `fill`."""
    parts = []
    for a in spacers:
        parts.append(levels)
        parts.append(np.full(a, fill, dtype=levels.dtype))
    return np.concatenate(parts)


def build_tower(params, K):
    """Materialize the stage-K tower with per-level origin bookkeeping."""
    if not 0 <= K <= len(params.stages):
        raise ValueError(f"K must lie in [0, {len(params.stages)}]")
    if K:
        _check_tower_budget(params.stages[K - 1].height)
    origins = np.zeros(params.base_height, dtype=np.int16)
    width = Fraction(1)
    spacer_mass = Fraction(0)
    for j in range(1, K + 1):
        st = params.stages[j - 1]
        width /= st.cutting
        origins = _cut_and_stack(origins, st.spacers, j)
        spacer_mass += sum(st.spacers) * width
    tower = Tower(stage=K, level_count=len(origins), width=width,
                  total_measure=len(origins) * width, origins=origins)
    assert tower.total_measure == 1 + spacer_mass
    return tower


def base_occurrences(params, k, K):
    """Offsets of stage-k base copies in the stage-K tower: the sumset
    of the column-offset sets of stages k+1 .. K."""
    if not 0 <= k < K <= len(params.stages):
        raise ValueError(f"need 0 <= k < K <= {len(params.stages)}")
    count = math.prod(st.cutting for st in params.stages[k:K])
    if count > OCCURRENCE_BUDGET:
        raise BudgetError(f"{count} occurrences exceed the budget {OCCURRENCE_BUDGET}")
    cols = [params.column_offsets(j) for j in range(k, K)]
    offsets, increasing = _ordered_sums(cols, params.stages[K - 1].height)
    return tuple((offsets if increasing else np.sort(offsets)).tolist())


@functools.lru_cache(maxsize=1)
def _tower_replay(params, k, K):
    """(offsets, positions): the sorted base_occurrences, and the sorted levels of the
    stage-K tower that are stage-k base copies, both read-only.

    The positions come from replaying the cut-and-stack recursion (not the sumset), so
    they are an independent route to the same set of levels.  Cached, positions rather
    than the h_K-long mask, so a sweep over n for one (k, K) replays the tower once.
    """
    _check_tower_budget(params.stages[K - 1].height)
    h_k = params.stages[k - 1].height if k > 0 else params.base_height
    mask = np.zeros(h_k, dtype=bool)
    mask[0] = True
    for st in params.stages[k:K]:
        mask = _cut_and_stack(mask, st.spacers, False)
    positions = np.flatnonzero(mask)
    offsets = np.array(base_occurrences(params, k, K))
    positions.flags.writeable = offsets.flags.writeable = False
    return offsets, positions


def _shift_pairs(values, n):
    """How many v in the sorted array values have v + n in it as well."""
    shifted = values + n
    at = np.minimum(np.searchsorted(values, shifted), values.size - 1)
    return int(np.count_nonzero(values[at] == shifted))


@dataclass(frozen=True)
class CorrelationCheck:
    """Return-time mass of the stage-k base under n steps of the level shift.

    predicted is the offset-pair count over prod r_j, i.e. the exact
    n-th coefficient of the matching Riesz partial product; empirical
    replays the tower.  Mass pushed past the tower top is excluded and
    bounded by tolerance = n / h_K.
    """

    n: int
    empirical: Fraction
    predicted: Fraction
    tolerance: Fraction
    excluded_mass: Fraction


def correlation(params, k, K, n):
    if not 0 <= k < K <= len(params.stages):
        raise ValueError(f"need 0 <= k < K <= {len(params.stages)}")
    h_K = params.stages[K - 1].height
    if not 0 <= n < h_K:
        raise ValueError(f"n must lie in [0, {h_K})")
    offsets, positions = _tower_replay(params, k, K)
    copies = offsets.size  # prod r_j over stages k+1 .. K
    hits, pairs = _shift_pairs(positions, n), _shift_pairs(offsets, n)
    excluded = positions.size - int(np.searchsorted(positions, h_K - n))  # pushed past the top
    return CorrelationCheck(n=n, empirical=Fraction(hits, copies),
                            predicted=Fraction(pairs, copies), tolerance=Fraction(n, h_K),
                            excluded_mass=Fraction(excluded, copies))
