import numpy as np
import pytest

from flatpoly import mahler
from flatpoly.poly import _grid_blocks
from flatpoly.singer import construct_singer


@pytest.fixture(scope="session")
def singer_cache():
    """Memoized canonical Singer sets keyed by (p, m)."""
    cache = {}

    def get(p, m=1):
        if (p, m) not in cache:
            cache[(p, m)] = construct_singer(p, m)
        return cache[(p, m)]

    return get


@pytest.fixture(scope="session")
def abs_grid():
    """|P| on the N-point grid as one array, written from poly._grid_blocks' computed rows
    and their mirror partners: the streamed kernel materialized, for comparison with
    np.abs(eval_support_grid(...)) and with the stream itself.  8 bytes per point plus the
    kernel's blocks, and the kernel's budget check comes before the array."""

    def materialize(exponents, coeffs, N, offset=0.0):
        blocks = _grid_blocks(exponents, coeffs, N, offset)
        sigma = int(2 * offset)
        out = np.empty(N)
        for a0, rows, weight in blocks:
            grid = out.reshape(rows.shape[1], -1)  # grid[b, a] is grid index L*b + a
            grid[:, a0:a0 + len(rows)] = rows.T
            paired = weight == 2
            grid[:, grid.shape[1] - sigma - a0 - np.flatnonzero(paired)] = rows[paired, ::-1].T
        return out

    return materialize


@pytest.fixture(scope="session")
def assert_roots_match_np_roots():
    """Check mahler._aberth_roots against np.roots, the companion-matrix eigensolve.

    The oracle's own error is its Newton inclusion radius n |P(x)| / |P'(x)| (a disk
    that holds at least one root), with |P(x)| raised by the rounding bound of the dense
    evaluation.  Every oracle root must lie within that error of a certified disk, and
    the isolated certified roots must pair off with distinct oracle roots.
    """

    def check(P):
        exps, coeffs = mahler._nonzero_terms(P)
        exps = exps - exps[0]
        n = int(exps[-1])
        roots = mahler._aberth_roots(exps, coeffs)
        dense = np.zeros(n + 1, dtype=complex)
        dense[exps] = coeffs
        x = np.roots(dense[::-1])
        rounding = 4 * (n + 1) * np.finfo(float).eps * (np.abs(x)[:, None] ** exps @ np.abs(coeffs))
        value, slope = np.polyval(dense[::-1], x), np.polyval(np.polyder(dense[::-1]), x)
        error = n * (np.abs(value) + rounding) / np.abs(slope)
        dist = np.abs(x[:, None] - roots.z)
        assert np.all(np.any(dist <= roots.radius + error[:, None], axis=1))
        isolated = np.bincount(roots.component, minlength=n)[roots.component] == 1
        nearest = dist.argmin(axis=0)[isolated]
        assert np.unique(nearest).size == nearest.size
        assert np.all(dist[nearest, isolated] <= roots.radius[isolated] + error[nearest])
        return roots

    return check
