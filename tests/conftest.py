"""Helpers shared by the test modules: a traced-memory probe, a commutator oracle, a triangle,
one entry's scalar series, and the dense N x N assembly of a pair or triangle series."""

import tracemalloc

import numpy as np

from kamreduce.torus import (
    HermitianSeries,
    OperatorSeries,
    TorusSeries,
    _mirror,
    grid_to_coeffs,
    next_fast_len,
)


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traces during the call, above what was traced at entry)."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    return result, peak


def offdiagonal(P: OperatorSeries) -> OperatorSeries:
    """P with its diagonal zeroed."""
    c = P.coeffs.copy()
    idx = np.arange(P.N)
    c[..., idx, idx] = 0.0
    return OperatorSeries(P.n, P.K, P.N, c)


def entry(S: OperatorSeries, i: int, j: int) -> TorusSeries:
    """The scalar series of S's entry (i, j)."""
    return TorusSeries(S.n, S.K, S.coeffs[..., i, j])


def triangle(S: OperatorSeries) -> np.ndarray:
    """S's entries (j, i), i <= j, column by column (np.triu_indices order), as a level is held."""
    ii, jj = np.triu_indices(S.N)
    return S.coeffs[..., jj, ii]


def dense(S) -> OperatorSeries:
    """The N x N series of a PairSeries or a HermitianSeries, assembled from its held entries.

    The oracle of both layouts' mirrors: the held entries (j, i) are placed
    as they are, i < j for pairs and i <= j for a triangle, and each (i, j),
    i < j, is -conj(c_ji(-k)) for pairs, anti-hermitian, and conj(c_ji(-k))
    for a triangle, hermitian.  A pair series' diagonal is zero; a
    triangle's is its own, defect and all.
    """
    n, N = S.n, S.N
    hermitian = isinstance(S, HermitianSeries)
    ii, jj = np.triu_indices(N, 0 if hermitian else 1)
    c = np.zeros(S.coeffs.shape[:n] + (N, N), dtype=complex)
    c[..., ii, jj] = _mirror(S.coeffs, n) * (1 if hermitian else -1)
    c[..., jj, ii] = S.coeffs
    return OperatorSeries(n, S.K, N, c)


def commutator_oracle(X, Y) -> OperatorSeries:
    """X Y - Y X at band X.K + Y.K, one N x N product per point of an alias-free grid.

    X and Y are any series whose grid(M) gives N x N values (OperatorSeries,
    PairSeries); nothing of the library's commutator is used.
    """
    K = X.K + Y.K
    M = next_fast_len(2 * K + 2)
    x, y = X.grid(M), Y.grid(M)
    values = np.empty_like(x)
    for point in np.ndindex(x.shape[:-2]):
        values[point] = x[point] @ y[point] - y[point] @ x[point]
    return OperatorSeries(X.n, K, X.N, grid_to_coeffs(values, X.n, K))
