"""Benchmark model builders: polynomial-growth base plus random perturbations.

The abstract model takes lambda_i = i^d and a random hermitian perturbation
whose (i, j) entry has envelope (i^delta + j^delta)/2 / (1 + (i-j)^2) and
whose Fourier modes decay like e^{-decay |k|_1}; the result is rescaled so
the weighted norm at the requested strip width equals epsilon exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import KamError
from .torus import DiagonalPart, OperatorSeries, _mirror, delta_norm, strip_weight

__all__ = ["abstract_base", "random_perturbation", "build_abstract_model"]


def abstract_base(N: int, n: int, d: float, delta: float) -> DiagonalPart:
    """Constant diagonal lambda_i = i^d, i = 1..N."""
    lam = np.arange(1, N + 1, dtype=float) ** d
    return DiagonalPart(lam=lam, d=d, delta=delta, n=n)


def random_perturbation(
    N: int,
    n: int,
    K: int,
    rng: np.random.Generator,
    delta: float = 0.0,
    decay: float = 0.5,
) -> OperatorSeries:
    """Random hermitian operator series in the (delta, d) growth class.

    Entries are complex gaussians shaped by the envelope
    (i^delta + j^delta)/2 / (1 + (i-j)^2) and mode weight e^{-decay |k|_1}.
    """
    shape = (2 * K + 1,) * n + (N, N)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    idx = np.arange(1, N + 1, dtype=float)
    env = (idx[:, None] ** delta + idx[None, :] ** delta) / 2.0
    env = env / (1.0 + (idx[:, None] - idx[None, :]) ** 2)
    c *= env
    c *= strip_weight(n, K, -decay)[..., None, None]
    c = 0.5 * (c + _mirror(c, n))
    return OperatorSeries(n, K, N, c)


def build_abstract_model(
    N: int,
    n: int,
    d: float,
    delta: float,
    K: int,
    epsilon: float,
    s: float,
    seed: int,
    decay: float = 0.5,
):
    """(base, P0) with lambda_i = i^d and ||P0||_{delta,s} = epsilon exactly."""
    if epsilon < 0:
        raise KamError("epsilon must be nonnegative")
    base = abstract_base(N, n, d, delta)
    if epsilon == 0.0:
        return base, OperatorSeries.zero(n, K, N)
    rng = np.random.default_rng(seed)
    P = random_perturbation(N, n, K, rng, delta=delta, decay=decay)
    norm = delta_norm(P, base, s)
    if norm == 0.0:
        raise KamError("degenerate random draw with zero norm")
    return base, P * (epsilon / norm)
