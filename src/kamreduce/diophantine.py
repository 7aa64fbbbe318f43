"""Nonresonance certificates over a finite mode horizon and frequency sampling.

Two conditions are certified for a frequency omega in [0,1]^n:

* first-order:   |omega . k| >= gamma / |k|_1^tau          for 0 < |k|_1 <= Kmax
* second-order:  |lam_i - lam_j + omega . k|
                     >= gamma |i^d - j^d| / (1 + |k|_1^tau)  for i != j <= Nmax,
                                                              |k|_1 <= Kmax

Each condition has one kernel, shared by the certificate of one frequency
and by batches of sampled frequencies (sample_admissible, optimize_frequency,
rejection_table).  The first-order one forms every |omega . k| |k|_1^tau
from one product omegas @ ks.T.  The second-order one is a window: a margin
below a ceiling needs |gap + omega . k| < ceiling max|i^d - j^d| / w(k), so
for each k only the pairs whose -gap lies that close to omega . k are
evaluated.  Margins below the ceiling are exact; the rest are only known to
be at least the ceiling.  Samplers take gamma as the ceiling.  check_dio2
takes the smallest k = 0 margin, which is itself evaluated, so its
min_margin is the exact minimum over all (i, j, k) and a caller can read off
the largest gamma the frequency would still pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import KamError, ZeroAcceptanceError
from .torus import DiagonalPart, k_box

__all__ = [
    "Frequency",
    "ResonanceSet",
    "Dio1Certificate",
    "Dio2Certificate",
    "default_tau",
    "check_dio1",
    "check_dio2",
    "certify",
    "sample_admissible",
    "optimize_frequency",
    "rejection_table",
    "resonance_measure_bound",
    "resonance_measure_estimate",
]


# (sample, k) entries per block of the sampled margins.  At n = 3 the whole
# batch, 2000 samples against about 11000 k, made frequencies peak at 368 MB
_MARGIN_BLOCK = 2**18


def default_tau(n: int, d: float) -> float:
    """Smallest-plus-one admissible exponent: n + 2/(d-1) + 1."""
    return n + 2.0 / (d - 1.0) + 1.0


def half_k_lattice(n: int, Kmax: int) -> np.ndarray:
    """Nonzero k with |k|_1 <= Kmax, one of each +-k pair (first nonzero > 0)."""
    ks = full_k_lattice(n, Kmax)
    lead = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    return ks[lead > 0]


def full_k_lattice(n: int, Kmax: int) -> np.ndarray:
    """k with |k|_1 <= Kmax in lexicographic order."""
    ks = k_box(n, Kmax)
    return ks[np.sum(np.abs(ks), axis=1) <= Kmax].astype(float)


@dataclass(frozen=True)
class Dio1Certificate:
    passed: bool
    gamma: float
    tau: float
    K_max: int
    min_margin: float          # min over k of |omega.k| |k|_1^tau
    violating_k: tuple | None = None


@dataclass(frozen=True)
class Dio2Certificate:
    passed: bool
    gamma: float
    tau: float
    K_max: int
    N_max: int
    # exact min over (i,j,k), k = 0 included, of |gap + omega.k| (1+|k|^tau)/|i^d-j^d|
    min_margin: float
    violating_triple: tuple | None = None
    pruned_fraction: float = 0.0     # share of (pair, k) combinations the window never evaluates
    tail_safe_gap: float = math.inf  # pairs with |i^d - j^d| above this pass for any |k|_1 <= K_max


@dataclass(frozen=True)
class Frequency:
    """A frequency with its two nonresonance certificates."""

    omega: np.ndarray
    dio1: Dio1Certificate
    dio2: Dio2Certificate

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float).copy()
        w.flags.writeable = False
        object.__setattr__(self, "omega", w)


@dataclass(frozen=True)
class ResonanceSet:
    """Slab {omega : |gap - omega . k| <= alpha} for one near-resonant triple.

    gap is lambda_i - lambda_j, either a constant or a callable of omega
    (Lipschitz families).
    """

    i: int
    j: int
    k: tuple
    alpha: float
    gap: object  # float or callable omega -> float


# ---------------------------------------------------------------------------
# vectorized kernels (shared by the certificate and the sampling paths)


def _dio1_values(omegas: np.ndarray, ks: np.ndarray, tau: float) -> np.ndarray:
    """|omega.k| |k|_1^tau per sample and k; omegas (S, n), ks (m, n)."""
    k1 = np.sum(np.abs(ks), axis=1)
    return np.abs(omegas @ ks.T) * k1[None, :] ** tau


def _pair_table(base: DiagonalPart, Nmax: int):
    """Pairs i < j among the first Nmax modes: (i, j, lam_j - lam_i, |j^d - i^d|)."""
    N = min(Nmax, base.N)
    # scalar pow: numpy's vectorised power can round differently
    powers = np.array([float(m) ** base.d for m in range(1, N + 1)])
    i, j = np.triu_indices(N, 1)
    return i, j, base.lam[j] - base.lam[i], np.abs(powers[j] - powers[i])


def _dio2_value(gap, x, weight, scale):
    """The second-order margin |gap + omega.k| w(k) / |i^d - j^d|, formed one way everywhere."""
    return np.abs(gap + x) * (weight / scale)


def _dio2_window(omegas: np.ndarray, gaps: np.ndarray, scale: np.ndarray,
                 ks: np.ndarray, tau: float, ceiling: float):
    """Every (sample, pair, k) margin that can fall below ceiling, one |k|_1 shell at a time.

    Yields (sample, pair, column of ks, margin) arrays.  A margin at or below
    the ceiling needs |gap_p + omega.k| <= R_k = ceiling max(scale)/w(k), so
    for every (sample, k) only the pairs whose -gap lies in
    [omega.k - R_k, omega.k + R_k] are evaluated, found by bisection in the
    sorted -gaps.  R_k carries a relative safety factor that covers the
    roundoff of the margin, and rounding the window ends is monotone, so no
    such margin is lost at the boundary; every margin left out is above the
    ceiling.  Columns of one shell share w and are searched together, so
    memory is one shell's candidates, not samples x pairs x modes.
    """
    if len(gaps) == 0:
        return
    k1 = np.sum(np.abs(ks), axis=1)
    weight = 1.0 + k1**tau
    # one product for all columns: BLAS may round a column subset's product differently
    proj = omegas @ ks.T
    order = np.argsort(-gaps, kind="stable")
    neg = -gaps[order]
    reach = ceiling * float(np.max(scale)) * (1.0 + 1e-9)
    for shell in np.unique(k1):
        cols = np.nonzero(k1 == shell)[0]
        x = proj[:, cols].ravel()                    # entry e = sample * len(cols) + column
        r = reach / float(np.min(weight[cols]))
        # one bisection per entry finds its nearest gap; only entries with a
        # gap within a slightly widened reach get the exact two-sided search
        near = np.searchsorted(neg, x)
        dist = neg.take(np.minimum(near, len(neg) - 1))
        dist -= x
        np.abs(dist, out=dist)
        near -= 1
        below = neg.take(np.maximum(near, 0, out=near))
        del near
        below -= x
        np.minimum(dist, np.abs(below, out=below), out=dist)
        del below
        widened = r * (1.0 + 1e-9) + 1e-12 * max(float(np.max(x)), -float(np.min(x)))
        ent = np.flatnonzero(dist <= widened)
        del dist
        if not len(ent):
            continue
        lo = np.searchsorted(neg, x[ent] - r, side="left")
        count = np.searchsorted(neg, x[ent] + r, side="right") - lo
        lo, ent = np.repeat(lo, count), np.repeat(ent, count)   # one per candidate
        rank = np.arange(len(ent)) - np.repeat(np.cumsum(count) - count, count)  # place in window
        p = order[lo + rank]
        sample, j = np.divmod(ent, len(cols))
        col = cols[j]
        yield sample, p, col, _dio2_value(gaps[p], x[ent], weight[col], scale[p])


def check_dio1(omega, gamma: float, tau: float, Kmax: int) -> Dio1Certificate:
    """Certify |omega . k| >= gamma / |k|_1^tau for all 0 < |k|_1 <= Kmax."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if Kmax < 1:
        raise KamError("Kmax must be >= 1")
    if gamma < 0:
        raise KamError("gamma must be nonnegative")
    ks = half_k_lattice(len(omega), Kmax)
    vals = _dio1_values(omega[None, :], ks, tau)[0]
    worst = int(np.argmin(vals))
    margin = float(vals[worst])
    passed = margin >= gamma or gamma == 0.0
    return Dio1Certificate(
        passed=passed,
        gamma=gamma,
        tau=tau,
        K_max=Kmax,
        min_margin=margin,
        violating_k=None if passed else tuple(int(x) for x in ks[worst]),
    )


def check_dio2(
    omega,
    base: DiagonalPart,
    gamma: float,
    tau: float,
    Kmax: int,
    Nmax: int | None = None,
) -> Dio2Certificate:
    """Certify the lambda-gap condition over pairs i<j<=Nmax and |k|_1 <= Kmax.

    min_margin is the exact minimum over all (i, j, k), k = 0 included, and
    violating_triple its minimizer (the lowest pair, then the lowest k, on
    ties).  With no pair the margin is inf and the check passes.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    Nmax = base.N if Nmax is None else min(Nmax, base.N)
    ii, jj, gaps, scale = _pair_table(base, Nmax)
    ks = full_k_lattice(len(omega), Kmax)
    # the k = 0 margins are evaluated too, so their minimum is a ceiling at
    # or above the true minimum, and the window below it holds the minimizer
    ceiling = float(np.min(_dio2_value(gaps, 0.0, 1.0 + 0.0**tau, scale), initial=np.inf))
    found = list(_dio2_window(omega[None, :], gaps, scale, ks, tau, ceiling))
    margin, evaluated = math.inf, 0
    if found:
        _, p, col, vals = map(np.concatenate, zip(*found))
        best = np.lexsort((col, p, vals))[0]
        margin, evaluated = float(vals[best]), len(vals)
    passed = margin >= gamma or gamma == 0.0
    viol = None
    if not passed:
        viol = (int(ii[p[best]]) + 1, int(jj[p[best]]) + 1, tuple(int(x) for x in ks[col[best]]))
    # pairs beyond Nmax are safe once c_lam * g - sup|omega| Kmax >= gamma * g
    denom = base.c_lambda() - gamma
    tail = (float(np.max(np.abs(omega))) * Kmax / denom) if denom > 0 else math.inf
    total = len(gaps) * len(ks)
    return Dio2Certificate(
        passed=passed,
        gamma=gamma,
        tau=tau,
        K_max=Kmax,
        N_max=Nmax,
        min_margin=margin,
        violating_triple=viol,
        pruned_fraction=(total - evaluated) / max(total, 1),
        tail_safe_gap=tail,
    )


def certify(omega, base: DiagonalPart, gamma: float, tau: float, Kmax: int,
            Nmax: int) -> Frequency:
    """omega with both certificates over |k|_1 <= Kmax and pairs i < j <= Nmax."""
    return Frequency(omega=omega,
                     dio1=check_dio1(omega, gamma, tau, Kmax),
                     dio2=check_dio2(omega, base, gamma, tau, Kmax, Nmax))


def _sampled_margins(n: int, base: DiagonalPart, ceiling: float, tau: float,
                     Kmax: int, Nmax: int, num_samples: int, seed: int):
    """Seeded uniform omegas (S, n) in [0,1]^n with the smaller of their two margins.

    The second-order part comes from the window, so a margin is exact below
    the ceiling and only known to be at least the ceiling elsewhere.  The
    whole batch is drawn from one seeded generator, so results are
    reproducible.  The margins are formed for blocks of samples of at most
    _MARGIN_BLOCK (sample, k) entries; a block of rows of omegas @ ks.T
    rounds as the whole product does, so the margins do not depend on it.
    """
    if num_samples < 1:
        raise KamError("num_samples must be positive")
    omegas = np.random.default_rng(seed).random((num_samples, n))
    half, full = half_k_lattice(n, Kmax), full_k_lattice(n, Kmax)
    _, _, gaps, scale = _pair_table(base, Nmax)
    margin = np.empty(num_samples)
    rows = max(1, _MARGIN_BLOCK // len(full))
    for start in range(0, num_samples, rows):
        part = omegas[start:start + rows]
        low = np.min(_dio1_values(part, half, tau), axis=1)
        for sample, _, _, vals in _dio2_window(part, gaps, scale, full, tau, ceiling):
            np.minimum.at(low, sample, vals)
        margin[start:start + rows] = low
    return omegas, margin


def sample_admissible(
    n: int,
    base: DiagonalPart,
    gamma: float,
    tau: float,
    Kmax: int,
    Nmax: int,
    num_samples: int,
    seed: int,
    keep: int | None = None,
):
    """Uniform omega in [0,1]^n filtered by both nonresonance conditions.

    Returns (the first `keep` accepted frequencies with certificates,
    rejection_fraction).
    """
    omegas, margin = _sampled_margins(n, base, gamma, tau, Kmax, Nmax, num_samples, seed)
    ok = np.nonzero(margin >= gamma)[0]
    if len(ok) == 0:
        raise ZeroAcceptanceError(
            f"no admissible frequency among {num_samples} samples at gamma={gamma}"
        )
    accepted = [certify(omegas[i], base, gamma, tau, Kmax, Nmax) for i in ok[:keep]]
    return accepted, 1.0 - len(ok) / num_samples


def rejection_table(
    n: int,
    base: DiagonalPart,
    gamma_grid,
    tau: float,
    Kmax: int,
    Nmax: int,
    num_samples: int,
    seed: int,
):
    """Monte-Carlo rejection fraction for each gamma in the grid.

    The margins min_k |omega.k| |k|^tau and min_{ijk} |gap + omega.k| w(k)
    do not depend on gamma, so they are computed once per sample and merely
    thresholded per grid point.  This also makes the returned fractions
    monotone in gamma by construction (pointwise: a sample rejected at some
    gamma stays rejected at every larger gamma).

    Returns a list of (gamma, rejection_fraction) pairs in grid order.
    """
    grid = [float(g) for g in gamma_grid]
    if not grid:
        raise KamError("gamma grid must not be empty")
    if any(g <= 0 for g in grid):
        raise KamError("gamma values must be positive")
    # margins at or above max(grid) cannot flip the verdict at any grid gamma
    _, margin = _sampled_margins(n, base, max(grid), tau, Kmax, Nmax, num_samples, seed)
    return [(g, float(np.mean(margin < g))) for g in grid]


def _raw_divisor_margins(proj: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """min of |omega.k| and of |gap +- omega.k| over all gaps, per row of proj (S, m).

    |gap + x| for x = +-proj is the distance from x to -gap, so only the two
    sorted neighbours of x can be nearest; rounding is monotone in that
    distance, so the result is the dense minimum bit for bit.
    """
    neg = np.append(np.sort(-gaps), np.inf)       # neg[-1] is also the left sentinel
    x = np.concatenate([proj, -proj], axis=1)
    hi = np.searchsorted(neg, x)
    near = np.minimum(np.abs(x - neg[hi - 1]), np.abs(x - neg[hi]))
    return np.minimum(np.min(np.abs(proj), axis=1), np.min(near, axis=1))


def optimize_frequency(
    n: int,
    base: DiagonalPart,
    gamma: float,
    tau: float,
    Kmax: int,
    Nmax: int,
    num_candidates: int,
    seed: int,
    robust_K: int | None = None,
):
    """Pick the certified frequency with the largest worst-case raw divisor.

    The tau-weighted certificates only guarantee divisors down to
    gamma/(1+K^tau), which is far below roundoff at large K; what controls
    the size of a computed generator is the raw minimum of |gap_ij + omega.k|
    (and |omega.k| for primitives) over the low modes that actually carry
    coefficient mass.  This samples uniformly, keeps the admissible ones, and
    returns (Frequency, info) for the candidate maximizing that minimum over
    |k|_1 <= robust_K (default Kmax // 4).

    Intended for constructing reference scenarios; the certificate embedded in
    the result is identical to what check_dio1/check_dio2 produce.
    """
    if robust_K is None:
        robust_K = max(1, Kmax // 4)
    omegas, margin = _sampled_margins(n, base, gamma, tau, Kmax, Nmax, num_candidates, seed)
    cand = omegas[margin >= gamma]
    if len(cand) == 0:
        raise ZeroAcceptanceError(
            f"no admissible frequency among {num_candidates} samples at gamma={gamma}"
        )
    gaps = _pair_table(base, Nmax)[2]
    metric = _raw_divisor_margins(cand @ half_k_lattice(n, robust_K).T, gaps)
    best = int(np.argmax(metric))
    info = {
        "min_raw_divisor": float(metric[best]),
        "robust_K": int(robust_K),
        "admissible": len(cand),
        "candidates": int(num_candidates),
    }
    return certify(cand[best], base, gamma, tau, Kmax, Nmax), info


def resonance_measure_bound(rs: ResonanceSet) -> float:
    """Upper bound 4 alpha / |k|_1 for the slab's measure inside [0,1]^n."""
    k1 = float(np.sum(np.abs(rs.k)))
    if k1 == 0:
        raise KamError("measure bound requires k != 0")
    return 4.0 * rs.alpha / k1


def resonance_measure_estimate(rs: ResonanceSet, num_samples: int, seed: int) -> float:
    """Monte Carlo estimate of the slab measure inside [0,1]^n."""
    n = len(rs.k)
    rng = np.random.default_rng(seed)
    omegas = rng.random((num_samples, n))
    kvec = np.asarray(rs.k, dtype=float)
    if callable(rs.gap):
        gapv = np.array([rs.gap(w) for w in omegas])
    else:
        gapv = float(rs.gap)
    inside = np.abs(gapv - omegas @ kvec) <= rs.alpha
    return float(np.mean(inside))
