"""Nonresonance certificates over a finite mode horizon and frequency sampling.

Two conditions are certified for a frequency omega in [0,1]^n:

* first-order:   |omega . k| >= gamma / |k|_1^tau          for 0 < |k|_1 <= Kmax
* second-order:  |lam_i - lam_j + omega . k|
                     >= gamma |i^d - j^d| / (1 + |k|_1^tau)  for i != j <= Nmax,
                                                              |k|_1 <= Kmax

For one frequency, check_dio2 evaluates the second condition densely with a
gap-domination prune: triples whose lambda-gap dwarfs the reachable |omega . k|
cannot violate the bound and are skipped (and the same criterion certifies all
pairs beyond any finite Nmax once the gap clears a recorded threshold, since
the gaps grow like |i^d - j^d|).  Certificates record the exact minimizing
margin so a caller can read off the largest gamma the frequency would still
pass.

Batches of sampled frequencies (sample_admissible, optimize_frequency,
rejection_table) only compare the margin against a threshold gamma_max, so
they use a window instead: for each k, only the pairs whose -gap lies within
gamma_max max|i^d - j^d| / (1 + |k|_1^tau) of omega . k can fall below
gamma_max, and only those are evaluated.  Margins below gamma_max are exactly
the dense ones; the rest are only known to be >= gamma_max.
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
    "sample_admissible",
    "optimize_frequency",
    "rejection_table",
    "resonance_measure_bound",
    "resonance_measure_estimate",
]


def default_tau(n: int, d: float) -> float:
    """Smallest-plus-one admissible exponent: n + 2/(d-1) + 1."""
    return n + 2.0 / (d - 1.0) + 1.0


def half_k_lattice(n: int, Kmax: int) -> np.ndarray:
    """Nonzero k with |k|_1 <= Kmax, one of each +-k pair (first nonzero > 0)."""
    ks = full_k_lattice(n, Kmax, include_zero=False)
    lead = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)]
    return ks[lead > 0]


def full_k_lattice(n: int, Kmax: int, include_zero: bool = True) -> np.ndarray:
    """k with |k|_1 <= Kmax in lexicographic order."""
    ks = k_box(n, Kmax)
    l1 = np.sum(np.abs(ks), axis=1)
    keep = (l1 <= Kmax) & ((l1 > 0) | include_zero)
    return ks[keep].astype(float)


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
    min_margin: float          # min over (i,j,k) of |gap + omega.k| (1+|k|^tau)/|i^d-j^d|
    violating_triple: tuple | None = None
    pruned_fraction: float = 0.0
    tail_safe_gap: float = math.inf  # pairs with |i^d - j^d| above this pass for any |k|_1 <= K_max


@dataclass(frozen=True)
class Frequency:
    """A sampled frequency with its nonresonance certificates."""

    omega: np.ndarray
    gamma: float
    tau: float
    certified_K: int
    certified_N: int
    dio1: Dio1Certificate | None = None
    dio2: Dio2Certificate | None = None

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=float).copy()
        w.flags.writeable = False
        object.__setattr__(self, "omega", w)

    @property
    def n(self) -> int:
        return len(self.omega)


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


def _dio1_margins(omegas: np.ndarray, ks: np.ndarray, tau: float) -> np.ndarray:
    """min_k |omega.k| |k|_1^tau per sample; omegas (S, n), ks (m, n)."""
    k1 = np.sum(np.abs(ks), axis=1)
    vals = np.abs(omegas @ ks.T) * k1[None, :] ** tau
    return np.min(vals, axis=1)


def _pair_table(base: DiagonalPart, Nmax: int):
    N = min(Nmax, base.N)
    idx = np.arange(1, N + 1, dtype=float)
    pairs = [(i, j) for i in range(N) for j in range(N) if i < j]
    gaps = np.array([base.lam[j] - base.lam[i] for i, j in pairs])
    scale = np.array([abs(idx[j] ** base.d - idx[i] ** base.d) for i, j in pairs])
    return pairs, gaps, scale


def _dio2_margins(
    omegas: np.ndarray,
    gaps: np.ndarray,
    scale: np.ndarray,
    ks: np.ndarray,
    tau: float,
    c_lambda: float,
    gamma_for_prune: float | None = None,
    omega_sup: float = 1.0,
):
    """Per-sample min margin over (pair, k) plus argmin bookkeeping.

    Returns (margins (S,), argpair (S,), argk (S,), pruned_fraction).
    Pruned combinations are those certified safe by gap domination; they are
    assigned an infinite margin (they cannot be the minimizer for any gamma
    below the prune threshold).
    """
    k1 = np.sum(np.abs(ks), axis=1)
    weight = (1.0 + k1**tau)
    # one product for all columns: BLAS may round a column subset's product
    # differently, and _dio2_windowed_margins must reproduce these values
    proj = omegas @ ks.T
    S = omegas.shape[0]
    margins = np.full(S, np.inf)
    argpair = np.zeros(S, dtype=int)
    argk = np.zeros(S, dtype=int)
    total = len(gaps) * len(ks)
    pruned = 0
    for p in range(len(gaps)):
        safe = (omega_sup * k1 <= 0.5 * c_lambda * scale[p])
        if gamma_for_prune is not None:
            safe &= (gamma_for_prune / weight <= 0.5 * c_lambda)
        use = np.nonzero(~safe)[0]
        pruned += len(ks) - len(use)
        if len(use) == 0:
            continue
        vals = np.abs(gaps[p] + np.take(proj, use, axis=1)) * (weight[use] / scale[p])[None, :]
        sub = np.argmin(vals, axis=1)
        best = vals[np.arange(S), sub]
        better = best < margins
        margins[better] = best[better]
        argpair[better] = p
        argk[better] = use[sub[better]]
    return margins, argpair, argk, pruned / max(total, 1)


def _dio2_windowed_margins(
    omegas: np.ndarray,
    gaps: np.ndarray,
    scale: np.ndarray,
    ks: np.ndarray,
    tau: float,
    gamma_max: float,
) -> np.ndarray:
    """Per-sample min margin |gap + omega.k| w(k)/scale, exact below gamma_max.

    A margin below gamma_max needs |gap_p + omega.k| < gamma_max scale_p/w(k)
    <= R_k = gamma_max max(scale)/w(k), so for every (sample, k) only the pairs
    whose -gap lies in [omega.k - R_k, omega.k + R_k] are evaluated, found by
    bisection in the sorted -gaps.  The values are formed exactly as
    _dio2_margins forms them, so every margin below gamma_max equals the dense
    one bit for bit; any other entry is only known to be >= gamma_max (inf
    when no pair is in range).  R_k carries a relative safety factor that
    covers the roundoff of the margin, and rounding the window ends is
    monotone, so no candidate is lost at the boundary.  Columns of one |k|_1
    shell share w and are searched together, so memory is one shell's
    candidates, not samples x pairs x modes.
    """
    k1 = np.sum(np.abs(ks), axis=1)
    weight = 1.0 + k1**tau
    proj = omegas @ ks.T
    order = np.argsort(-gaps, kind="stable")
    neg = -gaps[order]
    margins = np.full(omegas.shape[0], np.inf)
    if len(gaps) == 0:
        return margins
    reach = gamma_max * float(np.max(scale)) * (1.0 + 1e-9)
    for shell in np.unique(k1):
        cols = np.nonzero(k1 == shell)[0]
        x = proj[:, cols].ravel()                    # entry e = sample * len(cols) + column
        r = reach / float(np.min(weight[cols]))
        lo = np.searchsorted(neg, x - r, side="left")
        count = np.searchsorted(neg, x + r, side="right") - lo
        ent = np.repeat(np.arange(len(x)), count)    # the entry of each candidate
        rank = np.arange(len(ent)) - (np.cumsum(count) - count)[ent]  # its place in the window
        p = order[lo[ent] + rank]
        sample, j = np.divmod(ent, len(cols))
        col = cols[j]
        vals = np.abs(gaps[p] + x[ent]) * (weight[col] / scale[p])
        np.minimum.at(margins, sample, vals)
    return margins


def check_dio1(omega, gamma: float, tau: float, Kmax: int) -> Dio1Certificate:
    """Certify |omega . k| >= gamma / |k|_1^tau for all 0 < |k|_1 <= Kmax."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if Kmax < 1:
        raise KamError("Kmax must be >= 1")
    if gamma < 0:
        raise KamError("gamma must be nonnegative")
    ks = half_k_lattice(len(omega), Kmax)
    vals = np.abs(ks @ omega) * np.sum(np.abs(ks), axis=1) ** tau
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
    """Certify the lambda-gap condition over pairs i<j<=Nmax and |k|_1 <= Kmax."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    Nmax = base.N if Nmax is None else min(Nmax, base.N)
    pairs, gaps, scale = _pair_table(base, Nmax)
    ks = full_k_lattice(len(omega), Kmax, include_zero=True)
    c_lam = base.c_lambda()
    wsup = float(np.max(np.abs(omega)))
    margins, argpair, argk, pruned = _dio2_margins(
        omega[None, :], gaps, scale, ks, tau, c_lam,
        gamma_for_prune=gamma, omega_sup=max(wsup, 1e-300),
    )
    margin = float(margins[0])
    passed = margin >= gamma or gamma == 0.0
    viol = None
    if not passed:
        i, j = pairs[int(argpair[0])]
        viol = (i + 1, j + 1, tuple(int(x) for x in ks[int(argk[0])]))
    # pairs beyond Nmax are safe once c_lam * g - sup|omega| Kmax >= gamma * g
    denom = c_lam - gamma
    tail = (wsup * Kmax / denom) if denom > 0 else math.inf
    return Dio2Certificate(
        passed=passed,
        gamma=gamma,
        tau=tau,
        K_max=Kmax,
        N_max=Nmax,
        min_margin=margin,
        violating_triple=viol,
        pruned_fraction=pruned,
        tail_safe_gap=tail,
    )


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

    Returns (accepted frequencies with certificates, rejection_fraction).
    The entire batch is drawn from one seeded generator, so results are
    reproducible and independent of chunking.
    """
    if num_samples < 1:
        raise KamError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    omegas = rng.random((num_samples, n))
    ks1 = half_k_lattice(n, Kmax)
    m1 = _dio1_margins(omegas, ks1, tau)
    _, gaps, scale = _pair_table(base, Nmax)
    ks2 = full_k_lattice(n, Kmax, include_zero=True)
    m2 = _dio2_windowed_margins(omegas, gaps, scale, ks2, tau, gamma)
    ok = (m1 >= gamma) & (m2 >= gamma)
    n_ok = int(np.sum(ok))
    rejection = 1.0 - n_ok / num_samples
    if n_ok == 0:
        raise ZeroAcceptanceError(
            f"no admissible frequency among {num_samples} samples at gamma={gamma}"
        )
    accepted = []
    limit = n_ok if keep is None else min(keep, n_ok)
    for idx in np.nonzero(ok)[0][:limit]:
        w = omegas[idx]
        accepted.append(
            Frequency(
                omega=w,
                gamma=gamma,
                tau=tau,
                certified_K=Kmax,
                certified_N=Nmax,
                dio1=check_dio1(w, gamma, tau, Kmax),
                dio2=check_dio2(w, base, gamma, tau, Kmax, Nmax),
            )
        )
    return accepted, rejection


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
    if num_samples < 1:
        raise KamError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    omegas = rng.random((num_samples, n))
    m1 = _dio1_margins(omegas, half_k_lattice(n, Kmax), tau)
    _, gaps, scale = _pair_table(base, Nmax)
    ks2 = full_k_lattice(n, Kmax, include_zero=True)
    # margins at or above max(grid) cannot flip the verdict at any grid gamma
    m2 = _dio2_windowed_margins(omegas, gaps, scale, ks2, tau, max(grid))
    margin = np.minimum(m1, m2)
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
    rng = np.random.default_rng(seed)
    omegas = rng.random((num_candidates, n))
    _, gaps, scale = _pair_table(base, Nmax)
    m1 = _dio1_margins(omegas, half_k_lattice(n, Kmax), tau)
    m2 = _dio2_windowed_margins(omegas, gaps, scale,
                                full_k_lattice(n, Kmax, include_zero=True), tau, gamma)
    ok = (m1 >= gamma) & (m2 >= gamma)
    if not np.any(ok):
        raise ZeroAcceptanceError(
            f"no admissible frequency among {num_candidates} samples at gamma={gamma}"
        )
    cand = omegas[ok]
    ks_r = half_k_lattice(n, robust_K)
    metric = _raw_divisor_margins(cand @ ks_r.T, gaps)
    best = int(np.argmax(metric))
    w = cand[best]
    freq = Frequency(
        omega=w,
        gamma=gamma,
        tau=tau,
        certified_K=Kmax,
        certified_N=Nmax,
        dio1=check_dio1(w, gamma, tau, Kmax),
        dio2=check_dio2(w, base, gamma, tau, Kmax, Nmax),
    )
    info = {
        "min_raw_divisor": float(metric[best]),
        "robust_K": int(robust_K),
        "admissible": int(np.sum(ok)),
        "candidates": int(num_candidates),
    }
    return freq, info


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
