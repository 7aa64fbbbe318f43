"""Truncated Fourier series on the n-torus and the norms used by the reduction.

Scalar series f(phi) = sum_{|k|_inf <= K} fhat_k e^{i k.phi} are stored as a
complex array of shape (2K+1,)*n with axis index t <-> k = t - K.  Matrix
valued series carry two trailing axes (N, N).  All transforms are plain FFTs
on equispaced grids; products are computed on grids large enough to be exact
for the sum of the input bandwidths and then truncated, with the discarded
mass tracked.

Norm conventions:

* ``sup_norm_s``: weighted-l1 coefficient bound  sum_k |fhat_k| e^{s|k|_1},
  an upper bound for the sup of |f| on the complex strip of width s (equals
  an upper bound of the real-torus sup at s = 0).
* ``delta_norm``: ||W P|| with W = diag(lambda_i^(-delta/d)), one rule per
  strip width.  s > 0: ||W |P|_s||_2 for the entrywise majorant |P|_s =
  sum_k |Phat_k| e^{s|k|_1}, an upper bound on the strip |Im phi| < s (the
  spectral norm is monotone in entrywise moduli).  s = 0: the max of
  ||W P(phi)||_2 over a real grid, a sample of the real-torus sup, not a bound.
* ``g_norm``: max of the unweighted and W-conjugated norms, same two rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fftn, ifftn, next_fast_len

from .errors import AliasingError, HermiticityError, KamError

__all__ = [
    "TorusSeries",
    "OperatorSeries",
    "DiagonalPart",
    "transform_roundtrip",
    "directional_derivative",
    "sup_norm_s",
    "delta_norm",
    "g_norm",
    "lipschitz_seminorm",
    "k_box",
    "k_norm1_grid",
]

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# mode bookkeeping helpers


def k_box(n: int, K: int) -> np.ndarray:
    """All integer vectors with |k|_inf <= K, shape ((2K+1)**n, n)."""
    axes = [np.arange(-K, K + 1)] * n
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def k_norm1_grid(n: int, K: int) -> np.ndarray:
    """|k|_1 over the mode box, shaped like a coefficient array."""
    axes = [np.abs(np.arange(-K, K + 1))] * n
    out = np.zeros((2 * K + 1,) * n)
    for a, ax in enumerate(axes):
        out = out + ax.reshape([-1 if i == a else 1 for i in range(n)])
    return out


def _k_dot_omega(n: int, K: int, omega: np.ndarray) -> np.ndarray:
    """omega . k over the mode box, shaped like a coefficient array."""
    out = np.zeros((2 * K + 1,) * n)
    rng = np.arange(-K, K + 1)
    for a in range(n):
        out = out + omega[a] * rng.reshape([-1 if i == a else 1 for i in range(n)])
    return out


def _centered_to_fft(coeffs: np.ndarray, n: int, K: int, M: int) -> np.ndarray:
    """Embed a centered coefficient block into an M-per-axis FFT layout."""
    if M < 2 * K + 1:
        raise AliasingError(f"grid {M} cannot hold modes up to K={K}")
    out_shape = (M,) * n + coeffs.shape[n:]
    out = np.zeros(out_shape, dtype=complex)
    idx = (np.arange(-K, K + 1)) % M
    out[np.ix_(*([idx] * n))] = coeffs
    return out


def _fft_to_centered(table: np.ndarray, n: int, K: int) -> np.ndarray:
    M = table.shape[0]
    if M < 2 * K + 1:
        raise AliasingError(f"grid {M} cannot resolve modes up to K={K}")
    idx = (np.arange(-K, K + 1)) % M
    return table[np.ix_(*([idx] * n))]


def coeffs_to_grid(coeffs: np.ndarray, n: int, K: int, M: int) -> np.ndarray:
    """Evaluate a coefficient block on the equispaced M**n grid (zero-padded FFT).

    The first n axes are modes; any trailing axes are batch axes.
    """
    table = _centered_to_fft(coeffs, n, K, M)
    return ifftn(table, axes=tuple(range(n)), norm="forward", overwrite_x=True)


def grid_to_coeffs(values: np.ndarray, n: int, K: int) -> np.ndarray:
    """Centered coefficients |k|_inf <= K from grid samples (alias-folding beyond M/2).

    The first n axes are grid axes; any trailing axes are batch axes.
    """
    M = values.shape[0]
    if M < 2 * K + 2:
        raise AliasingError(f"grid size {M} < 2K+2 = {2 * K + 2}")
    table = fftn(values, axes=tuple(range(n)), norm="forward")
    return _fft_to_centered(table, n, K)


def _phase_matrix(K: int, phi: np.ndarray) -> np.ndarray:
    """exp(i k phi) for k = -K..K and a vector of angles, shape (len(phi), 2K+1)."""
    return np.exp(1j * np.outer(phi, np.arange(-K, K + 1)))


def chop(coeffs: np.ndarray, floor: float) -> np.ndarray:
    """Zero out coefficients below an absolute floor (noise control)."""
    out = coeffs.copy()
    out[np.abs(out) < floor] = 0.0
    return out


# ---------------------------------------------------------------------------
# series containers


@dataclass(frozen=True)
class TorusSeries:
    """Scalar truncated Fourier series on the n-torus."""

    n: int
    K: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (2 * self.K + 1,) * self.n:
            raise KamError(f"coefficient shape {c.shape} != {(2 * self.K + 1,) * self.n}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int, K: int) -> "TorusSeries":
        return TorusSeries(n, K, np.zeros((2 * K + 1,) * n, dtype=complex))

    @staticmethod
    def constant(n: int, value: complex, K: int = 0) -> "TorusSeries":
        c = np.zeros((2 * K + 1,) * n, dtype=complex)
        c[(K,) * n] = value
        return TorusSeries(n, K, c)

    @staticmethod
    def from_grid(values: np.ndarray, K: int) -> "TorusSeries":
        values = np.asarray(values, dtype=complex)
        return TorusSeries(values.ndim, K, grid_to_coeffs(values, values.ndim, K))

    @staticmethod
    def from_modes(n: int, K: int, modes: dict) -> "TorusSeries":
        """Build from a {k-tuple: coefficient} mapping."""
        c = np.zeros((2 * K + 1,) * n, dtype=complex)
        for k, v in modes.items():
            k = (k,) if np.isscalar(k) else tuple(k)
            if len(k) != n or max(abs(x) for x in k) > K:
                raise KamError(f"mode {k} outside box K={K}")
            c[tuple(x + K for x in k)] = v
        return TorusSeries(n, K, c)

    # -- basic algebra -------------------------------------------------------

    def coeff(self, k) -> complex:
        k = (k,) if np.isscalar(k) else tuple(k)
        return complex(self.coeffs[tuple(x + self.K for x in k)])

    def grid(self, M: int) -> np.ndarray:
        return coeffs_to_grid(self.coeffs, self.n, self.K, M)

    def __call__(self, phi) -> complex:
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        out = self.coeffs
        for a in range(self.n):
            out = np.tensordot(_phase_matrix(self.K, phi[a : a + 1]), out, axes=(1, 0))[0]
        return complex(out)

    def pad_to(self, K: int) -> "TorusSeries":
        if K < self.K:
            raise KamError("pad_to cannot shrink the cutoff")
        if K == self.K:
            return self
        c = np.zeros((2 * K + 1,) * self.n, dtype=complex)
        sl = tuple(slice(K - self.K, K + self.K + 1) for _ in range(self.n))
        c[sl] = self.coeffs
        return TorusSeries(self.n, K, c)

    def truncate(self, K: int) -> "TorusSeries":
        if K >= self.K:
            return self.pad_to(K)
        sl = tuple(slice(self.K - K, self.K + K + 1) for _ in range(self.n))
        return TorusSeries(self.n, K, self.coeffs[sl])

    def __add__(self, other: "TorusSeries") -> "TorusSeries":
        K = max(self.K, other.K)
        return TorusSeries(self.n, K, self.pad_to(K).coeffs + other.pad_to(K).coeffs)

    def __sub__(self, other: "TorusSeries") -> "TorusSeries":
        K = max(self.K, other.K)
        return TorusSeries(self.n, K, self.pad_to(K).coeffs - other.pad_to(K).coeffs)

    def __mul__(self, scalar: complex) -> "TorusSeries":
        return TorusSeries(self.n, self.K, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "TorusSeries":
        return TorusSeries(self.n, self.K, -self.coeffs)

    def conj(self) -> "TorusSeries":
        """Complex conjugate on the real torus: chat(k) -> conj(chat(-k))."""
        c = np.conj(self.coeffs[(slice(None, None, -1),) * self.n])
        return TorusSeries(self.n, self.K, c)

    def product(self, other: "TorusSeries", K_out: int | None = None):
        """Exact grid product, truncated to K_out; returns (series, residue).

        residue is the plain l1 mass of the discarded coefficients.
        """
        K_full = self.K + other.K
        if K_out is None:
            K_out = K_full
        M = next_fast_len(2 * K_full + 2)
        vals = self.grid(M) * other.grid(M)
        full = grid_to_coeffs(vals, self.n, K_full)
        fs = TorusSeries(self.n, K_full, full)
        out = fs.truncate(K_out) if K_out < K_full else fs.pad_to(K_out)
        residue = float(np.sum(np.abs(full)) - np.sum(np.abs(out.coeffs)))
        return out, max(residue, 0.0)

    # -- structure tests -----------------------------------------------------

    def mirror_defect(self) -> float:
        """Max |chat(-k) - conj(chat(k))|; zero iff real valued on the real torus."""
        flipped = np.conj(self.coeffs[(slice(None, None, -1),) * self.n])
        return float(np.max(np.abs(self.coeffs - flipped)))

    def is_real_on_real(self, tol: float = 1e-12) -> bool:
        return self.mirror_defect() <= tol * max(1.0, float(np.max(np.abs(self.coeffs))))

    def average(self) -> complex:
        return complex(self.coeffs[(self.K,) * self.n])

    def zero_average(self) -> "TorusSeries":
        c = self.coeffs.copy()
        c[(self.K,) * self.n] = 0.0
        return TorusSeries(self.n, self.K, c)


@dataclass(frozen=True)
class OperatorSeries:
    """Matrix-valued truncated Fourier series; trailing axes are (N, N)."""

    n: int
    K: int
    N: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        want = (2 * self.K + 1,) * self.n + (self.N, self.N)
        if c.shape != want:
            raise KamError(f"coefficient shape {c.shape} != {want}")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(n: int, K: int, N: int) -> "OperatorSeries":
        return OperatorSeries(n, K, N, np.zeros((2 * K + 1,) * n + (N, N), dtype=complex))

    @staticmethod
    def from_grid(values: np.ndarray, K: int) -> "OperatorSeries":
        values = np.asarray(values, dtype=complex)
        n = values.ndim - 2
        return OperatorSeries(n, K, values.shape[-1], grid_to_coeffs(values, n, K))

    def entry(self, i: int, j: int) -> TorusSeries:
        return TorusSeries(self.n, self.K, self.coeffs[..., i, j])

    def coeff(self, k) -> np.ndarray:
        k = (k,) if np.isscalar(k) else tuple(k)
        return np.array(self.coeffs[tuple(x + self.K for x in k)])

    def grid(self, M: int) -> np.ndarray:
        return coeffs_to_grid(self.coeffs, self.n, self.K, M)

    def __call__(self, phi) -> np.ndarray:
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        out = self.coeffs
        for a in range(self.n):
            out = np.tensordot(_phase_matrix(self.K, phi[a : a + 1]), out, axes=(1, 0))[0]
        return out

    def pad_to(self, K: int) -> "OperatorSeries":
        if K < self.K:
            raise KamError("pad_to cannot shrink the cutoff")
        if K == self.K:
            return self
        c = np.zeros((2 * K + 1,) * self.n + (self.N, self.N), dtype=complex)
        sl = tuple(slice(K - self.K, K + self.K + 1) for _ in range(self.n))
        c[sl] = self.coeffs
        return OperatorSeries(self.n, K, self.N, c)

    def truncate(self, K: int) -> "OperatorSeries":
        if K >= self.K:
            return self.pad_to(K)
        sl = tuple(slice(self.K - K, self.K + K + 1) for _ in range(self.n))
        return OperatorSeries(self.n, K, self.N, self.coeffs[sl])

    def trim(self) -> "OperatorSeries":
        """Drop the all-zero outer |k|_inf shells; every coefficient is kept.

        The result's cutoff is the live band: the largest |k|_inf that
        carries a nonzero coefficient (0 for the zero series).
        """
        live = np.argwhere(np.any(self.coeffs != 0, axis=(-2, -1)))
        K_live = int(np.max(np.abs(live - self.K))) if len(live) else 0
        return self.truncate(K_live)

    def __add__(self, other: "OperatorSeries") -> "OperatorSeries":
        K = max(self.K, other.K)
        return OperatorSeries(self.n, K, self.N, self.pad_to(K).coeffs + other.pad_to(K).coeffs)

    def __sub__(self, other: "OperatorSeries") -> "OperatorSeries":
        K = max(self.K, other.K)
        return OperatorSeries(self.n, K, self.N, self.pad_to(K).coeffs - other.pad_to(K).coeffs)

    def __mul__(self, scalar: complex) -> "OperatorSeries":
        return OperatorSeries(self.n, self.K, self.N, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorSeries":
        return OperatorSeries(self.n, self.K, self.N, -self.coeffs)

    def adjoint(self) -> "OperatorSeries":
        """phi-pointwise conjugate transpose on the real torus."""
        c = np.conj(self.coeffs[(slice(None, None, -1),) * self.n].swapaxes(-1, -2))
        return OperatorSeries(self.n, self.K, self.N, c)

    def matmul(self, other: "OperatorSeries", K_out: int | None = None):
        """Exact grid product self(phi) @ other(phi); returns (series, residue)."""
        K_full = self.K + other.K
        if K_out is None:
            K_out = K_full
        M = next_fast_len(2 * K_full + 2)
        vals = self.grid(M) @ other.grid(M)
        full = grid_to_coeffs(vals, self.n, K_full)
        fs = OperatorSeries(self.n, K_full, self.N, full)
        out = fs.truncate(K_out) if K_out < K_full else fs.pad_to(K_out)
        residue = float(np.sum(np.abs(full)) - np.sum(np.abs(out.coeffs)))
        return out, max(residue, 0.0)

    # -- structure -----------------------------------------------------------

    def hermiticity_defect(self) -> float:
        """Max coefficient defect of Phat(-k) = Phat(k)^H."""
        mirror = np.conj(self.coeffs[(slice(None, None, -1),) * self.n].swapaxes(-1, -2))
        return float(np.max(np.abs(self.coeffs - mirror)))

    def antihermiticity_defect(self) -> float:
        mirror = np.conj(self.coeffs[(slice(None, None, -1),) * self.n].swapaxes(-1, -2))
        return float(np.max(np.abs(self.coeffs + mirror)))

    def is_hermitian(self, tol: float = 1e-11) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        return self.hermiticity_defect() <= tol * scale

    def offdiagonal_part(self) -> "OperatorSeries":
        c = self.coeffs.copy()
        idx = np.arange(self.N)
        c[..., idx, idx] = 0.0
        return OperatorSeries(self.n, self.K, self.N, c)

    def majorant_matrix(self, s: float) -> np.ndarray:
        """Entrywise sum_k |Phat_ijk| e^{s|k|_1}; dominates |P_ij| on the strip."""
        w = np.exp(s * k_norm1_grid(self.n, self.K))
        flat = np.abs(self.coeffs).reshape(-1, self.N, self.N)
        return np.tensordot(w.reshape(-1), flat, axes=(0, 0))


@dataclass(frozen=True)
class DiagonalPart:
    """Diagonal operator lambda_i + mu_i(phi) with growth exponent d.

    lambda_i must be positive and strictly increasing; each mu_i is a
    real-on-real-torus, zero-average scalar series (mu None means zero).
    delta is the off-diagonal growth budget carried along for the weighted
    norms; requires 0 <= delta < d - 1.
    """

    lam: np.ndarray
    d: float
    delta: float
    n: int
    mu: np.ndarray | None = field(default=None, repr=False)  # (N, modes...) or None
    K: int = 0

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).copy()
        if np.any(lam <= 0):
            raise KamError("lambda_i must be positive")
        if np.any(np.diff(lam) <= 0):
            raise KamError("lambda_i must be strictly increasing")
        if not (self.d > 1.0):
            raise KamError("growth exponent d must exceed 1")
        if not (0.0 <= self.delta < self.d - 1.0):
            raise KamError("delta must lie in [0, d-1)")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=complex)
            want = (self.N,) + (2 * self.K + 1,) * self.n
            if mu.shape != want:
                raise KamError(f"mu shape {mu.shape} != {want}")
            ctr = (slice(None),) + (self.K,) * self.n
            if np.max(np.abs(mu[ctr])) > 1e-10 * max(1.0, np.max(np.abs(mu))):
                raise KamError("mu_i must have zero average")
            mu = mu.copy()
            mu[ctr] = 0.0
            mu.flags.writeable = False
            object.__setattr__(self, "mu", mu)

    @property
    def N(self) -> int:
        return len(self.lam)

    def mu_series(self, i: int) -> TorusSeries:
        if self.mu is None:
            return TorusSeries.zero(self.n, self.K)
        return TorusSeries(self.n, self.K, self.mu[i])

    def values_on_grid(self, M: int) -> np.ndarray:
        """a_i(phi) = lambda_i + mu_i(phi) on the M**n grid, shape (M,)*n + (N,)."""
        base = np.broadcast_to(self.lam, (M,) * self.n + (self.N,)).astype(complex)
        if self.mu is None:
            return base.copy()
        vals = coeffs_to_grid(np.moveaxis(self.mu, 0, -1), self.n, self.K, M)
        return base + vals

    def weight(self) -> np.ndarray:
        """W = diag(lambda_i^(-delta/d))."""
        return self.lam ** (-self.delta / self.d)

    def c_lambda(self) -> float:
        """Witness constant min_{i!=j} |lambda_i - lambda_j| / |i^d - j^d|."""
        idx = np.arange(1, self.N + 1, dtype=float)
        gaps = np.abs(self.lam[:, None] - self.lam[None, :])
        denom = np.abs(idx[:, None] ** self.d - idx[None, :] ** self.d)
        mask = ~np.eye(self.N, dtype=bool)
        return float(np.min(gaps[mask] / denom[mask]))

    def c_mu(self, s: float = 0.0) -> float:
        """Witness constant max_i ||mu_i||_s / i^delta (0 when mu vanishes)."""
        if self.mu is None:
            return 0.0
        w = np.exp(s * k_norm1_grid(self.n, self.K)).reshape(-1)
        norms = np.abs(self.mu.reshape(self.N, -1)) @ w
        if self.delta == 0.0:
            return float(np.max(norms))
        return float(np.max(norms / np.arange(1, self.N + 1) ** self.delta))


# ---------------------------------------------------------------------------
# spec operations


def transform_roundtrip(f: TorusSeries | OperatorSeries, grid_size: int):
    """Sample f on an equispaced grid and transform back to coefficients.

    grid_size must be at least 2K+2 per angle; the round-trip is then exact
    up to roundoff.  Returns (reconstructed, max coefficient error).
    """
    if grid_size < 2 * f.K + 2:
        raise AliasingError(f"grid size {grid_size} < 2K+2 = {2 * f.K + 2}")
    vals = f.grid(grid_size)
    back = grid_to_coeffs(vals, f.n, f.K)
    err = float(np.max(np.abs(back - f.coeffs)))
    if isinstance(f, OperatorSeries):
        return OperatorSeries(f.n, f.K, f.N, back), err
    return TorusSeries(f.n, f.K, back), err


def directional_derivative(f: TorusSeries | OperatorSeries, omega) -> "TorusSeries | OperatorSeries":
    """d/dt f(phi + omega t) at t = 0: multiply fhat_k by i (omega . k)."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (f.n,):
        raise KamError(f"omega must have length n={f.n}")
    w = 1j * _k_dot_omega(f.n, f.K, omega)
    if isinstance(f, OperatorSeries):
        return OperatorSeries(f.n, f.K, f.N, f.coeffs * w[..., None, None])
    return TorusSeries(f.n, f.K, f.coeffs * w)


def sup_norm_s(f: TorusSeries, s: float) -> float:
    """Weighted-l1 bound sum_k |fhat_k| e^{s |k|_1} (s >= 0)."""
    if s < 0:
        raise KamError("strip width s must be nonnegative")
    w = np.exp(s * k_norm1_grid(f.n, f.K))
    return float(np.sum(np.abs(f.coeffs) * w))


def _grid_opnorm_max(values: np.ndarray) -> float:
    """Max over grid points of the top singular value of values (..., N, N)."""
    flat = values.reshape((-1,) + values.shape[-2:])
    return float(np.max(np.linalg.svd(flat, compute_uv=False)[:, 0]))


def _weighted_norm(P: OperatorSeries, weightings, s: float, M: int) -> float:
    """max over (wl, wr) of ||diag(wl) P diag(wr)||: majorant if s > 0, real M**n grid if s = 0."""
    if s > 0:
        maj = P.majorant_matrix(s)
        return max(float(np.linalg.norm(wl[:, None] * maj * wr[None, :], 2)) for wl, wr in weightings)
    vals = P.grid(M)
    return max(_grid_opnorm_max(wl[:, None] * vals * wr[None, :]) for wl, wr in weightings)


def default_norm_grid(K: int) -> int:
    return int(next_fast_len(max(32, 2 * K + 2)))


def delta_norm(P: OperatorSeries, base: DiagonalPart, s: float, grid_size: int | None = None) -> float:
    """||W P||, W = diag(lambda_i^(-delta/d)), at strip width s.

    s > 0: ||W |P|_s||_2 for the entrywise majorant |P|_s, an upper bound
    on the strip |Im phi| < s; no grid is formed.  s = 0: the max of
    ||W P(phi)||_2 over a real grid of grid_size points per angle, a sample
    of the real-torus sup, not a bound.
    """
    if s < 0:
        raise KamError("strip width s must be nonnegative")
    if base.N != P.N:
        raise KamError("base and P dimension mismatch")
    M = grid_size or default_norm_grid(P.K)
    return _weighted_norm(P, [(base.weight(), np.ones(P.N))], s, M)


def g_norm(B: OperatorSeries, base: DiagonalPart, s: float, grid_size: int | None = None) -> float:
    """max(||B||_{0,s}, ||W B W^{-1}||_{0,s}), W and rules as in delta_norm (one majorant)."""
    if s < 0:
        raise KamError("strip width s must be nonnegative")
    W = base.weight()
    M = grid_size or default_norm_grid(B.K)
    ones = np.ones(B.N)
    return _weighted_norm(B, [(ones, ones), (W, 1.0 / W)], s, M)


def lipschitz_seminorm(family, norm_fn) -> float:
    """max over pairs of norm(f(w) - f(w')) / |w - w'| for an omega-indexed family.

    family: sequence of (omega_vector, series); norm_fn: series -> float.
    """
    family = list(family)
    if len(family) < 2:
        raise KamError("lipschitz_seminorm needs at least two samples")
    out = 0.0
    for (w1, f1), (w2, f2) in itertools.combinations(family, 2):
        dw = float(np.linalg.norm(np.asarray(w1, float) - np.asarray(w2, float)))
        if dw == 0.0:
            raise KamError("duplicate omega in family")
        out = max(out, norm_fn(f1 - f2) / dw)
    return out


# ---------------------------------------------------------------------------
# serialization (exact round-trip JSON documents)


def series_to_doc(f: TorusSeries | OperatorSeries) -> dict:
    """JSON-ready document {n, K, N, entries: [{i, j, coeffs: [{k, re, im}]}]}.

    Zero coefficients are omitted; floats serialize via repr and round-trip
    exactly.
    """
    if isinstance(f, TorusSeries):
        N = 1
        pairs = [(0, 0, f.coeffs)]
    else:
        N = f.N
        pairs = [(i, j, f.coeffs[..., i, j]) for i in range(N) for j in range(N)]
    kbox = k_box(f.n, f.K)
    entries = []
    for i, j, block in pairs:
        flat = np.asarray(block).reshape(-1)
        nz = np.nonzero(flat)[0]
        if len(nz) == 0 and N > 1:
            continue
        entries.append(
            {
                "i": i,
                "j": j,
                "coeffs": [
                    {"k": [int(x) for x in kbox[t]], "re": float(flat[t].real), "im": float(flat[t].imag)}
                    for t in nz
                ],
            }
        )
    return {"n": f.n, "K": f.K, "N": N, "entries": entries}


def series_from_doc(doc: dict) -> TorusSeries | OperatorSeries:
    n, K, N = int(doc["n"]), int(doc["K"]), int(doc["N"])
    if N == 1:
        c = np.zeros((2 * K + 1,) * n, dtype=complex)
        for e in doc["entries"]:
            for item in e["coeffs"]:
                idx = tuple(int(x) + K for x in item["k"])
                c[idx] = item["re"] + 1j * item["im"]
        return TorusSeries(n, K, c)
    c = np.zeros((2 * K + 1,) * n + (N, N), dtype=complex)
    for e in doc["entries"]:
        i, j = int(e["i"]), int(e["j"])
        for item in e["coeffs"]:
            idx = tuple(int(x) + K for x in item["k"])
            c[idx + (i, j)] = item["re"] + 1j * item["im"]
    return OperatorSeries(n, K, N, c)
