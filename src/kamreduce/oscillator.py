"""Anharmonic-oscillator instance: -d^2/dx^2 + Q(x) with Q(x) = |x|^alpha.

Discretization is a sinc (uniform-grid) DVR on [-L, L]: the kinetic matrix is
T_jj = pi^2 / (3 h^2), T_jk = 2 (-1)^(j-k) / (h^2 (j-k)^2), the potential is
diagonal, and eigenfunctions come out orthonormal under the h-weighted grid
inner product.  Domain and resolution are sized from the WKB turning point
and momentum of the highest requested mode, then the problem is solved again
at doubled resolution on an enlarged box.  The doubled solve is what gets
reported; the relative change between the two solves must stay below a
tolerance, otherwise the first unconverged index is reported.  Matrix
elements of multiplication operators use the same grids, certified entrywise
against the coarse companion solve.

Growth exponents: lambda_i ~ i^(2 alpha / (alpha + 2)), and a perturbation
growing like |x|^beta is delta-norm bounded when beta <= alpha * delta / d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, GuardWarning, KamError
from .torus import DiagonalPart, OperatorSeries, TorusSeries, delta_norm

__all__ = [
    "OscillatorSpec",
    "PerturbationSpec",
    "OscillatorResult",
    "build_oscillator",
    "asymptotic_exponent_fit",
    "perturbation_matrix",
    "delta_boundedness_check",
]

# fixed discretization constants; no caller sets them
PAD = 1.6          # box = PAD * WKB turning point + 2 (constant room)
OVERSAMPLE = 3.0   # grid points per de Broglie half-wavelength
REFINE_L = 1.25    # box enlargement of the doubled-resolution solve
QUAD_TOL = 1e-9    # relative change allowed between the two quadratures
CERTIFY_TOL = 1e-8  # relative change allowed between the two eigenvalue solves
FLAT_TOL = 0.01    # final doubling increment below which a delta-norm scan is flat


@dataclass(frozen=True)
class OscillatorSpec:
    """Potential Q(x) = |x|^alpha."""

    alpha: float
    N: int

    def __post_init__(self):
        if self.alpha < 2.0:
            raise KamError("potential growth alpha must be >= 2")
        if self.alpha == 2.0:
            warnings.warn("alpha = 2 is outside the theorem range (alpha > 2); "
                          "harmonic proxy accepted for oracle checks", GuardWarning)
        if self.N < 1:
            raise KamError("N must be positive")

    def potential(self, x: np.ndarray) -> np.ndarray:
        return np.abs(x) ** self.alpha

    def growth_exponent(self) -> float:
        """d = 2 alpha / (alpha + 2) of lambda_i ~ i^d."""
        return 2.0 * self.alpha / (self.alpha + 2.0)


@dataclass(frozen=True)
class PerturbationSpec:
    """V(x, phi) = sum_m v_m(x) g_m(phi), v_m a power or fractional power.

    Each term is (v_descriptor, g) with v_descriptor ("power", p) for x^p,
    ("abspower", p) for |x|^p, or ("fractional", b) for (1 + x^2)^(b/2); g is
    a TorusSeries with a finite cutoff.  beta declares the growth exponent
    used in the boundedness checks.
    """

    beta: float
    terms: tuple
    n: int = 1

    def __post_init__(self):
        if not self.terms:
            raise KamError("perturbation needs at least one term")
        for v, g in self.terms:
            if v[0] not in ("power", "abspower", "fractional"):
                raise KamError(f"unknown multiplier descriptor {v[0]!r}")
            if not isinstance(g, TorusSeries):
                raise KamError("each angular factor must be a TorusSeries")
            if g.n != self.n:
                raise KamError("angular factor dimension mismatch")

    def multiplier(self, v, x: np.ndarray) -> np.ndarray:
        kind, p = v
        if kind == "power":
            return x ** p
        if kind == "abspower":
            return np.abs(x) ** p
        return (1.0 + x * x) ** (p / 2.0)


@dataclass(frozen=True)
class OscillatorResult:
    """First N eigenpairs (from the doubled-resolution solve) plus the
    coarse companion solve they were certified against."""

    spec: OscillatorSpec
    eigenvalues: np.ndarray        # (N,)
    eigenfunctions: np.ndarray     # (N, M) h-normalized samples
    x: np.ndarray                  # (M,)
    h: float
    coarse_eigenvalues: np.ndarray = field(repr=False, default=None)
    coarse_eigenfunctions: np.ndarray = field(repr=False, default=None)
    coarse_x: np.ndarray = field(repr=False, default=None)
    coarse_h: float = 0.0
    certificate: dict = field(default_factory=dict)

    @property
    def N(self) -> int:
        return len(self.eigenvalues)

    def as_base(self, delta: float, n: int) -> DiagonalPart:
        return DiagonalPart(lam=self.eigenvalues, d=self.spec.growth_exponent(),
                            delta=delta, n=n)


def _wkb_energy(spec: OscillatorSpec, i: int) -> float:
    """Bohr-Sommerfeld estimate of the i-th eigenvalue of -d2/dx2 + |x|^alpha.

    It only sizes the box, so the stdlib's math.gamma serves; the build then
    loads no scipy.
    """
    a = spec.alpha
    # integral_0^1 sqrt(1 - u^a) du
    I = np.sqrt(np.pi) * math.gamma(1.0 + 1.0 / a) / (2.0 * math.gamma(1.5 + 1.0 / a))
    return float(((i - 0.5) * np.pi / (2.0 * I)) ** (2.0 * a / (a + 2.0)))


def _sinc_dvr_solve(spec: OscillatorSpec, L: float, M: int):
    """Eigenpairs of the sinc-DVR discretization on (-L, L) with M points."""
    h = 2.0 * L / (M + 1)
    x = -L + h * np.arange(1, M + 1)
    j = np.arange(M)
    diff = j[:, None] - j[None, :]
    T = np.where(diff == 0, np.pi ** 2 / (3.0 * h * h),
                 2.0 * (-1.0) ** diff / (h * h * np.where(diff == 0, 1, diff) ** 2))
    H = T + np.diag(spec.potential(x))
    w, V = np.linalg.eigh(H)
    # h-weighted normalization; canonical sign: positive at the rightmost
    # significant sample (textbook convention, stable across resolutions
    # because there are no nodes beyond the last turning point)
    V = V / np.sqrt(h)
    absV = np.abs(V)
    significant = absV >= 0.05 * np.max(absV, axis=0)
    last = M - 1 - np.argmax(significant[::-1], axis=0)
    V = V * np.where(V[last, np.arange(M)] >= 0, 1.0, -1.0)
    return w, V.T, x, h


def build_oscillator(spec: OscillatorSpec) -> OscillatorResult:
    """Solve, then certify the first N eigenvalues by resolution doubling.

    The reported eigenpairs come from the doubled solve (twice the point
    count on a box enlarged by REFINE_L); the coarse companion is kept on the
    result so matrix-element quadratures can be certified against it without
    re-diagonalizing.
    """
    E_top = max(_wkb_energy(spec, spec.N + 2), float(spec.potential(np.array([1.0]))[0]))
    # turning point of the full potential at E_top (bisection; Q is increasing in |x|)
    lo, hi = 0.0, 1.0
    while spec.potential(np.array([hi]))[0] < E_top:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if spec.potential(np.array([mid]))[0] < E_top:
            lo = mid
        else:
            hi = mid
    x_turn = hi
    L = PAD * x_turn + 2.0
    h_target = np.pi / (np.sqrt(E_top) * OVERSAMPLE)
    M = max(int(np.ceil(2.0 * L / h_target)) + 1, spec.N + 8)

    w, V, x, h = _sinc_dvr_solve(spec, L, M)
    L2, M2 = REFINE_L * L, 2 * M
    w2, V2, x2, h2 = _sinc_dvr_solve(spec, L2, M2)

    N = spec.N
    if len(w) < N or len(w2) < N:
        raise ConvergenceError("discretization smaller than the requested mode count")
    lam, lam2 = w[:N], w2[:N]
    rel = np.abs(lam - lam2) / np.maximum(np.abs(lam2), 1e-300)
    if np.any(rel >= CERTIFY_TOL):
        bad = int(np.argmax(rel >= CERTIFY_TOL))
        raise ConvergenceError(
            f"eigenvalue {bad + 1} not converged: relative doubling change "
            f"{rel[bad]:.3e} >= {CERTIFY_TOL:g} (L={L:.2f}, M={M})"
        )
    if np.any(np.diff(lam2) <= 0):
        bad = int(np.argmax(np.diff(lam2) <= 0)) + 1
        raise ConvergenceError(f"eigenvalue simplicity fails between modes {bad} and {bad + 1}")
    if lam2[0] <= 0:
        raise ConvergenceError("ground state is not positive; potential offset required")

    # align refined eigenfunction signs with the coarse ones (overlap decision)
    Vc = V[:N]
    Vf = V2[:N].copy()
    for i in range(N):
        fi = np.interp(x, x2, Vf[i].real)
        if np.dot(fi, Vc[i].real) * h < 0:
            Vf[i] = -Vf[i]
    cert = {
        "max_relative_change": float(np.max(rel)),
        "tol": CERTIFY_TOL,
        "L": L, "M": M, "L_refined": L2, "M_refined": M2,
    }
    return OscillatorResult(
        spec=spec,
        eigenvalues=lam2,            # report the better (refined) values
        eigenfunctions=Vf,
        x=x2, h=h2,
        coarse_eigenvalues=lam, coarse_eigenfunctions=Vc,
        coarse_x=x, coarse_h=h,
        certificate=cert,
    )


def asymptotic_exponent_fit(lambdas, i_range) -> tuple:
    """Least-squares slope of log lambda_i against log i over i_range.

    Returns (d_fit, standard_error).  i_range is an iterable of 1-based mode
    indices; fewer than five points are rejected.
    """
    idx = np.asarray(list(i_range), dtype=int)
    if len(idx) < 5:
        raise KamError("exponent fit needs at least 5 points")
    lam = np.asarray(lambdas, dtype=float)
    if np.any(idx < 1) or np.any(idx > len(lam)):
        raise KamError("i_range outside the computed modes")
    y = np.log(lam[idx - 1])
    t = np.log(idx.astype(float))
    A = np.stack([t, np.ones_like(t)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    d_fit = float(coef[0])
    dof = max(len(idx) - 2, 1)
    resid = y - A @ coef
    var = float(resid @ resid) / dof
    tt = t - np.mean(t)
    stderr = float(np.sqrt(var / np.dot(tt, tt)))
    return d_fit, stderr


def perturbation_matrix(
    pspec: PerturbationSpec,
    osc: OscillatorResult,
    N: int | None = None,
) -> OperatorSeries:
    """P_ij(phi) = sum_m <psi_i, v_m psi_j> g_m(phi), an OperatorSeries at the terms' largest band.

    Each x-quadrature is certified against the coarser resolution kept on the
    oscillator result; an entry differing by more than QUAD_TOL (relative to
    the matrix scale) raises with its (i, j, term) indices.  The theorem
    boundary beta < (alpha - 2) / 2 is advisory: exceeding it warns.
    """
    N = osc.N if N is None else N
    if N > osc.N:
        raise KamError(f"requested N={N} exceeds computed modes {osc.N}")
    boundary = (osc.spec.alpha - 2.0) / 2.0
    if pspec.beta >= boundary:
        warnings.warn(
            f"beta = {pspec.beta} is not below the theorem boundary "
            f"(alpha-2)/2 = {boundary:g}; assembling anyway", GuardWarning)
    K = max(g.K for _, g in pspec.terms)
    n = pspec.n
    coeffs = np.zeros((2 * K + 1,) * n + (N, N), dtype=complex)
    Pf = osc.eigenfunctions[:N]
    Pc = osc.coarse_eigenfunctions[:N]
    for m, (v, g) in enumerate(pspec.terms):
        vf = pspec.multiplier(v, osc.x)
        vc = pspec.multiplier(v, osc.coarse_x)
        Mat = (Pf * vf[None, :]) @ Pf.T * osc.h
        Mat = 0.5 * (Mat + Mat.T)        # symmetric to the bit, so P is hermitian exactly
        Mat_c = (Pc * vc[None, :]) @ Pc.T * osc.coarse_h
        scale = max(float(np.max(np.abs(Mat))), 1e-300)
        err = np.abs(Mat - Mat_c) / scale
        if np.any(err >= QUAD_TOL):
            i, j = np.unravel_index(int(np.argmax(err)), err.shape)
            raise ConvergenceError(
                f"quadrature not converged at entry ({i + 1}, {j + 1}) of term {m}: "
                f"relative change {err[i, j]:.3e} >= {QUAD_TOL:g}"
            )
        gp = g.pad_to(K)
        coeffs += gp.coeffs[..., None, None] * Mat[(None,) * n]
    P = OperatorSeries(n, K, N, coeffs)
    defect = P.hermiticity_defect()
    if defect > 1e-10 * max(float(np.max(np.abs(coeffs))), 1e-300):
        warnings.warn(f"assembled perturbation hermiticity defect {defect:.2e}",
                      GuardWarning)
    return P


def delta_boundedness_check(
    P: OperatorSeries,
    base: DiagonalPart,
    delta_grid,
    N_values,
) -> dict:
    """Empirical boundedness scan: delta-norm of leading blocks as N grows.

    For each delta in delta_grid, reports the weighted norm of the N' x N'
    leading block for each N' in N_values, an upper bound on the real torus
    (s = 0), and whether the final doubling increment stays below FLAT_TOL
    relative.  The row-sup indicator max_i lambda_i^(-delta/d) sum_j |P_ij|
    is included per N'.
    """
    N_values = sorted(set(int(v) for v in N_values))
    if N_values[-1] > P.N:
        raise KamError("N_values exceed the assembled matrix size")
    report = {"N_values": N_values, "rows": [], "d": base.d}
    for dl in delta_grid:
        if not (0.0 <= dl < base.d - 1.0):
            raise KamError(f"delta = {dl} outside [0, d-1) = [0, {base.d - 1.0:g})")
        norms = []
        rowsup = []
        for Np in N_values:
            sub = OperatorSeries(P.n, P.K, Np, P.coeffs[..., :Np, :Np])
            bsub = DiagonalPart(lam=base.lam[:Np], d=base.d, delta=dl, n=base.n)
            norms.append(delta_norm(sub, bsub, 0.0))
            maj = sub.majorant_matrix(0.0)
            weights = base.lam[:Np] ** (-dl / base.d)
            rowsup.append(float(np.max(weights * np.sum(maj, axis=1))))
        increment = (norms[-1] - norms[-2]) / max(norms[-2], 1e-300)
        report["rows"].append({
            "delta": float(dl),
            "norms": [float(v) for v in norms],
            "row_sup": [float(v) for v in rowsup],
            "final_increment": float(increment),
            "flat": bool(increment < FLAT_TOL),
        })
    return report
