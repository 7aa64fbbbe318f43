"""Floquet spectrum of the reduced system and independent trajectory checks.

After reduction the equation decouples: each mode evolves as

    chi_i(t) = chi_i(0) exp(-i (lambda_inf_i t + F_i(t))),
    F_i(t)   = H_i(phi0 + omega t) - H_i(phi0),

with H_i the torus primitive of mu_i, (omega.d/dphi) H_i = mu_i, which
homological._primitive forms under the solve's divisor floor.  So
solutions of the original system are x(t) = U(phi0 + omega t) chi(t) with
U the composed conjugation.  The Floquet exponents are lambda_inf_j + omega.k.

Everything here that claims to verify the engine is computed without it:
direct propagation uses only the original coefficients, and the monodromy
matrix (n = 1) is diagonalized on its own.  verify propagates the
fundamental solution Phi from the identity through the output times (and,
for n = 1, the period T), reconstructs the whole propagator U(phi_t)
e^{-i (Lambda t + F(t))} U(phi0)^* at the same times, each generator read
once, at phi0 and the flow's angles (a stored run's slab by slab), and
compares the two as operators; for n = 1 it matches the quasi-energies of
Phi(T) to the modes in the U(0) = U(phi0) so composed.

One propagation loop, _sweep, carries a state or a block of states through
the output times: it asks an exponential kernel for a chunk of steps at a
time, across intervals, and multiplies them as a tree, the kernel and the
tree writing into one engine._Workspace that the caller's sweeps share.
Both kernels read the forcing P(phi) + diag(mu(phi)) from one table,
_forcing: the modes k where P or mu is nonzero and C_k = P_k + diag(mu_k).  CF4,
_cf4_exponentials, is the fourth-order commutator-free Magnus step (Blanes
& Moan, Appl. Numer. Math. 56 (2006) 1519): two exponentials of
combinations of H = diag(lambda) + sum_k e^{ik.phi} C_k at the step's
Gauss points.  The interaction-picture Magnus step, _Interaction, writes
Phi(t) = e^{-iAt} U(t) with A = diag(lambda) and integrates the table's
oscillations e^{i (lambda_i - lambda_j + k.omega) t} exactly in its first
two Magnus terms (Iserles, BIT 42 (2002) 561), so its error does not grow
with max|lambda| (Hochbruck & Lubich, SIAM J. Numer. Anal. 41 (2003)
945); its tables are matrix products built once per step length, and each
step is one exponential.  Every exponential is an engine._expm_taylor
Taylor polynomial with remainder below 2^-53, so steps are unitary to
roundoff.  step_plan holds the step rules: for CF4 nested coarse and fine
grids below the Magnus convergence radius h ||H|| < pi, whose coarse step
also spans at most an eighth of the shortest forcing period; for the
Magnus step a coarse step sized by the forcing table's norm alone.
propagate_step_doubled compares the two sweeps for the error estimate that
verify records, and integrator_costs, the cost model by which verify picks
the kernel, counts the table's modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ReducedSystem, _compose, _expm_taylor, _Workspace
from .errors import KamError
from .homological import _primitive
from .torus import DiagonalPart, OperatorSeries, k_box

__all__ = [
    "FloquetSpectrum",
    "floquet_spectrum",
    "reconstruct_solution",
    "propagate_direct",
    "propagate_step_doubled",
    "step_plan",
    "integrator_costs",
    "monodromy_quasienergies",
    "quasienergies_from_period_map",
]


@dataclass(frozen=True)
class FloquetSpectrum:
    """Sorted exponents nu = lambda_inf_j + omega.k with degeneracy tags."""

    nu: np.ndarray            # sorted values
    multiplicity: np.ndarray  # size of the 1e-12-cluster each value belongs to
    mode: np.ndarray          # j index (1-based) per value
    k: np.ndarray             # (m, n) integer mode per value

    def __len__(self) -> int:
        return len(self.nu)


def floquet_spectrum(reduced: ReducedSystem, Kmax: int, cluster_tol: float = 1e-12) -> FloquetSpectrum:
    """All exponents lambda_inf_j + omega.k over j <= N, |k|_inf <= Kmax."""
    if Kmax < 0:
        raise KamError("Kmax must be nonnegative")
    lam = np.asarray(reduced.lambda_inf, dtype=float)
    omega = np.asarray(reduced.omega, dtype=float)
    ks = k_box(len(omega), Kmax)                       # (m, n)
    nu = lam[:, None] + ks @ omega                     # (N, m)
    mode = np.repeat(np.arange(1, len(lam) + 1), len(ks))
    kk = np.tile(ks, (len(lam), 1))
    flat = nu.reshape(-1)
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    mode = mode[order]
    kk = kk[order]
    # cluster values whose consecutive gaps stay below the tolerance
    mult = np.ones(len(flat), dtype=int)
    if len(flat) > 1:
        new_cluster = np.diff(flat) > cluster_tol
        cluster_id = np.concatenate([[0], np.cumsum(new_cluster)])
        _, counts = np.unique(cluster_id, return_counts=True)
        mult = counts[cluster_id]
    return FloquetSpectrum(nu=flat, multiplicity=mult, mode=mode, k=kk)


def _phase_integral(reduced: ReducedSystem, phis: np.ndarray) -> np.ndarray:
    """F_i(t) = H_i(phi0 + omega t) - H_i(phi0), shape (T, N), at phis = phi0, then phi0 + omega t.

    H_i is the torus primitive of mu_i, from homological._primitive, so a
    live mode whose |omega.k| is below the solve's floor raises DivisorTooSmall.
    """
    if reduced.mu_inf is None or reduced.K_mu == 0:
        return np.zeros((len(phis) - 1, reduced.N), dtype=complex)
    n, K = reduced.n, reduced.K_mu
    c = np.moveaxis(reduced.mu_inf, 0, -1)               # (modes..., N)
    H = _primitive(c, n, K, reduced.omega, np.abs(c) > 0).reshape(-1, reduced.N)
    values = np.exp(1j * (phis @ k_box(n, K).T)) @ H     # (1 + T, N)
    return values[1:] - values[0]


def reconstruct_solution(reduced: ReducedSystem, psi0, phi0, ts) -> np.ndarray:
    """Almost-periodic solution psi(t) = U(phi0 + omega t) chi(t), shape (T,) + psi0.shape.

    psi0 is one state (N,) or a block of states (N, c); with the identity
    the result is the reduced propagator U(phi_t) e^{-i (Lambda t + F(t))}
    U(phi0)^* at every output time.  chi(0) = U(phi0)* psi0 and each chi_i
    evolves by the explicit phase lambda_inf_i t + F_i(t); the Euclidean
    norm is conserved exactly up to roundoff because every factor is unitary.
    Each generator is evaluated once, by its at, at phi0 and the flow's
    angles in one batch: a torus.PairSeries from its pairs, a
    serialize.StoredOperator by reading its file one slab at a time, to the
    same bits.
    """
    return _reconstruct(reduced, psi0, phi0, ts)[0]


def _reconstruct(reduced: ReducedSystem, psi0, phi0, ts):
    """(reconstruct_solution's value, the frame U(phi0) it composed on the way)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    psi0 = np.asarray(psi0, dtype=complex)
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    N = reduced.N
    if psi0.ndim not in (1, 2) or psi0.shape[0] != N:
        raise KamError(f"psi0 must have shape ({N},) or ({N}, c)")
    phis = phi0[None, :] + np.outer(np.concatenate([[0.0], ts]), reduced.omega)
    U = _compose(reduced.generators, lambda B: B.at(phis), N, (len(phis),))
    U0, U = U[0].copy(), U[1:]
    chi0 = np.conj(U0.T) @ psi0.reshape(N, -1)           # (N, c)
    F = _phase_integral(reduced, phis)                   # (T, N)
    phase = np.exp(-1j * (np.outer(ts, reduced.lambda_inf) + F))
    return (U @ (phase[:, :, None] * chi0[None])).reshape((len(ts),) + psi0.shape), U0


def _forcing(base: DiagonalPart, P: OperatorSeries | None):
    """The forcing P(phi) + diag(mu(phi)) = sum_k e^{ik.phi} C_k as a table (ks, C).

    ks, shape (m, n), are the modes at which P or mu is nonzero: P's first,
    in k_box order, then mu's own.  C_k = P_k + diag(mu_k), shape (m, N, N).
    """
    N = base.N
    ks, C = np.zeros((0, base.n), dtype=int), np.zeros((0, N, N), dtype=complex)
    if P is not None:
        c = P.coeffs.reshape(-1, N, N)
        live = np.any(c, axis=(1, 2))
        ks, C = k_box(P.n, P.K)[live], c[live]
    if base.mu is not None and base.K > 0:
        for k, d in zip(k_box(base.n, base.K), base.mu.reshape(N, -1).T):
            if np.any(d):
                same = np.flatnonzero(np.all(ks == k, axis=1))
                if not same.size:
                    ks, C = np.vstack([ks, k]), np.concatenate([C, np.zeros((1, N, N))])
                C[same[0] if same.size else -1] += np.diag(d)
    return ks, C


# The commutator-free Magnus step CF4 (Blanes & Moan 2006): H at the Gauss
# points t + c h, and the weights of (H1, H2) in its two exponentials, the
# first applied first
_GAUSS = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_A1, _A2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_CF4_WEIGHTS = np.array([[_A2, _A1], [_A1, _A2]])
# h max|lambda| of the coarse step, and the Magnus convergence radius
# h ||H|| < pi that every step must stay below
_COARSE_STEP = 3.2
# the most of the shortest forcing period 2 pi / max|omega.k| a coarse step
# may span.  A two-level model, lambda = (1, 2.3) and a 0.05 cos phi
# coupling, forced at omega = 1.7 to t = 50, fails after four halvings when
# only max|lambda| sizes the step, and passes with this bound
_PERIOD_SHARE = 1.0 / 8.0
_MAGNUS_BOUND = math.pi
# step doubling: the largest accepted error estimate, and the most halvings
_ERROR_TOL = 1e-10
_MAX_HALVINGS = 4
# steps per call of an exponential kernel.  A CF4 step is two exponentials,
# so a chunk is 32 matrices, 205 KB at N = 20, and a sweep's workspace holds
# about fifteen such arrays.  When each chunk allocated its own arrays, 32
# steps took 73k minor page faults and 0.57-0.71 s of reference-n2's
# verify.direct_s, against 10k and 0.33-0.41 s for 16, in fresh processes
# with one BLAS thread.  With the workspace the two take the same time
# (medians 0.41 and 0.43 s) and faults (9.4-10.0k and 10.1-10.7k), but 32
# peaks 3 MB higher there and 7 MB higher at N = 30
_CHUNK = 16


def _ordered_product(E: np.ndarray, work: _Workspace) -> np.ndarray:
    """E[-1] @ ... @ E[1] @ E[0], multiplied pairwise level by level.

    The levels alternate between two of work's buffers, so the result is
    overwritten by the next call with the same workspace.
    """
    level = 0
    while len(E) > 1:
        half, odd = divmod(len(E), 2)
        out = work.take(f"product{level % 2}", (half + odd,) + E.shape[1:])
        np.matmul(E[1:2 * half:2], E[0:2 * half:2], out=out[:half])
        if odd:
            out[half] = E[-1]
        E, level = out, level + 1
    return E[0]


def _cf4_exponentials(base, P, omega, phi0):
    """(a, h, work) -> the CF4 steps from a[j] of length h[j], shape (len(a), 2, N, N).

    Step j is exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)), the
    right factor first, with H1, H2 the Hamiltonian diag(lambda) + sum_k
    e^{ik.phi} C_k of the forcing table at the Gauss points a + (1/2 -+
    sqrt(3)/6) h, built for the whole batch.  Every array of the batch's
    size is taken from work, and so are the steps.
    """
    N = base.N
    ks, C = _forcing(base, P)
    C = C.reshape(len(ks), N * N)

    def exponentials(a: np.ndarray, h: np.ndarray, work: _Workspace) -> np.ndarray:
        nodes = a[:, None] + _GAUSS[None, :] * h[:, None]
        phis = phi0[None, :] + nodes.reshape(-1, 1) * omega[None, :]
        x = np.matmul(phis, ks.T, out=work.take("x", (len(phis), len(ks)), float))
        phase = np.multiply(1j, x, out=work.take("phase", x.shape))
        H = np.matmul(np.exp(phase, out=phase), C, out=work.take("H", (len(phis), N * N)))
        H[:, ::N + 1] += base.lam
        weights = -1j * h[:, None, None] * _CF4_WEIGHTS
        A = np.matmul(weights, H.reshape(len(a), 2, N * N),
                      out=work.take("A", (len(a), 2, N * N)))
        return _expm_taylor(A.reshape(2 * len(a), N, N), work).reshape(len(a), 2, N, N)
    return exponentials


def _forcing_bound(C: np.ndarray) -> float:
    """A bound on sum_k ||C_k||_2, and so on ||P(phi)||_2: ||C||_2 <= sqrt(||C||_1 ||C||_inf)."""
    return sum(math.sqrt(np.abs(c).sum(axis=0).max() * np.abs(c).sum(axis=1).max()) for c in C)


# The interaction-picture Magnus step.  psi(x, y) is summed as a series in y
# below |y| = _PSI_SERIES_BELOW from the moments M_p(x), p <= _PSI_TERMS: the
# first term left out is 0.5^14 / 15! < 2^-53 of the first
_PSI_SERIES_BELOW = 0.5
_PSI_TERMS = 14
_INV_FACTORIAL = np.array([1.0 / math.factorial(p) for p in range(_PSI_TERMS + 1)])
# the downward recurrence of the moments starts here, from zero: at |x| < 15
# its error shrinks by prod_{p=15}^{60} |x| / p < 2e-17 before p = 14
_MOMENTS_FROM = 60
# the order of each integrator, for the step-doubling estimate, and its name
_ORDER = {"cf4": 4, "magnus": 2}
_NAMES = {"cf4": "CF4", "magnus": "Magnus"}
# h sum_k ||C_k||_2 of the coarse Magnus step.  With 0.002 two-level models
# (couplings 0.01 to 0.2, omega 0.1 and 1.7) meet _ERROR_TOL on the first
# pair of sweeps with estimates near 6e-12; with 0.004 near 9e-11
_MAGNUS_STEP = 0.002
# Magnus steps whose lengths agree to this relative tolerance share one table,
# so the spans of a linspace, which differ in their last bits, build one.  A
# step of length h on the table of h0 misses |h - h0| sum_k ||C_k||_2
_SHARE_TOL = 1e-12
# verify's cost model (integrator_costs) is fitted to timings of both
# integrators with one BLAS thread at N = 6 to 96 and m = 3 to 11 live modes,
# where a batched N x N product ran at about 5e9 multiply-adds per second.
# Each interval of a sweep adds its segment product and emission: these many
# multiply-adds, about 19 us (CF4, reference-n2) and 12 us (Magnus,
# oscillator-quartic), the time one sweep of 64 two-step intervals takes
# over one sweep of a 128-step interval, per extra interval
_CALL_COST = {"cf4": 9.5e4, "magnus": 6e4}


def _mean_phase(z):
    """E(z) = (e^{iz} - 1) / (iz), the mean of e^{izs} over 0 <= s <= 1.

    Formed as e^{iz/2} sin(z/2) / (z/2), which keeps its relative accuracy
    near z = 0 and near the zeros 2 pi k.
    """
    half = 0.5 * np.asarray(z, dtype=float)
    return np.exp(1j * half) * np.divide(np.sin(half), half, out=np.ones_like(half),
                                         where=half != 0)


def _moments(x):
    """M_p(x) = int_0^1 s^p e^{ixs} ds for p = 0 .. _PSI_TERMS, shape (_PSI_TERMS + 1,) + x.shape.

    M_0 is E(x).  M_p = (e^{ix} - p M_{p-1}) / (ix) multiplies an error by
    p / |x|, so it runs upward where p <= |x|, and downward, M_{p-1} =
    (e^{ix} - ix M_p) / p, where p > |x|, from M_p = 0 at p = _MOMENTS_FROM.
    """
    x = np.asarray(x, dtype=float)
    M = np.empty((_PSI_TERMS + 1,) + x.shape, dtype=complex)
    M[0] = _mean_phase(x)
    size, phase, ix = np.abs(x), np.exp(1j * x), 1j * x
    up = size >= 1.0
    prev = M[0, up]
    for p in range(1, _PSI_TERMS + 1):
        prev = (phase[up] - p * prev) / ix[up]
        M[p, up] = prev
    down = size < _PSI_TERMS + 1
    size, phase, ix = size[down], phase[down], ix[down]
    prev = np.zeros(size.shape, dtype=complex)
    for p in range(_MOMENTS_FROM, 1, -1):
        prev = (phase - ix * prev) / p
        if p <= _PSI_TERMS + 1:
            M[p - 1, down] = np.where(p - 1 > size, prev, M[p - 1, down])
    return M


def _same_length(h: float, h0: float) -> bool:
    return abs(h - h0) <= _SHARE_TOL * h0


class _Interaction:
    """The forcing in the interaction picture and the Magnus steps it takes.

    With A = diag(lambda) and U(t) = e^{iAt} Phi(t), i U' = P_I(t) U with
    P_I(t)_ij = sum_k C_k,ij e^{i nu_k,ij t}, C_k = (P_k + diag mu_k)
    e^{ik.phi0} and nu_k,ij = lambda_i - lambda_j + k.omega.  The step from
    a to a + h is exp(Omega1 + Omega2), the first two Magnus terms with their
    oscillatory integrals formed exactly (Iserles, BIT 42 (2002) 561):

        Omega1 = -i h sum_k X_k o E(nu_k h),
        Omega2 = -(h^2/2) sum_{k,k'} sum_l X_k,il X_k',lj S(nu_k,il h, nu_k',lj h),

    X_k = C_k o e^{i nu_k a}, S(x, y) = psi(x, y) - psi(y, x) = 2 psi(x, y)
    - E(x) E(y) and psi(x, y) = int_0^1 e^{ixs} int_0^s e^{iyu} du ds =
    (E(x + y) - E(x)) / (iy).  The phases of a factor out: Omega = D (sum_r
    e^{i r.omega a} W_r) D^* with D = e^{iAa} and r over the modes k and the
    sums k + k', so Phi(a + h) = e^{-iAh} exp(sum_r e^{i r.omega a} W_r)
    Phi(a).  The tables W_r depend on h alone and are built once per step
    length.
    """

    def __init__(self, base: DiagonalPart, P: OperatorSeries | None, omega, phi0):
        ks, C = _forcing(base, P)
        m, n = ks.shape
        gaps = base.lam[:, None] - base.lam[None, :]
        self.lam = base.lam
        self.C = C * np.exp(1j * (ks @ phi0))[:, None, None]
        self.nu = gaps + (ks @ omega)[:, None, None]
        sums = (ks[:, None] + ks[None]).reshape(-1, n)
        modes, where = np.unique(np.concatenate([ks, sums]), axis=0, return_inverse=True)
        where = where.reshape(-1)
        self.first, self.second = where[:m], where[m:].reshape(m, m)
        self.rate = modes @ omega
        self.nu_modes = gaps + self.rate[:, None, None]
        self.tables = []

    def generator(self, h: float) -> np.ndarray:
        """W_r, shape (R, N, N), for steps of length h; shared by lengths within _SHARE_TOL.

        x + y = nu_r,ij h with r = k + k', so, with y = nu_k',lj h, the sum
        over l of Omega2 is a sum of matrix products:

            sum_l C_k,il C_k',lj S = 2 E(nu_r h) o (C_k @ B_k') - F_k @ (2 B_k' + F_k')
                                     + 2 sum_{p >= 1} (C_k o M_p(nu_k h) / p!) @ Y_k',p,

        with F_k = C_k o E(nu_k h), B_k' = C_k' / (iy) where |y| >= 0.5 and
        Y_k',p = C_k' (iy)^(p-1) where |y| < 0.5, the series part of psi.
        So no table of m^2 N^3 psi values is formed.
        """
        for h0, W in self.tables:
            if _same_length(h, h0):
                return W
        C, X = self.C, self.nu * h
        m, N = X.shape[:2]
        M = _moments(X)                                  # M[0] = E(nu_k h)
        W = np.zeros((len(self.rate), N, N), dtype=complex)
        np.add.at(W, self.first, -1j * h * C * M[0])
        series = np.abs(X) < _PSI_SERIES_BELOW
        iy = 1j * X
        B = np.where(series, 0.0, C / np.where(series, 1.0, iy))
        # right factors, rows (p, l) and columns (k', j)
        right = np.empty((_PSI_TERMS + 1, m, N, N), dtype=complex)
        right[0] = -(2.0 * B + C * M[0])
        right[1] = np.where(series, 2.0 * C, 0.0)
        for p in range(2, _PSI_TERMS + 1):
            right[p] = right[p - 1] * iy
        right = right.transpose(0, 2, 1, 3).reshape((_PSI_TERMS + 1) * N, m * N)
        B = B.transpose(1, 0, 2).reshape(N, m * N)
        Er = _mean_phase(self.nu_modes * h)
        for k in range(m):
            left = (C[k] * M[:, k] * _INV_FACTORIAL[:, None, None]).transpose(1, 0, 2)
            G = (left.reshape(N, -1) @ right).reshape(N, m, N)
            G += 2.0 * Er[self.second[k]].transpose(1, 0, 2) * (C[k] @ B).reshape(N, m, N)
            np.add.at(W, self.second[k], (-0.5 * h * h) * G.transpose(1, 0, 2))
        self.tables.append((h, W))
        return W

    def exponentials(self, a: np.ndarray, h: np.ndarray, work: _Workspace) -> np.ndarray:
        """The Magnus steps from a[j] of length h[j], shape (len(a), 1, N, N).

        The exponent sum_r e^{i r.omega a} W_r comes from the table of each
        distinct length in the batch, and each exponential is followed by
        e^{-iAh}.  Every array of the batch's size is taken from work, and
        so are the steps.
        """
        N = len(self.lam)
        Wa = work.take("Wa", (len(a), N * N))
        part = work.take("part", (len(a), N * N))
        lengths, which = np.unique(h, return_inverse=True)
        for i, length in enumerate(lengths):
            W = self.generator(length).reshape(len(self.rate), N * N)
            rows = which == i
            phase = np.exp(1j * np.outer(a[rows], self.rate))
            Wa[rows] = np.matmul(phase, W, out=part[:len(phase)])
        decay = np.exp(-1j * h[:, None] * self.lam)[:, :, None]
        E = _expm_taylor(Wa.reshape(-1, N, N), work)
        return np.multiply(decay, E, out=E)[:, None]


def _coarse_step(base: DiagonalPart, P: OperatorSeries | None, omega, integrator: str,
                 longest: float) -> float:
    ks, C = _forcing(base, P)
    if integrator == "magnus":
        bound = _forcing_bound(C)
        return _MAGNUS_STEP / bound if bound * longest > _MAGNUS_STEP else longest
    h_c = _COARSE_STEP / float(np.max(np.abs(base.lam)))
    rate = float(np.abs(ks @ omega).max(initial=0.0))
    return min(h_c, _PERIOD_SHARE * 2.0 * np.pi / rate) if rate > 0 else h_c


def step_plan(base: DiagonalPart, P: OperatorSeries | None, omega, ts, dt: float | None = None,
              integrator: str = "cf4"):
    """The step rule of the propagators: checked dt and steps per interval.

    Interval m runs from ts[m-1] (0 for m = 0) to ts[m] in equal steps, so
    every output time is landed on exactly.  By default the steps are the
    fine grid of verify's step doubling: a coarse step h_c takes
    ceil(span / h_c) steps and the fine one exactly twice as many, so the
    two grids nest; dt is then h_c / 2.  For CF4, h_c = min(3.2 /
    max|lambda|, (2 pi / max|omega.k|) / 8), k over the live modes of P and
    mu.  For the interaction-picture Magnus step, whose oscillatory
    integrals are exact, h_c ||P|| = 0.002 with ||P|| = sum_k ||P_k + diag
    mu_k||_2, each norm bounded by sqrt(||.||_1 ||.||_inf), and h_c is at
    most the longest span.  A given dt (CF4) takes ceil(span / dt) steps.  Either way
    a CF4 dt * max|lambda| must stay below the Magnus convergence radius pi.
    Returns (dt, steps) with steps an int array.
    """
    if integrator not in _ORDER:
        raise KamError(f"unknown integrator {integrator!r}")
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise KamError("ts must be strictly increasing and nonnegative")
    lam_max = float(np.max(np.abs(base.lam)))
    spans = np.diff(ts, prepend=0.0)
    if dt is None:
        h_c = _coarse_step(base, P, omega, integrator, float(spans.max()))
        return h_c / 2.0, 2 * np.ceil(spans / h_c - 1e-12).astype(int)
    if dt * lam_max >= _MAGNUS_BOUND:
        raise KamError(
            f"dt = {dt:g} too large: dt * max|lambda| = {dt * lam_max:.3g} "
            f">= {_MAGNUS_BOUND:.6g}"
        )
    return dt, np.ceil(spans / dt - 1e-12).astype(int)


def integrator_costs(base: DiagonalPart, P: OperatorSeries | None, omega, ts) -> dict:
    """verify's predicted cost with each integrator, in complex multiply-adds.

    Both count the coarse and the fine sweep of step_plan, without halving,
    and a fixed cost per interval and sweep, its segment product and
    emission: 9.5e4 for CF4 and 6e4 for the Magnus step.  With m modes in
    the forcing table, a CF4 step costs 32 N^3 plus its two Hamiltonians,
    2 m N^2.  A Magnus step costs 8 N^3 plus its sum over the R <= m + m^2
    mode tables, R N^2, and each distinct step length builds one set of
    tables: 16 m^2 N^3 in products and 7500 for each of its m N^2 moments
    and factors.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    spans = np.diff(ts, prepend=0.0)
    ks = _forcing(base, P)[0]
    N, m = base.N, len(ks)
    R = min(m + m * m, (4 * int(np.abs(ks).max(initial=0)) + 1) ** base.n)
    per_step = {"cf4": 32.0 * N**3 + 2.0 * m * N**2, "magnus": 8.0 * N**3 + R * N**2}
    plans = {name: step_plan(base, P, omega, ts, integrator=name)[1] for name in _ORDER}
    costs = {name: int(fine.sum() + (fine // 2).sum()) * per_step[name]
             + (np.count_nonzero(fine) + np.count_nonzero(fine // 2)) * _CALL_COST[name]
             for name, fine in plans.items()}
    lengths = []
    for fine in (plans["magnus"] // 2, plans["magnus"]):
        for h in spans[fine > 0] / fine[fine > 0]:
            if not any(_same_length(h, h0) for h0 in lengths):
                lengths.append(h)
    costs["magnus"] += len(lengths) * (16.0 * m * m * N**3 + 7500.0 * m * N**2)
    return {name: float(cost) for name, cost in costs.items()}


def _sweep(exponentials, psi, ts, steps, work: _Workspace) -> np.ndarray:
    """psi carried through ts with steps[m] equal steps in interval m, from t_{m-1} to t_m.

    t_{-1} = 0.  exponentials(a, h, work) gives the steps that start at a
    with lengths h, shape (steps, e, N, N) with each step's e factors in the
    order they apply.  It is asked for _CHUNK steps at a time, across
    intervals; the part of a chunk in one interval is multiplied as a tree
    and applied to psi, and out[m] is psi at t_m.  The kernel and the tree
    take their arrays from work, sized by the first chunk and reused by
    every later one, so a sweep allocates its chunk-sized arrays once, not
    per chunk.  Its caller owns work and frees it once its sweeps are done.
    """
    starts = np.concatenate([[0.0], ts[:-1]])
    h = np.repeat((ts - starts) / np.maximum(steps, 1), steps)
    a = np.repeat(starts, steps) + np.concatenate([np.arange(n) for n in steps]) * h
    out = np.empty((len(ts),) + psi.shape, dtype=complex)
    at = 0                          # the next step to apply
    for m, end in enumerate(np.cumsum(steps)):
        while at < end:
            if at % _CHUNK == 0:
                chunk = exponentials(a[at:at + _CHUNK], h[at:at + _CHUNK], work)
            stop = min(end, at - at % _CHUNK + _CHUNK)
            part = chunk[at % _CHUNK:][:stop - at]
            psi = _ordered_product(part.reshape((-1,) + part.shape[2:]), work) @ psi
            at = stop
        out[m] = psi
    return out


def _inputs(omega, psi0, phi0, ts):
    return (
        np.atleast_1d(np.asarray(omega, dtype=float)),
        np.asarray(psi0, dtype=complex),
        np.atleast_1d(np.asarray(phi0, dtype=float)),
        np.atleast_1d(np.asarray(ts, dtype=float)),
    )


def propagate_direct(
    base: DiagonalPart,
    P: OperatorSeries | None,
    omega,
    psi0,
    phi0,
    ts,
    dt: float | None = None,
) -> np.ndarray:
    """Integrate i psi' = H(phi0 + omega t) psi with the CF4 Magnus step.

    The steps come from step_plan: by default verify's fine grid, h =
    span / steps <= 1.6 / max|lambda|, otherwise about dt.  Each step is
    two exponentials, each a Taylor polynomial whose remainder is bounded
    below 2^-53, so steps are unitary to roundoff and the norm drifts only
    at roundoff.  psi0 is one state (N,) or a block of states (N, c), all
    carried by the same steps; with the identity it gives the fundamental
    solution Phi(t) at every output time.  Returns shape (len(ts),) +
    psi0.shape.
    """
    omega, psi, phi0, ts = _inputs(omega, psi0, phi0, ts)
    _, steps = step_plan(base, P, omega, ts, dt)
    return _sweep(_cf4_exponentials(base, P, omega, phi0), psi, ts, steps, _Workspace())


def propagate_step_doubled(base: DiagonalPart, P: OperatorSeries | None, omega, psi0, phi0, ts,
                           integrator: str = "cf4"):
    """A sweep of CF4 or of the interaction-picture Magnus step, with a step-doubling estimate.

    Sweeps the nested coarse and fine grids of step_plan and estimates the
    fine sweep's error as e = max_t ||psi_fine(t) - psi_coarse(t)||_2 /
    (2^p - 1), p the order: 15 for CF4 and 3 for the second-order Magnus
    step.  The norm is the spectral norm of the block.  While e > _ERROR_TOL
    every interval's steps are doubled, the old fine sweep becoming the
    coarse one, so each halving costs one sweep; after _MAX_HALVINGS halvings
    it raises KamError.  Returns (psi_t, dt, steps, e) for the accepted fine
    sweep, psi_t as from propagate_direct.  The sweeps share one workspace,
    so a fine sweep reuses the arrays the coarse one faulted in; it is freed
    on return.
    """
    omega, psi, phi0, ts = _inputs(omega, psi0, phi0, ts)
    dt, steps = step_plan(base, P, omega, ts, integrator=integrator)
    exponentials = (_Interaction(base, P, omega, phi0).exponentials if integrator == "magnus"
                    else _cf4_exponentials(base, P, omega, phi0))
    work = _Workspace()
    coarse = _sweep(exponentials, psi, ts, steps // 2, work)
    for _ in range(_MAX_HALVINGS + 1):
        fine = _sweep(exponentials, psi, ts, steps, work)
        diff = (fine - coarse).reshape(len(ts), base.N, -1)
        estimate = float(np.max(np.linalg.norm(diff, ord=2, axis=(1, 2))))
        estimate /= 2.0 ** _ORDER[integrator] - 1.0
        if estimate <= _ERROR_TOL:
            return fine, dt, steps, estimate
        coarse, dt, steps = fine, dt / 2.0, 2 * steps
    raise KamError(
        f"{_NAMES[integrator]} error estimate {estimate:.3e} above {_ERROR_TOL:g} "
        f"after {_MAX_HALVINGS} step halvings"
    )


def quasienergies_from_period_map(
    M: np.ndarray,
    T: float,
    reduced: ReducedSystem | None = None,
    unitarity_tol: float = 1e-8,
):
    """Quasi-energies of a period map M = Phi(T) (n = 1).

    Checks unitarity of M and returns its quasi-energies
    nu_j = -arg(eig_j) / T in [0, 2 pi / T) with an info dict.  When a
    reduced system is supplied, eigenvalues are matched to the predicted
    exp(-i lambda_inf_j T) branches by eigenvector overlap with U(0) e_j and
    returned in mode order; otherwise they come out sorted.
    """
    U0 = None if reduced is None else _compose(
        reduced.generators, lambda B: B.at(np.zeros((1, 1))), M.shape[0], (1,))[0]
    return _quasienergies(M, T, U0, unitarity_tol)


def _quasienergies(M: np.ndarray, T: float, U0: np.ndarray | None, unitarity_tol: float = 1e-8):
    """quasienergies_from_period_map with the frame U0 = U(0) given (None: sorted)."""
    N = M.shape[0]
    defect = float(np.max(np.abs(np.conj(M.T) @ M - np.eye(N))))
    if defect > unitarity_tol:
        raise KamError(f"monodromy unitarity defect {defect:.3e} exceeds {unitarity_tol:g}")
    eigvals, eigvecs = np.linalg.eig(M)
    eigvals /= np.abs(eigvals)
    nu = np.mod(-np.angle(eigvals), 2.0 * np.pi) / T        # in [0, 2 pi / T)
    info = {"unitarity_defect": defect, "period": T}
    if U0 is None:
        return np.sort(nu), info
    overlap = np.abs(np.conj(U0.T) @ eigvecs) ** 2           # (mode, eig)
    perm = _match_modes(overlap)
    info["min_overlap"] = float(np.min(overlap[np.arange(N), perm]))
    return nu[perm], info


def _match_modes(overlap: np.ndarray) -> np.ndarray:
    """The assignment of eigenvectors to modes of largest total overlap.

    overlap is doubly stochastic up to roundoff.  When every row maximum is
    above 1/2, no two rows share their argmax column, so the row argmax is a
    permutation; as it takes every row's maximum, it is the unique optimal
    assignment.  The permutation is checked all the same, because eig's
    eigenvectors are orthonormal only up to roundoff.  Otherwise
    linear_sum_assignment solves the assignment.
    """
    perm = np.argmax(overlap, axis=1)
    if np.all(overlap.max(axis=1) > 0.5) and np.unique(perm).size == len(perm):
        return perm
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-overlap)
    perm[rows] = cols
    return perm


def monodromy_quasienergies(
    base: DiagonalPart,
    P: OperatorSeries | None,
    omega: float,
    dt: float | None = None,
    reduced: ReducedSystem | None = None,
    unitarity_tol: float = 1e-8,
):
    """Quasi-energies from the period map of a periodically forced system (n = 1).

    Propagates the identity over one period T = 2 pi / omega with
    propagate_direct, from phi0 = 0, and hands the fundamental solution
    M = Phi(T) to quasienergies_from_period_map.  Returns (nu, M, info).
    """
    w = float(np.atleast_1d(np.asarray(omega, dtype=float))[0])
    if np.atleast_1d(np.asarray(omega)).size != 1:
        raise KamError("monodromy map requires a single frequency (n = 1)")
    T = 2.0 * np.pi / w
    M = propagate_direct(base, P, [w], np.eye(base.N), np.zeros(1), [T], dt)[0]
    nu, info = quasienergies_from_period_map(M, T, reduced, unitarity_tol)
    return nu, M, info


def propagate_columns(base, P, omega, T: float, dt: float | None = None) -> np.ndarray:
    """Phi(T) from Phi(0) = I; kept only because bench/tracer.py names it."""
    return propagate_direct(base, P, omega, np.eye(base.N), np.zeros(np.size(omega)), [T], dt)[0]
