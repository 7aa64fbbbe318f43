"""Floquet spectrum of the reduced system and independent trajectory checks.

After reduction the equation decouples: each mode evolves as

    chi_i(t) = chi_i(0) exp(-i (lambda_inf_i t + F_i(t))),
    F_i(t)   = sum_{k != 0} muhat_{i,k} e^{i k.phi0} (e^{i (omega.k) t} - 1) / (i omega.k),

so solutions of the original system are x(t) = U(phi0 + omega t) chi(t) with
U the composed conjugation.  The Floquet exponents are lambda_inf_j + omega.k.

Everything here that claims to verify the engine is computed without it:
direct propagation uses only the original coefficients, and the monodromy
matrix (n = 1) is diagonalized on its own.  verify propagates the
fundamental solution Phi from the identity through the output times (and,
for n = 1, the period T), reconstructs the whole propagator U(phi_t)
e^{-i (Lambda t + F(t))} U(phi0)^* at the same times, with the generators
evaluated at the flow's angles by OperatorSeries.at, and compares the two
as operators; for n = 1 it hands Phi(T) to quasienergies_from_period_map.

One propagation loop carries a state or a block of states through a shared
stepping kernel, _step_product: the fourth-order commutator-free Magnus
step CF4 (Blanes & Moan, Appl. Numer. Math. 56 (2006) 1519), two
exponentials of combinations of H at the step's Gauss points.  The
Hamiltonians of a chunk of steps are built as one batch, each exponential
is an engine._expm_taylor Taylor polynomial with remainder below 2^-53,
and the chunk's exponentials are multiplied together as a tree, so steps
are unitary to roundoff.  step_plan holds the step rule: nested coarse and
fine grids below the Magnus convergence radius h ||H|| < pi, whose coarse
step also spans at most an eighth of the shortest forcing period.
propagate_step_doubled compares the two sweeps for the error estimate that
verify records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# _taylor_degree is verify's degree rule, re-exported next to the step kernel
from .engine import (  # noqa: F401
    ReducedSystem,
    _compose,
    _expm_taylor,
    _taylor_degree,
)
from .errors import KamError
from .homological import _check_divisors, _divisor_floor
from .torus import DiagonalPart, OperatorSeries, k_box

__all__ = [
    "FloquetSpectrum",
    "floquet_spectrum",
    "reconstruct_solution",
    "propagate_direct",
    "propagate_step_doubled",
    "step_plan",
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


def _phase_integral(reduced: ReducedSystem, phi0: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """F_i(t) = integral of mu_i along the flow from phi0, shape (T, N).

    A live mode whose |omega.k| is below the solve's floor raises DivisorTooSmall.
    """
    N = reduced.N
    out = np.zeros((len(ts), N), dtype=complex)
    if reduced.mu_inf is None or reduced.K_mu == 0:
        return out
    n, K = reduced.n, reduced.K_mu
    ks = k_box(n, K)
    kw = ks @ reduced.omega                              # (m,)
    coeffs = reduced.mu_inf.reshape(N, -1)               # (N, m)
    use = (np.max(np.abs(coeffs), axis=0) > 0) & np.any(ks != 0, axis=1)
    box = (2 * K + 1,) * n
    _check_divisors(kw.reshape(box), _divisor_floor(n, K), use.reshape(box), n, K, "|omega.k|")
    kw = kw[use]
    phase0 = np.exp(1j * (ks[use] @ phi0))
    ramp = (np.exp(1j * np.outer(ts, kw)) - 1.0) / (1j * kw)   # (T, m)
    out += ramp @ (coeffs[:, use] * phase0).T
    return out


def reconstruct_solution(reduced: ReducedSystem, psi0, phi0, ts) -> np.ndarray:
    """Almost-periodic solution psi(t) = U(phi0 + omega t) chi(t), shape (T,) + psi0.shape.

    psi0 is one state (N,) or a block of states (N, c); with the identity
    the result is the reduced propagator U(phi_t) e^{-i (Lambda t + F(t))}
    U(phi0)^* at every output time.  chi(0) = U(phi0)* psi0 and each chi_i
    evolves by the explicit phase lambda_inf_i t + F_i(t); the Euclidean
    norm is conserved exactly up to roundoff because every factor is unitary.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    psi0 = np.asarray(psi0, dtype=complex)
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    N = reduced.N
    if psi0.ndim not in (1, 2) or psi0.shape[0] != N:
        raise KamError(f"psi0 must have shape ({N},) or ({N}, c)")
    phis = phi0[None, :] + np.outer(ts, reduced.omega)
    U0 = _compose(reduced.generators, lambda B: B.at(phi0[None, :]), N, (1,))[0]
    chi0 = np.conj(U0.T) @ psi0.reshape(N, -1)           # (N, c)
    F = _phase_integral(reduced, phi0, ts)               # (T, N)
    phase = np.exp(-1j * (np.outer(ts, reduced.lambda_inf) + F))
    U = _compose(reduced.generators, lambda B: B.at(phis), N, (len(phis),))
    return (U @ (phase[:, :, None] * chi0[None])).reshape((len(ts),) + psi0.shape)


def _hamiltonian(base: DiagonalPart, P: OperatorSeries | None):
    """phis -> H(phi) = diag(lambda + mu(phi)) + P(phi) for a batch of angles.

    P's values come from OperatorSeries.at; the diagonal is added to them.
    """
    N = base.N
    idx = np.arange(N)
    live_mu = base.mu is not None and base.K > 0
    if live_mu:
        ks_mu, mu = k_box(base.n, base.K).T, base.mu.reshape(N, -1).T

    def at(phis: np.ndarray) -> np.ndarray:
        H = np.zeros((phis.shape[0], N, N), dtype=complex) if P is None else P.at(phis)
        H[:, idx, idx] += base.lam + np.exp(1j * (phis @ ks_mu)) @ mu if live_mu else base.lam
        return H
    return at


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
# steps per batch of the step kernel.  A step is two exponentials, so a batch
# is 32 matrices, 295 KB at N = 24.  Timed over verify's two sweeps in fresh
# processes, 16 took 0.38 s against 0.61 s for 32 on the N = 24 oscillator
# and 0.32 s against 0.31 s on the N = 20 reference-n2
_CHUNK = 16


def _ordered_product(E: np.ndarray) -> np.ndarray:
    """E[-1] @ ... @ E[1] @ E[0], multiplied pairwise level by level."""
    while len(E) > 1:
        even = len(E) - len(E) % 2
        paired = E[1:even:2] @ E[0:even:2]
        E = np.concatenate([paired, E[even:]]) if even < len(E) else paired
    return E[0]


def _step_product(base, P, omega, phi0, t0: float, h: float, steps: int) -> np.ndarray:
    """prod_j of the CF4 steps from t0 + j h for j < steps, later steps on the left.

    Step j is exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)) with H1, H2
    the Hamiltonian at the Gauss points t0 + (j + 1/2 -+ sqrt(3)/6) h.  Works
    in chunks of _CHUNK steps: the Hamiltonians at the Gauss points are built
    as one batch, every exponential comes from _expm_taylor and the chunk's
    exponentials are multiplied together as a tree.
    """
    N = base.N
    U = np.eye(N, dtype=complex)
    hamiltonian = _hamiltonian(base, P)
    weights = -1j * h * _CF4_WEIGHTS
    for done in range(0, steps, _CHUNK):
        take = min(_CHUNK, steps - done)
        nodes = t0 + ((done + np.arange(take))[:, None] + _GAUSS[None, :]) * h
        phis = phi0[None, :] + nodes.reshape(-1, 1) * omega[None, :]
        H = hamiltonian(phis).reshape(take, 2, N * N)
        E = _expm_taylor((weights @ H).reshape(2 * take, N, N))
        U = _ordered_product(E) @ U
    return U


def _forcing_rate(base: DiagonalPart, P: OperatorSeries | None, omega) -> float:
    """max |omega.k| over the modes k at which P or mu is nonzero; 0 if none."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    live = []
    if P is not None:
        live.append((P.n, P.K, np.abs(P.coeffs).reshape((2 * P.K + 1) ** P.n, -1)))
    if base.mu is not None and base.K > 0:
        live.append((base.n, base.K, np.abs(base.mu).reshape(base.N, -1).T))
    return max((float(np.abs(k_box(n, K) @ omega)[size.max(axis=1) > 0].max(initial=0.0))
                for n, K, size in live), default=0.0)


def step_plan(base: DiagonalPart, P: OperatorSeries | None, omega, ts, dt: float | None = None):
    """The step rule of the propagators: checked dt and steps per interval.

    Interval m runs from ts[m-1] (0 for m = 0) to ts[m] in equal steps, so
    every output time is landed on exactly.  By default the steps are the
    fine grid of verify's step doubling: the coarse step h_c = min(3.2 /
    max|lambda|, (2 pi / max|omega.k|) / 8), k over the live modes of P and
    mu, takes ceil(span / h_c) steps and the fine one exactly twice as many,
    so the two grids nest; dt is then h_c / 2.  A given dt takes
    ceil(span / dt) steps.  Either way dt * max|lambda| must stay below the
    Magnus convergence radius pi.  Returns (dt, steps) with steps an int
    array.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise KamError("ts must be strictly increasing and nonnegative")
    lam_max = float(np.max(np.abs(base.lam)))
    spans = np.diff(ts, prepend=0.0)
    if dt is None:
        h_c = _COARSE_STEP / lam_max
        rate = _forcing_rate(base, P, omega)
        if rate > 0:
            h_c = min(h_c, _PERIOD_SHARE * 2.0 * np.pi / rate)
        return h_c / 2.0, 2 * np.ceil(spans / h_c - 1e-12).astype(int)
    if dt * lam_max >= _MAGNUS_BOUND:
        raise KamError(
            f"dt = {dt:g} too large: dt * max|lambda| = {dt * lam_max:.3g} "
            f">= {_MAGNUS_BOUND:.6g}"
        )
    return dt, np.ceil(spans / dt - 1e-12).astype(int)


def _sweep(base, P, omega, psi, phi0, ts, steps) -> np.ndarray:
    """psi carried through ts with steps[m] equal CF4 steps in interval m."""
    out = np.empty((len(ts),) + psi.shape, dtype=complex)
    t = 0.0
    for m, (t_target, n) in enumerate(zip(ts, steps)):
        if n:
            psi = _step_product(base, P, omega, phi0, t, (t_target - t) / n, n) @ psi
        t = t_target
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
    return _sweep(base, P, omega, psi, phi0, ts, steps)


def propagate_step_doubled(base: DiagonalPart, P: OperatorSeries | None, omega, psi0, phi0, ts):
    """propagate_direct's sweep with a step-doubling estimate of its error.

    Sweeps the nested coarse and fine grids of step_plan and estimates the
    fine sweep's error as e = max_t ||psi_fine(t) - psi_coarse(t)||_2 / 15,
    since CF4 is fourth order; the norm is the spectral norm of the block.
    While e > _ERROR_TOL every interval's steps are doubled, the old fine
    sweep becoming the coarse one, so each halving costs one sweep; after
    _MAX_HALVINGS halvings it raises KamError.  Returns (psi_t, dt, steps,
    e) for the accepted fine sweep, psi_t as from propagate_direct.
    """
    omega, psi, phi0, ts = _inputs(omega, psi0, phi0, ts)
    dt, steps = step_plan(base, P, omega, ts)
    coarse = _sweep(base, P, omega, psi, phi0, ts, steps // 2)
    for _ in range(_MAX_HALVINGS + 1):
        fine = _sweep(base, P, omega, psi, phi0, ts, steps)
        diff = (fine - coarse).reshape(len(ts), base.N, -1)
        estimate = float(np.max(np.linalg.norm(diff, ord=2, axis=(1, 2)))) / 15.0
        if estimate <= _ERROR_TOL:
            return fine, dt, steps, estimate
        coarse, dt, steps = fine, dt / 2.0, 2 * steps
    raise KamError(
        f"CF4 error estimate {estimate:.3e} above {_ERROR_TOL:g} "
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
    N = M.shape[0]
    defect = float(np.max(np.abs(np.conj(M.T) @ M - np.eye(N))))
    if defect > unitarity_tol:
        raise KamError(f"monodromy unitarity defect {defect:.3e} exceeds {unitarity_tol:g}")
    eigvals, eigvecs = np.linalg.eig(M)
    eigvals /= np.abs(eigvals)
    nu = np.mod(-np.angle(eigvals), 2.0 * np.pi) / T        # in [0, 2 pi / T)
    info = {"unitarity_defect": defect, "period": T}
    if reduced is None:
        return np.sort(nu), info
    U0 = _compose(reduced.generators, lambda B: B.at(np.zeros((1, 1))), N, (1,))[0]
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
