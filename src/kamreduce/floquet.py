"""Floquet spectrum of the reduced system and independent trajectory checks.

After reduction the equation decouples: each mode evolves as

    chi_i(t) = chi_i(0) exp(-i (lambda_inf_i t + F_i(t))),
    F_i(t)   = sum_{k != 0} muhat_{i,k} e^{i k.phi0} (e^{i (omega.k) t} - 1) / (i omega.k),

so solutions of the original system are x(t) = U(phi0 + omega t) chi(t) with
U the composed conjugation.  The Floquet exponents are lambda_inf_j + omega.k.

Everything here that claims to verify the engine is computed without it:
direct propagation uses only the original coefficients and an exponential
midpoint rule, and the monodromy matrix (n = 1) is diagonalized on its own.
verify makes one sweep for every n: it propagates the fundamental solution
Phi from the identity through the output times (and, for n = 1, the period
T), reconstructs the whole propagator U(phi_t) e^{-i (Lambda t + F(t))}
U(phi0)^* at the same times, with the generators evaluated at the flow's
angles by OperatorSeries.at, and compares the two as operators; for n = 1
it hands Phi(T) to quasienergies_from_period_map.

One propagator, propagate_direct, carries a state or a block of states
through a shared stepping kernel, _step_product.  It builds the midpoint
Hamiltonians of a chunk of steps as one batch, forms each step
exp(-i h H) with engine._expm_taylor, a Paterson-Stockmeyer Taylor
polynomial whose remainder is bounded below 2^-53 (scaling and squaring
above a fixed norm bound; the composition of the exp(B_l) uses the same
kernel), and multiplies the chunk's steps together as a tree.  Steps are
therefore unitary to roundoff rather than by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# _taylor_degree is verify's degree rule, re-exported next to the step kernel
from .engine import (  # noqa: F401
    ReducedSystem,
    _compose,
    _expm_taylor,
    _taylor_degree,
)
from .errors import DivisorTooSmall, KamError
from .torus import DiagonalPart, OperatorSeries, k_box

__all__ = [
    "FloquetSpectrum",
    "floquet_spectrum",
    "reconstruct_solution",
    "propagate_direct",
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


def _phase_integral(reduced: ReducedSystem, phi0: np.ndarray, ts: np.ndarray,
                    floor: float = 1e-12) -> np.ndarray:
    """F_i(t) = integral of mu_i along the flow from phi0, shape (T, N)."""
    N = reduced.N
    out = np.zeros((len(ts), N), dtype=complex)
    if reduced.mu_inf is None or reduced.K_mu == 0:
        return out
    n, K = reduced.n, reduced.K_mu
    ks = k_box(n, K)
    kw = ks @ reduced.omega                              # (m,)
    coeffs = reduced.mu_inf.reshape(N, -1)               # (N, m)
    live = np.max(np.abs(coeffs), axis=0) > 0
    nonzero = np.any(ks != 0, axis=1)
    bad = live & nonzero & (np.abs(kw) < floor)
    if np.any(bad):
        kbad = ks[np.argmax(bad)]
        raise DivisorTooSmall(
            f"omega.k = {kw[np.argmax(bad)]:.3e} below floor for mode k = {tuple(kbad)}",
            i=0, j=0, k=tuple(int(x) for x in kbad), value=float(kw[np.argmax(bad)]),
        )
    use = live & nonzero
    if not np.any(use):
        return out
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

    The mode boxes and coefficient layouts are built once, here, so a
    propagation loop that evaluates many batches pays for them once.
    """
    N = base.N
    idx = np.arange(N)
    live_mu = base.mu is not None and base.K > 0
    if live_mu:
        ks_mu, mu = k_box(base.n, base.K).T, base.mu.reshape(N, -1).T
    if P is not None:
        ks_P, coeffs_P = k_box(P.n, P.K).T, P.coeffs.reshape(-1, N * N)

    def at(phis: np.ndarray) -> np.ndarray:
        T = phis.shape[0]
        H = np.zeros((T, N, N), dtype=complex)
        H[:, idx, idx] = base.lam
        if live_mu:
            H[:, idx, idx] += np.exp(1j * (phis @ ks_mu)) @ mu
        if P is not None:
            H += (np.exp(1j * (phis @ ks_P)) @ coeffs_P).reshape(T, N, N)
        return H
    return at


# steps per batch of the step kernel: 32 complex 24 x 24 matrices are 295 KB,
# so a batch with its powers and Horner blocks stays in a 2 MB L2 cache
_CHUNK = 32
def _ordered_product(E: np.ndarray) -> np.ndarray:
    """E[-1] @ ... @ E[1] @ E[0], multiplied pairwise level by level."""
    while len(E) > 1:
        even = len(E) - len(E) % 2
        paired = E[1:even:2] @ E[0:even:2]
        E = np.concatenate([paired, E[even:]]) if even < len(E) else paired
    return E[0]


def _step_product(base, P, omega, phi0, t0: float, h: float, steps: int) -> np.ndarray:
    """prod_j exp(-i h H(t0 + (j + 1/2) h)) for j < steps, later steps on the left.

    Works in chunks of _CHUNK steps: the Hamiltonians at the midpoints are
    built as one batch, every step exponential comes from _expm_taylor and
    the chunk's steps are multiplied together as a tree.
    """
    U = np.eye(base.N, dtype=complex)
    hamiltonian = _hamiltonian(base, P)
    for done in range(0, steps, _CHUNK):
        take = min(_CHUNK, steps - done)
        mids = t0 + (done + np.arange(take) + 0.5) * h
        phis = phi0[None, :] + mids[:, None] * omega[None, :]
        A = hamiltonian(phis)
        A *= -1j * h
        E = _expm_taylor(A)
        U = _ordered_product(E) @ U
    return U


def step_plan(base: DiagonalPart, ts, dt: float | None = None, dt_cap: float = 0.1):
    """The step rule of both propagators: checked dt and steps per interval.

    dt defaults to 0.5 dt_cap / max|lambda| and must satisfy
    dt * max|lambda| < dt_cap.  Interval m runs from ts[m-1] (0 for m = 0)
    to ts[m] and takes ceil(span / dt) equal steps, so every output time is
    landed on exactly.  Returns (dt, steps) with steps an int array.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise KamError("ts must be strictly increasing and nonnegative")
    lam_max = float(np.max(np.abs(base.lam)))
    if dt is None:
        dt = 0.5 * dt_cap / lam_max
    if dt * lam_max >= dt_cap:
        raise KamError(
            f"dt = {dt:g} too large: dt * max|lambda| = {dt * lam_max:.3g} >= {dt_cap}"
        )
    spans = np.diff(ts, prepend=0.0)
    return dt, np.ceil(spans / dt - 1e-12).astype(int)


def propagate_direct(
    base: DiagonalPart,
    P: OperatorSeries | None,
    omega,
    psi0,
    phi0,
    ts,
    dt: float | None = None,
    dt_cap: float = 0.1,
) -> np.ndarray:
    """Integrate i psi' = H(phi0 + omega t) psi with the exponential midpoint rule.

    The step is exp(-i h H(t + h/2)), with h = span / steps from step_plan,
    which also guards dt * max|lambda| < dt_cap.  Each step exponential is a Taylor
    polynomial whose remainder is bounded below 2^-53, so steps are unitary
    to roundoff and the norm drifts only at roundoff.  psi0 is one state (N,)
    or a block of states (N, c), all carried by the same steps; with the
    identity it gives the fundamental solution Phi(t) at every output time.
    Returns shape (len(ts),) + psi0.shape.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    psi = np.asarray(psi0, dtype=complex)
    phi0 = np.atleast_1d(np.asarray(phi0, dtype=float))
    _, steps = step_plan(base, ts, dt, dt_cap)
    out = np.empty((len(ts),) + psi.shape, dtype=complex)
    t = 0.0
    for m, (t_target, n) in enumerate(zip(ts, steps)):
        if n:
            psi = _step_product(base, P, omega, phi0, t, (t_target - t) / n, n) @ psi
        t = t_target
        out[m] = psi
    return out


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
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(N, dtype=int)
    perm[rows] = cols
    info["min_overlap"] = float(np.min(overlap[rows, cols]))
    return nu[perm], info


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
