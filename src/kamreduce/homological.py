"""Homological-equation solvers used by the reduction step.

The step removes the off-diagonal, nonconstant part of a perturbation P of a
diagonal operator A(phi) = diag(lambda_i + mu_i(phi)) by an anti-hermitian
generator B solving

    [A, B] - i Bdot + (P - diag P) = 0 ,      Bdot = (omega . d/dphi) B.

With mu = 0 this is solved coefficient-wise:

    Bhat_ijk = - Phat_ijk / (omega.k + lambda_i - lambda_j),   i != j.

With mu != 0 each scalar pair equation

    -i (omega . d/dphi) chi + E1 chi + E2 h chi = b

is solved exactly by an integrating factor: with H the zero-average torus
primitive of h (Hhat_k = hhat_k / (i omega.k)),

    chi = e^{-i E2 H} u,        uhat_k = (e^{i E2 H} b)hat_k / (omega.k + E1).

All grid products are oversampled; every solve reports its equation residual
so truncation is certified rather than assumed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .errors import DivisorTooSmall, GuardWarning, KamError
from .torus import (
    DiagonalPart,
    OperatorSeries,
    TorusSeries,
    _grid_opnorm_max,
    _k_dot_omega,
    coeffs_to_grid,
    delta_norm,
    grid_to_coeffs,
    k_norm1_grid,
    sup_norm_s,
)

__all__ = [
    "HomologicalSolution",
    "solve_constant",
    "torus_primitive",
    "solve_kuksin",
    "solve_variable",
]

DEFAULT_FLOOR_SCALE = 1e-12


def _divisor_floor(n: int, K: int, floor_scale: float, tau: float = 2.0) -> np.ndarray:
    """Absolute floor 1e-12-scaled, relaxed polynomially in |k|_1."""
    return floor_scale / (1.0 + k_norm1_grid(n, K) ** tau)


@dataclass(frozen=True)
class HomologicalSolution:
    """Generator B with its certification data."""

    B: OperatorSeries
    residual: float              # relative defect of the homological equation
    min_divisor: float
    guard_ok: bool = True
    guard_messages: tuple = ()
    truncation_residue: float = 0.0


def _l1_max_entry(coeffs: np.ndarray, n: int) -> float:
    """max_ij sum_k |chat_ijk| (cheap operator-style coefficient norm)."""
    if coeffs.ndim == n:
        return float(np.sum(np.abs(coeffs)))
    flat = np.abs(coeffs).reshape(-1, coeffs.shape[-2], coeffs.shape[-1])
    return float(np.max(np.sum(flat, axis=0)))


def solve_constant(
    P: OperatorSeries,
    base: DiagonalPart,
    omega,
    floor_scale: float = DEFAULT_FLOOR_SCALE,
) -> HomologicalSolution:
    """Coefficient-wise solve for constant diagonal part (mu = 0).

    Only the off-diagonal part of P is removed; B_ii = 0, so the equation
    residual is measured on off-diagonal entries.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if base.mu is not None and np.max(np.abs(base.mu)) > 0:
        raise KamError("solve_constant requires mu = 0; use solve_variable")
    n, K, N = P.n, P.K, P.N
    kdw = _k_dot_omega(n, K, omega)
    gap = base.lam[:, None] - base.lam[None, :]
    den = kdw[..., None, None] + gap
    offmask = ~np.eye(N, dtype=bool)
    floor = _divisor_floor(n, K, floor_scale)[..., None, None]
    bad = (np.abs(den) < floor) & offmask & (np.abs(P.coeffs) > 0)
    if np.any(bad):
        idx = tuple(int(x) for x in np.argwhere(bad)[0])
        k = tuple(idx[a] - K for a in range(n))
        raise DivisorTooSmall(
            f"divisor below floor at (i,j,k)=({idx[-2] + 1},{idx[-1] + 1},{k})",
            i=idx[-2] + 1, j=idx[-1] + 1, k=k, value=float(np.abs(den[idx])),
        )
    Bc = np.zeros_like(P.coeffs)
    np.divide(-P.coeffs, den, out=Bc, where=offmask & (np.abs(den) > 0))
    B = OperatorSeries(n, K, N, Bc)
    defect = den * Bc + P.coeffs
    idxN = np.arange(N)
    defect[..., idxN, idxN] = 0.0
    Poff = P.coeffs.copy()
    Poff[..., idxN, idxN] = 0.0
    scale = _l1_max_entry(Poff, n)
    residual = _l1_max_entry(defect, n) / max(scale, 1e-300)
    min_div = float(np.min(np.abs(den[offmask & (np.abs(P.coeffs) > 0)]))) if np.any(
        offmask & (np.abs(P.coeffs) > 0)
    ) else np.inf
    return HomologicalSolution(B=B, residual=residual, min_divisor=min_div)


def torus_primitive(h: TorusSeries, omega, floor_scale: float = DEFAULT_FLOOR_SCALE) -> TorusSeries:
    """Zero-average primitive H with (omega . d/dphi) H = h (requires hhat_0 = 0)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    scale = float(np.max(np.abs(h.coeffs))) if h.coeffs.size else 0.0
    if abs(h.average()) > 1e-10 * max(scale, 1e-300):
        raise KamError("torus_primitive requires a zero-average input")
    kdw = _k_dot_omega(h.n, h.K, omega)
    floor = _divisor_floor(h.n, h.K, floor_scale)
    ctr = (h.K,) * h.n
    bad = (np.abs(kdw) < floor) & (np.abs(h.coeffs) > 0)
    bad[ctr] = False
    if np.any(bad):
        idx = tuple(int(x) for x in np.argwhere(bad)[0])
        k = tuple(idx[a] - h.K for a in range(h.n))
        raise DivisorTooSmall(f"|omega.k| below floor at k={k}", k=k,
                              value=float(np.abs(kdw[idx])))
    Hc = np.zeros_like(h.coeffs)
    mask = np.abs(kdw) > 0
    np.divide(h.coeffs, 1j * kdw, out=Hc, where=mask)
    Hc[ctr] = 0.0
    return TorusSeries(h.n, h.K, Hc)


def _tight_cutoff(coeffs: np.ndarray, n: int, K: int, tol: float) -> int:
    """Smallest K' such that all shells beyond K' carry |c| < tol * max|c|."""
    mx = float(np.max(np.abs(coeffs)))
    if mx == 0.0:
        return 0
    kinf = np.zeros((2 * K + 1,) * n)
    rng = np.abs(np.arange(-K, K + 1))
    for a in range(n):
        kinf = np.maximum(kinf, rng.reshape([-1 if i == a else 1 for i in range(n)]))
    flat_k = kinf.reshape(-1)
    if coeffs.ndim > n:
        mags = np.max(np.abs(coeffs).reshape(len(flat_k), -1), axis=1)
    else:
        mags = np.abs(coeffs).reshape(-1)
    alive = flat_k[mags >= tol * mx]
    return int(np.max(alive)) if len(alive) else 0


def solve_kuksin(
    b: TorusSeries,
    h: TorusSeries | None,
    E1: float,
    E2: float,
    omega,
    K_out: int | None = None,
    oversample: int = 4,
    guard_theta: float = 0.5,
    guard_C: float = 1.0,
    floor_scale: float = DEFAULT_FLOOR_SCALE,
    with_info: bool = False,
):
    """Solve -i (omega.d/dphi) chi + E1 chi + E2 h chi = b by integrating factor.

    h should be normalized (||h||_s <= 1); E2 >= 0 carries the size.  The
    smallness guard E1^theta >= C E2 is advisory: a violation emits a
    GuardWarning, never a silent pass.  Returns chi, or (chi, info) with
    info = {residual, min_divisor, unimodularity_defect, guard_ok, K_out}.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = b.n
    if E2 < 0:
        raise KamError("E2 must be nonnegative")
    guard_ok = True
    if E2 > 0 and abs(E1) ** guard_theta < guard_C * E2:
        guard_ok = False
        warnings.warn(
            f"kuksin guard |E1|^theta >= C*E2 violated: |{E1}|^{guard_theta} < {guard_C}*{E2}",
            GuardWarning,
        )

    trivial_factor = E2 == 0.0 or h is None or float(np.max(np.abs(h.coeffs))) == 0.0
    if trivial_factor:
        K_u = b.K if K_out is None else max(K_out, b.K)
        bt = b.pad_to(K_u)
        kdw = _k_dot_omega(n, K_u, omega)
        den = kdw + E1
        floor = _divisor_floor(n, K_u, floor_scale)
        bad = (np.abs(den) < floor) & (np.abs(bt.coeffs) > 0)
        if np.any(bad):
            idx = tuple(int(x) for x in np.argwhere(bad)[0])
            k = tuple(idx[a] - K_u for a in range(n))
            raise DivisorTooSmall(f"|omega.k + E1| below floor at k={k}", k=k,
                                  value=float(np.abs(den[idx])))
        chic = np.zeros_like(bt.coeffs)
        np.divide(bt.coeffs, den, out=chic, where=np.abs(den) > 0)
        chi = TorusSeries(n, K_u, chic)
        if K_out is not None:
            chi = chi.truncate(K_out)
        info = {
            "residual": 0.0 if K_out is None or K_out >= b.K else None,
            "min_divisor": float(np.min(np.abs(den[np.abs(bt.coeffs) > 0])))
            if np.any(np.abs(bt.coeffs) > 0) else np.inf,
            "unimodularity_defect": 0.0,
            "guard_ok": guard_ok,
            "K_out": chi.K,
        }
        if info["residual"] is None:
            info["residual"] = _kuksin_residual(chi, b, h, E1, E2, omega)
        return (chi, info) if with_info else chi

    H = torus_primitive(h, omega, floor_scale)
    band = b.K + h.K
    M = int(next_fast_len(max(oversample * (2 * band + 2), 2 * band + 2)))
    K_alias = (M - 2) // 2
    Hg = coeffs_to_grid(E2 * H.coeffs, n, H.K, M)
    unimod = float(np.max(np.abs(np.abs(np.exp(1j * Hg)) - 1.0)))
    if unimod > 1e-12:
        warnings.warn(f"integrating factor unimodularity defect {unimod:.2e}", GuardWarning)
    factor = np.exp(1j * Hg)
    bg = coeffs_to_grid(b.coeffs, n, b.K, M)
    btil = grid_to_coeffs(factor * bg, n, K_alias)
    kdw = _k_dot_omega(n, K_alias, omega)
    den = kdw + E1
    floor = _divisor_floor(n, K_alias, floor_scale)
    live = np.abs(btil) > 1e-16 * max(float(np.max(np.abs(btil))), 1e-300)
    bad = (np.abs(den) < floor) & live
    if np.any(bad):
        idx = tuple(int(x) for x in np.argwhere(bad)[0])
        k = tuple(idx[a] - K_alias for a in range(n))
        raise DivisorTooSmall(f"|omega.k + E1| below floor at k={k}", k=k,
                              value=float(np.abs(den[idx])))
    uc = np.zeros_like(btil)
    np.divide(btil, den, out=uc, where=live & (np.abs(den) > 0))
    ug = coeffs_to_grid(uc, n, K_alias, M)
    chig = np.conj(factor) * ug
    chic_full = grid_to_coeffs(chig, n, K_alias)
    if K_out is None:
        K_out = _tight_cutoff(chic_full, n, K_alias, 1e-15)
    chi = TorusSeries(n, K_alias, chic_full).truncate(min(K_out, K_alias))
    info = {
        "residual": _kuksin_residual(chi, b, h, E1, E2, omega, M=M),
        "min_divisor": float(np.min(np.abs(den[live]))) if np.any(live) else np.inf,
        "unimodularity_defect": unimod,
        "guard_ok": guard_ok,
        "K_out": chi.K,
    }
    return (chi, info) if with_info else chi


def _kuksin_residual(chi, b, h, E1, E2, omega, M=None):
    """sup-grid relative residual of the scalar equation."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = b.n
    Kh = h.K if (h is not None and E2 > 0) else 0
    band = chi.K + Kh
    M = int(next_fast_len(max(M or 0, 2 * band + 2)))
    kdw = _k_dot_omega(n, chi.K, omega)
    dchi = coeffs_to_grid(1j * kdw * chi.coeffs, n, chi.K, M)
    chig = coeffs_to_grid(chi.coeffs, n, chi.K, M)
    bg = coeffs_to_grid(b.coeffs, n, b.K, M)
    r = -1j * dchi + E1 * chig - bg
    if h is not None and E2 > 0:
        r = r + E2 * coeffs_to_grid(h.coeffs, n, h.K, M) * chig
    scale = float(np.max(np.abs(bg)))
    return float(np.max(np.abs(r))) / max(scale, 1e-300)


def solve_variable(
    P: OperatorSeries,
    base: DiagonalPart,
    omega,
    s: float = 0.0,
    K_out: int | None = None,
    oversample: int = 4,
    work_K: int | None = None,
    guard_theta: float = 0.5,
    guard_C: float = 1.0,
    guard_Cstar: float = 10.0,
    floor_scale: float = DEFAULT_FLOOR_SCALE,
) -> HomologicalSolution:
    """Remove the off-diagonal part of P against A = diag(lambda_i + mu_i(phi)).

    Pairs are arranged with E1 = lambda_j - lambda_i > 0 (i < j): the (j, i)
    entry is solved by the scalar integrating-factor equation with
    b = -P_ji, E2 h = mu_j - mu_i, and the (i, j) entry is its anti-hermitian
    mirror Bhat_ij(k) = -conj(Bhat_ji(-k)).  Returns the generator together
    with the measured relative equation defect.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n, N = P.n, P.N
    if base.N != N:
        raise KamError("dimension mismatch between P and base")
    if P.hermiticity_defect() > 1e-11 * max(1.0, float(np.max(np.abs(P.coeffs)))):
        warnings.warn("P is not hermitian to 1e-11; generator mirror uses P as given",
                      GuardWarning)
    messages = []
    guard_ok = True

    mu_zero = base.mu is None or float(np.max(np.abs(base.mu))) == 0.0
    if not mu_zero:
        c_mu = base.c_mu(s)
        c_lam = base.c_lambda()
        if c_mu / c_lam >= guard_Cstar:
            guard_ok = False
            messages.append(f"C* guard violated: C_mu/C_lambda = {c_mu / c_lam:.3g} >= {guard_Cstar}")
            warnings.warn(messages[-1], GuardWarning)

    # pair p is (i, j) = (ii[p], jj[p]) with i < j; B_ji is solved, B_ij mirrors it
    ii, jj = np.triu_indices(N, 1)
    pairs = list(zip(ii.tolist(), jj.tolist()))

    if mu_zero:
        zero_mu_base = DiagonalPart(lam=base.lam, d=base.d, delta=base.delta, n=n)
        sol = solve_constant(P, zero_mu_base, omega, floor_scale)
        # K_out caps the generator's band; it never pads it
        B = sol.B if K_out is None else sol.B.truncate(min(K_out, sol.B.K))
        trunc = float(np.sum(np.abs(sol.B.coeffs[..., jj, ii]))
                      - np.sum(np.abs(B.coeffs[..., jj, ii])))
        resid = _variable_residual(B, P, base, omega)
        return HomologicalSolution(B=B, residual=resid, min_divisor=sol.min_divisor,
                                   guard_ok=guard_ok, guard_messages=tuple(messages),
                                   truncation_residue=max(trunc, 0.0))

    K_mu = base.K
    band = P.K + K_mu
    if work_K is not None:
        # explicit alias-free working cutoff (memory control for large N, n)
        M = int(next_fast_len(2 * max(work_K, band) + 2))
    else:
        M = int(next_fast_len(max(oversample * (2 * band + 2), 2 * band + 2)))
    K_alias = (M - 2) // 2
    ctr = (K_mu,) * n

    # stacked scalar data on the shared grid, pair axis last
    mud = np.moveaxis(base.mu[jj] - base.mu[ii], 0, -1)      # (modes..., pairs)
    E1 = base.lam[jj] - base.lam[ii]
    w_s = np.exp(s * k_norm1_grid(n, K_mu)).reshape(-1)
    E2 = w_s @ np.abs(mud).reshape(-1, len(pairs))
    for p, (i, j) in enumerate(pairs):
        if E2[p] > 0 and E1[p] ** guard_theta < guard_C * E2[p]:
            guard_ok = False
            messages.append(
                f"kuksin guard failed for pair ({i + 1},{j + 1}): "
                f"E1^theta={E1[p] ** guard_theta:.3g} < C*E2={guard_C * E2[p]:.3g}"
            )
    if messages:
        warnings.warn("; ".join(messages[:3]), GuardWarning)

    # primitive of mu_j - mu_i (zero average by construction of mu)
    kdw_mu = _k_dot_omega(n, K_mu, omega)[..., None]
    floor_mu = _divisor_floor(n, K_mu, floor_scale)[..., None]
    live = np.abs(mud) > 1e-16 * max(float(np.max(np.abs(mud))), 1e-300)
    bad = live & (np.abs(kdw_mu) < floor_mu)
    bad[ctr] = False
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        p = int(idx[n])
        k = tuple(int(x) - K_mu for x in idx[:n])
        raise DivisorTooSmall(
            f"|omega.k| below floor for pair {pairs[p]} at k={k}",
            i=pairs[p][0] + 1, j=pairs[p][1] + 1, k=k,
        )
    Hd = np.zeros_like(mud)
    np.divide(mud, 1j * kdw_mu, out=Hd, where=np.abs(kdw_mu) > 0)
    Hd[ctr] = 0.0

    Hg = coeffs_to_grid(Hd, n, K_mu, M)
    unimod = float(np.max(np.abs(np.abs(np.exp(1j * Hg)) - 1.0)))
    if unimod > 1e-12:
        warnings.warn(f"integrating factor unimodularity defect {unimod:.2e}", GuardWarning)
    factor = np.exp(1j * Hg)

    bg = coeffs_to_grid(-P.coeffs[..., jj, ii], n, P.K, M)
    btil = grid_to_coeffs(factor * bg, n, K_alias)

    den = _k_dot_omega(n, K_alias, omega)[..., None] + E1
    floor = _divisor_floor(n, K_alias, floor_scale)[..., None]
    live = np.abs(btil) > 1e-16 * max(float(np.max(np.abs(btil))), 1e-300)
    bad = live & (np.abs(den) < floor)
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        p = int(idx[n])
        k = tuple(int(x) - K_alias for x in idx[:n])
        raise DivisorTooSmall(
            f"|omega.k + E1| below floor for pair {pairs[p]} at k={k}",
            i=pairs[p][0] + 1, j=pairs[p][1] + 1, k=k, value=float(np.abs(den[tuple(idx)])),
        )
    min_div = float(np.min(np.abs(den[live]))) if np.any(live) else np.inf
    uc = np.zeros_like(btil)
    np.divide(btil, den, out=uc, where=live & (np.abs(den) > 0))
    ug = coeffs_to_grid(uc, n, K_alias, M)
    chig = np.conj(factor) * ug
    chic = grid_to_coeffs(chig, n, K_alias)

    if K_out is None:
        K_out = min(K_alias, max(_tight_cutoff(chic[..., p], n, K_alias, 1e-15)
                                 for p in range(len(pairs))))
    K_B = min(K_out, K_alias)
    sl = tuple(slice(K_alias - K_B, K_alias + K_B + 1) for _ in range(n))
    chic_cut = chic[sl]
    trunc = float(np.sum(np.abs(chic)) - np.sum(np.abs(chic_cut)))

    Bc = np.zeros((2 * K_B + 1,) * n + (N, N), dtype=complex)
    Bc[..., jj, ii] = chic_cut
    Bc[..., ii, jj] = -np.conj(chic_cut[(slice(None, None, -1),) * n])
    B = OperatorSeries(n, K_B, N, Bc)
    resid = _variable_residual(B, P, base, omega)
    return HomologicalSolution(B=B, residual=resid, min_divisor=min_div,
                               guard_ok=guard_ok, guard_messages=tuple(messages),
                               truncation_residue=max(trunc, 0.0))


def _variable_residual(B: OperatorSeries, P: OperatorSeries, base: DiagonalPart, omega) -> float:
    """Relative sup-grid defect of [A,B] - i Bdot + (P - diag P) in the weighted norm."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n, N = P.n, P.N
    band = max(B.K + base.K, P.K)
    M = int(next_fast_len(2 * band + 2))
    a = base.values_on_grid(M)             # (M..., N)
    Bg = B.grid(M)
    kdw = _k_dot_omega(n, B.K, omega)
    dBg = coeffs_to_grid(1j * kdw[..., None, None] * B.coeffs, n, B.K, M)
    Pg = P.grid(M)
    idxN = np.arange(N)
    Pg_off = Pg.copy()
    Pg_off[..., idxN, idxN] = 0.0
    gap = a[..., :, None] - a[..., None, :]
    defect = gap * Bg - 1j * dBg + Pg_off
    W = base.weight()
    dnorm = _grid_opnorm_max(W[:, None] * defect)
    pnorm = _grid_opnorm_max(W[:, None] * Pg_off)
    return dnorm / max(pnorm, 1e-300)
