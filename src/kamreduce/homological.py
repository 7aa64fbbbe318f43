"""Homological-equation solvers used by the reduction step.

The step removes the off-diagonal, nonconstant part of a perturbation P of a
diagonal operator A(phi) = diag(lambda_i + mu_i(phi)) by an anti-hermitian
generator B solving

    [A, B] - i Bdot + (P - diag P) = 0 ,      Bdot = (omega . d/dphi) B.

With mu = 0 this is solved coefficient-wise:

    Bhat_ijk = - Phat_ijk / (omega.k + lambda_i - lambda_j),   i != j.

With mu != 0 each entry pair is one scalar equation

    -i (omega . d/dphi) chi + E1 chi + E2 h chi = b

solved exactly by Kuksin's integrating factor: with H the zero-average torus
primitive of h (Hhat_k = hhat_k / (i omega.k)),

    chi = e^{-i E2 H} u,        uhat_k = (e^{i E2 H} b)hat_k / (omega.k + E1).

One kernel solves a stack of pairs on one grid: solve_variable calls it
with all N(N-1)/2 pairs, whatever mu (with mu = 0 the factor is 1 and the
solve is the division above), solve_kuksin with one.  solve_constant forms
the division directly and serves as the reference.  Every solve reports its
relative defect as a bound: the defect D is formed exactly in coefficients
and ||W |D|_s||_2, which dominates ||W D(phi)||_2 on |Im phi| <= s, is
divided by the same norm of the right-hand side.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .errors import DivisorTooSmall, GuardWarning, KamError
from .torus import (
    DiagonalPart,
    OperatorSeries,
    TorusSeries,
    _k_dot_omega,
    coeffs_to_grid,
    grid_to_coeffs,
    k_box,
    k_norm1_grid,
)

__all__ = [
    "HomologicalSolution",
    "solve_constant",
    "torus_primitive",
    "solve_kuksin",
    "solve_variable",
]

# fixed solver constants; no caller sets them
FLOOR_SCALE = 1e-12  # divisor floor at k = 0, relaxed polynomially in |k|_1
C_GUARD = 1.0        # Kuksin guard |E1|^theta >= C_GUARD * E2
CSTAR = 10.0         # C* guard C_mu / C_lambda < CSTAR


def _divisor_floor(n: int, K: int, tau: float = 2.0) -> np.ndarray:
    """Absolute floor FLOOR_SCALE, relaxed polynomially in |k|_1."""
    return FLOOR_SCALE / (1.0 + k_norm1_grid(n, K) ** tau)


def _check_divisors(den, floor, live, n: int, K: int, what: str, pairs=None) -> None:
    """Raise DivisorTooSmall at the first live entry with |den| < floor.

    The first n axes are modes (k = index - K).  Trailing axes are the
    (N, N) entries, one pair axis labelled by pairs, or none.
    """
    bad = live & (np.abs(den) < floor)
    if not np.any(bad):
        return
    idx = tuple(int(x) for x in np.argwhere(bad)[0])
    k = tuple(idx[a] - K for a in range(n))
    i = j = None
    if pairs is not None:
        i, j = (x + 1 for x in pairs[idx[n]])
    elif len(idx) == n + 2:
        i, j = idx[n] + 1, idx[n + 1] + 1
    where = f"k={k}" if i is None else f"(i,j,k)=({i},{j},{k})"
    raise DivisorTooSmall(f"{what} below floor at {where}", i=i, j=j, k=k,
                          value=float(np.abs(np.broadcast_to(den, bad.shape)[idx])))


def _box(n: int, K: int, K_big: int) -> tuple:
    """Index of the |k|_inf <= K block inside a centred block of band K_big."""
    return tuple(slice(K_big - K, K_big + K + 1) for _ in range(n))


@dataclass(frozen=True)
class HomologicalSolution:
    """Generator B with its certification data."""

    B: OperatorSeries
    # ||W |D|_s||_2 / ||W |P_off|_s||_2 for the defect D of the equation, a
    # bound on the relative defect over the strip of the solve's width s
    residual: float
    min_divisor: float
    guard_ok: bool = True
    guard_messages: tuple = ()
    truncation_residue: float = 0.0


def _relative_defect(chi, gap, mud, rhs, omega, s: float, W) -> float:
    """||W |D|_s||_2 / ||W |rhs|_s||_2 for D = (gap + mud) chi - i (omega.d) chi - rhs.

    chi, rhs and mud are centred coefficient blocks with trailing (N, N)
    entry axes; gap is (N, N) and mud (or None) multiplies chi entrywise.
    D's coefficients are formed, not sampled: the product mud chi is taken
    on an alias-free grid.  |D|_s dominates |D_ij(phi)| on |Im phi| <= s,
    so the ratio bounds the relative defect there.
    """
    n = len(omega)
    K_chi, K_rhs = (chi.shape[0] - 1) // 2, (rhs.shape[0] - 1) // 2
    K_mu = 0 if mud is None else (mud.shape[0] - 1) // 2
    K_D = max(K_chi + K_mu, K_rhs)
    D = np.zeros((2 * K_D + 1,) * n + chi.shape[n:], dtype=complex)
    D[_box(n, K_chi, K_D)] += (_k_dot_omega(n, K_chi, omega)[..., None, None] + gap) * chi
    if mud is not None:
        K_prod = K_chi + K_mu
        M = int(next_fast_len(2 * K_prod + 2))
        prod = coeffs_to_grid(mud, n, K_mu, M) * coeffs_to_grid(chi, n, K_chi, M)
        D[_box(n, K_prod, K_D)] += grid_to_coeffs(prod, n, K_prod)
    D[_box(n, K_rhs, K_D)] -= rhs
    N = chi.shape[-1]
    dn = np.linalg.norm(W[:, None] * OperatorSeries(n, K_D, N, D).majorant_matrix(s), 2)
    rn = np.linalg.norm(W[:, None] * OperatorSeries(n, K_rhs, N, rhs).majorant_matrix(s), 2)
    return float(dn) / max(float(rn), 1e-300)


def _generator_residual(B: OperatorSeries, P: OperatorSeries, base: DiagonalPart,
                        omega, s: float) -> float:
    """Relative defect bound of [A,B] - i Bdot + (P - diag P) at strip width s."""
    mud = None
    if base.mu is not None and np.any(base.mu):
        # entry (i, j) of [A, B] is (a_i - a_j) B_ij
        mud = np.moveaxis(base.mu[:, None] - base.mu[None, :], (0, 1), (-2, -1))
    gap = base.lam[:, None] - base.lam[None, :]
    rhs = -P.offdiagonal_part().coeffs
    return _relative_defect(B.coeffs, gap, mud, rhs, omega, s, base.weight())


def solve_constant(
    P: OperatorSeries,
    base: DiagonalPart,
    omega,
) -> HomologicalSolution:
    """Coefficient-wise solve for constant diagonal part (mu = 0).

    Only the off-diagonal part of P is removed; B_ii = 0.  The residual is
    the defect bound on the real torus (s = 0).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if base.mu is not None and np.max(np.abs(base.mu)) > 0:
        raise KamError("solve_constant requires mu = 0; use solve_variable")
    n, K, N = P.n, P.K, P.N
    kdw = _k_dot_omega(n, K, omega)
    gap = base.lam[:, None] - base.lam[None, :]
    den = kdw[..., None, None] + gap
    offmask = ~np.eye(N, dtype=bool)
    live = offmask & (np.abs(P.coeffs) > 0)
    _check_divisors(den, _divisor_floor(n, K)[..., None, None], live, n, K, "divisor")
    Bc = np.zeros_like(P.coeffs)
    np.divide(-P.coeffs, den, out=Bc, where=offmask & (np.abs(den) > 0))
    B = OperatorSeries(n, K, N, Bc)
    min_div = float(np.min(np.abs(den[live]))) if np.any(live) else np.inf
    return HomologicalSolution(B=B, residual=_generator_residual(B, P, base, omega, 0.0),
                               min_divisor=min_div)


def torus_primitive(h: TorusSeries, omega) -> TorusSeries:
    """Zero-average primitive H with (omega . d/dphi) H = h (requires hhat_0 = 0)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    scale = float(np.max(np.abs(h.coeffs))) if h.coeffs.size else 0.0
    if abs(h.average()) > 1e-10 * max(scale, 1e-300):
        raise KamError("torus_primitive requires a zero-average input")
    Hc = _primitive(h.coeffs, h.n, h.K, omega, np.abs(h.coeffs) > 0)
    return TorusSeries(h.n, h.K, Hc)


def _primitive(c, n: int, K: int, omega, live, pairs=None):
    """Coefficients c / (i omega.k) with the k = 0 mode dropped; batch axes trail.

    A live entry whose |omega.k| falls below the floor raises DivisorTooSmall.
    """
    shape = (2 * K + 1,) * n + (1,) * (c.ndim - n)
    kdw = _k_dot_omega(n, K, omega).reshape(shape)
    ctr = (K,) * n
    live[ctr] = False
    _check_divisors(kdw, _divisor_floor(n, K).reshape(shape), live, n, K,
                    "|omega.k|", pairs)
    H = np.zeros_like(c)
    np.divide(c, 1j * kdw, out=H, where=np.abs(kdw) > 0)
    H[ctr] = 0.0
    return H


def _tight_cutoff(coeffs: np.ndarray, n: int, K: int, tol: float) -> int:
    """Smallest K' such that all shells beyond K' carry |c| < tol * max|c|."""
    mags = np.max(np.abs(coeffs).reshape((2 * K + 1) ** n, -1), axis=1)
    mx = float(np.max(mags))
    if mx == 0.0:
        return 0
    return int(np.max(np.abs(k_box(n, K))[mags >= tol * mx]))


def _working_grid(band: int, oversample: int, work_K: int | None = None) -> int:
    """Grid of the pair solve: oversampled, or alias-free up to an explicit work_K."""
    if work_K is not None:
        return int(next_fast_len(2 * max(work_K, band) + 2))
    return int(next_fast_len(max(oversample * (2 * band + 2), 2 * band + 2)))


def _solve_pairs(b, mud, E1, omega, M: int, K_out, pairs=None):
    """Integrating-factor solve of -i (omega.d) chi + (E1 + mud) chi = b, pair axis last.

    b and mud (zero average) are centred coefficient stacks with one pair
    per trailing index and E1 holds one constant per pair; all products are
    taken on one grid of M points per axis.  With mud = 0 the factor is 1:
    the solve divides on b's own band and every nonzero coefficient is live.
    K_out caps the band of chi, never pads it; None keeps every shell above
    1e-15 of the largest coefficient.  Returns (chi, min_divisor,
    unimodularity_defect, truncated l1 mass).
    """
    n = len(omega)
    K_b, K_mu = (b.shape[0] - 1) // 2, (mud.shape[0] - 1) // 2
    if np.any(mud):
        K = (M - 2) // 2
        # mud has zero average by construction of mu
        live = np.abs(mud) > 1e-16 * max(float(np.max(np.abs(mud))), 1e-300)
        Hd = _primitive(mud, n, K_mu, omega, live, pairs)
        factor = np.exp(1j * coeffs_to_grid(Hd, n, K_mu, M))
        unimod = float(np.max(np.abs(np.abs(factor) - 1.0)))
        if unimod > 1e-12:
            warnings.warn(f"integrating factor unimodularity defect {unimod:.2e}", GuardWarning)
        btil = grid_to_coeffs(factor * coeffs_to_grid(b, n, K_b, M), n, K)
        live = np.abs(btil) > 1e-16 * max(float(np.max(np.abs(btil))), 1e-300)
    else:
        # no variable part: the factor is 1 and the solve is one division
        factor, unimod, K, btil = None, 0.0, K_b, b
        live = b != 0

    den = _k_dot_omega(n, K, omega)[..., None] + E1
    _check_divisors(den, _divisor_floor(n, K)[..., None], live, n, K,
                    "|omega.k + E1|", pairs)
    min_div = float(np.min(np.abs(den[live]))) if np.any(live) else np.inf
    uc = np.zeros_like(btil)
    np.divide(btil, den, out=uc, where=live & (np.abs(den) > 0))
    if factor is None:
        chic = uc
    else:
        chic = grid_to_coeffs(np.conj(factor) * coeffs_to_grid(uc, n, K, M), n, K)

    if K_out is None:
        K_out = max(_tight_cutoff(chic[..., p], n, K, 1e-15) for p in range(chic.shape[-1]))
    chic_cut = chic[_box(n, min(K_out, K), K)]
    trunc = float(np.sum(np.abs(chic)) - np.sum(np.abs(chic_cut)))
    return chic_cut, min_div, unimod, max(trunc, 0.0)


def solve_kuksin(
    b: TorusSeries,
    h: TorusSeries | None,
    E1: float,
    E2: float,
    omega,
    K_out: int | None = None,
    oversample: int = 4,
    guard_theta: float = 0.5,
    with_info: bool = False,
):
    """Solve -i (omega.d/dphi) chi + E1 chi + E2 h chi = b by integrating factor.

    The one-pair call of the kernel solve_variable runs.  h should be
    normalized (||h||_s <= 1) and of zero average; E2 >= 0 carries the size.
    The smallness guard E1^theta >= C_GUARD E2 is advisory: a violation emits
    a GuardWarning, never a silent pass.  Returns chi, or (chi, info) with
    info = {residual, min_divisor, unimodularity_defect, guard_ok, K_out};
    residual is the relative defect bound on the real torus.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = b.n
    if E2 < 0:
        raise KamError("E2 must be nonnegative")
    guard_ok = True
    if E2 > 0 and abs(E1) ** guard_theta < C_GUARD * E2:
        guard_ok = False
        warnings.warn(
            f"kuksin guard |E1|^theta >= C*E2 violated: |{E1}|^{guard_theta} < {C_GUARD}*{E2}",
            GuardWarning,
        )
    if h is None or E2 == 0.0:
        mud = np.zeros((1,) * n + (1,), dtype=complex)
    else:
        if abs(h.average()) > 1e-10 * max(float(np.max(np.abs(h.coeffs))), 1e-300):
            raise KamError("solve_kuksin requires a zero-average h")
        mud = E2 * h.coeffs[..., None]
    M = _working_grid(b.K + (mud.shape[0] - 1) // 2, oversample)
    chic, min_div, unimod, _ = _solve_pairs(b.coeffs[..., None], mud, np.array([float(E1)]),
                                            omega, M, K_out)
    chi = TorusSeries(n, (chic.shape[0] - 1) // 2, chic[..., 0])
    if not with_info:
        return chi
    residual = _relative_defect(chic[..., None], np.array([[float(E1)]]), mud[..., None],
                                b.coeffs[..., None, None], omega, 0.0, np.ones(1))
    return chi, {"residual": residual, "min_divisor": min_div, "unimodularity_defect": unimod,
                 "guard_ok": guard_ok, "K_out": chi.K}


def solve_variable(
    P: OperatorSeries,
    base: DiagonalPart,
    omega,
    s: float = 0.0,
    K_out: int | None = None,
    oversample: int = 4,
    work_K: int | None = None,
    guard_theta: float = 0.5,
) -> HomologicalSolution:
    """Remove the off-diagonal part of P against A = diag(lambda_i + mu_i(phi)).

    Pairs are arranged with E1 = lambda_j - lambda_i > 0 (i < j): the (j, i)
    entry is solved by the scalar integrating-factor equation with
    b = -P_ji, E2 h = mu_j - mu_i, and the (i, j) entry is its anti-hermitian
    mirror Bhat_ij(k) = -conj(Bhat_ji(-k)).  With mu = 0 each pair is one
    division on P's band.  Returns the generator together with the relative
    equation defect, bounded at strip width s.
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
    c_mu = base.c_mu(s)
    c_lam = base.c_lambda()
    if c_mu / c_lam >= CSTAR:
        guard_ok = False
        messages.append(f"C* guard violated: C_mu/C_lambda = {c_mu / c_lam:.3g} >= {CSTAR}")
        warnings.warn(messages[-1], GuardWarning)

    # pair p is (i, j) = (ii[p], jj[p]) with i < j; B_ji is solved, B_ij mirrors it
    ii, jj = np.triu_indices(N, 1)
    pairs = list(zip(ii.tolist(), jj.tolist()))
    # stacked scalar data, pair axis last
    mu = np.zeros((N,) + (1,) * n) if base.mu is None else base.mu
    mud = np.moveaxis(mu[jj] - mu[ii], 0, -1)                   # (modes..., pairs)
    E1 = base.lam[jj] - base.lam[ii]
    w_s = np.exp(s * k_norm1_grid(n, (mud.shape[0] - 1) // 2)).reshape(-1)
    E2 = w_s @ np.abs(mud).reshape(-1, len(pairs))
    for p, (i, j) in enumerate(pairs):
        if E2[p] > 0 and E1[p] ** guard_theta < C_GUARD * E2[p]:
            guard_ok = False
            messages.append(
                f"kuksin guard failed for pair ({i + 1},{j + 1}): "
                f"E1^theta={E1[p] ** guard_theta:.3g} < C*E2={C_GUARD * E2[p]:.3g}"
            )
    if messages:
        warnings.warn("; ".join(messages[:3]), GuardWarning)

    M = _working_grid(P.K + base.K, oversample, work_K)
    chic, min_div, _, trunc = _solve_pairs(-P.coeffs[..., jj, ii], mud, E1, omega, M, K_out, pairs)
    K_B = (chic.shape[0] - 1) // 2
    Bc = np.zeros((2 * K_B + 1,) * n + (N, N), dtype=complex)
    Bc[..., jj, ii] = chic
    Bc[..., ii, jj] = -np.conj(chic[(slice(None, None, -1),) * n])
    B = OperatorSeries(n, K_B, N, Bc)
    return HomologicalSolution(B=B, residual=_generator_residual(B, P, base, omega, s),
                               min_divisor=min_div, guard_ok=guard_ok,
                               guard_messages=tuple(messages), truncation_residue=trunc)
