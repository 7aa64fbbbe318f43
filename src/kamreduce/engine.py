"""KAM iteration: single conjugation step and the full schedule driver.

One step removes the off-diagonal part of P at first order: with B solving
the homological equation and E = exp(B(phi)) unitary,

    P+ = E*(A + P)E - (A + diag P) - i E* (omega . d/dphi E),

which is quadratically small in P.  The diagonal of P is absorbed into the
base: constant part into lambda, oscillatory part into mu.

Numerical notes that matter here:

* E*AE - A is NOT computed by subtraction (it cancels the large diagonal and
  loses ~8 digits at lambda_N ~ 50).  For unitary E and D = E - I,
  E*AE - A = E*[A,D] + (E*E - I)A, and the second term is identically zero in
  exact arithmetic, so we compute E*[A,D] with [A,D]_ij = (a_i - a_j) D_ij
  entrywise.  Every term then scales with ||B|| or ||P||, leaving no fixed
  noise floor.
* exp(B) is a Paterson-Stockmeyer Taylor polynomial, the same kernel that
  floquet steps with.  D = E - I is the polynomial without its constant
  term, never E minus I, and its degree keeps the remainder below 2^-53 ||B||,
  so D stays accurate relative to ||B|| however small B is.  E is unitary to
  roundoff, which is all E*[A,D] needs.
* P+ is trimmed to its live band after chopping: all-zero outer shells are
  dropped, which changes no coefficient and no norm.
* Coefficients below an absolute floor are zeroed after each step so the
  weighted-l1 strip norms measure signal rather than accumulated roundoff.

Constant bookkeeping per step (measured norms, p = ||P_l||):
gamma+ = gamma - p (1 + K_step^tau), C_mu+ = C_mu + p, C_omega+ = C_omega + p,
C_lambda+ = C_lambda - 2p.  The scheduled threshold K_l = l K_base is capped
so the gamma deduction never exceeds the fraction GAMMA_BUDGET of gamma_l
(the literal schedule bankrupts gamma at desk scales for tau > 2); safety comes
from re-certifying the second non-resonance condition against the shifted
eigenvalues after every step, which raises FrequencyExcluded on violation.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import next_fast_len

from .diophantine import Frequency, check_dio2
from .errors import (
    ConvergenceError,
    DivisorTooSmall,
    FrequencyExcluded,
    GuardWarning,
    HermiticityError,
    KamError,
)
from .homological import _tight_cutoff, solve_variable
from .torus import (
    DiagonalPart,
    OperatorSeries,
    TorusSeries,
    _k_dot_omega,
    chop,
    coeffs_to_grid,
    delta_norm,
    g_norm,
    grid_to_coeffs,
    k_norm1_grid,
)

__all__ = [
    "KamSettings",
    "KamState",
    "ReducedSystem",
    "diag_split",
    "matrix_exp_antihermitian",
    "conjugate",
    "kam_step",
    "run_schedule",
    "compose_transformations",
    "compose_on_grid",
]

# fixed step constants; no manifest sets them
OVERSAMPLE = 1      # conjugation grid oversampling
SOLVER_PAD = 12     # modes the homological working grid keeps beyond P.K + K_mu
GAMMA_BUDGET = 0.1  # max fraction of gamma spent per step
GAMMA_STAR = 0.5    # warn when gamma falls below this fraction of its initial value
CHOP_FLOOR = 1e-15  # coefficients below this are zeroed after each step


@dataclass(frozen=True)
class KamSettings:
    """Iteration parameters: the choices a manifest makes."""

    epsilon: float
    s: float
    gamma: float
    tau: float
    K_base: int
    tol: float = 1e-12
    l_max: int = 10

    def __post_init__(self):
        if self.epsilon < 0:
            raise KamError("epsilon must be nonnegative")
        if self.s <= 0 or self.gamma <= 0 or self.tol <= 0:
            raise KamError("s, gamma and tol must be positive")
        if self.K_base < 1 or self.l_max < 0:
            raise KamError("K_base >= 1 and l_max >= 0 required")

    def work_cutoff(self) -> int:
        """Series cutoff of every step."""
        return 4 * self.K_base

    def horizon(self) -> int:
        """|k|_1 range of the non-resonance certificates."""
        return 2 * self.work_cutoff()

    def sigma(self, l: int) -> float:
        return self.s / (4.0 * l * l)

    def eps_schedule(self, l: int) -> float:
        if self.epsilon == 0.0:
            return 0.0
        return self.epsilon ** ((4.0 / 3.0) ** l)

    def K_schedule(self, l: int) -> int:
        return l * self.K_base


@dataclass(frozen=True)
class KamState:
    """State after l steps; immutable, one fresh instance per step."""

    l: int
    base: DiagonalPart
    P: OperatorSeries
    s: float
    gamma: float
    C_mu: float
    C_lambda: float
    C_omega: float
    norm_history: tuple = ()
    generators: tuple = ()
    records: tuple = ()
    converged: bool = False
    diverged: bool = False
    # (name, seconds) per phase and step; wall times, kept out of the records
    timings: tuple = field(default=(), compare=False)

    @property
    def norm(self) -> float:
        return self.norm_history[-1] if self.norm_history else np.inf


@dataclass(frozen=True)
class ReducedSystem:
    """Constant-diagonal normal form with the conjugating generators."""

    lambda_inf: np.ndarray
    mu_inf: np.ndarray | None       # (N, modes...) coefficient stack or None
    K_mu: int
    n: int
    omega: np.ndarray
    generators: tuple = ()
    lambda_ref: np.ndarray | None = None   # unperturbed eigenvalues for the drift fit
    epsilon: float = 0.0
    converged: bool = True
    shift_constant: float = 0.0     # fitted C in |lambda_inf - lambda| <= C i^delta eps
    delta: float = 0.0
    d: float = 2.0

    @property
    def N(self) -> int:
        return len(self.lambda_inf)

    def mu_series(self, i: int) -> TorusSeries:
        if self.mu_inf is None:
            return TorusSeries.zero(self.n, self.K_mu)
        return TorusSeries(self.n, self.K_mu, self.mu_inf[i])

    def as_base(self) -> DiagonalPart:
        if self.mu_inf is None:
            return DiagonalPart(lam=self.lambda_inf, d=self.d, delta=self.delta, n=self.n)
        return DiagonalPart(lam=self.lambda_inf, d=self.d, delta=self.delta,
                            n=self.n, mu=self.mu_inf, K=self.K_mu)


def _omega_vec(omega) -> np.ndarray:
    if isinstance(omega, Frequency):
        return np.asarray(omega.omega, dtype=float)
    return np.atleast_1d(np.asarray(omega, dtype=float))


def diag_split(P: OperatorSeries, tol: float = 1e-12):
    """Split P into (constant diagonal shift, oscillatory diagonal, off-diagonal).

    The shift is the angular average of P_ii (must be real for hermitian P);
    the oscillatory part is returned as a zero-average coefficient stack
    (N, modes...) ready to be added to a DiagonalPart's mu.
    """
    n, K, N = P.n, P.K, P.N
    idx = np.arange(N)
    diag = np.moveaxis(P.coeffs[..., idx, idx], -1, 0)   # (N, modes...)
    ctr = (slice(None),) + (K,) * n
    avg = diag[ctr].copy()
    scale = max(float(np.max(np.abs(P.coeffs))), 1e-300)
    if np.max(np.abs(avg.imag)) > tol * scale:
        raise HermiticityError(
            f"diagonal average has imaginary part {np.max(np.abs(avg.imag)):.2e} "
            f"(relative tolerance {tol:g})"
        )
    shift = avg.real
    mu_add = diag.copy()
    mu_add[ctr] = 0.0
    # enforce exact realness on the real torus (hermitian P guarantees it up
    # to roundoff): average with the mirrored conjugate
    rev = (slice(None),) + (slice(None, None, -1),) * n
    mu_add = 0.5 * (mu_add + np.conj(mu_add[rev]))
    off = P.offdiagonal_part()
    return shift, mu_add, off


# scaling and squaring brings a batch's 1-norm bound to at most this
_SCALE_BOUND = 1.0
_UNIT_ROUNDOFF = 2.0 ** -53


def _taylor_degree(b: float, tol: float = _UNIT_ROUNDOFF) -> int:
    """Smallest m whose Taylor remainder bound at 1-norm b is <= tol.

    The remainder sum_{k > m} b^k / k! is at most the first omitted term
    b^(m+1) / (m+1)! times the geometric tail factor 1 / (1 - b / (m+2)).
    """
    m, term = 0, b
    while term > tol * (1.0 - b / (m + 2)):
        m += 1
        term *= b / (m + 1)
    return m


def _taylor_polynomial(A: np.ndarray, m: int, constant: bool = True) -> np.ndarray:
    """sum_{k <= m} A^k / k! for a batch (C, N, N), by Paterson-Stockmeyer.

    With block size s = ceil(sqrt(m)) it forms A^2 .. A^s and runs Horner in
    A^s over the blocks B_j = sum_{i < s} A^i / (js + i)!: about 2 sqrt(m)
    batched products instead of m.  constant=False leaves out the k = 0
    term, which gives exp(A) - I without subtracting I.
    """
    C, N, _ = A.shape
    s = math.isqrt(m - 1) + 1 if m else 1
    r = m // s
    pows = np.empty((s,) + A.shape, dtype=complex)        # pows[i] = A^(i+1)
    pows[0] = A
    for i in range(1, s):
        np.matmul(pows[i - 1], A, out=pows[i])
    inv = [1.0 / math.factorial(k) for k in range(m + 1)] + [0.0] * s
    weights = np.array([[inv[j * s + i] for i in range(1, s)] for j in range(r + 1)])
    # one real (r + 1, s - 1) x (s - 1, 2 C N N) product forms every block
    flat = pows[: s - 1].view(float).reshape(s - 1, 2 * A.size)
    blocks = (weights @ flat).view(complex).reshape((r + 1,) + A.shape)
    identity = np.array(inv[: r * s + 1 : s])[:, None, None]
    if not constant:
        identity[0] = 0.0
    blocks.reshape(r + 1, C, N * N)[:, :, :: N + 1] += identity
    if m % s == 0 and r:                                  # top block is I / m!
        r -= 1
        E = pows[-1] * inv[m] + blocks[r]
    else:
        E = blocks[r]
    for j in range(r - 1, -1, -1):
        E = pows[-1] @ E
        E += blocks[j]
    return E


def _scaled_bound(A: np.ndarray):
    """(b, q): the batch's 1-norm bound after scaling A by 2^-q, and q.

    q is the fewest halvings that bring the bound to _SCALE_BOUND or below.
    """
    b = float(np.max(np.sum(np.abs(A), axis=-2)))
    if not math.isfinite(b):
        raise KamError("non-finite matrix in a Taylor exponential")
    q = math.ceil(math.log2(b / _SCALE_BOUND)) if b > _SCALE_BOUND else 0
    return b / 2.0**q, q


def _expm_taylor(A: np.ndarray) -> np.ndarray:
    """exp(A) for a batch (C, N, N): one Taylor degree for the whole batch.

    The degree comes from the batch's largest 1-norm b, with a remainder
    below 2^-53; above _SCALE_BOUND the batch is scaled by 2^-q first and
    the result squared q times.  This is the step exponential of verify.
    """
    b, q = _scaled_bound(A)
    E = _taylor_polynomial(A / 2.0**q if q else A, _taylor_degree(b))
    for _ in range(q):
        E = E @ E
    return E


def matrix_exp_antihermitian(Bg: np.ndarray):
    """exp(B) for anti-hermitian matrix values, batched over leading axes.

    Returns (E, D) with D = E - I formed directly as the Taylor polynomial
    without its constant term; its remainder is at most 2^-53 b at the
    batch's 1-norm bound b, so D stays accurate relative to ||B|| however
    small B is.  Above _SCALE_BOUND it squares in D-form, D <- 2D + D D.
    """
    Bg = np.asarray(Bg, dtype=complex)
    shape = Bg.shape
    A = Bg.reshape((-1,) + shape[-2:])
    b, q = _scaled_bound(A)
    D = _taylor_polynomial(A / 2.0**q if q else A, _taylor_degree(b, _UNIT_ROUNDOFF * b),
                           constant=False)
    for _ in range(q):
        D = 2.0 * D + D @ D
    D = D.reshape(shape)
    E = D + np.eye(shape[-1], dtype=complex)
    return E, D


def conjugate(
    base: DiagonalPart,
    P: OperatorSeries,
    B: OperatorSeries,
    omega,
    K_out: int | None = None,
    oversample: int = 1,
    chop_floor: float = 0.0,
    majorant_s: float = 0.0,
    with_info: bool = False,
):
    """P+ = E*(A+P)E - (A + diag P) - i E* (omega . dE/dphi), E = exp(B).

    Everything is evaluated on one oversampled grid and transformed back to
    cutoff K_out; the result is hermitized after measuring the defect.
    """
    omega = _omega_vec(omega)
    n, N = P.n, P.N
    if B.antihermiticity_defect() > 1e-10 * max(1.0, float(np.max(np.abs(B.coeffs)))):
        warnings.warn("generator is not anti-hermitian to 1e-10", GuardWarning)
    if K_out is None:
        K_out = max(P.K, B.K)
    band = max(P.K, B.K, base.K)
    M = int(next_fast_len(oversample * max(2 * (K_out + B.K) + 2, 2 * band + 2)))

    E, D = matrix_exp_antihermitian(B.grid(M))
    Eh = np.conj(np.swapaxes(E, -1, -2))
    unitarity = float(np.max(np.abs(Eh @ E - np.eye(N))))

    a = base.values_on_grid(M)                       # (M.., N)
    G = D * (a[..., :, None] - a[..., None, :])      # [A, D]
    Pg = P.grid(M)
    G += Pg @ E
    idx = np.arange(N)
    P_diag = Pg[..., idx, idx]
    del Pg

    KD = (M - 2) // 2
    Dc = grid_to_coeffs(D, n, KD)
    del D
    kdw = _k_dot_omega(n, KD, omega)
    Ed = coeffs_to_grid(1j * kdw[..., None, None] * Dc, n, KD, M)
    del Dc
    G += (-1j) * Ed
    del Ed

    R = Eh @ G
    del G
    R[..., idx, idx] -= P_diag

    coeffs = grid_to_coeffs(R, n, K_out)
    del R
    rev = (slice(None, None, -1),) * n
    herm_defect = float(np.max(np.abs(coeffs - np.conj(np.swapaxes(coeffs[rev], -1, -2)))))
    # the output is quadratically small, so roundoff is judged against the
    # magnitudes that actually flow through the arithmetic
    scale = max(
        float(np.max(np.abs(P.coeffs))),
        float(np.max(np.abs(base.lam))) * float(np.max(np.abs(B.coeffs))),
        1e-300,
    )
    if herm_defect > 1e-9 * scale:
        raise HermiticityError(f"conjugation output hermiticity defect {herm_defect:.2e}")
    if herm_defect > 1e-11 * scale:
        warnings.warn(f"conjugation hermiticity defect {herm_defect:.2e}", GuardWarning)
    coeffs = 0.5 * (coeffs + np.conj(np.swapaxes(coeffs[rev], -1, -2)))
    chopped = 0
    chopped_bound = 0.0
    if chop_floor > 0.0:
        kept = chop(coeffs, chop_floor)
        removed = coeffs - kept
        chopped = int(np.count_nonzero(coeffs) - np.count_nonzero(kept))
        if chopped:
            # crude but sufficient norm bound on the discarded mass so the
            # reported ||P+|| can never understate the truth
            mass = np.abs(removed)
            if majorant_s > 0:
                mass = mass * np.exp(majorant_s * k_norm1_grid(n, K_out))[..., None, None]
            chopped_bound = float(np.sum(mass))
        coeffs = kept
    P_plus = OperatorSeries(n, K_out, N, coeffs)
    if not with_info:
        return P_plus
    return P_plus, {
        "unitarity_defect": unitarity,
        "hermiticity_defect": herm_defect,
        "chopped": chopped,
        "chopped_norm_bound": chopped_bound,
        "grid": M,
    }


def _budget_cutoff(normP: float, gamma: float, tau: float, budget: float) -> int:
    """Largest K with normP (1 + K^tau) <= budget * gamma (0 if none)."""
    if normP <= 0:
        return np.iinfo(np.int64).max
    room = budget * gamma / normP - 1.0
    if room < 1.0:
        return 0
    return int(np.floor(room ** (1.0 / tau)))


def kam_step(state: KamState, omega, settings: KamSettings) -> KamState:
    """One conjugation step with constant updates and re-certification."""
    w = _omega_vec(omega)
    base, P = state.base, state.P
    n, N = P.n, P.N
    l_next = state.l + 1
    normP = state.norm if np.isfinite(state.norm) else delta_norm(P, base, state.s)

    if normP == 0.0:
        rec = {"l": l_next, "norm_in": 0.0, "trivial": True}
        return replace(state, l=l_next, records=state.records + (rec,),
                       norm_history=state.norm_history + (0.0,), converged=True)

    sigma = settings.sigma(l_next)
    s_next = state.s - sigma
    if s_next <= 0:
        raise KamError("strip exhausted; initial s too small for the schedule")

    K_sched = settings.K_schedule(l_next)
    K_budget = _budget_cutoff(normP, state.gamma, settings.tau, GAMMA_BUDGET)
    K_step = min(K_sched, K_budget)
    guard_msgs = []
    if K_step < 1:
        if normP * 2.0 < state.gamma:
            K_step = 1
            guard_msgs.append("gamma budget forced K_step = 1")
            warnings.warn(guard_msgs[-1], GuardWarning)
        else:
            raise ConvergenceError(
                f"smallness lost at step {l_next}: ||P|| (1 + K^tau) = "
                f"{normP * 2:.3e} exceeds gamma = {state.gamma:.3e} even at K = 1"
            )

    K_work = settings.work_cutoff()
    clock = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GuardWarning)
        try:
            sol = solve_variable(
                P, base, w,
                s=state.s,
                K_out=K_work,
                work_K=P.K + base.K + SOLVER_PAD,
                guard_theta=(base.delta / (base.d - 1.0) + 1.0) / 2.0,
            )
        except DivisorTooSmall as exc:
            # at this level a vanished divisor means the frequency is resonant
            raise FrequencyExcluded(
                f"resonant divisor during step {l_next}: {exc}",
                triple=(exc.i, exc.j, exc.k),
                step=l_next,
            ) from exc
    for item in caught:
        guard_msgs.append(str(item.message))
        warnings.warn(str(item.message), GuardWarning)
    B = sol.B
    t_solve = time.perf_counter() - clock
    clock = time.perf_counter()
    gB = g_norm(B, base, state.s)
    t_norms = time.perf_counter() - clock
    if gB > 0.5:
        msg = f"||B||_G = {gB:.3g} exceeds 1/2"
        guard_msgs.append(msg)
        warnings.warn(msg, GuardWarning)

    clock = time.perf_counter()
    P_plus, cinfo = conjugate(
        base, P, B, w,
        K_out=K_work,
        oversample=OVERSAMPLE,
        chop_floor=CHOP_FLOOR,
        majorant_s=s_next,
        with_info=True,
    )
    # outer shells that chopping left all-zero carry no mass: drop them
    P_plus = P_plus.trim()
    t_conjugate = time.perf_counter() - clock

    # absorb the diagonal of P into the base
    shift, mu_add, _ = diag_split(P)
    new_lam = base.lam + shift
    K_mu = max(base.K, P.K)
    mu_stack = np.zeros((N,) + (2 * K_mu + 1,) * n, dtype=complex)
    if base.mu is not None:
        sl = (slice(None),) + tuple(slice(K_mu - base.K, K_mu + base.K + 1) for _ in range(n))
        mu_stack[sl] += base.mu
    slp = (slice(None),) + tuple(slice(K_mu - P.K, K_mu + P.K + 1) for _ in range(n))
    mu_stack[slp] += mu_add
    mu_stack = chop(mu_stack, CHOP_FLOOR)
    K_tight = max((_tight_cutoff(mu_stack[i], n, K_mu, 1e-16) for i in range(N)), default=0)
    if K_tight < K_mu:
        sl = (slice(None),) + tuple(slice(K_mu - K_tight, K_mu + K_tight + 1) for _ in range(n))
        mu_stack = mu_stack[sl]
        K_mu = K_tight
    mu_zero = float(np.max(np.abs(mu_stack))) == 0.0 if mu_stack.size else True
    new_base = DiagonalPart(lam=new_lam, d=base.d, delta=base.delta, n=n,
                            mu=None if mu_zero else mu_stack, K=0 if mu_zero else K_mu)

    # constant ledger with measured norms
    gamma_next = state.gamma - normP * (1.0 + float(K_step) ** settings.tau)
    C_mu_next = state.C_mu + normP
    C_omega_next = state.C_omega + normP
    C_lambda_next = state.C_lambda - 2.0 * normP
    if gamma_next <= 0 or C_lambda_next <= 0:
        raise ConvergenceError(
            f"constant ledger exhausted at step {l_next}: "
            f"gamma = {gamma_next:.3e}, C_lambda = {C_lambda_next:.3e}"
        )
    if gamma_next < GAMMA_STAR * settings.gamma:
        msg = f"gamma fell below {GAMMA_STAR} of its initial value"
        guard_msgs.append(msg)
        warnings.warn(msg, GuardWarning)

    # the shifted eigenvalues must still clear the second non-resonance
    # condition at the reduced gamma over the full horizon
    clock = time.perf_counter()
    cert = check_dio2(w, new_base, gamma_next, settings.tau, settings.horizon(), N)
    t_recertify = time.perf_counter() - clock
    if not cert.passed:
        raise FrequencyExcluded(
            f"second non-resonance condition violated after step {l_next} "
            f"at (i, j, k) = {cert.violating_triple}",
            triple=cert.violating_triple,
            step=l_next,
        )

    # the bound on chopped mass is folded in so the report never understates
    clock = time.perf_counter()
    norm_next = delta_norm(P_plus, new_base, s_next) + cinfo["chopped_norm_bound"]
    t_norms += time.perf_counter() - clock
    eps_bound = settings.eps_schedule(l_next)
    eps_ok = (settings.epsilon == 0.0) or (norm_next <= eps_bound)
    if not eps_ok:
        msg = (f"||P_{l_next}|| = {norm_next:.3e} exceeds the scheduled "
               f"majorant {eps_bound:.3e}")
        guard_msgs.append(msg)
        warnings.warn(msg, GuardWarning)

    rec = {
        "l": l_next,
        "norm_in": normP,
        "norm_out": norm_next,
        "s_in": state.s,
        "s_out": s_next,
        "sigma": sigma,
        "K_sched": K_sched,
        "K_budget": int(min(K_budget, 10**9)),
        "K_step": K_step,
        "K_B": B.K,
        "B_truncation": sol.truncation_residue,
        "grid_M": cinfo["grid"],
        "K_P": P_plus.K,
        "gamma_in": state.gamma,
        "gamma_out": gamma_next,
        "C_mu": C_mu_next,
        "C_lambda": C_lambda_next,
        "C_omega": C_omega_next,
        "hom_residual": sol.residual,
        "min_divisor": sol.min_divisor,
        "B_g_norm": gB,
        "unitarity_defect": cinfo["unitarity_defect"],
        "hermiticity_defect": cinfo["hermiticity_defect"],
        "chopped": cinfo["chopped"],
        "chopped_norm_bound": cinfo["chopped_norm_bound"],
        "eps_bound": eps_bound,
        "eps_bound_ok": bool(eps_ok),
        "guard_messages": tuple(guard_msgs),
    }
    return KamState(
        l=l_next,
        base=new_base,
        P=P_plus,
        s=s_next,
        gamma=gamma_next,
        C_mu=C_mu_next,
        C_lambda=C_lambda_next,
        C_omega=C_omega_next,
        norm_history=state.norm_history + (norm_next,),
        generators=state.generators + (B,),
        records=state.records + (rec,),
        converged=norm_next <= settings.tol,
        diverged=False,
        timings=state.timings + (
            (f"step{l_next}.solve_s", t_solve),
            (f"step{l_next}.conjugate_s", t_conjugate),
            (f"step{l_next}.norms_s", t_norms),
            (f"step{l_next}.recertify_s", t_recertify),
        ),
    )


def run_schedule(A0: DiagonalPart, P0: OperatorSeries, omega, settings: KamSettings):
    """Iterate kam_step until ||P|| < tol or l_max; returns (state, ReducedSystem)."""
    w = _omega_vec(omega)
    n = P0.n
    if settings.tau <= n + 2.0 / (A0.d - 1.0):
        raise KamError(
            f"tau = {settings.tau} must exceed n + 2/(d-1) = {n + 2.0 / (A0.d - 1.0):.3f}"
        )
    norm0 = delta_norm(P0, A0, settings.s)
    if settings.epsilon > 0 and norm0 > settings.epsilon * (1.0 + 1e-9):
        raise KamError(f"||P0|| = {norm0:.3e} exceeds the declared epsilon {settings.epsilon:.3e}")
    state = KamState(
        l=0,
        base=A0,
        P=P0,
        s=settings.s,
        gamma=settings.gamma,
        C_mu=A0.c_mu(settings.s),
        C_lambda=A0.c_lambda(),
        C_omega=0.0,
        norm_history=(norm0,),
        converged=norm0 <= settings.tol,
    )
    diverged = False
    while not state.converged and state.l < settings.l_max:
        try:
            state = kam_step(state, w, settings)
        except ConvergenceError as exc:
            warnings.warn(f"iteration stopped: {exc}", GuardWarning)
            diverged = True
            break
        if state.norm > 2.0 * max(norm0, settings.epsilon) and state.l >= 1:
            diverged = True
            break
    if not state.converged:
        diverged = True
    state = replace(state, diverged=diverged)

    lam_ref = A0.lam
    if settings.epsilon > 0:
        idx = np.arange(1, len(lam_ref) + 1, dtype=float)
        shift_c = float(np.max(np.abs(state.base.lam - lam_ref)
                               / (idx ** A0.delta * settings.epsilon)))
    else:
        shift_c = 0.0
    rs = ReducedSystem(
        lambda_inf=state.base.lam,
        mu_inf=state.base.mu,
        K_mu=state.base.K,
        n=n,
        omega=w,
        generators=state.generators,
        lambda_ref=lam_ref,
        epsilon=settings.epsilon,
        converged=state.converged,
        shift_constant=shift_c,
        delta=A0.delta,
        d=A0.d,
    )
    return state, rs


def _compose(generators, values, N: int, batch: tuple = ()) -> np.ndarray:
    """exp(B_1) exp(B_2) ... (identity if none), values(B) = B at the points, batch + (N, N)."""
    U = np.broadcast_to(np.eye(N, dtype=complex), batch + (N, N)).copy()
    for B in generators:
        E, _ = matrix_exp_antihermitian(values(B))
        U = U @ E
    return U


def compose_transformations(generators, phi, N: int | None = None) -> np.ndarray:
    """U(phi) = exp(B_1(phi)) exp(B_2(phi)) ... as a dense unitary matrix.

    An empty generator list composes to the identity (N must then be given).
    """
    gens = list(generators)
    if not gens and N is None:
        raise KamError("empty generator list: pass N for the identity size")
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return _compose(gens, lambda B: B(phi), gens[0].N if gens else N)


def compose_on_grid(generators, N: int, n: int, M: int) -> np.ndarray:
    """U on the full M**n grid, shape (M,)*n + (N, N); identity if no generators."""
    return _compose(generators, lambda B: B.grid(M), N, (M,) * n)
