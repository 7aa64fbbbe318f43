"""KAM iteration: single conjugation step and the full schedule driver.

One step removes the off-diagonal part of P at first order: with B solving
the homological equation and E = exp(B(phi)) unitary,

    P+ = E*(A + P)E - (A + diag P) - i E* (omega . d/dphi E),

which is quadratically small in P.  The diagonal of P is absorbed into the
base: constant part into lambda, oscillatory part into mu.

Numerical notes that matter here:

* P+ is a Lie series, never formed through E.  With L(X) = XB - BX and the
  homological defect D = [A,B] - i omega.dB + P_off, which the solve
  measures and returns, the A terms cancel exactly at every order, leaving

      P+ = D + sum_{k>=1} [L^k(diag P)/k! + k L^k(P_off)/(k+1)! + L^k(D)/(k+1)!],

  so nothing cancels the large diagonal lambda_N.  Every level is
  hermitian and held as its triangle until P+; each L is one alias-free
  grid commutator of it with anti-hermitian B's pairs (torus.lie_commutator).
* ||W L(X)|| <= 2g ||W X|| with g = g_norm(B) = max(||B||, ||W B W^-1||),
  so the order is the smallest whose remainder bound falls below
  CHOP_FLOOR, what chopping discards anyway.  The same rule cuts each
  level of the series: it keeps the smallest band whose dropped mass,
  after the commutators still to come, is at most CHOP_FLOOR, and never
  more than K_out.  That remainder and the mass the levels drop are added
  to the reported norm.
* The same estimate bounds all of P+ before any commutator is formed:
  ||P+|| <= ||D|| + (e^{2g} - 1)(||diag P|| + ||P_off|| + ||D||).  When
  that bound, reweighted to the new base, is at most tol, the step stops
  early: P+ is zero, the bound is its reported norm, and the record says
  a_priori.  The last step of a converging run ends this way; its
  generator is still solved, because verify composes it, but B stays on
  the solve's pair stack and D is never formed: the solve kept only its
  majorants, at its own width and at the conjugation's.
* P, D (zero diagonal) and P+ are triangles (torus.HermitianSeries); P+ is
  cut to its live band after chopping, changing no coefficient or norm.
* Coefficients below an absolute floor are zeroed after each step so the
  weighted-l1 strip norms measure signal rather than accumulated roundoff;
  the absorbed diagonal mu is then cut to its live band, as P+ is.

A step's record is the one account of what it found: its guard_messages
are the solve's findings, the conjugation's, then the step's own, each
warned once where it is measured.  An unconverged schedule says why it
stopped in KamState.stopped.

Constant bookkeeping per step (measured norms, p = ||P_l||):
gamma+ = gamma - p (1 + K_step^tau), C_mu+ = C_mu + p, C_omega+ = C_omega + p,
C_lambda+ = C_lambda - 2p.  The scheduled threshold K_l = l K_base is capped
so the gamma deduction never exceeds the fraction GAMMA_BUDGET of gamma_l
(the literal schedule bankrupts gamma at desk scales for tau > 2); safety comes
from re-certifying the second non-resonance condition against the shifted
eigenvalues after every step, which raises FrequencyExcluded on violation.
"""

from __future__ import annotations

import contextlib
import math
import resource
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DivisorTooSmall,
    FrequencyExcluded,
    HermiticityError,
    KamError,
)
from .homological import Defect, _guard, solve_variable
from .serialize import KamSettings
from .torus import (
    CHOP_FLOOR,
    DiagonalPart,
    HermitianSeries,
    OperatorSeries,
    PairSeries,
    _abs_max,
    _box,
    _live_band,
    _majorant_norm,
    _mirror,
    _on_diagonal,
    _square_matrix,
    chop,
    coeffs_to_grid,  # noqa: F401  unused; bench/test_bench.py traces it in this namespace
    delta_norm,
    freeze,
    g_norm,
    k_box,
    lie_commutator,
    strip_weight,
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
    "compose_on_grid",
]

# fixed step constants; no manifest sets them
SOLVER_PAD = 12     # modes the homological working grid keeps beyond P.K + K_mu
GAMMA_BUDGET = 0.1  # max fraction of gamma spent per step
GAMMA_STAR = 0.5    # warn when gamma falls below this fraction of its initial value


@dataclass(frozen=True)
class KamState:
    """State after l steps; immutable, one fresh instance per step."""

    l: int
    base: DiagonalPart
    P: HermitianSeries
    s: float
    gamma: float
    C_mu: float
    C_lambda: float
    C_omega: float
    norm_history: tuple = ()
    generators: tuple = ()
    records: tuple = ()
    converged: bool = False
    # why the schedule ended unconverged (None while it runs or once converged)
    stopped: str | None = None
    # (name, value) per phase and step: wall seconds (_s) and the process's
    # peak RSS so far in MB (_rss_mb); neither is deterministic, so both are
    # kept out of the records
    timings: tuple = field(default=(), compare=False)

    @property
    def norm(self) -> float:
        return self.norm_history[-1] if self.norm_history else np.inf


@dataclass(frozen=True)
class ReducedSystem:
    """Constant-diagonal normal form with the conjugating generators.

    Each generator is stored at its live band; dropped[l] bounds what that
    cut lost, sup_phi ||B_l - generators[l]||_2 (run_schedule).  reduce's
    generators are torus.PairSeries; a loaded run's are
    serialize.StoredOperator, which evaluate (at) their pairs from their files.
    """

    lambda_inf: np.ndarray
    mu_inf: np.ndarray | None       # (N, modes...) coefficient stack or None
    K_mu: int
    n: int
    omega: np.ndarray
    generators: tuple = ()
    dropped: tuple = ()
    lambda_ref: np.ndarray | None = None   # unperturbed eigenvalues for the drift fit
    epsilon: float = 0.0
    converged: bool = True
    shift_constant: float = 0.0     # fitted C in |lambda_inf - lambda| <= C i^delta eps
    delta: float = 0.0
    d: float = 2.0

    @property
    def N(self) -> int:
        return len(self.lambda_inf)


def diag_split(P: HermitianSeries):
    """The diagonal of P as (constant shift, oscillatory part).

    The shift is the angular average of P_ii (must be real for hermitian P);
    the oscillatory part is returned as a zero-average coefficient stack
    (N, modes...) ready to be added to a DiagonalPart's mu.  The rest of P
    is its off-diagonal part.
    """
    n, K = P.n, P.K
    mu_add = P.diagonal()                                # (modes..., N), a copy
    ctr = (K,) * n
    avg = mu_add[ctr].copy()
    scale = max(_abs_max(P.coeffs), 1e-300)
    if np.max(np.abs(avg.imag)) > 1e-12 * scale:
        raise HermiticityError(
            f"diagonal average has imaginary part {np.max(np.abs(avg.imag)):.2e} "
            "(relative tolerance 1e-12)"
        )
    shift = avg.real
    mu_add[ctr] = 0.0
    # enforce exact realness on the real torus (hermitian P guarantees it up
    # to roundoff): average with the mirrored conjugate
    mu_add = np.moveaxis(0.5 * (mu_add + _mirror(mu_add, n)), -1, 0)
    return shift, mu_add


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


class _Workspace:
    """Named scratch arrays that a loop of batched kernels reuses from call to call.

    take(name, shape) is a view of the name's buffer, allocated at its
    first request and again only when a request outgrows it, so a loop whose
    calls want the same shapes allocates each buffer once, and a smaller
    request, such as a sweep's shorter last chunk, is a view of its first
    elements.  Each array a kernel returns lives in a buffer and is
    overwritten by the next call with the same workspace.  Freeing the
    workspace frees what no returned array still holds.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get((name, dtype))
        if buf is None or buf.size < size:
            buf = self._buffers[name, dtype] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _taylor_polynomial(A: np.ndarray, m: int, work: _Workspace | None = None) -> np.ndarray:
    """sum_{k <= m} A^k / k! for a batch (C, N, N), by Paterson-Stockmeyer.

    With block size s = ceil(sqrt(m)) it forms A^2 .. A^s and runs Horner in
    A^s over the blocks B_j = sum_{i < s} A^i / (js + i)!: about 2 sqrt(m)
    batched products instead of m.  Every array is taken from work (a fresh
    workspace if None), and so is the result.
    """
    work = _Workspace() if work is None else work
    C, N, _ = A.shape
    s = math.isqrt(m - 1) + 1 if m else 1
    r = m // s
    pows = work.take("pows", (s,) + A.shape)             # pows[i] = A^(i+1)
    pows[0] = A
    for i in range(1, s):
        np.matmul(pows[i - 1], A, out=pows[i])
    inv = [1.0 / math.factorial(k) for k in range(m + 1)] + [0.0] * s
    weights = np.array([[inv[j * s + i] for i in range(1, s)] for j in range(r + 1)])
    # one real (r + 1, s - 1) x (s - 1, 2 C N N) product forms every block
    flat = pows[: s - 1].view(float).reshape(s - 1, 2 * A.size)
    blocks = work.take("blocks", (r + 1,) + A.shape)
    np.matmul(weights, flat, out=blocks.view(float).reshape(r + 1, 2 * A.size))
    identity = np.array(inv[: r * s + 1 : s])[:, None, None]
    blocks.reshape(r + 1, C, N * N)[:, :, :: N + 1] += identity
    # the powers below A^s are dead once the blocks are formed, so Horner's
    # products alternate between the first two (two more arrays when s < 3):
    # step j writes horner[j % 2], and the result is in horner[0] or a block
    horner = pows[:2] if s >= 3 else work.take("horner", (2,) + A.shape)
    if m % s == 0 and r:                                  # top block is I / m!
        r -= 1
        E = np.multiply(pows[-1], inv[m], out=horner[r % 2])
        E += blocks[r]
    else:
        E = blocks[r]
    for j in range(r - 1, -1, -1):
        E = np.matmul(pows[-1], E, out=horner[j % 2])
        E += blocks[j]
    return E


def _expm_taylor(A: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
    """exp(A) for a batch (C, N, N): one Taylor degree for the whole batch.

    The degree comes from the batch's largest 1-norm b, with a remainder
    below 2^-53; above _SCALE_BOUND the batch is scaled by 2^-q, the fewest
    halvings that bring b to _SCALE_BOUND or below, and the result squared
    q times.  This is the step exponential of verify.  Every array is taken
    from work (a fresh workspace if None), and so is the result.
    """
    work = _Workspace() if work is None else work
    b = float(np.max(np.sum(np.abs(A, out=work.take("abs", A.shape, float)), axis=-2)))
    if not math.isfinite(b):
        raise KamError("non-finite matrix in a Taylor exponential")
    q = math.ceil(math.log2(b / _SCALE_BOUND)) if b > _SCALE_BOUND else 0
    if q:
        # scaled straight into the first power, where _taylor_polynomial puts A
        A = np.divide(A, 2.0**q, out=work.take("pows", A.shape))
    E = _taylor_polynomial(A, _taylor_degree(b / 2.0**q), work)
    # the powers are dead and E is in their first slot or elsewhere, so the
    # squarings alternate between the first two slots, starting with the second
    for i in range(q):
        E = np.matmul(E, E, out=work.take("pows", (2,) + A.shape)[(i + 1) % 2])
    return E


def matrix_exp_antihermitian(Bg: np.ndarray):
    """(E, E - I) with E = exp(B) for anti-hermitian values B, batched over leading axes."""
    Bg = np.asarray(Bg, dtype=complex)
    E = _expm_taylor(Bg.reshape((-1,) + Bg.shape[-2:])).reshape(Bg.shape)
    return E, E - np.eye(Bg.shape[-1])


def _level_band(coeffs: np.ndarray, n: int, K: int, W: np.ndarray, s: float, weight: float,
                K_out: int):
    """(K_keep, dropped) for the band K_keep that one Lie-series level X keeps.

    coeffs holds X at band K as a triangle or as a generator's pairs, whose
    majorants torus._square_matrix mirrors into symmetric N x N ones.
    dropped = ||W |X - X.truncate(K_keep)|_s||_2, the majorant norm of what
    the cut loses, and K_keep is the smallest band <= K_out with weight *
    dropped <= CHOP_FLOOR, or min(K_out, K) if none is.  One pass over
    |coeffs| forms the majorant of each |k|_inf shell; summed from the
    outside in, they give the dropped part of every candidate band at once,
    never smaller for a smaller band.
    """
    shell = np.max(np.abs(k_box(n, K)), axis=1)
    by_shell = np.zeros((K + 1, len(shell)))
    by_shell[shell, np.arange(len(shell))] = strip_weight(n, K, s).reshape(-1)
    maj = by_shell @ np.abs(coeffs).reshape(len(shell), -1)
    beyond = np.zeros_like(maj)                                  # [r]: shells r+1..K
    beyond[:-1] = np.cumsum(maj[:0:-1], axis=0)[::-1]
    dropped = np.linalg.norm(W[:, None] * _square_matrix(beyond, len(W)), 2, axis=(1, 2))
    fits = np.flatnonzero(weight * dropped <= CHOP_FLOOR)
    K_keep = min(int(fits[0]) if len(fits) else K, K_out)
    return K_keep, float(dropped[K_keep])


def conjugate(base: DiagonalPart, P: HermitianSeries, B: PairSeries, D: HermitianSeries | Defect,
              K_out: int, s: float, tol: float = 0.0):
    """P+ = E*(A+P)E - (A + diag P) - i E* (omega . dE/dphi), E = exp(B), as a Lie series.

    With L(X) = XB - BX and the generator's defect D = [A,B] - i omega.dB
    + P_off (HomologicalSolution.D: a Defect, which forms its triangle only
    when asked, or that HermitianSeries itself), the series is summed to
    order m by Horner:

        S_m = Y_m,  S_k = Y_k + L(S_{k+1}),  P+ = S_0 = D + L(S_1),
        Y_k = diag P / k! + k P_off / (k+1)! + D / (k+1)!,

    each level hermitian and held as its triangle, the entries (j, i), i <=
    j, as P is, and each L one alias-free commutator of it with B's pairs
    that returns a triangle (torus.lie_commutator).  Y_k is added into it
    in place, P's triangle and D's as one slice each: no N x N series.
    Level k, X_k = Y_k + L(S_{k+1}), keeps as S_k the smallest band K_k <=
    K_out with b^k ||X_k - S_k|| <= CHOP_FLOOR (_level_band), the rule that
    fixes m, or K_out if none has.  P+ is S_0, its diagonal hermitized in
    place after its defect is measured, chopped at CHOP_FLOOR and cut to
    its live band.

    In ||X|| = delta_norm(X, base, s), a bound on the strip of width s,
    ||L(X)|| <= b ||X|| with b = 2 g_norm(B, base, s), and ||Y_k|| <= p / k!
    with p = ||diag P|| + ||P_off|| + ||D||.  Hence

    * a_priori_bound = ||D|| + (e^b - 1) p bounds the whole of P+ before
      any commutator is formed.  When it is at most tol, P+ is returned as
      zero, with a_priori true and no series summed: the bound is then the
      one account of what P+ held.  g comes from B's pairs, ||D|| from D's
      majorant, the one the solve kept at s, and ||diag P|| and ||P_off||
      from P's one majorant (all three bounds at every s); D's triangle
      is formed only once this test has failed;
    * lie_tail_bound = p b^(m+1) / (m+1)! / (1 - b / (m+2)) bounds the
      terms past order m, and m is the smallest order that puts it at or
      below CHOP_FLOOR (m = 0 for B = 0, where P+ = P_off exactly);
    * truncation_bound = sum_k b^k ||X_k - S_k||_maj bounds what the
      levels' cuts lose: each dropped part is measured by its strip
      majorant, a bound at any s >= 0, and then passes k more commutators.
      Where K_out does not bind, each level adds at most CHOP_FLOOR.

    Returns (P+, info): P+ has band at most K_out; info holds a_priori,
    a_priori_bound, lie_order, lie_bands (the band K_k each level kept,
    level m first), the other two bounds, hermiticity_defect, the chopped
    count and chopped_norm_bound, over both halves, grid_M, the widest
    commutator grid (0 if none), and guard_messages, the advisory guards
    met, each also warned once.  On an a-priori return every count and the
    other bounds are 0 and lie_bands is empty.
    """
    n, N = P.n, P.N
    guards = []
    b_max = _abs_max(B.coeffs)
    b = 2.0 * g_norm(B, base, s)
    # ||diag P|| and ||P_off|| from P's one majorant, entry for entry the
    # majorants of the two parts, which are formed only to sum the series
    W, ones = base.weight(), np.ones(N)
    maj = P.majorant_matrix(s)
    maj_diag = np.diag(np.diag(maj))
    p_D = _majorant_norm(D.majorant_matrix(s), [(W, ones)])
    p = _majorant_norm(maj_diag, [(W, ones)]) + _majorant_norm(maj - maj_diag, [(W, ones)]) + p_D
    bound = p_D + math.expm1(b) * p
    info = {"a_priori": bound <= tol, "a_priori_bound": bound, "lie_order": 0,
            "lie_bands": [], "lie_tail_bound": 0.0, "truncation_bound": 0.0,
            "hermiticity_defect": 0.0, "chopped": 0, "chopped_norm_bound": 0.0, "grid_M": 0}
    if info["a_priori"]:
        info["guard_messages"] = tuple(guards)
        return 0.0 * P.truncate(0), info
    m = _taylor_degree(b, CHOP_FLOOR / max(p, 1e-300))
    tail = p * b ** (m + 1) / math.factorial(m + 1) / (1.0 - b / (m + 2))

    if isinstance(D, Defect):
        D = D.form()
    on_diagonal = _on_diagonal(N)
    S, K_S, M, truncation, bands = None, 0, 0, 0.0, []
    for k in range(m, -1, -1):
        # X_k = Y_k + L(S_{k+1}): Y_k is added into the commutator's triangle in place
        K_X = max(D.K, P.K if k else 0, -1 if S is None else K_S + B.K)
        if S is None:
            c = np.zeros((2 * K_X + 1,) * n + P.coeffs.shape[n:], dtype=complex)
        else:
            c, M_k = lie_commutator(S, K_S, B, K_X)
            M = max(M, M_k)
        del S
        c[_box(n, D.K, K_X)] += D.coeffs * (1.0 / math.factorial(k + 1))
        if k:
            c[_box(n, P.K, K_X)] += P.coeffs * np.where(on_diagonal, 1.0 / math.factorial(k),
                                                        k / math.factorial(k + 1))
        K_S, dropped = _level_band(c, n, K_X, W, s, b**k, K_out)
        S = np.ascontiguousarray(c[_box(n, K_S, K_X)])
        del c
        truncation += b**k * dropped
        bands.append(K_S)

    # the diagonal, the one place a defect can show, is hermitized in place,
    # (c_ii + conj(c_ii(-k))) / 2, after its defect is measured
    diagonal = S[..., on_diagonal]
    mirror = _mirror(diagonal, n)
    herm_defect = float(np.max(np.abs(diagonal - mirror), initial=0.0))
    S[..., on_diagonal] = (diagonal + mirror) * 0.5
    # the output is quadratically small, so roundoff is judged against the
    # magnitudes that actually flow through the arithmetic
    scale = max(_abs_max(P.coeffs), float(np.max(np.abs(base.lam))) * b_max, 1e-300)
    if herm_defect > 1e-9 * scale:
        raise HermiticityError(f"conjugation output hermiticity defect {herm_defect:.2e}")
    if herm_defect > 1e-11 * scale:
        _guard(guards, f"conjugation hermiticity defect {herm_defect:.2e}")
    # chopped at CHOP_FLOOR in place, as chop cuts; a crude but sufficient
    # norm bound on the discarded mass, so the reported ||P+|| can never
    # understate the truth; an entry below the diagonal counts for its mirror
    mass = np.abs(S)
    small = mass < CHOP_FLOOR
    S[small] = 0.0
    mass[~small] = 0.0
    del small
    chopped = 2 * np.count_nonzero(mass) - np.count_nonzero(mass[..., on_diagonal])
    mass *= strip_weight(n, K_S, s)[..., None]
    mass *= np.where(on_diagonal, 1.0, 2.0)
    info.update(lie_order=m, lie_bands=bands, lie_tail_bound=tail,
                truncation_bound=truncation, hermiticity_defect=herm_defect, chopped=chopped,
                chopped_norm_bound=float(np.sum(mass)), grid_M=M,
                guard_messages=tuple(guards))
    del mass
    return HermitianSeries(n, K_S, N, freeze(S)).trim(), info


@contextlib.contextmanager
def _phase(timings: dict, key: str):
    """Add the block's wall seconds to timings[key_s]; set key_rss_mb to the peak RSS after it.

    The peak is the process's resident high-water mark so far, in MB
    (ru_maxrss counts kB on Linux).  A block that raises records nothing.
    """
    t0 = time.perf_counter()
    yield
    timings[f"{key}_s"] = timings.get(f"{key}_s", 0.0) + time.perf_counter() - t0
    timings[f"{key}_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


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
    w = np.atleast_1d(np.asarray(omega, dtype=float))
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
            _guard(guard_msgs, "gamma budget forced K_step = 1")
        else:
            raise ConvergenceError(
                f"smallness lost at step {l_next}: ||P|| (1 + K^tau) = "
                f"{normP * 2:.3e} exceeds gamma = {state.gamma:.3e} even at K = 1"
            )

    K_work = settings.work_cutoff()
    timings = {}
    try:
        with _phase(timings, f"step{l_next}.solve"):
            sol = solve_variable(P, base, w, s=state.s, K_out=K_work,
                                 work_K=P.K + base.K + SOLVER_PAD, widths=(s_next,))
    except DivisorTooSmall as exc:
        # at this level a vanished divisor means the frequency is resonant
        raise FrequencyExcluded(
            f"resonant divisor during step {l_next}: {exc}",
            triple=(exc.i, exc.j, exc.k),
            step=l_next,
        ) from exc
    B = sol.B
    with _phase(timings, f"step{l_next}.norms"):
        gB = g_norm(B, base, state.s)
    if gB > 0.5:
        _guard(guard_msgs, f"||B||_G = {gB:.3g} exceeds 1/2")

    # absorb the diagonal of P into the base
    shift, mu_add = diag_split(P)
    new_lam = base.lam + shift
    K_mu = max(base.K, P.K)
    mu_stack = np.zeros((N,) + (2 * K_mu + 1,) * n, dtype=complex)
    if base.mu is not None:
        mu_stack[(slice(None),) + _box(n, base.K, K_mu)] += base.mu
    mu_stack[(slice(None),) + _box(n, P.K, K_mu)] += mu_add
    # P+'s band rule: chop, then drop the all-zero outer shells
    mu_stack = chop(mu_stack, CHOP_FLOOR)
    K_live = _live_band(np.moveaxis(mu_stack, 0, -1), n, K_mu)
    mu_stack = mu_stack[(slice(None),) + _box(n, K_live, K_mu)]
    mu_zero = not np.any(mu_stack)
    new_base = DiagonalPart(lam=new_lam, d=base.d, delta=base.delta, n=n,
                            mu=None if mu_zero else mu_stack, K=0 if mu_zero else K_live)

    # conjugate's bounds are in base's weight W and grow by at most
    # reweight = max W_new / W in new_base's
    reweight = float(np.max(new_base.weight() / base.weight()))
    with _phase(timings, f"step{l_next}.conjugate"):
        P_plus, cinfo = conjugate(base, P, B, sol.D, K_work, s_next, settings.tol / reweight)

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
        _guard(guard_msgs, f"gamma fell below {GAMMA_STAR} of its initial value")

    # the shifted eigenvalues must still clear the second non-resonance
    # condition at the reduced gamma over the full horizon; imported here,
    # so that verify, which loads engine, does not load diophantine
    from .diophantine import check_dio2

    with _phase(timings, f"step{l_next}.recertify"):
        cert = check_dio2(w, new_base, gamma_next, settings.tau, settings.horizon(), N)
    if not cert.passed:
        raise FrequencyExcluded(
            f"second non-resonance condition violated after step {l_next} "
            f"at (i, j, k) = {cert.violating_triple}",
            triple=cert.violating_triple,
            step=l_next,
        )

    # the bounds on chopped, truncated and series-tail mass are folded in so
    # the report never understates; a zero P+ reports the a-priori bound
    with _phase(timings, f"step{l_next}.norms"):
        if cinfo["a_priori"]:
            norm_next = reweight * cinfo["a_priori_bound"]
        else:
            norm_next = (delta_norm(P_plus, new_base, s_next) + cinfo["chopped_norm_bound"]
                         + reweight * (cinfo["lie_tail_bound"] + cinfo["truncation_bound"]))
    eps_bound = settings.eps_schedule(l_next)
    eps_ok = (settings.epsilon == 0.0) or (norm_next <= eps_bound)
    if not eps_ok:
        _guard(guard_msgs, f"||P_{l_next}|| = {norm_next:.3e} exceeds the scheduled "
                           f"majorant {eps_bound:.3e}")

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
        "K_P": P_plus.K,
        "gamma_in": state.gamma,
        "gamma_out": gamma_next,
        "C_mu": C_mu_next,
        "C_lambda": C_lambda_next,
        "C_omega": C_omega_next,
        "hom_residual": sol.residual,
        "min_divisor": sol.min_divisor if math.isfinite(sol.min_divisor) else None,
        "pairs": sol.pairs,
        "solve_grid_M": sol.grid_M,
        "defect_grid_M": sol.D.grid_M,
        # the largest array the step holds: the pair solve's chi stack or
        # the widest commutator's triangle grid, complex
        "grid_bytes": max(sol.stack_bytes, 16 * cinfo["grid_M"] ** n * N * (N + 1) // 2),
        "B_g_norm": gB,
        "eps_bound": eps_bound,
        "eps_bound_ok": bool(eps_ok),
        **cinfo,
        # after cinfo, whose own guard_messages this joins
        "guard_messages": sol.guard_messages + cinfo["guard_messages"] + tuple(guard_msgs),
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
        timings=state.timings + tuple(timings.items()),
    )


def run_schedule(A0: DiagonalPart, P0: OperatorSeries, omega, settings: KamSettings):
    """Iterate kam_step until ||P|| < tol or l_max; returns (state, ReducedSystem).

    The state keeps each generator at the band it was solved on.  The
    reduced system keeps the band that Lie-series levels keep, at s = 0 and
    unit weight (_level_band): the smallest band whose dropped shells have
    a majorant of spectral norm at most CHOP_FLOOR.  That majorant bounds
    sup_phi ||B - B_cut||_2 on the real torus and, as both are
    anti-hermitian, ||exp(B) - exp(B_cut)||_2 too.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    n = P0.n
    if settings.tau <= n + 2.0 / (A0.d - 1.0):
        raise KamError(
            f"tau = {settings.tau} must exceed n + 2/(d-1) = {n + 2.0 / (A0.d - 1.0):.3f}"
        )
    if P0.hermiticity_defect() > 1e-11 * max(1.0, _abs_max(P0.coeffs)):
        _guard([], "P0 is not hermitian to 1e-11; the reduction reads its triangle")
    P0 = P0.hermitian()
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
    stopped = None
    while not state.converged and state.l < settings.l_max:
        try:
            state = kam_step(state, w, settings)
        except ConvergenceError as exc:
            stopped = str(exc)
            break
        if state.norm > 2.0 * max(norm0, settings.epsilon):
            stopped = f"||P_{state.l}|| = {state.norm:.3e} above twice max(||P_0||, epsilon)"
            break
    if not state.converged:
        state = replace(state, stopped=stopped or f"l_max = {settings.l_max} steps reached")

    lam_ref = A0.lam
    if settings.epsilon > 0:
        idx = np.arange(1, len(lam_ref) + 1, dtype=float)
        shift_c = float(np.max(np.abs(state.base.lam - lam_ref)
                               / (idx ** A0.delta * settings.epsilon)))
    else:
        shift_c = 0.0
    cuts = [_level_band(B.coeffs, n, B.K, np.ones(B.N), 0.0, 1.0, B.K)
            for B in state.generators]
    rs = ReducedSystem(
        lambda_inf=state.base.lam,
        mu_inf=state.base.mu,
        K_mu=state.base.K,
        n=n,
        omega=w,
        generators=tuple(B.truncate(K) for B, (K, _) in zip(state.generators, cuts)),
        dropped=tuple(dropped for _, dropped in cuts),
        lambda_ref=lam_ref,
        epsilon=settings.epsilon,
        converged=state.converged,
        shift_constant=shift_c,
        delta=A0.delta,
        d=A0.d,
    )
    return state, rs


def _compose(generators, values, N: int, batch: tuple) -> np.ndarray:
    """exp(B_1) exp(B_2) ... (identity if none), values(B) = B at the points, batch + (N, N)."""
    U = np.broadcast_to(np.eye(N, dtype=complex), batch + (N, N)).copy()
    work = _Workspace()
    for B in generators:
        U = U @ _expm_taylor(values(B).reshape(-1, N, N), work).reshape(batch + (N, N))
    return U


def compose_on_grid(generators, N: int, n: int, M: int) -> np.ndarray:
    """U on the full M**n grid, shape (M,)*n + (N, N); identity if no generators."""
    return _compose(generators, lambda B: B.grid(M), N, (M,) * n)
