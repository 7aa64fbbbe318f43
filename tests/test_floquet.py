"""Tests for spectrum assembly, reconstruction, and direct propagation.

Oracles: hand-built spectra with known collisions, scipy.linalg.expm for
constant Hamiltonians, a central-difference check that the reconstructed
solution actually solves i dpsi/dt = H(omega t) psi, dt-halving studies
for the integrator order and its step-doubling error estimate, a
step-by-step eigh loop for the batched CF4 stepping kernel, each kernel's
own exponentials applied one step at a time for the sweep, mpmath at 40
digits (checked against its own quadrature) for the oscillatory integrals
of the interaction-picture Magnus step, CF4 for that step's sweeps,
linear_sum_assignment for the period map's mode matching, the allocating
kernels that the sweep's workspace replaced (bit for bit), and a mask sum
over the mode box for the bound on what a stored generator's cut drops.
The reduction used by the end-to-end cases is the small n=1 instance from
the engine tests (frequency certified there).
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg

from kamreduce.engine import (
    KamSettings,
    ReducedSystem,
    _taylor_degree,
    _taylor_polynomial,
    _Workspace,
    run_schedule,
)
from kamreduce.errors import DivisorTooSmall, KamError
from kamreduce.floquet import (
    _CF4_WEIGHTS,
    _CHUNK,
    _ERROR_TOL,
    _GAUSS,
    _MAGNUS_STEP,
    FloquetSpectrum,
    _cf4_exponentials,
    _expm_taylor,
    _forcing,
    _Interaction,
    _match_modes,
    _mean_phase,
    _moments,
    _ordered_product,
    _phase_integral,
    _quasienergies,
    _reconstruct,
    _sweep,
    floquet_spectrum,
    integrator_costs,
    monodromy_quasienergies,
    propagate_direct,
    propagate_step_doubled,
    reconstruct_solution,
    step_plan,
)
from kamreduce.homological import torus_primitive
from kamreduce.models import abstract_base, build_abstract_model
from kamreduce.torus import CHOP_FLOOR, DiagonalPart, OperatorSeries, TorusSeries, k_box

from conftest import dense, traced_peak

OMEGA_N1 = np.array([0.13799890521733005])  # certified in test_engine

SETTINGS = KamSettings(
    epsilon=1e-3, s=0.05, gamma=0.05, tau=8.0, K_base=4, tol=1e-12, l_max=8
)


@pytest.fixture(scope="module")
def small_run():
    A, P = build_abstract_model(
        N=6, n=1, d=4.0 / 3.0, delta=0.2, K=2, epsilon=1e-3, s=0.05, seed=606
    )
    state, reduced = run_schedule(A, P, OMEGA_N1, SETTINGS)
    assert state.converged
    return A, P, reduced


def _plain_reduced(lam, omega, mu=None, K_mu=0):
    lam = np.asarray(lam, dtype=float)
    return ReducedSystem(
        lambda_inf=lam,
        mu_inf=mu,
        K_mu=K_mu,
        n=len(np.atleast_1d(omega)),
        omega=np.atleast_1d(np.asarray(omega, dtype=float)),
        lambda_ref=lam,
    )


# ---------------------------------------------------------------------------
# spectrum table
# ---------------------------------------------------------------------------

def test_spectrum_toy_values():
    red = _plain_reduced([1.0, 2.0], 0.7)
    spec = floquet_spectrum(red, Kmax=1)
    assert isinstance(spec, FloquetSpectrum)
    assert np.allclose(spec.nu, [0.3, 1.0, 1.3, 1.7, 2.0, 2.7])
    assert np.all(spec.multiplicity == 1)
    # each line remembers which mode and harmonic produced it
    assert spec.mode[0] == 1 and tuple(spec.k[0]) == (-1,)


def test_spectrum_detects_collisions(monkeypatch):
    # lambda_2 - lambda_1 = omega makes nu = 1.0 and 1.7 doubly degenerate
    monkeypatch.setattr("kamreduce.floquet._CLUSTER_TOL", 1e-9)
    red = _plain_reduced([1.0, 1.7], 0.7)
    spec = floquet_spectrum(red, Kmax=1)
    hit = np.isclose(spec.nu, 1.0)
    assert np.any(hit)
    assert np.all(spec.multiplicity[hit] == 2)
    assert len(spec) == 6


def test_spectrum_kmax_zero_is_lambda():
    red = _plain_reduced([1.0, 2.51, 4.33], 0.9)
    spec = floquet_spectrum(red, Kmax=0)
    assert np.allclose(spec.nu, [1.0, 2.51, 4.33])


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def _shell_tail(B, K):
    """||sum_{|k|_inf > K} |B_k| ||_2 of B's N x N series, summed over a mask of the mode box."""
    shell = np.max(np.abs(k_box(B.n, B.K)), axis=1).reshape((2 * B.K + 1,) * B.n)
    return float(np.linalg.norm(np.abs(dense(B).coeffs)[shell > K].sum(axis=0), 2))


def test_reduced_generators_keep_their_live_band(small_run):
    # the stored band is the smallest whose dropped shells weigh at most
    # CHOP_FLOOR, and that weight bounds the change of the reconstruction
    A, P, _ = small_run
    state, reduced = run_schedule(A, P, OMEGA_N1, SETTINGS)
    assert any(cut.K < B.K for B, cut in zip(state.generators, reduced.generators))
    for B, cut, dropped in zip(state.generators, reduced.generators, reduced.dropped, strict=True):
        assert cut.coeffs.tobytes() == B.truncate(cut.K).coeffs.tobytes()
        assert dropped == pytest.approx(_shell_tail(B, cut.K), rel=1e-12, abs=0.0)
        assert dropped <= CHOP_FLOOR
        assert cut.K == 0 or _shell_tail(B, cut.K - 1) > CHOP_FLOOR
    whole = replace(reduced, generators=state.generators, dropped=())
    phi0, ts = np.array([0.4]), np.linspace(0.5, 30.0, 25)
    diff = (reconstruct_solution(reduced, np.eye(A.N), phi0, ts)
            - reconstruct_solution(whole, np.eye(A.N), phi0, ts))
    assert np.max(np.linalg.norm(diff, ord=2, axis=(1, 2))) <= sum(reduced.dropped) + 1e-14


def test_reconstruction_is_unitary_and_solves_equation(small_run):
    A, P, reduced = small_run
    N = A.N
    rng = np.random.default_rng(8)
    psi0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    psi0 /= np.linalg.norm(psi0)
    phi0 = np.array([0.4])
    ts = np.linspace(0.3, 30.0, 40)
    psi = reconstruct_solution(reduced, psi0, phi0, ts)
    norms = np.linalg.norm(psi, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10

    # central difference: i dpsi/dt = (A + P(phi0 + omega t)) psi  to O(h^2)
    h = 1e-5
    for t in (0.7, 11.3, 29.1):
        grid = np.array([t - h, t, t + h])
        vals = reconstruct_solution(reduced, psi0, phi0, grid)
        dpsi = (vals[2] - vals[0]) / (2.0 * h)
        H = np.diag(A.lam).astype(complex) + P.at((phi0 + OMEGA_N1 * t)[None])[0]
        resid = 1j * dpsi - H @ vals[1]
        assert np.linalg.norm(resid) < 1e-7


def test_reconstruction_rejects_live_zero_divisor():
    mu = np.zeros((2, 3), dtype=complex)
    mu[:, 0] = 0.01
    mu[:, 2] = 0.01  # real cosine mode, zero average
    red = _plain_reduced([1.0, 2.0], 1e-13, mu=mu, K_mu=1)
    with pytest.raises(DivisorTooSmall) as info:
        reconstruct_solution(red, np.array([1.0, 0.0]), np.zeros(1), [1.0])
    # the first live mode; a phase integral names no (i, j) pair
    assert info.value.k == (-1,)
    assert info.value.i is None and info.value.j is None


def test_phase_integral_is_the_primitive_along_the_flow():
    # n = 2: F_i(t) = H_i(phi0 + omega t) - H_i(phi0), H_i the torus primitive of mu_i
    n, K, N = 2, 2, 3
    rng = np.random.default_rng(24)
    shape = (N,) + (2 * K + 1,) * n
    mu = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mu = 0.01 * (mu + np.conj(mu[:, ::-1, ::-1]))          # real on the real torus
    mu[:, K, K] = 0.0
    omega = np.array([1.0, 0.5 * (1.0 + math.sqrt(5.0))])
    red = _plain_reduced([1.0, 2.0, 3.5], omega, mu=mu, K_mu=K)
    phi0, ts = np.array([0.3, -1.1]), np.array([0.4, 7.3, 41.0])
    F = _phase_integral(red, phi0 + np.outer(np.concatenate([[0.0], ts]), omega))
    for i in range(N):
        H = torus_primitive(TorusSeries(n, K, mu[i]), omega)
        values = H.at(np.vstack([phi0, phi0 + np.outer(ts, omega)]))
        expect = values[1:] - values[0]
        assert np.max(np.abs(F[:, i] - expect)) <= 1e-14


# ---------------------------------------------------------------------------
# direct propagation
# ---------------------------------------------------------------------------

def test_propagate_rejects_large_dt(small_run):
    A, P, _ = small_run
    with pytest.raises(KamError, match="dt"):
        propagate_direct(
            A, P, OMEGA_N1, np.ones(A.N) / np.sqrt(A.N), np.zeros(1), [1.0], dt=1.0
        )


def test_propagate_norm_drift(small_run):
    A, P, _ = small_run
    psi0 = np.ones(A.N, dtype=complex) / np.sqrt(A.N)
    out = propagate_direct(A, P, OMEGA_N1, psi0, np.zeros(1), np.linspace(1, 20, 10))
    drift = np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0))
    assert drift < 1e-9


def test_propagate_fourth_order_in_dt(small_run):
    A, P, _ = small_run
    psi0 = np.ones(A.N, dtype=complex) / np.sqrt(A.N)
    ts = [5.0]
    ref = propagate_direct(A, P, OMEGA_N1, psi0, np.zeros(1), ts, dt=1e-2)[0]
    errs = []
    for dt in (0.28, 0.14, 0.07):
        val = propagate_direct(A, P, OMEGA_N1, psi0, np.zeros(1), ts, dt=dt)[0]
        errs.append(np.linalg.norm(val - ref))
    assert errs[0] / errs[1] >= 12.0
    assert errs[1] / errs[2] >= 12.0


def _two_level(coupling, omega=0.1):
    """lambda = (1, 2.3) with a cosine coupling of the given size, forced at omega."""
    base = DiagonalPart(lam=np.array([1.0, 2.3]), d=1.5, delta=0.0, n=1)
    c = np.zeros((3, 2, 2), dtype=complex)
    c[0] = c[2] = [[0.0, coupling], [coupling, 0.0]]
    return base, OperatorSeries(1, 1, 2, c), np.array([omega])


def test_step_doubling_estimate_tracks_the_error(small_run):
    A, P, _ = small_run
    ts = np.linspace(0.5, 10.0, 20)
    identity = np.eye(A.N, dtype=complex)
    Phi, dt, steps, estimate = propagate_step_doubled(A, P, OMEGA_N1, identity, np.zeros(1), ts)
    dt0, steps0 = step_plan(A, P, OMEGA_N1, ts)
    assert dt == dt0 and np.array_equal(steps, steps0)  # no halving
    assert np.array_equal(Phi, propagate_direct(A, P, OMEGA_N1, identity, np.zeros(1), ts))
    # a reference at h max|lambda| = 0.25 is ~1e-3 of the error away from exact
    fine = 0.25 / float(np.max(np.abs(A.lam)))
    ref = propagate_direct(A, P, OMEGA_N1, identity, np.zeros(1), ts, dt=fine)
    error = float(np.max(np.linalg.norm(Phi - ref, ord=2, axis=(1, 2))))
    assert error / 3.0 <= estimate <= 3.0 * error


def test_step_doubling_refines_a_strongly_forced_system():
    base, P, omega = _two_level(0.2)
    ts = np.linspace(1.0, 10.0, 10)
    dt0, steps0 = step_plan(base, P, omega, ts)
    Phi, dt, steps, estimate = propagate_step_doubled(base, P, omega, np.eye(2), np.zeros(1), ts)
    halvings = round(math.log2(dt0 / dt))
    assert halvings >= 1 and dt == dt0 / 2**halvings
    assert np.array_equal(steps, steps0 * 2**halvings)
    assert estimate <= _ERROR_TOL
    ref = propagate_direct(base, P, omega, np.eye(2), np.zeros(1), ts, dt=dt / 8)
    assert np.max(np.linalg.norm(Phi - ref, ord=2, axis=(1, 2))) <= 3.0 * estimate


def test_coarse_step_resolves_a_fast_forcing():
    # max|lambda| alone would allow a coarse step of 3.2 / 2.3 = 1.39, more
    # than a third of the forcing period 2 pi / 1.7
    base, P, omega = _two_level(0.05, omega=1.7)
    ts = np.linspace(50.0 / 60, 50.0, 60)
    dt0, _ = step_plan(base, P, omega, ts)
    assert dt0 == 2.0 * np.pi / 1.7 / 8 / 2
    assert step_plan(base, None, omega, ts)[0] == 3.2 / 2.3 / 2
    Phi, dt, _, estimate = propagate_step_doubled(base, P, omega, np.eye(2), np.zeros(1), ts)
    assert estimate <= _ERROR_TOL
    ref = propagate_direct(base, P, omega, np.eye(2), np.zeros(1), ts, dt=dt / 4)
    assert np.max(np.linalg.norm(Phi - ref, ord=2, axis=(1, 2))) <= 3.0 * estimate


def test_step_doubling_gives_up_after_four_halvings():
    base, P, omega = _two_level(2.0)
    with pytest.raises(KamError, match="after 4 step halvings"):
        propagate_step_doubled(base, P, omega, np.eye(2), np.zeros(1), np.linspace(1.0, 10.0, 10))


def test_propagate_epsilon_zero_is_exact_phase():
    base = abstract_base(5, 1, 4.0 / 3.0, 0.2)
    P = OperatorSeries.zero(1, 1, 5)
    psi0 = np.ones(5, dtype=complex) / np.sqrt(5)
    ts = np.array([0.5, 3.0, 12.0])
    out = propagate_direct(base, P, OMEGA_N1, psi0, np.zeros(1), ts)
    expect = np.exp(-1j * np.outer(ts, base.lam)) * psi0[None, :]
    assert np.max(np.abs(out - expect)) < 1e-10


def test_propagate_constant_two_level_closed_form():
    base = DiagonalPart(lam=np.array([1.0, 2.3]), d=1.5, delta=0.0, n=1)
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1] = [[0.0, 0.04], [0.04, 0.0]]  # constant coupling (mode k=0)
    P = OperatorSeries(1, 1, 2, c)
    H = np.diag(base.lam) + P.at(np.zeros((1, 1)))[0]
    psi0 = np.array([1.0, 0.0], dtype=complex)
    ts = np.array([0.7, 4.4, 9.2])
    out = propagate_direct(base, P, np.array([0.31]), psi0, np.zeros(1), ts)
    for row, t in zip(out, ts):
        expect = scipy.linalg.expm(-1j * t * H) @ psi0
        assert np.linalg.norm(row - expect) < 1e-9


# ---------------------------------------------------------------------------
# monodromy
# ---------------------------------------------------------------------------

def test_monodromy_matches_reduced_eigenvalues(small_run):
    A, P, reduced = small_run
    T = 2.0 * np.pi / OMEGA_N1[0]
    nu, M, info = monodromy_quasienergies(A, P, OMEGA_N1, reduced=reduced)
    assert info["min_overlap"] > 0.99
    lam_mod = np.mod(reduced.lambda_inf, 2.0 * np.pi / T)
    err = np.abs(nu - lam_mod)
    err = np.minimum(err, 2.0 * np.pi / T - err)
    assert np.max(err) < 1e-8
    assert M.shape == (A.N, A.N)


def test_monodromy_stable_under_dt_halving(small_run):
    A, P, reduced = small_run
    nu1, _, _ = monodromy_quasienergies(A, P, OMEGA_N1, dt=4e-3, reduced=reduced)
    nu2, _, _ = monodromy_quasienergies(A, P, OMEGA_N1, dt=2e-3, reduced=reduced)
    assert np.max(np.abs(nu1 - nu2)) < 1e-8


def test_monodromy_unitarity_guard(small_run, monkeypatch):
    A, P, _ = small_run
    monkeypatch.setattr("kamreduce.floquet._UNITARITY_TOL", 0.0)
    with pytest.raises(KamError, match="unitar"):
        monodromy_quasienergies(A, P, OMEGA_N1)


def test_fundamental_solution_times_out_columns(small_run):
    A, P, _ = small_run
    T = 1.2
    Phi = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    defect = np.max(np.abs(Phi.conj().T @ Phi - np.eye(A.N)))
    assert defect < 1e-10
    e0 = np.zeros(A.N, dtype=complex)
    e0[0] = 1.0
    direct = propagate_direct(A, P, OMEGA_N1, e0, np.zeros(1), [T])[0]
    assert np.linalg.norm(Phi[:, 0] - direct) < 1e-10


def test_propagate_block_equals_single_vector_calls(small_run):
    A, P, _ = small_run
    rng = np.random.default_rng(5)
    block = rng.standard_normal((A.N, 3)) + 1j * rng.standard_normal((A.N, 3))
    ts = [0.7, 2.0, 3.1]
    got = propagate_direct(A, P, OMEGA_N1, block, np.array([0.4]), ts)
    assert got.shape == (len(ts), A.N, 3)
    for c in range(3):
        one = propagate_direct(A, P, OMEGA_N1, block[:, c], np.array([0.4]), ts)
        assert np.max(np.abs(got[:, :, c] - one)) <= 1e-14


def test_reconstruct_block_equals_single_vector_calls(small_run):
    _, _, reduced = small_run
    rng = np.random.default_rng(6)
    block = rng.standard_normal((reduced.N, 3)) + 1j * rng.standard_normal((reduced.N, 3))
    ts = [0.7, 2.0, 3.1]
    got = reconstruct_solution(reduced, block, np.array([0.4]), ts)
    assert got.shape == (len(ts), reduced.N, 3)
    for c in range(3):
        one = reconstruct_solution(reduced, block[:, c], np.array([0.4]), ts)
        assert np.max(np.abs(got[:, :, c] - one)) <= 1e-14


@pytest.mark.parametrize("t_max", [20.0, 60.0])
def test_one_sweep_gives_trajectory_and_period_map(small_run, t_max):
    # verify's n = 1 sweep: Phi through ts and T, on both sides of T = 45.5
    A, P, reduced = small_run
    T = 2.0 * np.pi / OMEGA_N1[0]
    ts = np.linspace(t_max / 12, t_max, 12)
    times = np.union1d(ts, [T])
    assert len(times) == len(ts) + 1
    Phi = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), times)
    psi0 = np.ones(A.N, dtype=complex) / np.sqrt(A.N)
    traj = Phi[np.searchsorted(times, ts)] @ psi0
    ref = propagate_direct(A, P, OMEGA_N1, psi0, np.zeros(1), ts)
    # before T both sweeps take the same steps; the interval holding T is
    # stepped in two parts, which moves later times by the scheme's error
    # over that interval, below the error verify accepts for a whole sweep
    before = ts < T
    assert np.max(np.abs(traj[before] - ref[before])) <= 1e-13
    if not before.all():
        assert np.max(np.abs(traj[~before] - ref[~before])) <= _ERROR_TOL
    M = Phi[np.searchsorted(times, T)]
    period_map = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    assert np.max(np.abs(M - period_map)) <= 1e-10
    # verify's frame: U(phi0) as _reconstruct composes it on the way
    U0 = _reconstruct(reduced, np.eye(A.N), np.zeros(1), ts)[1]
    nu, info = _quasienergies(M, T, U0)
    nu_ref, _, _ = monodromy_quasienergies(A, P, OMEGA_N1, reduced=reduced)
    assert np.max(np.abs(nu - nu_ref)) <= 1e-10
    assert info["period"] == T and info["min_overlap"] > 0.99


@pytest.mark.parametrize("with_reduced", [False, True])
def test_period_map_quasienergies_are_the_monodromy_ones(small_run, with_reduced):
    A, P, reduced = small_run
    reduced = reduced if with_reduced else None
    T = 2.0 * np.pi / OMEGA_N1[0]
    M = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    U0 = None if reduced is None else _reconstruct(reduced, np.eye(A.N), np.zeros(1), [0.0])[1]
    nu, info = _quasienergies(M, T, U0)
    nu_ref, _, info_ref = monodromy_quasienergies(A, P, OMEGA_N1, reduced=reduced)
    assert np.array_equal(nu, nu_ref)
    assert info == info_ref


# ---------------------------------------------------------------------------
# stepping kernel
# ---------------------------------------------------------------------------

def _eigh_exp(H, h):
    """exp(-i h H) for a hermitian batch through its eigendecomposition."""
    w, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * h * w)[..., None, :]) @ np.conj(np.swapaxes(V, -1, -2))


@pytest.mark.parametrize("b", [1e-20, 1e-9, 0.05, 0.3, 1.0])
def test_taylor_degree_is_smallest_with_tail_below_unit_roundoff(b):
    def tail(m):
        return math.fsum(b**k / math.factorial(k) for k in range(m + 1, m + 60))

    m = _taylor_degree(b)
    assert tail(m) <= 2.0**-53
    assert m == 0 or tail(m - 1) > 2.0**-53


@pytest.mark.parametrize("N, bound", [(24, 0.05), (24, 0.9), (6, 5.0), (24, 40.0)])
def test_step_exponential_matches_eigh(N, bound):
    # bounds above 1 take the scaling-and-squaring branch
    rng = np.random.default_rng(N + int(bound * 10))
    X = rng.standard_normal((40, N, N)) + 1j * rng.standard_normal((40, N, N))
    H = X + np.conj(np.swapaxes(X, -1, -2))
    H *= bound / np.max(np.sum(np.abs(H), axis=-2))
    assert np.max(np.abs(_expm_taylor(-1j * H) - _eigh_exp(H, 1.0))) <= 1e-14


# The allocating kernels the workspace replaced, kept as oracles: every
# array is fresh, and each product is formed as an expression


def _taylor_polynomial_alloc(A, m):
    C, N, _ = A.shape
    s = math.isqrt(m - 1) + 1 if m else 1
    r = m // s
    pows = np.empty((s,) + A.shape, dtype=complex)
    pows[0] = A
    for i in range(1, s):
        np.matmul(pows[i - 1], A, out=pows[i])
    inv = [1.0 / math.factorial(k) for k in range(m + 1)] + [0.0] * s
    weights = np.array([[inv[j * s + i] for i in range(1, s)] for j in range(r + 1)])
    flat = pows[: s - 1].view(float).reshape(s - 1, 2 * A.size)
    blocks = (weights @ flat).view(complex).reshape((r + 1,) + A.shape)
    identity = np.array(inv[: r * s + 1 : s])[:, None, None]
    blocks.reshape(r + 1, C, N * N)[:, :, :: N + 1] += identity
    if m % s == 0 and r:
        r -= 1
        E = pows[-1] * inv[m] + blocks[r]
    else:
        E = blocks[r]
    for j in range(r - 1, -1, -1):
        E = pows[-1] @ E
        E += blocks[j]
    return E


def _expm_taylor_alloc(A):
    b = float(np.max(np.sum(np.abs(A), axis=-2)))
    q = math.ceil(math.log2(b)) if b > 1.0 else 0
    E = _taylor_polynomial_alloc(A / 2.0**q if q else A, _taylor_degree(b / 2.0**q))
    for _ in range(q):
        E = E @ E
    return E


def _ordered_product_alloc(E):
    while len(E) > 1:
        even = len(E) - len(E) % 2
        paired = E[1:even:2] @ E[0:even:2]
        E = np.concatenate([paired, E[even:]]) if even < len(E) else paired
    return E[0]


def _cf4_alloc(base, P, omega, phi0, a, h):
    N = base.N
    ks, C = _forcing(base, P)
    nodes = a[:, None] + _GAUSS[None, :] * h[:, None]
    phis = phi0[None, :] + nodes.reshape(-1, 1) * omega[None, :]
    H = np.exp(1j * (phis @ ks.T)) @ C.reshape(len(ks), N * N)
    H[:, ::N + 1] += base.lam
    H = (-1j * h[:, None, None] * _CF4_WEIGHTS) @ H.reshape(len(a), 2, N * N)
    return _expm_taylor_alloc(H.reshape(2 * len(a), N, N)).reshape(len(a), 2, N, N)


def _magnus_alloc(step, a, h):
    N = len(step.lam)
    Wa = np.empty((len(a), N * N), dtype=complex)
    lengths, which = np.unique(h, return_inverse=True)
    for i, length in enumerate(lengths):
        W = step.generator(length).reshape(len(step.rate), N * N)
        Wa[which == i] = np.exp(1j * np.outer(a[which == i], step.rate)) @ W
    decay = np.exp(-1j * h[:, None] * step.lam)[:, :, None]
    return (decay * _expm_taylor_alloc(Wa.reshape(-1, N, N)))[:, None]


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_workspace_kernels_are_bit_identical_to_allocating_ones(small_run):
    # one workspace across calls that grow it, shrink to views of it, and
    # change the Taylor degree and the number of squarings
    rng = np.random.default_rng(7)
    work = _Workspace()
    for C, N, bound in [(32, 6, 0.05), (5, 6, 0.9), (32, 6, 40.0), (40, 9, 3.0), (3, 9, 1e-9)]:
        X = rng.standard_normal((C, N, N)) + 1j * rng.standard_normal((C, N, N))
        A = -1j * (X + np.conj(np.swapaxes(X, -1, -2)))
        A *= bound / np.max(np.sum(np.abs(A), axis=-2))
        assert _same_bits(_expm_taylor(A, work), _expm_taylor_alloc(A))
        for m in (0, 1, 4, 9, 18):
            assert _same_bits(_taylor_polynomial(A, m, work), _taylor_polynomial_alloc(A, m))
        for count in (1, 2, 7, C):
            assert _same_bits(_ordered_product(A[:count], work), _ordered_product_alloc(A[:count]))
    # the two step kernels, on a full chunk, a shorter one and mixed lengths
    A, P, _ = small_run
    phi0 = np.array([0.3])
    cf4 = _cf4_exponentials(A, P, OMEGA_N1, phi0)
    magnus = _Interaction(A, P, OMEGA_N1, phi0)
    work = _Workspace()
    for count, lengths in [(_CHUNK, [0.01]), (5, [0.01]), (_CHUNK, [0.01, 0.02, 0.01 + 1e-15])]:
        a = 0.7 + 0.013 * np.arange(count)
        h = np.resize(np.array(lengths), count)
        assert _same_bits(cf4(a, h, work), _cf4_alloc(A, P, OMEGA_N1, phi0, a, h))
        assert _same_bits(magnus.exponentials(a, h, work), _magnus_alloc(magnus, a, h))


def test_sweep_memory_does_not_grow_with_its_steps():
    # a sweep allocates its chunk-sized arrays once: its traced peak above
    # entry at 512 steps stays within 64 bytes per extra step (its step
    # table) of the peak at 64 steps, far below one chunk array (200 KB)
    A, P = build_abstract_model(
        N=20, n=1, d=4.0 / 3.0, delta=0.2, K=2, epsilon=1e-3, s=0.05, seed=606
    )
    kernel = _cf4_exponentials(A, P, OMEGA_N1, np.array([0.3]))
    peaks = {}
    for steps in (64, 512):
        _, peaks[steps] = traced_peak(
            lambda: _sweep(kernel, np.eye(A.N), np.array([2.0]), np.array([steps]), _Workspace()))
    assert peaks[512] <= peaks[64] + 64 * (512 - 64)


def test_step_exponential_rejects_non_finite_input():
    with pytest.raises(KamError, match="non-finite"):
        _expm_taylor(np.full((1, 2, 2), np.nan + 0j))


@pytest.mark.parametrize("steps, with_mu", [
    pytest.param(steps, with_mu, id=f"{steps}-mu" if with_mu else str(steps))
    for with_mu in (False, True) for steps in (0, 1, 7, 2 * _CHUNK + 1)])
def test_step_product_matches_sequential_eigh(small_run, steps, with_mu):
    # the CF4 step of Blanes & Moan, one exponential after another, with H
    # formed from P and mu at each Gauss point; mu at k = 1, a mode P shares,
    # and k = 3, one P lacks
    A, P, _ = small_run
    K = 3
    mu = np.zeros((A.N, 2 * K + 1), dtype=complex)
    if with_mu:
        rng = np.random.default_rng(steps)
        for k in (1, K):
            mu[:, K + k] = 0.05 * (rng.standard_normal(A.N) + 1j * rng.standard_normal(A.N))
            mu[:, K - k] = np.conj(mu[:, K + k])
        A = DiagonalPart(lam=A.lam, d=A.d, delta=A.delta, n=1, mu=mu, K=K)
    phi0, t0, h = np.array([0.3]), 1.7, 0.01
    gauss = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
    a1, a2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
    expect = np.eye(A.N, dtype=complex)
    for j in range(steps):
        nodes = t0 + (j + gauss) * h
        H1, H2 = (np.diag(A.lam + (mu @ np.exp(1j * np.arange(-K, K + 1) * phi)).real)
                  + P.at(np.array([[phi]]))[0]
                  for phi in phi0 + nodes * OMEGA_N1[0])
        expect = _eigh_exp(a2 * H1 + a1 * H2, h) @ expect
        expect = _eigh_exp(a1 * H1 + a2 * H2, h) @ expect
    got = _sweep(_cf4_exponentials(A, P, OMEGA_N1, phi0), np.eye(A.N), [t0, t0 + h * steps],
                 [0, steps], _Workspace())[-1]
    assert np.max(np.abs(got - expect)) <= 1e-13


@pytest.mark.parametrize("integrator", ["cf4", "magnus"])
def test_sweep_matches_the_step_by_step_product(small_run, integrator):
    # intervals that straddle the chunk boundaries, and one with no steps,
    # against the same kernel's exponentials applied one step at a time
    A, P, _ = small_run
    phi0, ts, steps = np.array([0.3]), np.array([0.3, 0.8, 0.9, 1.6]), [3, 17, 0, 14]
    kernel = (_Interaction(A, P, OMEGA_N1, phi0).exponentials if integrator == "magnus"
              else _cf4_exponentials(A, P, OMEGA_N1, phi0))
    got = _sweep(kernel, np.eye(A.N), ts, steps, _Workspace())
    expect, start = np.eye(A.N, dtype=complex), 0.0
    for m, (t, n) in enumerate(zip(ts, steps)):
        h = (t - start) / max(n, 1)
        for j in range(n):
            for factor in kernel(np.array([start + j * h]), np.array([h]), _Workspace())[0]:
                expect = factor @ expect
        start = t
        assert np.max(np.abs(got[m] - expect)) <= 1e-13, m


def test_fundamental_solution_unitary_to_roundoff(small_run):
    A, P, _ = small_run
    T = 2.0 * np.pi / OMEGA_N1[0]
    Phi = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    assert np.max(np.abs(Phi.conj().T @ Phi - np.eye(A.N))) <= 1e-12


# ---------------------------------------------------------------------------
# the interaction-picture Magnus step
# ---------------------------------------------------------------------------

def _mp_mean_phase(z):
    z = mpmath.mpf(z)
    return mpmath.mpf(1) if z == 0 else (mpmath.expj(z) - 1) / (1j * z)


def _mp_moment(p, x):
    """int_0^1 s^p e^{ixs} ds, through the lower incomplete gamma function."""
    x = mpmath.mpf(x)
    if x == 0:
        return mpmath.mpf(1) / (p + 1)
    return mpmath.gammainc(p + 1, 0, -1j * x) / (-1j * x) ** (p + 1)


def _mp_psi(x, y):
    """psi(x, y) = (E(x + y) - E(x)) / (iy), and M_1(x) at y = 0, exact at 40 digits."""
    x, y = mpmath.mpf(x), mpmath.mpf(y)
    return _mp_moment(1, x) if y == 0 else (_mp_mean_phase(x + y) - _mp_mean_phase(x)) / (1j * y)


def _mp_quad(f, width):
    """int_0^1 f, in pieces of at most 50 radians of oscillation."""
    return mpmath.quad(f, mpmath.linspace(0, 1, int(width / 50.0) + 2))


@pytest.mark.parametrize("x, y", [(0.0, 0.0), (0.3, 1e-9), (14.999, 0.4999), (15.001, -0.5001),
                                  (-800.0, 0.4999), (1000.0, 0.5001), (1000.0, -999.0)])
def test_psi_closed_form_is_the_double_integral(x, y):
    # the oracle below against mpmath's quadrature of int_0^1 e^{ixs} int_0^s e^{iyu} du ds
    with mpmath.workdps(20):
        X, Y = mpmath.mpf(x), mpmath.mpf(y)
        inner = (lambda s: s) if y == 0 else (lambda s: (mpmath.expj(Y * s) - 1) / (1j * Y))
        quad = _mp_quad(lambda s: mpmath.expj(X * s) * inner(s), abs(x) + abs(y))
    with mpmath.workdps(40):
        assert abs(quad - _mp_psi(x, y)) <= 1e-17 * abs(quad)


@pytest.mark.parametrize("x", [0.0, 1e-9, -0.3, 0.999, 1.0, 6.283185307179586, -11.125, 14.999,
                               15.0, 15.001, 25.1327, 200.0, -800.0, 1000.0])
def test_mean_phase_and_moments_match_mpmath(x):
    # E keeps its relative accuracy at 0 and near its zeros 2 pi k; M_p
    # switches from the upward to the downward recurrence at p = |x| and
    # leaves the downward one at |x| = 15
    got = _moments(np.array([x]))[:, 0]
    with mpmath.workdps(40):
        E = complex(_mp_mean_phase(x))
        assert abs(_mean_phase(x) - E) <= 1e-13 * abs(E)
        assert got[0] == _mean_phase(x)
        for p, value in enumerate(got):
            expect = complex(_mp_moment(p, x))
            assert abs(value - expect) <= 1e-13 * abs(expect), p
    if abs(x) < 100:
        with mpmath.workdps(20):
            quad = _mp_quad(lambda s: s**14 * mpmath.expj(mpmath.mpf(x) * s), abs(x))
        assert abs(got[14] - complex(quad)) <= 1e-13 * abs(quad)


def test_magnus_tables_match_mpmath():
    # lambda = (1, 2, 1000), omega = 1/2 - 2^-12 and h = 1 put x = nu_k,il h
    # and y = nu_k',lj h at 0 (x = y = 0 too), just below and above |y| =
    # 0.5 and up to |x| = 999.5, on both sides of the series branch.  Every
    # nu is exact in binary, so x + y is nu_{k+k'},ij h exactly, and every W_r
    # is checked against the sum it factorizes
    base = DiagonalPart(lam=np.array([1.0, 2.0, 1000.0]), d=1.5, delta=0.0, n=1)
    rng = np.random.default_rng(5)
    c = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    omega, phi0, h = np.array([0.5 - 2.0**-12]), np.array([0.4]), 1.0
    inter = _Interaction(base, OperatorSeries(1, 1, 3, c), omega, phi0)
    W = inter.generator(h)
    C, X = inter.C, inter.nu * h
    with mpmath.workdps(40):
        E = [[[_mp_mean_phase(v) for v in row] for row in mode] for mode in X]
        expect = np.zeros(W.shape, dtype=complex)
        scale = np.zeros(W.shape)
        for k in range(3):
            for i, j in np.ndindex(3, 3):
                term = complex(-1j * h * C[k, i, j] * E[k][i][j])
                expect[inter.first[k], i, j] += term
                scale[inter.first[k], i, j] += abs(term)
        for k, q in np.ndindex(3, 3):
            for i, l, j in np.ndindex(3, 3, 3):
                x, y = X[k, i, l], X[q, l, j]
                psi, EE = _mp_psi(x, y), E[k][i][l] * E[q][l][j]
                pair = -0.5 * h * h * C[k, i, l] * C[q, l, j]
                expect[inter.second[k, q], i, j] += complex(pair * (2 * psi - EE))
                # S vanishes at x = y, but not the two terms it is formed from
                scale[inter.second[k, q], i, j] += abs(pair) * float(2 * abs(psi) + abs(EE))
    assert {0.0, 0.5 - 2.0**-12, 0.5 + 2.0**-12, 999.5 - 2.0**-12} <= set(np.abs(X).ravel())
    assert np.all(np.abs(W - expect) <= 1e-13 * scale)


def _forced(lam, amplitudes, omega, seed):
    """lambda with hermitian couplings at k = +-1 (+-2) and a real k = 0 diagonal."""
    N, K = len(lam), len(amplitudes) - 1
    rng = np.random.default_rng(seed)
    c = np.zeros((2 * K + 1, N, N), dtype=complex)
    c[K] = np.diag(amplitudes[0] * rng.uniform(-1.0, 1.0, N))
    for k in range(1, K + 1):
        c[K + k] = amplitudes[k] * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        c[K - k] = np.conj(c[K + k].T)
    base = DiagonalPart(lam=np.asarray(lam, dtype=float), d=1.5, delta=0.0, n=1)
    return base, OperatorSeries(1, K, N, c), np.array([omega])


def test_magnus_step_plan_is_sized_by_the_forcing():
    base, P, omega = _two_level(0.05, omega=1.7)
    ts = np.linspace(50.0 / 60, 50.0, 60)
    # sum_k ||C_k||_2 = 0.1 for the two couplings; no bound from max|lambda|
    # or from the forcing period
    dt, steps = step_plan(base, P, omega, ts, integrator="magnus")
    assert dt == _MAGNUS_STEP / 0.1 / 2
    assert np.array_equal(steps, 2 * np.ceil(np.diff(ts, prepend=0.0) / (2 * dt) - 1e-12))
    # a weak forcing takes one coarse step per interval, the longest one
    weak, _ = step_plan(base, OperatorSeries(1, 1, 2, P.coeffs * 1e-4), omega, ts,
                        integrator="magnus")
    assert weak == np.max(np.diff(ts, prepend=0.0)) / 2
    with pytest.raises(KamError, match="integrator"):
        step_plan(base, P, omega, ts, integrator="rk4")


@pytest.mark.parametrize("integrator", ["cf4", "magnus"])
def test_step_doubling_divides_by_the_order(monkeypatch, integrator):
    from kamreduce import floquet

    base, P, omega = _forced([1.0, 2.7, 4.1], [2e-3, 4e-3], 0.37, seed=2)
    ts = np.linspace(1.0, 10.0, 10)
    sweeps = []
    sweep = floquet._sweep

    def recorded(*args):
        sweeps.append(sweep(*args))
        return sweeps[-1]

    monkeypatch.setattr(floquet, "_sweep", recorded)
    Phi, _, _, estimate = propagate_step_doubled(base, P, omega, np.eye(3), np.zeros(1), ts,
                                                 integrator)
    coarse, fine = sweeps[-2:]
    order = {"cf4": 4, "magnus": 2}[integrator]
    assert np.array_equal(Phi, fine)
    assert estimate == np.max(np.linalg.norm(fine - coarse, ord=2, axis=(1, 2))) / (2**order - 1)


def test_magnus_sweep_matches_cf4_on_the_strongly_forced_two_level_system():
    base, P, omega = _two_level(0.05, omega=1.7)
    ts = np.linspace(50.0 / 60, 50.0, 60)
    Phi, _, _, estimate = propagate_step_doubled(base, P, omega, np.eye(2), np.zeros(1), ts,
                                                 "magnus")
    assert estimate <= _ERROR_TOL
    ref = propagate_direct(base, P, omega, np.eye(2), np.zeros(1), ts,
                           dt=step_plan(base, P, omega, ts)[0] / 64)
    assert np.max(np.linalg.norm(Phi - ref, ord=2, axis=(1, 2))) <= 3.0 * estimate


def test_magnus_sweep_of_a_free_system_is_the_exact_phase():
    base = abstract_base(5, 1, 4.0 / 3.0, 0.2)
    psi0 = np.ones(5, dtype=complex) / np.sqrt(5)
    ts = np.array([0.5, 3.0, 12.0])
    out, _, steps, _ = propagate_step_doubled(base, OperatorSeries.zero(1, 1, 5), OMEGA_N1, psi0,
                                              np.zeros(1), ts, "magnus")
    assert np.array_equal(steps, [2, 2, 2])
    assert np.max(np.abs(out - np.exp(-1j * np.outer(ts, base.lam)) * psi0)) < 1e-13


def test_magnus_step_doubling_gives_up_after_four_halvings(monkeypatch):
    # a coarse step 1000 times the rule's is still too long after four halvings
    from kamreduce import floquet

    monkeypatch.setattr(floquet, "_MAGNUS_STEP", 1000 * _MAGNUS_STEP)
    base, P, omega = _two_level(0.2)
    with pytest.raises(KamError, match="Magnus error estimate .* after 4 step halvings"):
        propagate_step_doubled(base, P, omega, np.eye(2), np.zeros(1), np.linspace(1.0, 10.0, 10),
                               "magnus")


def test_magnus_tables_are_built_once_per_step_length(monkeypatch):
    # the spans of a linspace differ in their last bits; with T the grid has
    # three step lengths per sweep, so the two sweeps build six tables
    base, P, omega = _forced([1.0, 2.7, 4.1, 6.2], [1e-3, 2e-3], 0.5, seed=3)
    ts = np.linspace(20.0 / 60, 20.0, 60)
    times = np.union1d(ts, [2.0 * np.pi / omega[0]])
    assert len(set(np.diff(ts, prepend=0.0))) > 3
    built = []
    generator = _Interaction.generator

    def counted(self, h):
        W = generator(self, h)
        built.append(len(self.tables))
        return W

    monkeypatch.setattr(_Interaction, "generator", counted)
    propagate_step_doubled(base, P, omega, np.eye(4), np.zeros(1), times, "magnus")
    assert max(built) == 6
    costs = integrator_costs(base, P, omega, times)
    assert set(costs) == {"cf4", "magnus"} and costs["magnus"] < costs["cf4"]


# ---------------------------------------------------------------------------
# period-map mode matching
# ---------------------------------------------------------------------------

def _counted_assignment(monkeypatch):
    import scipy.optimize

    calls = []
    solve = scipy.optimize.linear_sum_assignment

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return solve, calls


def _assignment(solve, overlap):
    rows, cols = solve(-overlap)
    perm = np.empty(len(overlap), dtype=int)
    perm[rows] = cols
    return perm


@pytest.mark.parametrize("seed", range(8))
def test_match_modes_is_the_optimal_assignment(monkeypatch, seed):
    # |V|^2 of a unitary near a permutation: doubly stochastic, rows peaked
    solve, calls = _counted_assignment(monkeypatch)
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 25))
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    G = X + X.conj().T
    G *= rng.uniform(0.05, 0.6) / np.linalg.norm(G, 2)
    V = rng.permutation(np.eye(N)) @ scipy.linalg.expm(1j * G)
    overlap = np.abs(V) ** 2
    assert np.all(overlap.max(axis=1) > 0.5)
    assert np.array_equal(_match_modes(overlap), _assignment(solve, overlap))
    assert calls == []


def test_match_modes_falls_back_when_a_row_is_split(monkeypatch):
    # modes 0 and 1 each split evenly between eigenvectors 1 and 2
    solve, calls = _counted_assignment(monkeypatch)
    c = math.sqrt(0.5)
    V = np.array([[0.0, c, c], [0.0, c, -c], [1.0, 0.0, 0.0]])
    overlap = np.abs(V) ** 2
    perm = _match_modes(overlap)
    assert calls == [(3, 3)]
    assert np.array_equal(perm, _assignment(solve, overlap))
    assert sorted(perm) == [0, 1, 2] and perm[2] == 0
