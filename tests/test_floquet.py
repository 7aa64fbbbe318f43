"""Tests for spectrum assembly, reconstruction, and direct propagation.

Oracles: hand-built spectra with known collisions, scipy.linalg.expm for
constant Hamiltonians, a central-difference check that the reconstructed
solution actually solves i dpsi/dt = H(omega t) psi, dt-halving studies
for the integrator order, and a step-by-step eigh loop for the batched
Taylor stepping kernel.  The reduction used by the end-to-end cases is the
small n=1 instance from the engine tests (frequency certified there).
"""

import math

import numpy as np
import pytest
import scipy.linalg

from kamreduce.engine import KamSettings, ReducedSystem, run_schedule
from kamreduce.errors import DivisorTooSmall, KamError
from kamreduce.floquet import (
    _CHUNK,
    FloquetSpectrum,
    _expm_taylor,
    _hamiltonian,
    _step_product,
    _taylor_degree,
    floquet_spectrum,
    monodromy_quasienergies,
    propagate_direct,
    quasienergies_from_period_map,
    reconstruct_solution,
)
from kamreduce.models import abstract_base, build_abstract_model
from kamreduce.torus import DiagonalPart, OperatorSeries

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


def test_spectrum_detects_collisions():
    # lambda_2 - lambda_1 = omega makes nu = 1.0 and 1.7 doubly degenerate
    red = _plain_reduced([1.0, 1.7], 0.7)
    spec = floquet_spectrum(red, Kmax=1, cluster_tol=1e-9)
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
        H = np.diag(A.lam).astype(complex) + P(phi0 + OMEGA_N1 * t)
        resid = 1j * dpsi - H @ vals[1]
        assert np.linalg.norm(resid) < 1e-7


def test_reconstruction_rejects_live_zero_divisor():
    mu = np.zeros((2, 3), dtype=complex)
    mu[:, 0] = 0.01
    mu[:, 2] = 0.01  # real cosine mode, zero average
    red = _plain_reduced([1.0, 2.0], 1e-13, mu=mu, K_mu=1)
    with pytest.raises(DivisorTooSmall):
        reconstruct_solution(red, np.array([1.0, 0.0]), np.zeros(1), [1.0])


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


def test_propagate_second_order_in_dt(small_run):
    A, P, _ = small_run
    psi0 = np.ones(A.N, dtype=complex) / np.sqrt(A.N)
    ts = [5.0]
    ref = propagate_direct(A, P, OMEGA_N1, psi0, np.zeros(1), ts, dt=1e-4)[0]
    errs = []
    for dt in (8e-3, 4e-3, 2e-3):
        val = propagate_direct(A, P, OMEGA_N1, psi0, np.zeros(1), ts, dt=dt)[0]
        errs.append(np.linalg.norm(val - ref))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


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
    H = np.diag(base.lam) + P(np.zeros(1))
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


def test_monodromy_unitarity_guard(small_run):
    A, P, _ = small_run
    with pytest.raises(KamError, match="unitar"):
        monodromy_quasienergies(A, P, OMEGA_N1, unitarity_tol=0.0)


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
    before = ts < T
    assert np.max(np.abs(traj[before] - ref[before])) <= 1e-13
    if not before.all():
        assert np.max(np.abs(traj[~before] - ref[~before])) <= 1e-12
    M = Phi[np.searchsorted(times, T)]
    period_map = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    assert np.max(np.abs(M - period_map)) <= 1e-10
    nu, info = quasienergies_from_period_map(M, T, reduced)
    nu_ref, _, _ = monodromy_quasienergies(A, P, OMEGA_N1, reduced=reduced)
    assert np.max(np.abs(nu - nu_ref)) <= 1e-10
    assert info["period"] == T and info["min_overlap"] > 0.99


@pytest.mark.parametrize("with_reduced", [False, True])
def test_period_map_quasienergies_are_the_monodromy_ones(small_run, with_reduced):
    A, P, reduced = small_run
    reduced = reduced if with_reduced else None
    T = 2.0 * np.pi / OMEGA_N1[0]
    M = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    nu, info = quasienergies_from_period_map(M, T, reduced)
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


def test_step_exponential_rejects_non_finite_input():
    with pytest.raises(KamError, match="non-finite"):
        _expm_taylor(np.full((1, 2, 2), np.nan + 0j))


@pytest.mark.parametrize("steps", [0, 1, 7, _CHUNK + 1])
def test_step_product_matches_sequential_eigh(small_run, steps):
    A, P, _ = small_run
    phi0, t0, h = np.array([0.3]), 1.7, 0.01
    mids = t0 + (np.arange(steps) + 0.5) * h
    H = _hamiltonian(A, P)(phi0[None, :] + mids[:, None] * OMEGA_N1[None, :])
    expect = np.eye(A.N, dtype=complex)
    for E in _eigh_exp(H, h):
        expect = E @ expect
    got = _step_product(A, P, OMEGA_N1, phi0, t0, h, steps)
    assert np.max(np.abs(got - expect)) <= 1e-13


def test_fundamental_solution_unitary_to_roundoff(small_run):
    A, P, _ = small_run
    T = 2.0 * np.pi / OMEGA_N1[0]
    Phi = propagate_direct(A, P, OMEGA_N1, np.eye(A.N, dtype=complex), np.zeros(1), [T])[0]
    assert np.max(np.abs(Phi.conj().T @ Phi - np.eye(A.N))) <= 1e-12
