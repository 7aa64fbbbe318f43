"""Tests for the homological-equation solvers.

The independent oracle is a dense Fourier-Galerkin solve of the scalar
equation at a larger cutoff; both it and the integrating-factor solver
converge to the same solution, so sup-grid agreement certifies the solver.
"""

import dataclasses
import itertools
import math
import pathlib
import warnings

import numpy as np
import pytest

from kamreduce import cli, engine, homological, serialize, torus
from kamreduce.errors import DivisorTooSmall, GuardWarning, KamError
from kamreduce.homological import (
    HomologicalSolution,
    solve_constant,
    solve_kuksin,
    solve_variable,
    torus_primitive,
)
from kamreduce.torus import (
    DiagonalPart,
    OperatorSeries,
    PairSeries,
    TorusSeries,
    directional_derivative,
    g_norm,
    sup_norm_s,
)

from conftest import dense, traced_peak

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def random_scalar(n, K, rng, s=0.0, real=True):
    shape = (2 * K + 1,) * n
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if s > 0:
        kabs = np.zeros(shape)
        r = np.abs(np.arange(-K, K + 1))
        for a in range(n):
            kabs = kabs + r.reshape([-1 if i == a else 1 for i in range(n)])
        c = c * np.exp(-s * kabs)
    if real:
        rev = (slice(None, None, -1),) * n
        c = 0.5 * (c + np.conj(c[rev]))
    return TorusSeries(n, K, c)


def random_hermitian(N, n, K, rng, s=0.0):
    shape = (2 * K + 1,) * n + (N, N)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if s > 0:
        kabs = np.zeros((2 * K + 1,) * n)
        r = np.abs(np.arange(-K, K + 1))
        for a in range(n):
            kabs = kabs + r.reshape([-1 if i == a else 1 for i in range(n)])
        c = c * np.exp(-s * kabs)[..., None, None]
    rev = (slice(None, None, -1),) * n
    c = 0.5 * (c + np.conj(np.swapaxes(c[rev], -1, -2)))
    return OperatorSeries(n, K, N, c)


def base_for(N, d=1.4, delta=0.2, n=1, mu=None, K=0):
    lam = np.arange(1.0, N + 1.0) ** d
    return DiagonalPart(lam=lam, d=d, delta=delta, n=n, mu=mu, K=K)


def random_mu(N, n, K, rng, amp=0.05, s=0.6):
    rows = []
    for _ in range(N):
        f = random_scalar(n, K, rng, s=s, real=True).zero_average()
        rows.append(amp * f.coeffs)
    return np.stack(rows)


def galerkin_solve(b, h, E1, E2, omega, Ko):
    """Dense Galerkin oracle on the full mode box |k|_inf <= Ko."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = b.n
    ks = np.array(list(itertools.product(range(-Ko, Ko + 1), repeat=n)))
    kdw = ks @ omega
    A = np.diag(kdw + E1).astype(complex)
    if h is not None and E2 > 0:
        dk = ks[:, None, :] - ks[None, :, :]
        mask = np.all(np.abs(dk) <= h.K, axis=-1)
        idx = np.clip(dk + h.K, 0, 2 * h.K)
        vals = h.coeffs[tuple(np.moveaxis(idx, -1, 0))]
        A += E2 * np.where(mask, vals, 0.0)
    bpad = b.pad_to(Ko)
    rhs = bpad.coeffs.reshape(-1)
    x = np.linalg.solve(A, rhs)
    return TorusSeries(n, Ko, x.reshape((2 * Ko + 1,) * n))


def grid_gap(f, g, M=64):
    Mf = max(M, 2 * max(f.K, g.K) + 2)
    return float(np.max(np.abs(f.grid(Mf) - g.grid(Mf))))


def defect_sup(B, P, base, omega, M=None):
    """Sup-grid defect of [A,B] - i Bdot + offdiag(P), computed from scratch."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n, N = P.n, P.N
    if M is None:
        M = 2 * (B.K + base.K + P.K) + 3
    a = base.values_on_grid(M)
    Bg = B.grid(M)
    dBg = directional_derivative(B, omega).grid(M)
    Pg = P.grid(M)
    idx = np.arange(N)
    Pg[..., idx, idx] = 0.0
    r = (a[..., :, None] - a[..., None, :]) * Bg - 1j * dBg + Pg
    return float(np.max(np.abs(r)))


# ---------------------------------------------------------------------------
# constant diagonal part


def test_constant_single_mode_value():
    # P_12 = e^{i phi}: divisor 0.4 + 1 - 2 = -0.6, so Bhat_{12,1} = 5/3
    P = OperatorSeries.zero(1, 1, 2)
    c = P.coeffs.copy()
    c[2, 0, 1] = 1.0   # k=+1 entry (1,2)
    c[0, 1, 0] = 1.0   # hermitian partner
    P = OperatorSeries(1, 1, 2, c)
    base = DiagonalPart(lam=np.array([1.0, 2.0]), d=1.4, delta=0.0, n=1)
    sol = solve_constant(P, base, 0.4)
    assert isinstance(sol, HomologicalSolution)
    assert dense(sol.B).coeff((1,))[0, 1] == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert dense(sol.B).coeff((-1,))[1, 0] == pytest.approx(-5.0 / 3.0, abs=1e-14)
    assert sol.residual < 1e-13
    assert sol.min_divisor == pytest.approx(0.6, abs=1e-14)


def test_constant_equation_residual_random():
    rng = np.random.default_rng(7)
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])
    base = base_for(5, n=2)
    for _ in range(4):
        P = random_hermitian(5, 2, 3, rng, s=0.4)
        sol = solve_constant(P, base, omega)
        assert sol.residual < 1e-12
        scale = float(np.max(np.abs(P.coeffs)))
        assert defect_sup(sol.B, P, base, omega) < 1e-10 * scale


def test_constant_finite_difference_oracle():
    # derivative in the defect checked against central differences
    rng = np.random.default_rng(11)
    omega = np.array([0.7])
    base = base_for(3)
    P = random_hermitian(3, 1, 2, rng)
    B = solve_constant(P, base, omega).B
    t = 0.83
    eps = 1e-6
    dB = (B(np.array([t + eps])) - B(np.array([t - eps]))) / (2 * eps) * omega[0]
    a = base.lam
    r = (a[:, None] - a[None, :]) * B(np.array([t])) - 1j * dB + P(np.array([t]))
    np.fill_diagonal(r, 0.0)
    assert np.max(np.abs(r)) < 1e-5


def test_constant_diagonal_untouched():
    rng = np.random.default_rng(3)
    P = random_hermitian(4, 1, 2, rng)
    sol = solve_constant(P, base_for(4), 0.37)
    idx = np.arange(4)
    assert np.max(np.abs(dense(sol.B).coeffs[..., idx, idx])) == 0.0


def test_constant_divisor_floor():
    # omega = 0.4 and lambda = (1, 1.4): divisor at k=+1, (i,j)=(1,2) is exactly 0
    P = OperatorSeries.zero(1, 1, 2)
    c = P.coeffs.copy()
    c[2, 0, 1] = 1.0
    c[0, 1, 0] = 1.0
    P = OperatorSeries(1, 1, 2, c)
    base = DiagonalPart(lam=np.array([1.0, 1.4]), d=1.4, delta=0.0, n=1)
    with pytest.raises(DivisorTooSmall) as exc:
        solve_constant(P, base, 0.4)
    assert exc.value.k == (1,) or exc.value.k == (-1,)


def test_constant_rejects_nonzero_mu():
    rng = np.random.default_rng(5)
    mu = random_mu(3, 1, 2, rng)
    base = base_for(3, mu=mu, K=2)
    P = random_hermitian(3, 1, 1, rng)
    with pytest.raises(KamError):
        solve_constant(P, base, 0.61)


# ---------------------------------------------------------------------------
# primitive


def test_primitive_inverts_derivative():
    rng = np.random.default_rng(13)
    omega = np.array([GOLDEN, np.sqrt(3.0) - 1.0])
    h = random_scalar(2, 4, rng, s=0.3).zero_average()
    H = torus_primitive(h, omega)
    back = directional_derivative(H, omega)
    assert sup_norm_s(back - h, 0.0) < 1e-13 * sup_norm_s(h, 0.0)
    assert abs(H.average()) == 0.0


def test_primitive_requires_zero_average():
    f = TorusSeries.from_modes(1, 2, {(0,): 1.0})
    with pytest.raises(KamError):
        torus_primitive(f, np.array([0.5]))


def test_primitive_divisor_floor():
    # rational omega = (1/2, 1/4) kills k = (1, -2)
    h = TorusSeries.from_modes(2, 2, {(1, -2): 1.0, (-1, 2): 1.0})
    with pytest.raises(DivisorTooSmall) as exc:
        torus_primitive(h, np.array([0.5, 0.25]))
    assert sorted(np.abs(exc.value.k)) == [1, 2]


# ---------------------------------------------------------------------------
# scalar kuksin equation


def test_kuksin_zero_coupling_is_plain_division():
    rng = np.random.default_rng(17)
    omega = np.array([GOLDEN])
    b = random_scalar(1, 5, rng, s=0.5, real=False)
    E1 = 2.3
    chi = solve_kuksin(b, None, E1, 0.0, omega)
    k = np.arange(-5, 6)
    expect = b.coeffs / (k * omega[0] + E1)
    assert np.max(np.abs(chi.coeffs - expect)) < 1e-15 * np.max(np.abs(expect))


def test_kuksin_galerkin_oracle_n1():
    rng = np.random.default_rng(19)
    omega = np.array([GOLDEN])
    b = random_scalar(1, 5, rng, s=0.8, real=False)
    h = random_scalar(1, 2, rng, s=0.4).zero_average()
    h = h * (1.0 / sup_norm_s(h, 0.0))
    E1, E2 = 2.3, 0.4
    chi, info = solve_kuksin(b, h, E1, E2, omega, with_info=True)
    assert info["residual"] < 1e-9
    # the one-pair defect is the pair stack's kernel on one pair, bit for bit
    # (majorants summed in torus._majorant_sum's one order)
    assert info["residual"] == 3.604550673975807e-15
    assert info["unimodularity_defect"] < 1e-12
    oracle = galerkin_solve(b, h, E1, E2, omega, Ko=32)
    assert grid_gap(chi, oracle) < 1e-9 * sup_norm_s(b, 0.0)


def test_kuksin_galerkin_oracle_n2():
    rng = np.random.default_rng(23)
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])
    b = random_scalar(2, 3, rng, s=0.9, real=False)
    h = random_scalar(2, 1, rng, s=0.2).zero_average()
    h = h * (1.0 / sup_norm_s(h, 0.0))
    E1, E2 = 3.1, 0.1
    chi, info = solve_kuksin(b, h, E1, E2, omega, with_info=True)
    assert info["residual"] < 1e-9
    assert info["residual"] == 2.091230299700082e-14
    oracle = galerkin_solve(b, h, E1, E2, omega, Ko=12)
    assert grid_gap(chi, oracle, M=40) < 1e-8 * sup_norm_s(b, 0.0)


def test_kuksin_linearity():
    rng = np.random.default_rng(29)
    omega = np.array([GOLDEN])
    h = random_scalar(1, 2, rng, s=0.5).zero_average()
    h = h * (1.0 / sup_norm_s(h, 0.0))
    b1 = random_scalar(1, 4, rng, s=0.6, real=False)
    b2 = random_scalar(1, 4, rng, s=0.6, real=False)
    K_out = 30
    c1 = solve_kuksin(b1, h, 1.7, 0.3, omega, K_out=K_out)
    c2 = solve_kuksin(b2, h, 1.7, 0.3, omega, K_out=K_out)
    c12 = solve_kuksin(b1 + b2 * 2.0, h, 1.7, 0.3, omega, K_out=K_out)
    gap = grid_gap(c12, c1 + c2 * 2.0)
    assert gap < 1e-11 * max(sup_norm_s(b1, 0.0), sup_norm_s(b2, 0.0))


def test_kuksin_guard_warning():
    rng = np.random.default_rng(31)
    omega = np.array([GOLDEN])
    b = random_scalar(1, 3, rng, real=False)
    h = random_scalar(1, 1, rng).zero_average()
    h = h * (1.0 / sup_norm_s(h, 0.0))
    with pytest.warns(GuardWarning):
        solve_kuksin(b, h, 0.01, 0.5, omega)


def test_kuksin_complex_h_breaks_unimodularity():
    rng = np.random.default_rng(37)
    omega = np.array([GOLDEN])
    b = random_scalar(1, 3, rng, real=False)
    h = TorusSeries.from_modes(1, 1, {(1,): 1.0})  # not real on the real torus
    with pytest.warns(GuardWarning):
        solve_kuksin(b, h, 2.0, 0.4, omega)


def test_kuksin_exact_resonance_raises():
    b = TorusSeries.from_modes(1, 1, {(-1,): 1.0})
    with pytest.raises(DivisorTooSmall):
        solve_kuksin(b, None, 0.4, 0.0, np.array([0.4]))


# ---------------------------------------------------------------------------
# variable diagonal part


def test_variable_matches_constant_when_mu_zero():
    rng = np.random.default_rng(41)
    omega = np.array([GOLDEN])
    base = base_for(4)
    P = random_hermitian(4, 1, 3, rng, s=0.4)
    sv = solve_variable(P, base, omega)
    sc = solve_constant(P, base, omega)
    assert sv.B.K >= sc.B.K
    gap = np.max(np.abs(sv.B.truncate(sc.B.K).coeffs - sc.B.coeffs))
    assert gap < 1e-14 * np.max(np.abs(sc.B.coeffs))
    assert sv.residual < 1e-12


def test_variable_mu_zero_never_pads_generator():
    rng = np.random.default_rng(43)
    omega = np.array([GOLDEN])
    base = base_for(4)
    P = random_hermitian(4, 1, 3, rng, s=0.4)
    sol = solve_variable(P, base, omega, K_out=20)
    assert sol.B.K == P.K
    assert sol.truncation_residue == 0.0
    ref = solve_constant(P, base, omega).B
    assert np.array_equal(sol.B.coeffs, ref.coeffs)


def test_variable_mu_zero_reports_truncated_mass():
    rng = np.random.default_rng(47)
    omega = np.array([GOLDEN])
    base = base_for(4)
    P = random_hermitian(4, 1, 3, rng, s=0.4)
    sol = solve_variable(P, base, omega, K_out=1)
    full = solve_constant(P, base, omega).B.coeffs
    assert sol.B.K == 1
    # the mass of the solved pairs B_ji (i < j) beyond |k| = 1, as for mu != 0
    dropped = np.abs(full[[0, 1, 5, 6]]).sum()
    assert dropped > 0
    assert sol.truncation_residue == pytest.approx(dropped, rel=1e-12)


def test_variable_mu_zero_is_one_kernel_call():
    rng = np.random.default_rng(53)
    omega = np.array([GOLDEN])
    base = base_for(4)
    P = random_hermitian(4, 1, 3, rng, s=0.4)
    calls = {"defect": 0, "constant": 0}
    defect = homological._relative_defect

    def counting_defect(*args, **kwargs):
        calls["defect"] += 1
        return defect(*args, **kwargs)

    def refuse_constant(*args, **kwargs):
        calls["constant"] += 1
        raise AssertionError("solve_variable called solve_constant")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homological, "_relative_defect", counting_defect)
        mp.setattr(homological, "solve_constant", refuse_constant)
        solve_variable(P, base, omega, s=0.2, K_out=2)
    assert calls == {"defect": 1, "constant": 0}


def test_variable_equation_defect_small():
    rng = np.random.default_rng(43)
    for n, omega in ((1, np.array([GOLDEN])), (2, np.array([GOLDEN, np.sqrt(2.0) - 1.0]))):
        mu = random_mu(5, n, 2, rng, amp=0.05)
        base = base_for(5, n=n, mu=mu, K=2)
        P = random_hermitian(5, n, 3, rng, s=0.5)
        sol = solve_variable(P, base, omega)
        assert sol.guard_messages == ()
        assert sol.residual < 1e-9
        scale = float(np.max(np.abs(P.coeffs)))
        assert defect_sup(sol.B, P, base, omega) < 1e-9 * scale


def test_variable_pairwise_galerkin_oracle():
    # cross-check one solved entry against the dense oracle with the same
    # scalar data the pair solver is defined to use
    rng = np.random.default_rng(47)
    omega = np.array([GOLDEN])
    N = 3
    mu = random_mu(N, 1, 2, rng, amp=0.08)
    base = base_for(N, mu=mu, K=2)
    P = random_hermitian(N, 1, 3, rng, s=0.6)
    sol = solve_variable(P, base, omega)
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        b = -P.entry(j, i)
        mud = TorusSeries(base.n, base.K, base.mu[j] - base.mu[i])
        E2 = sup_norm_s(mud, 0.0)
        h = mud * (1.0 / E2)
        oracle = galerkin_solve(b, h, base.lam[j] - base.lam[i], E2, omega, Ko=28)
        assert grid_gap(dense(sol.B).entry(j, i), oracle) < 1e-9 * sup_norm_s(b, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_variable_pairs_are_one_pair_kuksin_solves(n):
    # the stacked solve the engine runs and the scalar solve gate 2 checks
    # against the dense oracle are one kernel: every pair agrees on one grid
    rng = np.random.default_rng(79 + n)
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.5])[:n]
    N, K_out = 5, 12
    mu = random_mu(N, n, 2, rng, amp=0.08)
    base = base_for(N, n=n, mu=mu, K=2)
    P = random_hermitian(N, n, 3, rng, s=0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        B = dense(solve_variable(P, base, omega, K_out=K_out).B)
    # the three-angle draw is outside the Kuksin guard on two pairs, which the
    # solve warns and still solves
    broken = ["(1,2)", "(2,3)"] if n == 3 else []
    assert [(w.category, str(w.message).split(":")[0]) for w in caught] == [
        (GuardWarning, f"kuksin guard failed for pair {pair}") for pair in broken]
    for i, j in itertools.combinations(range(N), 2):
        # E2 = 1 and h = mu_j - mu_i, so E2 h is the pair's mu difference bit for bit
        mud = TorusSeries(base.n, base.K, base.mu[j] - base.mu[i])
        chi = solve_kuksin(-P.entry(j, i), mud, base.lam[j] - base.lam[i], 1.0, omega,
                           K_out=K_out)
        entry = B.entry(j, i)
        assert chi.K == entry.K
        assert np.max(np.abs(chi.coeffs - entry.coeffs)) <= 1e-14 * np.max(np.abs(entry.coeffs))


def test_variable_solve_peak_memory_is_a_few_pair_grids():
    """The traced peak of a pair solve with mu, defect included, in pair-stack grids.

    One grid holds every pair on the solve's M**n points.  The solve frees
    each grid once used and the defect's product runs on the pairs alone,
    so the peak is about four such grids (N = 12, n = 2); forming the
    defect on all N^2 entries and keeping every grid of the solve alive
    peaked at about nine and a half.
    """
    rng = np.random.default_rng(61)
    n, N = 2, 12
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])
    base = base_for(N, n=n, mu=random_mu(N, n, 2, rng, amp=1e-3), K=2)
    P = random_hermitian(N, n, 4, rng, s=0.5) * 1e-3
    sol, peak = traced_peak(lambda: solve_variable(P, base, omega, s=0.05))
    assert sol.pairs == 66 and sol.grid_M == 56
    grid_bytes = sol.grid_M**n * sol.pairs * 16
    assert peak < 6 * grid_bytes


def test_variable_antihermitian_by_construction():
    rng = np.random.default_rng(53)
    mu = random_mu(4, 1, 2, rng)
    base = base_for(4, mu=mu, K=2)
    P = random_hermitian(4, 1, 2, rng, s=0.3)
    sol = solve_variable(P, base, np.array([GOLDEN]))
    # a PairSeries of sign -1, whose values test_properties finds exactly anti-hermitian
    assert isinstance(sol.B, PairSeries) and sol.B.sign == -1
    D = sol.D.form()
    assert isinstance(D, PairSeries) and D.sign == 1
    # the kept majorant is the formed stack's, bit for bit
    assert np.array_equal(sol.D.majorant_matrix(0.0), D.majorant_matrix(0.0))


def test_variable_linearity():
    rng = np.random.default_rng(59)
    omega = np.array([GOLDEN])
    mu = random_mu(3, 1, 1, rng, amp=0.04)
    base = base_for(3, mu=mu, K=1)
    P1 = random_hermitian(3, 1, 2, rng, s=0.4)
    P2 = random_hermitian(3, 1, 2, rng, s=0.4)
    K_out = 24
    B1 = solve_variable(P1, base, omega, K_out=K_out).B
    B2 = solve_variable(P2, base, omega, K_out=K_out).B
    B12 = solve_variable(P1 * 0.5 + P2 * 2.0, base, omega, K_out=K_out).B
    gap = np.max(np.abs(B12.coeffs - (B1 * 0.5 + B2 * 2.0).coeffs))
    assert gap < 1e-11 * max(np.max(np.abs(B1.coeffs)), np.max(np.abs(B2.coeffs)))


def test_variable_diagonal_input_gives_zero():
    rng = np.random.default_rng(61)
    mu = random_mu(3, 1, 1, rng)
    base = base_for(3, mu=mu, K=1)
    diag = OperatorSeries.zero(1, 2, 3)
    c = diag.coeffs.copy()
    for i in range(3):
        f = random_scalar(1, 2, rng)
        c[:, i, i] = f.coeffs
    diag = OperatorSeries(1, 2, 3, c)
    sol = solve_variable(diag, base, np.array([GOLDEN]))
    assert np.max(np.abs(sol.B.coeffs)) == 0.0
    assert sol.residual == 0.0


def test_variable_uniqueness_under_perturbation():
    rng = np.random.default_rng(67)
    omega = np.array([GOLDEN])
    mu = random_mu(3, 1, 1, rng, amp=0.05)
    base = base_for(3, mu=mu, K=1)
    P = random_hermitian(3, 1, 2, rng, s=0.4)
    sol = solve_variable(P, base, omega)
    d0 = defect_sup(sol.B, P, base, omega)
    xi = random_hermitian(3, 1, sol.B.K, rng, s=0.5) * 1e-3j
    idx = np.arange(3)
    xc = xi.coeffs.copy()
    xc[..., idx, idx] = 0.0
    xi = OperatorSeries(1, sol.B.K, 3, xc)
    d1 = defect_sup(dense(sol.B) + xi, P, base, omega)
    assert d1 > 10.0 * max(d0, 1e-13)


def test_variable_norm_monotone_in_strip():
    rng = np.random.default_rng(71)
    mu = random_mu(4, 1, 2, rng)
    base = base_for(4, mu=mu, K=2)
    P = random_hermitian(4, 1, 3, rng, s=0.6)
    B = solve_variable(P, base, np.array([GOLDEN])).B
    norms = [g_norm(B, base, s) for s in (0.0, 0.1, 0.2, 0.3)]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_variable_cstar_guard():
    rng = np.random.default_rng(73)
    mu = random_mu(3, 1, 1, rng, amp=20.0)  # huge mu forces C_mu/C_lambda >= 10
    base = base_for(3, mu=mu, K=1)
    P = random_hermitian(3, 1, 1, rng)
    with pytest.warns(GuardWarning):
        sol = solve_variable(P, base, np.array([GOLDEN]))
    assert any(m.startswith("C* guard violated") for m in sol.guard_messages)


# ---------------------------------------------------------------------------
# the chunked pair kernels against their whole-stack forms


def whole_stack_solve(b, mud, E1, omega, M, K_out, pairs=None):
    """The pair solve on one stack of all pairs at once: the chunked kernel's oracle.

    Returns (chi, min_divisor, unimodularity_defect).
    """
    n = len(omega)
    K_b, K_mu = (b.shape[0] - 1) // 2, (mud.shape[0] - 1) // 2
    if np.any(mud):
        K = (M - 2) // 2
        live = np.abs(mud) > 1e-16 * max(float(np.max(np.abs(mud))), 1e-300)
        Hd = homological._primitive(mud, n, K_mu, omega, live, pairs)
        factor = np.exp(1j * torus.coeffs_to_grid(Hd, n, K_mu, M))
        unimod = float(np.max(np.abs(np.abs(factor) - 1.0)))
        gb = torus.coeffs_to_grid(b, n, K_b, M)
        np.multiply(factor, gb, out=gb)
        btil = torus.grid_to_coeffs(gb, n, K)
        live = np.abs(btil) > 1e-16 * max(float(np.max(np.abs(btil))), 1e-300)
    else:
        factor, unimod, K, btil = None, 0.0, K_b, b
        live = b != 0
    den = torus._k_dot_omega(n, K, omega)[..., None] + E1
    size = np.abs(den)
    homological._check_divisors(
        homological._first_below(size, homological._divisor_floor(n, K)[..., None], live),
        n, K, "|omega.k + E1|", pairs)
    min_div = float(np.min(size[live])) if np.any(live) else np.inf
    uc = np.zeros_like(btil)
    np.divide(btil, den, out=uc, where=live & (size > 0))
    if factor is None:
        chic = uc
    else:
        gu = torus.coeffs_to_grid(uc, n, K, M)
        np.multiply(np.conj(factor), gu, out=gu)
        chic = torus.grid_to_coeffs(gu, n, K)
    if K_out is None:
        chic = torus.chop(chic, torus.CHOP_FLOOR * float(np.max(np.abs(chic), initial=0.0)))
        K_out = torus._live_band(chic, n, K)
    return chic[torus._box(n, min(K_out, K), K)], min_div, unimod


def whole_stack_defect(chi, gap, mud, rhs, omega):
    """The defect kernel on one stack of all pairs at once: the chunked kernel's oracle."""
    n = len(omega)
    K_chi, K_rhs = (chi.shape[0] - 1) // 2, (rhs.shape[0] - 1) // 2
    K_mu = 0 if mud is None else (mud.shape[0] - 1) // 2
    K_D = max(K_chi + K_mu, K_rhs)
    M = 0
    if mud is None:
        D = np.zeros((2 * K_D + 1,) * n + chi.shape[n:], dtype=complex)
    else:
        K = K_chi + K_mu
        M = torus.next_fast_len(2 * K + 2)
        gc = torus.coeffs_to_grid(chi, n, K_chi, M)
        np.multiply(torus.coeffs_to_grid(mud, n, K_mu, M), gc, out=gc)
        D = torus.grid_to_coeffs(gc, n, K)
        if K < K_D:
            D = np.pad(D, [(K_D - K, K_D - K)] * n + [(0, 0)] * (D.ndim - n))
    D[torus._box(n, K_chi, K_D)] += (torus._k_dot_omega(n, K_chi, omega)[..., None] + gap) * chi
    D[torus._box(n, K_rhs, K_D)] -= rhs
    return D, M


OMEGAS = np.array([GOLDEN, np.sqrt(2.0) - 1.0, np.sqrt(3.0) - 1.5])


def pair_case(n, N, K_b, K_mu, seed):
    """(b, mud, E1, omega, pairs) of a solve_variable stack: -P_ji against mu_j - mu_i."""
    rng = np.random.default_rng(seed)
    ii, jj = np.triu_indices(N, 1)
    b = -random_hermitian(N, n, K_b, rng, s=0.3).coeffs[..., jj, ii]
    mu = random_mu(N, n, K_mu, rng) if K_mu else np.zeros((N,) + (1,) * n)
    mud = np.moveaxis(mu[jj] - mu[ii], 0, -1)
    E1 = np.arange(1.0, N + 1.0)[jj] ** 1.4 - np.arange(1.0, N + 1.0)[ii] ** 1.4
    return b, mud, E1, OMEGAS[:n], list(zip(ii.tolist(), jj.tolist()))


def chunk_of(monkeypatch, pairs_per_chunk, points):
    """Set the chunk so that it holds pairs_per_chunk pairs of points each."""
    monkeypatch.setattr(homological, "CHUNK_BYTES", 16 * points * pairs_per_chunk)


# (n, N, K_b, K_mu, pairs per chunk): chunks that divide the pairs and that do
# not, one pair per chunk, a single pair, and mu = 0
CHUNKED = [(1, 9, 3, 2, 5), (1, 9, 3, 2, 1), (2, 6, 2, 1, 4), (2, 6, 2, 1, 15),
           (3, 4, 1, 1, 4), (2, 2, 2, 1, 1), (2, 6, 2, 0, 4), (1, 7, 3, 0, 2)]


@pytest.mark.parametrize("n, N, K_b, K_mu, per_chunk", CHUNKED)
def test_chunked_pair_solve_is_the_whole_stack_solve(monkeypatch, n, N, K_b, K_mu, per_chunk):
    b, mud, E1, omega, pairs = pair_case(n, N, K_b, K_mu, seed=61 + n + N)
    M = torus.next_fast_len(2 * (K_b + K_mu + 3) + 2)
    K = (M - 2) // 2 if K_mu else K_b
    chunk_of(monkeypatch, per_chunk, (M if K_mu else 2 * K_b + 1) ** n)
    assert len(homological._pair_chunks((M if K_mu else 2 * K_b + 1) ** n, len(E1))) == \
        -(-len(E1) // per_chunk)
    for K_out in (None, K - 2, K + 3):
        chi, min_div, unimod, trunc = homological._solve_pairs(b, mud, E1, omega, M, K_out, pairs)
        want, want_div, want_unimod = whole_stack_solve(b, mud, E1, omega, M, K_out, pairs)
        assert chi.shape == want.shape and chi.tobytes() == want.tobytes()
        assert (min_div, unimod) == (want_div, want_unimod)
        # the dropped mass is summed from the dropped coefficients themselves
        full = whole_stack_solve(b, mud, E1, omega, M, K + 1, pairs)[0]
        if K_out is None:
            dropped = full[np.abs(full) < torus.CHOP_FLOOR * np.max(np.abs(full))]
        else:
            shell = np.max(np.abs(torus.k_box(n, K)), axis=1).reshape((2 * K + 1,) * n)
            dropped = full[shell > K_out]
        expect = math.fsum(np.abs(dropped).ravel())
        assert abs(trunc - expect) <= 1e-13 * expect
        assert (trunc > 0) == (K_out == K - 2 or (K_out is None and expect > 0))


@pytest.mark.parametrize("n, N, K_b, K_mu, per_chunk", CHUNKED)
def test_chunked_defect_is_the_whole_stack_defect(monkeypatch, n, N, K_b, K_mu, per_chunk):
    b, mud, E1, omega, _ = pair_case(n, N, K_b, K_mu, seed=67 + n + N)
    rng = np.random.default_rng(n + N)
    chi = rng.normal(size=(2 * K_b + 3,) * n + (len(E1),)) * (1 + 1j)
    mud = mud if K_mu else None
    K = K_b + 1 + K_mu
    chunk_of(monkeypatch, per_chunk, torus.next_fast_len(2 * K + 2) ** n if K_mu else (2 * K + 1) ** n)
    D, M = homological._defect(chi, E1, mud, b, omega)
    want, want_M = whole_stack_defect(chi, E1, mud, b, omega)
    assert M == want_M and D.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, per_chunk", [(1, 2), (2, 3), (3, 1)])
def test_chunked_solve_names_the_whole_stack_solves_first_bad_divisor(monkeypatch, n, per_chunk):
    N, K_b, K_mu = 5, 2, 1
    b, mud, E1, omega, pairs = pair_case(n, N, K_b, K_mu, seed=71 + n)
    M = torus.next_fast_len(2 * (K_b + K_mu + 3) + 2)
    K = (M - 2) // 2
    chunk_of(monkeypatch, per_chunk, M**n)
    kdw = torus._k_dot_omega(n, K, omega)
    # three exact resonances: the last pair at the earliest mode, which the
    # whole-stack search names first, and two earlier pairs at later modes
    E1 = E1.copy()
    for p, k in ((9, (-2,) * n), (1, (1,) * n), (4, (2,) * n)):
        E1[p] = -kdw[tuple(x + K for x in k)]
    with pytest.raises(DivisorTooSmall) as want:
        whole_stack_solve(b, mud, E1, omega, M, K, pairs)
    with pytest.raises(DivisorTooSmall) as got:
        homological._solve_pairs(b, mud, E1, omega, M, K, pairs)
    assert (got.value.i, got.value.j, got.value.k, got.value.value) == \
        (want.value.i, want.value.j, want.value.k, want.value.value)
    assert str(got.value) == str(want.value) and got.value.k == (-2,) * n


def reference_n2():
    """(A, P, omega, settings) of the shipped reference-n2 manifest."""
    path = pathlib.Path(__file__).resolve().parents[1] / "manifests" / "reference-n2.json"
    manifest = serialize.RunManifest.load(path)
    A, P = cli._build_model(manifest)
    return A, P, np.array(manifest.frequency["omega"]), cli._settings(manifest)


def reference_n2_step_two():
    """(state, omega, settings) of reference-n2 after its first step: the state step 2 solves."""
    A, P, omega, settings = reference_n2()
    state = engine.run_schedule(A, P, omega, dataclasses.replace(settings, l_max=1))[0]
    return state, omega, settings


def test_step_two_pair_solve_holds_btil_and_a_chunk():
    """The reference-n2 step-2 solve: btil and one chunk's scratch, then chi's stack twice.

    The solve keeps no factor: each chunk's is formed again in the inverse
    pass.  Its peak is the btil stack, at the grid's band (63 - 2) // 2 =
    30, with one chunk's grids, or, once btil is freed, chi's chunks at the
    band K_out = 24 while they are joined into one stack.  Keeping every
    chunk's factor as well held about two pair grids.
    """
    state, omega, settings = reference_n2_step_two()
    P, base = state.P, state.base
    ii, jj = np.triu_indices(P.N, 1)
    mud = np.moveaxis(base.mu[jj] - base.mu[ii], 0, -1)
    M = homological._working_grid(P.K + base.K, P.K + base.K + engine.SOLVER_PAD)
    b = -P.pairs()
    (chi, *_), peak = traced_peak(lambda: homological._solve_pairs(
        b, mud, base.lam[jj] - base.lam[ii], omega, M, settings.work_cutoff()))
    grid = M**P.n * len(jj) * 16
    btil = 61**2 * len(jj) * 16
    assert (M, len(jj), chi.shape[0]) == (63, 190, 2 * settings.work_cutoff() + 1)
    chunk = 4 * homological.CHUNK_BYTES
    assert peak <= max(btil, 2 * chi.nbytes) + chunk < 1.3 * grid


def test_a_priori_step_two_keeps_only_the_defect_majorants(monkeypatch):
    """Reference-n2 step 2 is a-priori: no whole stack of D, and its numbers are the whole stack's.

    The solve sums D's majorants chunk by chunk at the two widths read,
    s for hom_residual and s_next for the a-priori bound, and conjugate
    forms D only when its a-priori test fails.  Both numbers equal, bit
    for bit, what a D formed whole gives.
    """
    state, omega, settings = reference_n2_step_two()
    widths = []
    defect = homological._defect

    def spy(chi, gap, mud, rhs, omega, widths_=None):
        widths.append(widths_)
        return defect(chi, gap, mud, rhs, omega, widths_)

    monkeypatch.setattr(homological, "_defect", spy)
    out = engine.kam_step(state, omega, settings)
    record = out.records[-1]
    # one pass over the chunks, for the majorants at s and s_next; none forms D whole
    assert record["a_priori"] and widths == [(state.s, record["s_out"])]
    monkeypatch.undo()
    # the oracle: D formed whole, its residual and the a-priori bound from it
    P, base, B = state.P, state.base, out.generators[-1]
    D = homological._generator_defect(B, P, base, omega)[0]
    residual = homological._relative_defect(D, homological._off_majorant(P, state.s), state.s,
                                            base.weight())
    assert record["hom_residual"] == residual
    s_next = record["s_out"]
    reweight = float(np.max(out.base.weight() / base.weight()))
    _, info = engine.conjugate(base, P, B, D, settings.work_cutoff(), s_next,
                               settings.tol / reweight)
    assert info["a_priori"] and record["a_priori_bound"] == info["a_priori_bound"]
