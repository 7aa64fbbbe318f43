"""Tests for the sinc-DVR oscillator models.

Oracles: exact harmonic eigenvalues 2i - 1 (in the convention H = -d2/dx2 +
x^2) and the analytic ladder elements <i|x|j> = sqrt(i/2) delta_{|i-j|,1};
for anharmonic alpha the fitted growth exponent is compared with the exact
2 alpha / (alpha + 2).  Grid convergence is certified by the built-in
resolution-doubling check, whose failure path is exercised directly.
"""

import warnings

import numpy as np
import pytest

from kamreduce.engine import KamSettings, run_schedule
from kamreduce.errors import ConvergenceError, GuardWarning, KamError
from kamreduce.floquet import monodromy_quasienergies
from kamreduce.oscillator import (
    OscillatorSpec,
    PerturbationSpec,
    asymptotic_exponent_fit,
    _sinc_dvr_solve,
    build_oscillator,
    delta_boundedness_check,
    perturbation_matrix,
)
from kamreduce.torus import TorusSeries, delta_norm

# certified against the alpha=4, N=16 oscillator base (gamma=0.05, tau=8)
OMEGA_QUARTIC16 = np.array([0.24836147008962695])

COS = TorusSeries.from_modes(1, 1, {(1,): 0.5, (-1,): 0.5})


def _harmonic(N=40):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)  # alpha = 2 is advisory
        return build_oscillator(OscillatorSpec(alpha=2.0, N=N))


@pytest.fixture(scope="module")
def harmonic40():
    return _harmonic(40)


@pytest.fixture(scope="module")
def quartic64():
    return build_oscillator(OscillatorSpec(alpha=4.0, N=64))


# ---------------------------------------------------------------------------
# eigenvalue machinery
# ---------------------------------------------------------------------------

def test_sinc_dvr_signs_match_the_column_loop():
    # every eigenvector is positive at its last sample of at least 5% of its peak
    w, V, x, h = _sinc_dvr_solve(OscillatorSpec(alpha=4.0, N=6), 6.0, 61)
    assert np.allclose(V @ V.T * h, np.eye(61), atol=1e-12)
    for v in V:
        assert v[np.nonzero(np.abs(v) >= 0.05 * np.max(np.abs(v)))[0][-1]] >= 0

def test_harmonic_eigenvalues_exact(harmonic40):
    expect = 2.0 * np.arange(1, 41) - 1.0
    assert np.max(np.abs(harmonic40.eigenvalues - expect)) < 1e-9


def test_eigenfunctions_orthonormal(harmonic40):
    V = harmonic40.eigenfunctions  # rows are states sampled on the grid
    gram = V @ V.T * harmonic40.h
    assert np.max(np.abs(gram - np.eye(40))) < 1e-10


def test_certificate_reports_first_bad_index(monkeypatch):
    monkeypatch.setattr("kamreduce.oscillator.CERTIFY_TOL", 1e-16)
    with pytest.raises(ConvergenceError, match=r"eigenvalue"):
        build_oscillator(OscillatorSpec(alpha=4.0, N=24))


def test_alpha_below_two_rejected():
    with pytest.raises(KamError):
        OscillatorSpec(alpha=1.5, N=10)


def test_quartic_exponent_approaches_theory(quartic64):
    # need the longer ladder: fit over modes 20..80 on a fresh N=80 solve
    osc = build_oscillator(OscillatorSpec(alpha=4.0, N=80))
    d_fit, stderr = asymptotic_exponent_fit(osc.eigenvalues, range(20, 81))
    d_exact = 4.0 / 3.0
    assert abs(d_fit - d_exact) / d_exact < 0.03
    assert stderr < 0.01


def test_exponent_fit_synthetic_exact():
    i = np.arange(1, 101)
    lam = 3.0 * i**1.4
    d_fit, stderr = asymptotic_exponent_fit(lam, range(10, 101))
    assert abs(d_fit - 1.4) < 1e-12
    assert stderr < 1e-12


def test_exponent_fit_needs_five_points():
    with pytest.raises(KamError):
        asymptotic_exponent_fit(np.arange(1.0, 11.0), range(3, 7))


# ---------------------------------------------------------------------------
# perturbation matrix elements
# ---------------------------------------------------------------------------

def test_identity_multiplier_gives_diagonal_forcing(harmonic40):
    pspec = PerturbationSpec(beta=0.0, terms=((("power", 0.0), COS),), n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)  # beta at the boundary
        P = perturbation_matrix(pspec, harmonic40, N=12)
    # <psi_i, psi_j> g_k = delta_ij g_k
    for k, weight in ((-1, 0.5), (0, 0.0), (1, 0.5)):
        block = P.coeffs[k + P.K]
        assert np.max(np.abs(block - weight * np.eye(12))) < 1e-12


def test_harmonic_ladder_elements(harmonic40):
    pspec = PerturbationSpec(beta=1.0, terms=((("power", 1.0), COS),), n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)
        P = perturbation_matrix(pspec, harmonic40, N=20)
    block = P.coeffs[P.K + 1]  # the e^{i phi} component, weight 1/2
    expect = np.zeros((20, 20))
    for i in range(1, 20):
        expect[i - 1, i] = expect[i, i - 1] = np.sqrt(i / 2.0)
    assert np.max(np.abs(block - 0.5 * expect)) < 1e-9
    # all second-neighbor and farther elements vanish for v = x
    mask = np.abs(np.subtract.outer(range(20), range(20))) >= 2
    assert np.max(np.abs(block[mask])) < 1e-12


def test_perturbation_is_exactly_hermitian(quartic64):
    # the quadrature of <psi_i, v psi_j> is symmetrized, so P_ij(k) is
    # conj(P_ji(-k)) to the bit, as for the shipped quartic oscillator
    two = TorusSeries.from_modes(1, 2, {(1,): 0.5, (-1,): 0.5, (2,): 0.25j, (-2,): -0.25j})
    pspec = PerturbationSpec(beta=0.5, terms=((("fractional", 0.5), COS),
                                              (("power", 1.0), two)), n=1)
    P = perturbation_matrix(pspec, quartic64, N=24)
    assert P.hermiticity_defect() == 0.0


def test_beta_boundary_is_advisory(quartic64):
    hot = PerturbationSpec(beta=1.5, terms=((("fractional", 1.5), COS),), n=1)
    with pytest.warns(GuardWarning):
        perturbation_matrix(hot, quartic64, N=16)
    cold = PerturbationSpec(beta=0.5, terms=((("fractional", 0.5), COS),), n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", GuardWarning)
        perturbation_matrix(cold, quartic64, N=16)


# ---------------------------------------------------------------------------
# boundedness in the weighted norms
# ---------------------------------------------------------------------------

def test_boundedness_flat_below_and_growing_above(quartic64):
    base = quartic64.as_base(delta=0.2, n=1)
    d = 4.0 / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)
        P05 = perturbation_matrix(
            PerturbationSpec(beta=0.5, terms=((("fractional", 0.5), COS),), n=1),
            quartic64,
        )
        P15 = perturbation_matrix(
            PerturbationSpec(beta=1.5, terms=((("fractional", 1.5), COS),), n=1),
            quartic64,
        )
    flat = delta_boundedness_check(
        P05, base, [0.5 * d / 4.0 + 0.05], N_values=[16, 32, 64]
    )
    grow = delta_boundedness_check(
        P15, base, [d - 1.0 - 1e-6], N_values=[16, 32, 64]
    )
    assert flat["rows"][0]["flat"] is True
    assert grow["rows"][0]["flat"] is False
    assert grow["rows"][0]["final_increment"] > 0.05
    norms = grow["rows"][0]["norms"]
    assert norms[-1] > norms[0]


def test_boundedness_identity_flat_for_all_delta(quartic64):
    pspec = PerturbationSpec(beta=0.0, terms=((("power", 0.0), COS),), n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)
        P = perturbation_matrix(pspec, quartic64, N=32)
    base = quartic64.as_base(delta=0.2, n=1)
    report = delta_boundedness_check(
        P, base, [0.0, 0.15, 0.3], N_values=[8, 16, 32]
    )
    assert all(row["flat"] for row in report["rows"])


def test_boundedness_rejects_delta_at_limit(quartic64):
    base = quartic64.as_base(delta=0.2, n=1)
    pspec = PerturbationSpec(beta=0.5, terms=((("fractional", 0.5), COS),), n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)
        P = perturbation_matrix(pspec, quartic64, N=16)
    with pytest.raises(KamError):
        delta_boundedness_check(P, base, [4.0 / 3.0 - 1.0], N_values=[8, 16])


def test_c_lambda_witness_stable_in_n():
    vals = []
    for N in (20, 40, 80):
        osc = build_oscillator(OscillatorSpec(alpha=4.0, N=N))
        vals.append(osc.as_base(delta=0.2, n=1).c_lambda())
    assert np.max(np.abs(np.diff(vals))) < 1e-9 * vals[0]


# ---------------------------------------------------------------------------
# end to end: reduce a forced quartic oscillator and cross-check the spectrum
# ---------------------------------------------------------------------------

def test_quartic_reduction_and_monodromy():
    osc = build_oscillator(OscillatorSpec(alpha=4.0, N=16))
    base = osc.as_base(delta=0.2, n=1)
    pspec = PerturbationSpec(beta=0.5, terms=((("fractional", 0.5), COS),), n=1)
    P = perturbation_matrix(pspec, osc)
    settings = KamSettings(
        epsilon=1e-3, s=0.05, gamma=0.05, tau=8.0, K_base=4, tol=1e-12, l_max=8
    )
    P = P * (settings.epsilon / delta_norm(P, base, settings.s))
    state, reduced = run_schedule(base, P, OMEGA_QUARTIC16, settings)
    assert state.converged and state.l <= 4

    T = 2.0 * np.pi / OMEGA_QUARTIC16[0]
    nu, _, info = monodromy_quasienergies(
        base, P, OMEGA_QUARTIC16, reduced=reduced
    )
    lam_mod = np.mod(reduced.lambda_inf, 2.0 * np.pi / T)
    err = np.abs(nu - lam_mod)
    err = np.minimum(err, 2.0 * np.pi / T - err)
    assert np.max(err) < 1e-6
    assert info["min_overlap"] > 0.99
