"""Tests for the iteration engine.

Oracles: scipy.linalg.expm for every matrix exponential, a dense grid
evaluation through exp(B) of the conjugated operator for one full step,
which the engine forms as a Lie series, and the transport
identity U*(A+P)U - i U*(omega . dU/dphi) = diag(lambda_inf + mu_inf) checked
on a fine grid after a complete run.  The frozen frequencies below were found
by optimize_frequency (seed 777) and re-certified here by their stored
constants; assertions on run shapes use only inequalities the schedules
guarantee, not exact float values, except where one test pins the norms of
a run whose every step conjugates.
"""

import dataclasses
import pathlib
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.fft import next_fast_len

from kamreduce import cli, engine, torus
from kamreduce.engine import (
    KamSettings,
    KamState,
    ReducedSystem,
    compose_on_grid,
    conjugate,
    diag_split,
    kam_step,
    matrix_exp_antihermitian,
    run_schedule,
)
from kamreduce.errors import (
    FrequencyExcluded,
    GuardWarning,
    HermiticityError,
    KamError,
)
from kamreduce.homological import _generator_defect
from kamreduce.models import abstract_base, build_abstract_model, random_perturbation
from kamreduce.serialize import RunManifest
from kamreduce.torus import (
    DiagonalPart,
    OperatorSeries,
    PairSeries,
    coeffs_to_grid,
    delta_norm,
    g_norm,
    grid_to_coeffs,
)

from conftest import dense, offdiagonal, traced_peak
from test_homological import reference_n2

MANIFESTS = pathlib.Path(__file__).resolve().parents[1] / "manifests"

# certified at gamma = 0.05 over |k|_1 <= 32 for the bases they are used with
OMEGA_N2 = np.array([0.12902675768352256, 0.10778545957448527])  # N=12, tau=9
OMEGA_N1 = np.array([0.13799890521733005])  # N=10, tau=8
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

SETTINGS_N2 = KamSettings(
    epsilon=1e-3, s=0.05, gamma=0.05, tau=9.0, K_base=4, tol=1e-12, l_max=8
)
SETTINGS_N1 = KamSettings(
    epsilon=1e-3, s=0.05, gamma=0.05, tau=8.0, K_base=4, tol=1e-12, l_max=8
)


def _random_hermitian(N, n, K, rng, scale=1.0):
    shape = (2 * K + 1,) * n + (N, N)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rev = (slice(None, None, -1),) * n
    c = 0.5 * (c + np.conj(np.swapaxes(c[rev], -1, -2)))
    return OperatorSeries(n, K, N, scale * c)


def _pairs(B: OperatorSeries) -> PairSeries:
    """The anti-hermitian PairSeries of B's entries below the diagonal."""
    ii, jj = np.triu_indices(B.N, 1)
    return PairSeries(B.n, B.K, B.N, B.coeffs[..., jj, ii], -1)


@pytest.fixture(scope="module")
def run_n2():
    A, P = build_abstract_model(
        N=12, n=2, d=4.0 / 3.0, delta=0.2, K=3, epsilon=1e-3, s=0.05, seed=1234
    )
    state, reduced = run_schedule(A, P, OMEGA_N2, SETTINGS_N2)
    return A, P, state, reduced


@pytest.fixture(scope="module")
def run_n1():
    A, P = build_abstract_model(
        N=10, n=1, d=4.0 / 3.0, delta=0.2, K=3, epsilon=1e-3, s=0.05, seed=4321
    )
    state, reduced = run_schedule(A, P, OMEGA_N1, SETTINGS_N1)
    return A, P, state, reduced


# ---------------------------------------------------------------------------
# diag_split
# ---------------------------------------------------------------------------

def test_diag_split_reassembles():
    rng = np.random.default_rng(5)
    P = _random_hermitian(5, 1, 2, rng)
    shift, mu_add = diag_split(P.hermitian())
    rebuilt = offdiagonal(P).coeffs.copy()
    idx = np.arange(5)
    rebuilt[..., idx, idx] += np.moveaxis(mu_add, 0, -1)
    rebuilt[(2,) * 1 + (idx, idx)] += shift
    assert np.max(np.abs(rebuilt - P.coeffs)) < 1e-15
    assert np.all(np.abs(np.imag(shift)) < 1e-14)
    # the fluctuating part has zero average by construction
    assert np.max(np.abs(mu_add[:, 2])) == 0.0


def test_diag_split_rejects_imaginary_average():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1, 0, 0] = 1e-3j  # constant diagonal mode with imaginary part
    with pytest.raises(HermiticityError):
        diag_split(OperatorSeries(1, 1, 2, c).hermitian())


# ---------------------------------------------------------------------------
# exponentials and one conjugation
# ---------------------------------------------------------------------------

def test_matrix_exp_matches_expm():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    B = 0.3 * (raw - np.conj(np.swapaxes(raw, -1, -2)))
    E, D = matrix_exp_antihermitian(B)
    for m in range(6):
        ref = scipy.linalg.expm(B[m])
        assert np.max(np.abs(E[m] - ref)) < 1e-13
        assert np.max(np.abs(E[m] @ E[m].conj().T - np.eye(4))) < 1e-13
    assert np.max(np.abs((E - D) - np.eye(4))) < 1e-14


def test_matrix_exp_keeps_unbatched_shape_and_zero():
    E, D = matrix_exp_antihermitian(np.zeros((3, 3), dtype=complex))
    assert E.shape == D.shape == (3, 3)
    assert np.array_equal(E, np.eye(3)) and not np.any(D)


def test_conjugate_zero_generator_strips_diagonal():
    rng = np.random.default_rng(11)
    base = abstract_base(4, 1, 4.0 / 3.0, 0.2)
    P = _random_hermitian(4, 1, 2, rng)
    B = _pairs(OperatorSeries.zero(1, 2, 4))
    R, info = conjugate(base, P.hermitian(), B,
                        _generator_defect(B, P, base, np.array([0.1]))[0], 4, 0.05)
    # B = 0: order 0, and the result is exactly P minus its diagonal
    assert info["lie_order"] == 0 and info["grid_M"] == 0
    assert info["lie_tail_bound"] == info["truncation_bound"] == 0.0
    assert R.K == P.K and np.array_equal(dense(R).coeffs, offdiagonal(P).coeffs)


def test_conjugate_matches_dense_grid_oracle():
    """One conjugation against an independent grid evaluation.

    The oracle builds E = expm(B) pointwise with scipy, differentiates it
    with the FFT, and assembles E*(A+P)E - A - i E*(omega . dE) - diag(P)
    directly; the engine's coefficient-space version must agree.
    """
    rng = np.random.default_rng(23)
    N, K = 4, 2
    base = abstract_base(N, 1, 4.0 / 3.0, 0.2)
    omega = np.array([0.37])
    P = _random_hermitian(N, 1, K, rng, scale=1e-2)
    B = _pairs(_random_hermitian(N, 1, K, rng, scale=3e-3) * 1j)

    # K_out deep enough that the discarded tail needs ||B||^9 ~ 1e-17
    K_out = 16
    D = _generator_defect(B, P, base, omega)[0]
    R, info = conjugate(base, P.hermitian(), B, D, K_out, 0.05)
    assert info["lie_order"] >= 1 and R.K <= K_out

    M = 64
    Bg = B.grid(M)
    Pg = coeffs_to_grid(P.coeffs, 1, K, M)
    E = np.stack([scipy.linalg.expm(Bg[m]) for m in range(M)])
    freqs = np.fft.fftfreq(M, d=1.0 / M)  # integer mode numbers
    Ehat = np.fft.fft(E, axis=0) / M
    Ederiv = np.fft.ifft(
        Ehat * (1j * freqs * omega[0])[:, None, None], axis=0
    ) * M
    A = np.diag(base.lam).astype(complex)
    out = np.empty_like(E)
    for m in range(M):
        Eh = E[m].conj().T
        out[m] = Eh @ (A + Pg[m]) @ E[m] - A - 1j * (Eh @ Ederiv[m])
        out[m] -= np.diag(np.diag(Pg[m]))
    R_grid = coeffs_to_grid(dense(R).coeffs, 1, R.K, M)
    assert np.max(np.abs(R_grid - out)) < 1e-12


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_kam_step_zero_perturbation_is_trivial():
    base = abstract_base(6, 1, 4.0 / 3.0, 0.2)
    state = KamState(
        l=0,
        base=base,
        P=OperatorSeries.zero(1, 2, 6).hermitian(),
        s=0.05,
        gamma=0.05,
        C_mu=0.0,
        C_lambda=base.c_lambda(),
        C_omega=0.0,
        norm_history=(0.0,),
    )
    out = kam_step(state, OMEGA_N1, SETTINGS_N1)
    assert out.l == 1
    assert out.converged
    assert out.base is base
    assert out.generators == ()
    assert out.records[-1].get("trivial") is True


def _start(base, P, s):
    """The schedule's state before its first step."""
    return KamState(l=0, base=base, P=P.hermitian(), s=s, gamma=0.05, C_mu=base.c_mu(s),
                    C_lambda=base.c_lambda(), C_omega=0.0, norm_history=(delta_norm(P, base, s),))


def _step_and_warnings(state, omega, settings):
    """kam_step's new state and the GuardWarning messages it emitted, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kam_step(state, omega, settings)
    return out, [str(w.message) for w in caught if issubclass(w.category, GuardWarning)]


def test_step_records_each_solve_guard_once():
    # lambda = i^1.5 and mu_i = +-8 cos phi at s = 0.3: C_mu / C_lambda =
    # 8 e^0.3 >= CSTAR, and the pairs whose mu differ fail Kuksin's guard
    mu = np.zeros((3, 3), dtype=complex)
    mu[:, 0] = mu[:, 2] = 4.0 * np.array([1.0, -1.0, 1.0])
    base = DiagonalPart(lam=np.arange(1.0, 4.0) ** 1.5, d=1.5, delta=0.2, n=1, mu=mu, K=1)
    P = _random_hermitian(3, 1, 1, np.random.default_rng(5), scale=1e-6)
    settings = KamSettings(epsilon=1e-3, s=0.3, gamma=0.05, tau=8.0, K_base=1, l_max=1)
    out, warned = _step_and_warnings(_start(base, P, 0.3), np.array([GOLDEN]), settings)
    messages = out.records[0]["guard_messages"]
    assert list(messages) == warned
    assert [m for m in messages if "C* guard" in m] == [
        "C* guard violated: C_mu/C_lambda = 10.8 >= 10.0"]
    assert [m.split(":")[0] for m in messages if "kuksin" in m] == [
        "kuksin guard failed for pair (1,2)", "kuksin guard failed for pair (2,3)"]


def _tilt_commutator(monkeypatch, size) -> None:
    """Make every commutator's values carry the constant 1j * size() * I: a hermiticity defect of 2 size.

    The constant is added to the N x N values the commutator's slab kernel
    returns, so it reaches the commutator's triangle and conjugate's output
    through the order-0 level; the constant the other levels carry commutes
    with every generator.  size is read at each call.
    """
    commute = torus._commute

    def tilted(x, y, xy, yx):
        out = commute(x, y, xy, yx)
        idx = np.arange(out.shape[-1])
        out[..., idx, idx] += 1j * size()
        return out

    monkeypatch.setattr(torus, "_commute", tilted)


def _guard_scale(P, base, B) -> float:
    """The scale conjugate judges the hermiticity defect of its output against."""
    return max(float(np.max(np.abs(P.coeffs))),
               float(np.max(np.abs(base.lam))) * float(np.max(np.abs(B.coeffs))))


def test_conjugation_guard_reaches_its_info_and_the_step_record(monkeypatch):
    # a defect of 1e-10 of scale is above the guard's 1e-11 and below the
    # error's 1e-9: warned once, in info, and in the step's record
    rng = np.random.default_rng(17)
    base = abstract_base(4, 1, 4.0 / 3.0, 0.2)
    P = _random_hermitian(4, 1, 2, rng, scale=1e-3)
    B = _pairs(_random_hermitian(4, 1, 1, rng, scale=1e-3) * 1j)
    D = _generator_defect(B, P, base, OMEGA_N1)[0]
    sizes = [0.5e-10 * _guard_scale(P, base, B)]
    _tilt_commutator(monkeypatch, lambda: sizes[-1])
    with pytest.warns(GuardWarning, match="conjugation hermiticity defect") as caught:
        _, info = conjugate(base, P.hermitian(), B, D, 4, 0.05)
    defect = info["hermiticity_defect"]
    assert defect == pytest.approx(1e-10 * _guard_scale(P, base, B), rel=1e-3)
    assert info["guard_messages"] == (f"conjugation hermiticity defect {defect:.2e}",)
    assert len(caught) == 1

    solve = engine.solve_variable

    def sized(P, base, *args, **kwargs):
        sol = solve(P, base, *args, **kwargs)
        sizes.append(0.5e-10 * _guard_scale(P, base, sol.B))
        return sol

    monkeypatch.setattr(engine, "solve_variable", sized)
    A, P = build_abstract_model(
        N=10, n=1, d=4.0 / 3.0, delta=0.2, K=3, epsilon=1e-3, s=0.05, seed=4321
    )
    out, warned = _step_and_warnings(_start(A, P, 0.05), OMEGA_N1, SETTINGS_N1)
    record = out.records[0]
    message = f"conjugation hermiticity defect {record['hermiticity_defect']:.2e}"
    assert record["hermiticity_defect"] == pytest.approx(2 * sizes[-1], rel=1e-3)
    assert not record["a_priori"] and record["guard_messages"] == (message,)
    assert warned == [message]


def test_single_step_contracts_below_schedule(run_n2):
    _, _, state, _ = run_n2
    eps = SETTINGS_N2.epsilon
    # first-step norm must beat eps^(4/3) with margin (contract: <= eps^1.2)
    assert state.norm_history[1] <= eps**1.2
    assert state.records[0]["hom_residual"] < 1e-9
    assert state.records[0]["K_step"] <= SETTINGS_N2.K_schedule(1)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_converges_quadratically(run_n2):
    _, _, state, reduced = run_n2
    assert state.converged and state.stopped is None
    assert state.l <= 4
    assert state.norm_history[-1] < 1e-12
    hist = np.array(state.norm_history)
    assert np.all(np.diff(hist) < 0)
    # superlinear: each step's exponent grows by at least the 4/3 schedule
    assert np.all(np.log(hist[1:]) / np.log(hist[:-1]) >= 1.3)
    assert reduced.converged


def test_ledger_follows_update_formulas(run_n2):
    _, _, state, _ = run_n2
    gamma, c_mu, c_om = SETTINGS_N2.gamma, None, 0.0
    prev_gamma = SETTINGS_N2.gamma
    prev_cl = None
    for rec in state.records:
        if rec.get("trivial"):
            continue
        drop = rec["norm_in"] * (1.0 + float(rec["K_step"]) ** SETTINGS_N2.tau)
        assert rec["gamma_out"] == pytest.approx(rec["gamma_in"] - drop, rel=1e-12)
        assert rec["gamma_in"] == pytest.approx(prev_gamma, rel=1e-12)
        prev_gamma = rec["gamma_out"]
        if prev_cl is not None:
            assert rec["C_lambda"] <= prev_cl
        prev_cl = rec["C_lambda"]
        assert rec["gamma_out"] > 0
        assert rec["eps_bound_ok"]
        assert rec["K_step"] <= rec["K_sched"]


def test_step_records_carry_work_counters(run_n2):
    _, P, state, _ = run_n2
    # mu = 0 in step 1: the generator keeps P's band, not the work cutoff,
    # and neither the solve nor its defect forms a grid
    assert state.records[0]["K_B"] == state.generators[0].K == P.K
    assert state.records[0]["solve_grid_M"] == state.records[0]["defect_grid_M"] == 0
    assert all(rec["pairs"] == 12 * 11 // 2 for rec in state.records)
    # with mu (band 3, P's diagonal) the solve's grid is alias-free at its
    # work band P.K + K_mu + SOLVER_PAD, the defect's product mu B at K_B + K_mu
    step1, step2 = state.records[:2]
    work_band = step1["K_P"] + 3 + engine.SOLVER_PAD
    assert step2["solve_grid_M"] == next_fast_len(2 * work_band + 2) == 48
    assert step2["defect_grid_M"] == next_fast_len(2 * (step2["K_B"] + 3) + 2) == 40
    # the shipped reference-n2 run: 190 pairs; at step 2 P.K = 12 and K_mu = 6,
    # so both grids hold band 30, 63 points per axis
    manifest = RunManifest.load(MANIFESTS / "reference-n2.json")
    ref, _ = run_schedule(*cli._build_model(manifest), manifest.frequency["omega"],
                          cli._settings(manifest))
    assert [(r["pairs"], r["solve_grid_M"], r["defect_grid_M"]) for r in ref.records] == [
        (190, 0, 0), (190, 63, 63)]
    # each Lie-series level keeps the band its mass needs, so the widest
    # commutator takes band 12 + K_B = 18, not the work cutoff 24; the
    # a-priori step 2 sums no level
    assert [(r["lie_bands"], r["grid_M"]) for r in ref.records] == [([6, 6, 12, 15], 40),
                                                                    ([], 0)]
    # the largest array each step holds: step 1's widest commutator's
    # triangle grid, 40^2 points of N(N+1)/2 = 210 entries, and step 2's
    # btil stack, 61^2 modes (band (63 - 2) // 2 = 30) of 190 pairs
    assert [r["grid_bytes"] for r in ref.records] == [40**2 * 210 * 16, 61**2 * 190 * 16]
    for rec in state.records:
        assert 0 <= rec["K_P"] <= SETTINGS_N2.work_cutoff()
        assert rec["B_truncation"] >= 0.0
        assert rec["lie_tail_bound"] >= 0.0 and rec["truncation_bound"] >= 0.0
        assert "unitarity_defect" not in rec
        if rec["a_priori"]:
            continue
        # the widest commutator is alias-free for a level of band between
        # K_B and the work cutoff times the generator
        widest = next_fast_len(2 * (SETTINGS_N2.work_cutoff() + rec["K_B"]) + 2)
        assert rec["lie_order"] >= 1
        assert 4 * rec["K_B"] + 2 <= rec["grid_M"] <= widest
    # the last step's bound clears tol before any commutator is formed
    last = state.records[-1]
    assert last["a_priori"] and last["a_priori_bound"] > 0.0
    assert last["K_P"] == 0 and last["grid_M"] == 0 and last["lie_order"] == 0
    assert not any(rec["a_priori"] for rec in state.records[:-1])
    # P after the last step is held as its triangle, N(N+1)/2 entries per
    # mode, at the band the record reports
    assert state.P.K == state.records[-1]["K_P"]
    assert state.P.coeffs.shape == (2 * state.P.K + 1,) * 2 + (12 * 13 // 2,)
    names = [name for name, _ in state.timings]
    assert names[:8] == ["step1.solve_s", "step1.solve_rss_mb", "step1.conjugate_s",
                         "step1.conjugate_rss_mb", "step1.norms_s", "step1.norms_rss_mb",
                         "step1.recertify_s", "step1.recertify_rss_mb"]
    assert len(names) == 8 * state.l
    assert all(t >= 0.0 for _, t in state.timings)
    # the peak RSS is a high-water mark: the conjugation's is at least the solve's
    rss = dict(state.timings)
    assert 0.0 < rss["step1.solve_rss_mb"] <= rss["step1.conjugate_rss_mb"]


def test_step_one_conjugate_holds_one_grid_beside_a_level_triangle(monkeypatch):
    """reference-n2's step-1 conjugation, traced: one commutator grid beside one level's triangle.

    Each level is held as its triangle, so the peak is the widest
    commutator's N x N grid (its triangle grid, grid_bytes, with B's
    pairs) and four slab buffers beside the level it commutes, or, at the
    end, that level beside P+'s triangle cut to its live band; P's
    triangle and D's pairs are held throughout.  Every level keeps a band
    of lie_bands, at most K_out.  Holding each level as N x N and filling
    the commutator's result densely beside its triangle peaked at 17.9 MB
    here, above this bound (15.6 MB).
    """
    A, P, omega, settings = reference_n2()
    calls = []
    monkeypatch.setattr(engine, "conjugate", lambda *args: calls.append(args) or conjugate(*args))
    state, _ = run_schedule(A, P, omega, dataclasses.replace(settings, l_max=1))
    monkeypatch.undo()
    _, P, B, D, K_out, *_ = calls[0]
    conjugate(*calls[0])                   # the transforms' first-call caches are not the step's
    (P_plus, info), peak = traced_peak(lambda: conjugate(*calls[0]))
    rec, n, N = state.records[0], P.n, P.N
    assert not info["a_priori"] and info["lie_bands"] == rec["lie_bands"] == [6, 6, 12, 15]
    assert max(rec["lie_bands"]) <= K_out == settings.work_cutoff()

    def nbytes(K, entries):
        return 16 * (2 * K + 1) ** n * entries

    grid = rec["grid_bytes"] * 2 * N // (N + 1)
    level = nbytes(max(rec["lie_bands"]), N * (N + 1) // 2)
    output = nbytes(P_plus.K, N * (N + 1) // 2)
    held = nbytes(P.K, N * (N + 1) // 2) + nbytes(D.form().K, N * (N - 1) // 2)
    assert peak <= max(grid + 4 * torus.SLAB_BYTES, output) + level + held < 17_000_000


def test_steps_conjugate_whenever_the_bound_misses_tol(run_n2):
    """With tol far below every a-priori bound, each step forms its P+.

    The norms are the conjugating path's, pinned bit for bit: the early
    stop changes nothing on a step that does not take it.  Step 2's norm is
    mostly the mass its Lie-series levels drop below CHOP_FLOOR (its
    truncation_bound, 8.2e-16), where an l1 bound on the coefficients
    chopping zeroes would otherwise stand.
    """
    A, P, converged, _ = run_n2
    state, _ = run_schedule(A, P, OMEGA_N2,
                            dataclasses.replace(SETTINGS_N2, tol=1e-30, l_max=2))
    assert state.l == 2 and not state.converged
    assert not any(rec["a_priori"] for rec in state.records)
    assert all(rec["lie_order"] >= 1 and rec["grid_M"] > 0 for rec in state.records)
    assert list(state.norm_history) == [0.0009999999999999998, 5.0421319290387264e-08,
                                        8.682030470285938e-16]
    # the bound is the same number whether or not the step stops on it
    assert state.records[-1]["a_priori_bound"] == converged.records[-1]["a_priori_bound"]


def test_composed_transformations_unitary(run_n2):
    _, _, state, _ = run_n2
    M = 64
    U = compose_on_grid(state.generators, 12, 2, M)
    sub = U[::8, ::8]
    defect = np.max(
        np.abs(np.swapaxes(sub.conj(), -1, -2) @ sub - np.eye(12))
    )
    assert defect < 1e-10


def test_transport_identity_after_run(run_n1):
    """U*(A + P)U - i U* (omega dU/dphi) must be the reduced diagonal."""
    A, P, state, reduced = run_n1
    M = 256
    N = A.N
    U = compose_on_grid(state.generators, N, 1, M)
    Uh = np.swapaxes(U.conj(), -1, -2)
    Pg = coeffs_to_grid(P.coeffs, 1, P.K, M)
    H = np.diag(A.lam)[None, :, :] + Pg
    freqs = np.fft.fftfreq(M, d=1.0 / M)
    Uhat = np.fft.fft(U, axis=0) / M
    Ud = np.fft.ifft(Uhat * (1j * freqs * OMEGA_N1[0])[:, None, None], axis=0) * M
    normal = Uh @ H @ U - 1j * (Uh @ Ud)
    # diagonal: lambda_inf + mu_inf(phi); off-diagonal: residual size only
    diag_expect = reduced.as_base().values_on_grid(M)
    got_diag = np.diagonal(normal, axis1=-2, axis2=-1)
    assert np.max(np.abs(got_diag - diag_expect)) < 1e-9
    offmask = ~np.eye(N, dtype=bool)
    assert np.max(np.abs(normal[:, offmask])) < 1e-9


def test_epsilon_zero_means_zero_iterations():
    base = abstract_base(8, 1, 4.0 / 3.0, 0.2)
    settings = KamSettings(
        epsilon=0.0, s=0.05, gamma=0.05, tau=8.0, K_base=4, tol=1e-12, l_max=8
    )
    state, reduced = run_schedule(
        base, OperatorSeries.zero(1, 2, 8), OMEGA_N1, settings
    )
    assert state.converged and state.l == 0
    assert reduced.generators == ()
    assert state.norm_history == (0.0,)
    assert np.array_equal(reduced.lambda_inf, base.lam)


def test_large_epsilon_diverges():
    A, P = build_abstract_model(
        N=8, n=1, d=4.0 / 3.0, delta=0.2, K=3, epsilon=0.3, s=0.05, seed=99
    )
    settings = KamSettings(
        epsilon=0.3, s=0.05, gamma=0.05, tau=8.0, K_base=4, tol=1e-12, l_max=6
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GuardWarning)
        state, reduced = run_schedule(A, P, OMEGA_N1, settings)
    assert state.stopped.startswith("smallness lost at step 1")
    assert not reduced.converged


def test_step_limit_is_the_stop_reason():
    A, P = build_abstract_model(
        N=10, n=1, d=4.0 / 3.0, delta=0.2, K=3, epsilon=1e-3, s=0.05, seed=4321
    )
    state, reduced = run_schedule(A, P, OMEGA_N1, dataclasses.replace(SETTINGS_N1, l_max=1))
    assert state.l == 1 and not reduced.converged
    assert state.stopped == "l_max = 1 steps reached"


def test_resonant_frequency_is_excluded():
    # omega . (1, -2) = 0 exactly; the resonance bites once mu is active
    A, P = build_abstract_model(
        N=8, n=2, d=4.0 / 3.0, delta=0.2, K=3, epsilon=1e-3, s=0.05, seed=77
    )
    settings = KamSettings(
        epsilon=1e-3, s=0.05, gamma=0.05, tau=9.0, K_base=4, tol=1e-12, l_max=6
    )
    with pytest.raises(FrequencyExcluded) as info:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GuardWarning)
            run_schedule(A, P, np.array([0.2, 0.1]), settings)
    assert info.value.step is not None and info.value.step >= 1
    assert info.value.triple is not None


def test_tau_below_threshold_rejected():
    A, P = build_abstract_model(
        N=6, n=2, d=4.0 / 3.0, delta=0.2, K=2, epsilon=1e-3, s=0.05, seed=3
    )
    bad = KamSettings(
        epsilon=1e-3, s=0.05, gamma=0.05, tau=7.5, K_base=4, tol=1e-12, l_max=4
    )
    with pytest.raises(KamError, match="tau"):
        run_schedule(A, P, OMEGA_N2, bad)  # needs tau > 2 + 6 = 8


def test_norm_above_declared_epsilon_rejected():
    A, P = build_abstract_model(
        N=6, n=1, d=4.0 / 3.0, delta=0.2, K=2, epsilon=1e-2, s=0.05, seed=3
    )
    lying = KamSettings(
        epsilon=1e-3, s=0.05, gamma=0.05, tau=8.0, K_base=4, tol=1e-12, l_max=4
    )
    with pytest.raises(KamError, match="epsilon"):
        run_schedule(A, P, OMEGA_N1, lying)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_empty_is_identity():
    U = compose_on_grid((), 5, 2, 3)
    assert U.shape == (3, 3, 5, 5)
    assert np.array_equal(U, np.broadcast_to(np.eye(5), U.shape))


def test_compose_single_rotation_closed_form():
    theta = 0.3
    c = np.zeros((1, 2, 2), dtype=complex)
    c[0] = [[0.0, theta], [-theta, 0.0]]
    gen = OperatorSeries(1, 0, 2, c)
    U = compose_on_grid((gen,), 2, 1, 4)[1]  # constant generator: any grid point
    expect = np.array(
        [
            [np.cos(theta), np.sin(theta)],
            [-np.sin(theta), np.cos(theta)],
        ]
    )
    assert np.max(np.abs(U - expect)) < 1e-12


def test_compose_stack_is_ordered_product_and_unitary():
    rng = np.random.default_rng(15)
    gens = []
    for _ in range(3):
        raw = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        c = 0.2 * (raw - np.conj(np.swapaxes(raw[::-1], -1, -2)))
        gens.append(OperatorSeries(1, 2, 4, c))
    M = 7
    Us = compose_on_grid(tuple(gens), 4, 1, M)
    for m in (0, 2, 5):
        phi = 2.0 * np.pi * m / M
        U = Us[m]
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-10
        expect = np.eye(4, dtype=complex)
        for g in gens:
            val = np.zeros((4, 4), dtype=complex)
            for k in range(-2, 3):
                val += g.coeffs[k + 2] * np.exp(1j * k * phi)
            expect = expect @ scipy.linalg.expm(val)
        assert np.max(np.abs(U - expect)) < 1e-10


# ---------------------------------------------------------------------------
# norm inequalities the iteration relies on
# ---------------------------------------------------------------------------

def test_conjugation_distortion_linear_bound():
    """||e^-B P e^B - P|| <= 4 ||P|| ||B||_G whenever ||B||_G <= 1/2."""
    rng = np.random.default_rng(31)
    base = abstract_base(5, 1, 4.0 / 3.0, 0.2)
    s = 0.05
    violations = 0
    for _ in range(100):
        P = _random_hermitian(5, 1, 2, rng, scale=rng.uniform(1e-4, 1.0))
        raw = _random_hermitian(5, 1, 2, rng)
        B = OperatorSeries(1, 2, 5, 1j * raw.coeffs)
        gB = g_norm(B, base, s)
        if gB > 0.5:
            B = B * (0.45 / gB)
            gB = g_norm(B, base, s)
        M = 32
        Bg = coeffs_to_grid(B.coeffs, 1, 2, M)
        Pg = coeffs_to_grid(P.coeffs, 1, 2, M)
        E, _ = matrix_exp_antihermitian(Bg)
        Eh = np.swapaxes(E.conj(), -1, -2)
        diff = Eh @ Pg @ E - Pg
        Kd = 8
        Dser = OperatorSeries(1, Kd, 5, grid_to_coeffs(diff, 1, Kd))
        lhs = delta_norm(Dser, base, 0.0)
        rhs = 4.0 * delta_norm(P, base, s) * gB
        if lhs > rhs:
            violations += 1
    assert violations == 0


def test_conjugation_remainder_is_second_order():
    """e^-tB Q e^tB - Q - t[Q,B] shrinks like t^2 (log-log slope 2 +- 0.1)."""
    rng = np.random.default_rng(41)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    B = 0.5 * (raw - raw.conj().T)
    q = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Q = 0.5 * (q + q.conj().T)
    ts = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
    rem = []
    for t in ts:
        E, _ = matrix_exp_antihermitian(t * B[None])
        E = E[0]
        F = E.conj().T @ Q @ E
        R = F - Q - t * (Q @ B - B @ Q)
        rem.append(np.linalg.norm(R, 2))
    slope = np.polyfit(np.log(ts), np.log(rem), 1)[0]
    assert abs(slope - 2.0) < 0.1
