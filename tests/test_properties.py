"""Property tests of the strip norms on random hermitian series (hypothesis).

At every strip width s >= 0, s = 0 included, delta_norm and g_norm are
the spectral norms of the weighted entrywise majorant |P|_s = sum_k |Phat_k|
e^{s|k|_1}.  These tests check that the value bounds ||W P(phi)||_2 at
complex angles inside the strip and on the real grid, that it is that
majorant norm exactly, and that it is reached without any grid or grid SVD
sweep.

The homological residual is the same kind of bound: times ||W |P_off|_s||_2
it must dominate ||W D(phi)||_2 for the defect D = [A,B] - i omega.dB + P_off
of solve_variable's generator, at strip points and on the real grid, and it
is reached without a grid SVD.  That defect, formed on the solve's pairs
and held as its triangle with the other half as its mirror, is the
all-entries defect to roundoff, exactly hermitian with a zero diagonal,
and its pairs are the pair-stack kernel's bit for bit; its majorant, read
from the triangle, is the assembled series' majorant to roundoff.

A pair series' values, at angles or on a grid, are exactly anti-hermitian
with a zero diagonal, and its majorant is the dense mirror assembly's bit
for bit.  A hermitian series held as its triangle, the entries (j, i),
i <= j, has the dense series' majorant, pairs and diagonal bit for bit,
values hermitian off the diagonal, and a hermiticity defect read from its
diagonal.

One conjugation step, formed as a Lie series of alias-free commutators,
matches the dense oracle that builds exp(B) pointwise with scipy, and the
series-tail, truncation and chopping bounds it reports dominate its
distance to a reference formed at a larger cutoff and a higher order.  Each
level of its series keeps a band within what the level holds, and where the
cutoff does not bind it drops at most CHOP_FLOOR.  Its a-priori bound,
formed before any commutator, dominates both that P+ and the reference, and
a tol at the bound returns P+ as zero with no series summed and no N x N
defect assembled.

One kam_step, with and without mu, leaves P+ hermitian, and absorbs P's
oscillating diagonal into a mu that has zero average, is real on the
torus and is cut to its live band after chopping; each guard it meets is
recorded once and warned once.

The windowed second-order Diophantine margins that frequency sampling uses
are the dense kernel's margins wherever those fall below the window's
ceiling, and at least the ceiling everywhere else.  The certificate of one
frequency reports the dense minimum over every (i, j, k), k = 0 included,
bit for bit.

Scalar and operator series share one implementation, so every shared
operation on an OperatorSeries is the same operation on each of its entries.

verify's two integrators agree: on random n = 1 models with one or two
forcing modes and a k = 0 diagonal, the interaction-picture Magnus sweep
accepted by its step-doubling estimate gives CF4's fundamental solution.

The transforms invert each other on any grid of at least 2K+2 points per
axis, with or without trailing batch axes, and refuse a smaller grid.  They
are scipy.fft's n-d calls bit for bit, signed zeros included, on real grids
as on complex ones; scipy is only the oracle here.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kamreduce import diophantine, engine, floquet, homological, torus
from kamreduce.engine import CHOP_FLOOR, KamSettings, KamState, conjugate, kam_step
from kamreduce.errors import AliasingError, GuardWarning
from kamreduce.homological import solve_variable
from kamreduce.torus import (
    DiagonalPart,
    HermitianSeries,
    OperatorSeries,
    PairSeries,
    _box,
    _mirror,
    delta_norm,
    directional_derivative,
    g_norm,
    k_box,
    lie_commutator,
)

from conftest import commutator_oracle, dense, entry, offdiagonal, triangle
from test_diophantine import pruned_dio2_margins

D = 4.0 / 3.0

cases = st.tuples(
    st.sampled_from([1, 2]),                                      # n
    st.integers(1, 8),                                            # N
    st.integers(0, 3),                                            # K
    st.floats(0.0, 0.5),                                          # s
    st.floats(0.0, D - 1.0, exclude_max=True),                    # delta
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


def draw(case):
    n, N, K, s, delta, seed = case
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * n + (N, N)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mirror = np.conj(c[(slice(None, None, -1),) * n].swapaxes(-1, -2))
    P = OperatorSeries(n, K, N, 0.5 * (c + mirror))
    base = DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** D, d=D, delta=delta, n=n)
    return P, base, s, rng


def values_at(P: OperatorSeries, z: np.ndarray) -> np.ndarray:
    """P at a batch of complex angles z (T, n), by direct mode summation."""
    phases = np.exp(1j * (z @ k_box(P.n, P.K).T))                 # (T, m)
    return (phases @ P.coeffs.reshape(-1, P.N * P.N)).reshape(len(z), P.N, P.N)


def top_singular_value(mats: np.ndarray) -> float:
    return float(np.max(np.linalg.svd(mats, compute_uv=False)[:, 0]))


@settings(max_examples=60, deadline=None)
@given(cases)
def test_strip_norms_bound_complex_angles_and_real_grid(case):
    P, base, s, rng = draw(case)
    W = base.weight()
    x = rng.uniform(0.0, 2.0 * np.pi, size=(64, P.n))
    y = rng.uniform(-s, s, size=(64, P.n))
    y[:8] = s * rng.choice([-1.0, 1.0], size=(8, P.n))           # strip corners
    vals = values_at(P, x + 1j * y)
    M = 16
    axes = [2.0 * np.pi * np.arange(M) / M] * P.n
    real = values_at(P, np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, P.n))
    slack = 1.0 - 1e-12                                           # roundoff of the sums
    dn = delta_norm(P, base, s)
    assert dn >= slack * top_singular_value(W[:, None] * vals)
    assert dn >= slack * top_singular_value(W[:, None] * real)
    gn = g_norm(P, base, s)
    assert gn >= slack * top_singular_value(vals)
    assert gn >= slack * top_singular_value(W[:, None] * vals / W[None, :])


@settings(max_examples=60, deadline=None)
@given(cases)
def test_strip_norms_are_the_weighted_majorant_norm(case):
    P, base, s, _ = draw(case)
    W = base.weight()
    maj = P.majorant_matrix(s)
    assert delta_norm(P, base, s) == np.linalg.norm(W[:, None] * maj, 2)
    plain = np.linalg.norm(maj, 2)
    conjugated = np.linalg.norm(W[:, None] * maj * (1.0 / W)[None, :], 2)
    assert g_norm(P, base, s) == max(plain, conjugated)


@settings(max_examples=30, deadline=None)
@given(cases)
def test_strip_norms_form_no_grid(case):
    P, base, s, _ = draw(case)

    def refuse(*args, **kwargs):
        raise AssertionError("a strip norm formed a grid or a grid SVD")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus.np.linalg, "svd", refuse)
        mp.setattr(torus, "coeffs_to_grid", refuse)
        delta_norm(P, base, s)
        g_norm(P, base, s)


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

defect_cases = st.tuples(
    st.sampled_from([1, 2]),                                      # n
    st.integers(2, 6),                                            # N
    st.integers(0, 3),                                            # K of P
    st.integers(1, 3),                                            # K of mu
    st.floats(0.0, 0.3),                                          # s
    st.sampled_from([None, 0, 1, 2]),                             # K_out: a cap leaves a defect
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


def solve_case(case):
    """A random hermitian P against lambda + mu with zero-average real mu, solved."""
    n, N, K, K_mu, s, K_out, seed = case
    P, _, _, rng = draw((n, N, K, 0.1, 0.2, seed))
    shape = (N,) + (2 * K_mu + 1,) * n
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mu = 0.05 * (c + np.conj(c[(slice(None),) + (slice(None, None, -1),) * n]))
    mu[(slice(None),) + (K_mu,) * n] = 0.0
    base = DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** D, d=D, delta=0.2, n=n,
                        mu=mu, K=K_mu)
    omega = np.array([GOLDEN, np.sqrt(2.0) - 1.0])[:n]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")                           # guards are advisory here
        sol = solve_variable(P, base, omega, s=s, K_out=K_out)
    return sol, P, base, omega, s, rng


def defect_at(sol, P, base, omega, z):
    """[A,B] - i omega.dB + P_off at complex angles z, by direct mode summation."""
    B = dense(sol.B)
    mu = np.exp(1j * (z @ k_box(base.n, base.K).T)) @ base.mu.reshape(base.N, -1).T
    a = base.lam + mu                                             # (T, N)
    idx = np.arange(P.N)
    Poff = values_at(P, z)
    Poff[:, idx, idx] = 0.0
    return ((a[:, :, None] - a[:, None, :]) * values_at(B, z)
            - 1j * values_at(directional_derivative(B, omega), z) + Poff)


@settings(max_examples=60, deadline=None)
@given(defect_cases)
def test_homological_residual_bounds_the_defect(case):
    sol, P, base, omega, s, rng = solve_case(case)
    n, W = P.n, base.weight()
    x = rng.uniform(0.0, 2.0 * np.pi, size=(64, n))
    y = rng.uniform(-s, s, size=(64, n))
    y[:8] = s * rng.choice([-1.0, 1.0], size=(8, n))             # strip corners
    M = 16
    axes = [2.0 * np.pi * np.arange(M) / M] * n
    real = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    scale = np.linalg.norm(W[:, None] * offdiagonal(P).majorant_matrix(s), 2)
    # the slack is 1e-12 of the scale the residual is relative to: the
    # defect of an exact solve is roundoff, in the solver and in this sum
    bound = (sol.residual + 1e-12) * scale
    # the solution carries the defect it was measured on
    assert np.array_equal(sol.D.form().coeffs,
                          homological._generator_defect(sol.B, P, base, omega)[0].coeffs)
    for z in (x + 1j * y, real.astype(complex)):
        assert top_singular_value(W[:, None] * defect_at(sol, P, base, omega, z)) <= bound


@settings(max_examples=30, deadline=None)
@given(defect_cases)
def test_homological_residual_runs_no_grid_svd(case):
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homological.np.linalg, "svd", counting)
        solve_case(case)
    assert not [shape for shape in shapes if len(shape) > 2]


def dense_defect(B, P, base, omega):
    """[A,B] - i omega.dB + P_off with every one of the N x N entries formed on its own.

    The oracle of the pair-stack defect: the product mu B runs on the
    alias-free grid of all N^2 entries, and no entry is a mirror.
    """
    n, N = B.n, B.N
    mu = np.zeros((N,) + (1,) * n) if base.mu is None else base.mu
    # entry (i, j) of [A, B] is (a_i - a_j) B_ij
    mud = np.moveaxis(mu[:, None] - mu[None, :], (0, 1), (-2, -1))
    K_mu = (mud.shape[0] - 1) // 2 if np.any(mud) else 0
    K_D = max(B.K + K_mu, P.K)
    D = np.zeros((2 * K_D + 1,) * n + (N, N), dtype=complex)
    gap = base.lam[:, None] - base.lam[None, :]
    D[_box(n, B.K, K_D)] += (torus._k_dot_omega(n, B.K, omega)[..., None, None] + gap) * B.coeffs
    if K_mu:
        prod = OperatorSeries(n, K_mu, N, mud).product(B)
        D[_box(n, prod.K, K_D)] += prod.coeffs
    D[_box(n, P.K, K_D)] += offdiagonal(P).coeffs
    return D


pair_defect_cases = st.tuples(
    st.sampled_from([1, 2]),                                      # n
    st.integers(1, 6),                                            # N
    st.integers(0, 3),                                            # K of P
    st.integers(0, 3),                                            # K of B
    st.integers(0, 2),                                            # K of mu (0: mu = 0)
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


def pairs_of(H: OperatorSeries) -> PairSeries:
    """The anti-hermitian PairSeries of i H's entries below the diagonal."""
    ii, jj = np.triu_indices(H.N, 1)
    return PairSeries(H.n, H.K, H.N, 1j * H.coeffs[..., jj, ii])


def pair_defect_case(case):
    """Hermitian P and an anti-hermitian pair series B, against lambda + mu."""
    n, N, K, K_B, K_mu, seed = case
    P, _, _, rng = draw((n, N, K, 0.1, 0.2, seed))
    H, _, _, _ = draw((n, N, K_B, 0.1, 0.2, rng.integers(2**32)))
    B = pairs_of(H)
    mu = None
    if K_mu:
        shape = (N,) + (2 * K_mu + 1,) * n
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        mu = 0.05 * (c + np.conj(c[(slice(None),) + (slice(None, None, -1),) * n]))
        mu[(slice(None),) + (K_mu,) * n] = 0.0
    base = DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** D, d=D, delta=0.2, n=n,
                        mu=mu, K=K_mu)
    return B, P, base, np.array([GOLDEN, np.sqrt(2.0) - 1.0])[:n]


@settings(max_examples=60, deadline=None)
@given(pair_defect_cases)
def test_pair_stack_defect_is_the_dense_defect_and_hermitian(case):
    B, P, base, omega = pair_defect_case(case)
    defect, M = homological._generator_defect(B, P, base, omega)
    Dp = dense(defect)
    oracle = dense_defect(dense(B), P, base, omega)
    assert Dp.coeffs.shape == oracle.shape
    assert np.max(np.abs(Dp.coeffs - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    # the upper half is held as the lower half's mirror: D is a triangle with
    # a zero diagonal, whose pairs are the pair-stack kernel's bit for bit
    assert isinstance(defect, HermitianSeries)
    assert not np.any(defect.diagonal()) and defect.hermiticity_defect() == 0.0
    stack, _ = homological._defect(B.coeffs, *homological._defect_terms(base), -P.pairs(), omega)
    assert defect.pairs().tobytes() == stack.tobytes()
    # the product's grid is alias-free at band K_B + K_mu, and none without mu
    K_B, K_mu = B.K, base.K
    assert M == (torus.next_fast_len(2 * (K_B + K_mu) + 2) if K_mu and P.N > 1 else 0)


@settings(max_examples=60, deadline=None)
@given(pair_defect_cases, st.floats(0.0, 0.5))
def test_pair_stack_defect_majorant_is_the_assembled_one(case, s):
    B, P, base, omega = pair_defect_case(case)
    defect, _ = homological._generator_defect(B, P, base, omega)
    # the norms read the pairs; the assembled series is only the oracle here
    got, want = defect.majorant_matrix(s), dense(defect).majorant_matrix(s)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    assert np.array_equal(got, got.T)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.integers(1, 6), st.integers(0, 3),
       st.booleans(), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_pair_series_values_are_exactly_mirrored_and_its_series_is_the_dense_assembly(
        n, N, K, pairs, s, seed):
    # at and grid fill a pair series' upper half as minus the adjoint of the
    # lower: exactly anti-hermitian, zero diagonal.  Without pairs, a
    # triangle is drawn instead: the HermitianSeries of an exactly
    # hermitian series, hermitian off the diagonal
    rng = np.random.default_rng(seed)
    idx, off = np.arange(N), ~np.eye(N, dtype=bool)
    if pairs:
        shape = (2 * K + 1,) * n + (N * (N - 1) // 2,)
        S = PairSeries(n, K, N, rng.normal(size=shape) + 1j * rng.normal(size=shape))
    else:
        H = draw((n, N, K, s, 0.2, seed))[0]
        S = H.hermitian()
        assert np.array_equal(dense(S).coeffs, H.coeffs)
        ii, jj = np.triu_indices(N, 1)
        assert np.array_equal(S.pairs(), H.coeffs[..., jj, ii])
        assert np.array_equal(H.pairs(), H.coeffs[..., jj, ii])
        assert np.array_equal(S.diagonal(), H.coeffs[..., idx, idx])
        # the defect is read from the diagonal, and sees one put there
        assert S.hermiticity_defect() == 0.0
        c = S.coeffs.copy()
        c[(K,) * n + (torus._column(N, int(rng.integers(N))).start,)] += 1e-3j
        assert HermitianSeries(n, K, N, c).hermiticity_defect() == 2e-3
    oracle = dense(S)
    assert S.majorant_matrix(s).tobytes() == oracle.majorant_matrix(s).tobytes()
    phis = rng.uniform(0.0, 2.0 * np.pi, (7, n))
    M = 2 * K + 3
    for values, want in ((S.at(phis), oracle.at(phis)), (S.grid(M), oracle.grid(M))):
        adjoint = np.conj(np.swapaxes(values, -1, -2))
        assert np.array_equal(values[..., off], (-adjoint if pairs else adjoint)[..., off])
        assert not (pairs and np.any(values[..., idx, idx]))
        assert np.max(np.abs(values - want), initial=0.0) <= 1e-14 * (2 * K + 1) ** n


conjugation_cases = st.tuples(
    st.integers(1, 5),                                            # N
    st.integers(0, 3),                                            # K of P
    st.integers(0, 2),                                            # K of B
    st.integers(0, 1),                                            # K of mu (0: mu = 0)
    st.integers(0, 6),                                            # K_out
    st.floats(0.01, 0.1),                                         # s
    st.floats(0.0, 0.3),                                          # g of B
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


def conjugation_case(case):
    """Hermitian P, and anti-hermitian B scaled to g_norm(B, base, s) = g, against lambda + mu."""
    N, K, K_B, K_mu, K_out, s, g, seed = case
    P, _, _, rng = draw((1, N, K, s, 0.2, seed))
    H, _, _, _ = draw((1, N, K_B, s, 0.2, rng.integers(2**32)))
    mu = None
    if K_mu:
        c = rng.normal(size=(N, 3)) + 1j * rng.normal(size=(N, 3))
        mu = 0.05 * (c + np.conj(c[:, ::-1]))
        mu[:, 1] = 0.0
    base = DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** D, d=D, delta=0.2, n=1,
                        mu=mu, K=K_mu)
    B = pairs_of(H)
    gB = g_norm(B, base, s)
    B = B * (g / gB) if gB > 0 else B
    return base, P, B, np.array([GOLDEN]), K_out, s


def dense_conjugation(base, P, B, omega, M):
    """E*(A+P)E - A - i E*(omega . dE) - diag P on M points, E = expm(B) point by point."""
    E = np.stack([scipy.linalg.expm(b) for b in B.grid(M)])
    k = np.fft.fftfreq(M, d=1.0 / M)
    dE = np.fft.ifft(np.fft.fft(E, axis=0) * (1j * k * omega[0])[:, None, None], axis=0)
    Eh = np.conj(np.swapaxes(E, -1, -2))
    idx = np.arange(P.N)
    H = P.grid(M)
    diag = H[:, idx, idx] + base.values_on_grid(M)
    H[:, idx, idx] = diag
    out = Eh @ H @ E - 1j * (Eh @ dE)
    out[:, idx, idx] -= diag
    return out


def lie_reference(base, P, B, omega, order):
    """The Lie series of P+ to the given order, with no cutoff and no chopping."""
    off = offdiagonal(P)
    D = dense(homological._generator_defect(B, P, base, omega)[0])
    S = None
    diagonal = OperatorSeries(P.n, P.K, P.N, P.coeffs - off.coeffs)
    for k in range(order, -1, -1):
        terms = [D * (1.0 / math.factorial(k + 1))]
        if k:
            terms += [diagonal * (1.0 / math.factorial(k)), off * (k / math.factorial(k + 1))]
        if S is not None:
            terms.append(commutator_oracle(S, B))
        K = max(term.K for term in terms)
        S = OperatorSeries(P.n, K, P.N, sum(term.pad_to(K).coeffs for term in terms))
    return S


@settings(max_examples=40, deadline=None)
@given(conjugation_cases)
def test_conjugate_matches_the_dense_expm_oracle(case):
    base, P, B, omega, _, s = conjugation_case(case)
    M = 128
    R, _ = conjugate(base, P.hermitian(), B,
                     homological._generator_defect(B, P, base, omega)[0], 40, s)
    oracle = dense_conjugation(base, P, B, omega, M)
    assert np.max(np.abs(R.grid(M) - oracle)) <= 1e-12 * (1.0 + np.max(np.abs(P.coeffs)))


@settings(max_examples=60, deadline=None)
@given(conjugation_cases)
def test_conjugate_bounds_dominate_the_distance_to_a_deeper_reference(case):
    base, P, B, omega, K_out, s = conjugation_case(case)
    D = homological._generator_defect(B, P, base, omega)[0]
    R, info = conjugate(base, P.hermitian(), B, D, K_out, s)
    assert R.K <= K_out
    # one band per level, top level first, each within K_out and within what
    # the level holds: Y_k at D's band, the level above after one commutator
    bands = info["lie_bands"]
    assert len(bands) == (0 if info["a_priori"] else info["lie_order"] + 1)
    assert max(bands, default=0) <= K_out
    assert all(low <= max(high + B.K, D.K) for high, low in zip([-B.K] + bands, bands))
    # where K_out does not bind, each level drops at most CHOP_FLOOR
    if max(bands, default=0) < K_out:
        assert info["truncation_bound"] <= (info["lie_order"] + 1) * CHOP_FLOOR
    ref = lie_reference(base, P, B, omega, info["lie_order"] + 6)
    K = max(ref.K, R.K)
    gap = delta_norm(OperatorSeries(P.n, K, P.N, ref.pad_to(K).coeffs - dense(R).pad_to(K).coeffs),
                     base, s)
    bound = info["lie_tail_bound"] + info["truncation_bound"] + info["chopped_norm_bound"]
    # roundoff: the reference's coefficients carry ~1e-16 of its largest one,
    # and the strip weights scale each by at most e^{s K}
    slack = 1e-14 * np.sum(np.abs(ref.coeffs)) * math.exp(s * ref.K)
    assert gap <= bound + slack


@settings(max_examples=60, deadline=None)
@given(conjugation_cases)
def test_the_a_priori_bound_dominates_the_formed_and_the_deeper_p_plus(case):
    base, P, B, omega, K_out, s = conjugation_case(case)
    D = homological._generator_defect(B, P, base, omega)[0]
    R, info = conjugate(base, P.hermitian(), B, D, K_out, s)
    ref = lie_reference(base, P, B, omega, info["lie_order"] + 6)
    bound = info["a_priori_bound"]
    slack = 1e-14 * np.sum(np.abs(ref.coeffs)) * math.exp(s * ref.K)
    assert delta_norm(R, base, s) <= bound + slack
    assert delta_norm(ref, base, s) <= bound + slack
    # at tol = bound the same bound stops the step before any commutator,
    # and a defect kept as its majorant, as the solve keeps it, is never formed
    kept = homological.Defect(B, P.hermitian(), base, omega, {s: D.majorant_matrix(s)})
    called = []

    def refuse(name):
        return lambda *args: called.append(name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "lie_commutator", refuse("lie_commutator"))
        mp.setattr(homological.Defect, "form", refuse("Defect.form"))
        Z, early = conjugate(base, P.hermitian(), B, kept, K_out, s, bound)
    assert early["a_priori"] and early["a_priori_bound"] == bound and not called
    assert not np.any(Z.coeffs) and early["lie_order"] == early["grid_M"] == 0
    assert early["lie_bands"] == []


step_cases = st.tuples(
    st.sampled_from([1, 2]),                                      # n
    st.integers(1, 5),                                            # N
    st.integers(0, 3),                                            # K of P
    st.integers(0, 2),                                            # K of mu (0: mu = None)
    st.floats(-12.0, -6.0),                                       # log10 of max |Phat_0|
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


@settings(max_examples=40, deadline=None)
@given(step_cases)
def test_one_kam_step_keeps_the_structure_of_its_parts(case):
    n, N, K, K_mu, size, seed = case
    P, _, _, rng = draw((n, N, K, 0.05, 0.2, seed))
    # 1e-4 less per |k|_inf shell, so chopping empties outer shells of some draws
    decay = 1e-4 ** np.max(np.abs(k_box(n, K)), axis=1).reshape((2 * K + 1,) * n)
    P = OperatorSeries(n, K, N, P.coeffs * decay[..., None, None]
                       * (10.0 ** size / max(float(np.max(np.abs(P.coeffs[(K,) * n]))), 1e-300)))
    flip = (slice(None),) + (slice(None, None, -1),) * n
    mu = None
    if K_mu:
        c = rng.normal(size=(N,) + (2 * K_mu + 1,) * n) * (1.0 + 1j)
        mu = 0.02 * (c + np.conj(c[flip]))
        mu[(slice(None),) + (K_mu,) * n] = 0.0
    base = DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** D, d=D, delta=0.2, n=n,
                        mu=mu, K=K_mu)
    state = KamState(l=0, base=base, P=P.hermitian(), s=0.05, gamma=1e-2, C_mu=base.c_mu(0.05),
                     C_lambda=base.c_lambda(), C_omega=0.0,
                     norm_history=(delta_norm(P, base, 0.05),))
    settings_ = KamSettings(epsilon=1e-3, s=0.05, gamma=1e-2, tau=9.0, K_base=1, l_max=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = kam_step(state, np.array([GOLDEN, np.sqrt(2.0) - 1.0])[:n], settings_)
    rec = out.records[-1]

    assert out.P.hermiticity_defect() == 0.0
    # the new mu: the old one plus P's oscillating diagonal, chopped as P+ is
    K_all = max(K, K_mu)
    grown = np.zeros((N,) + (2 * K_all + 1,) * n, dtype=complex)
    if mu is not None:
        grown[(slice(None),) + _box(n, K_mu, K_all)] += mu
    grown[(slice(None),) + _box(n, K, K_all)] += np.moveaxis(
        np.diagonal(P.coeffs, axis1=-2, axis2=-1), -1, 0)
    grown[(slice(None),) + (K_all,) * n] = 0.0
    grown[np.abs(grown) < CHOP_FLOOR] = 0.0
    live = np.any(grown.reshape(N, -1) != 0, axis=0)
    K_live = int(np.max(np.abs(k_box(n, K_all))[live], initial=0))
    new = out.base
    assert new.K == K_live
    if not np.any(live):
        assert new.mu is None
    else:
        assert np.array_equal(new.mu, grown[(slice(None),) + _box(n, K_live, K_all)])
        assert np.all(new.mu[(slice(None),) + (K_live,) * n] == 0.0)   # zero average
        assert np.array_equal(new.mu, np.conj(new.mu[flip]))          # real on the torus
    messages = rec["guard_messages"]
    assert len(set(messages)) == len(messages)
    # each warned once; the record lists the step's own guards last
    assert sorted(messages) == sorted(str(w.message) for w in caught
                                      if issubclass(w.category, GuardWarning))


dio_cases = st.tuples(
    st.sampled_from([1, 2, 3]),                                   # n
    st.integers(2, 12),                                           # N
    st.floats(1.0, 10.0),                                         # tau: small -> wide windows
    st.integers(0, 4),                                            # Kmax
    st.floats(1e-3, 1.0),                                         # gamma_max
    st.integers(0, 2**32 - 1),                                    # seed
)


@settings(max_examples=100, deadline=None)
@given(dio_cases)
def test_windowed_dio2_margins_are_the_dense_ones_below_gamma_max(case):
    n, N, tau, Kmax, gamma_max, seed = case
    rng = np.random.default_rng(seed)
    # an unsorted lambda table, so that some gaps are negative
    lam = rng.permutation(np.arange(1, N + 1, dtype=float) ** D + rng.uniform(-0.3, 0.3, N))
    idx = np.arange(1, N + 1, dtype=float)
    i, j = np.triu_indices(N, 1)
    gaps = lam[j] - lam[i]
    scale = np.abs(idx[j] ** D - idx[i] ** D)
    c_lambda = float(np.min(np.abs(gaps) / scale))
    omegas = rng.random((64, n))
    ks = diophantine.full_k_lattice(n, Kmax)
    windowed = np.full(len(omegas), np.inf)
    for sample, _, _, vals in diophantine._dio2_window(omegas, gaps, scale, ks, tau, gamma_max):
        np.minimum.at(windowed, sample, vals)
    dense = pruned_dio2_margins(omegas, gaps, scale, ks, tau, c_lambda, gamma_max)
    below = dense < gamma_max
    assert np.array_equal(windowed[below], dense[below])
    assert np.all(windowed[~below] >= gamma_max)


certificate_cases = st.tuples(
    st.sampled_from([1, 2, 3]),                                   # n
    st.integers(1, 8),                                            # N
    st.integers(1, 8),                                            # Nmax: 1 leaves no pair
    st.floats(1.0, 10.0),                                         # tau
    st.integers(0, 4),                                            # Kmax
    st.one_of(st.just(0.0), st.floats(0.0, 2.0)),                 # gamma
    st.integers(0, 2**32 - 1),                                    # seed
)


@settings(max_examples=100, deadline=None)
@given(certificate_cases)
def test_dio2_certificate_is_the_dense_minimum(case):
    n, N, Nmax, tau, Kmax, gamma, seed = case
    rng = np.random.default_rng(seed)
    base = DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** D + rng.uniform(-0.3, 0.3, N),
                        d=D, delta=0.2, n=n)
    omega = rng.random(n)
    cert = diophantine.check_dio2(omega, base, gamma, tau, Kmax, Nmax)
    # every pair i < j <= Nmax against every |k|_1 <= Kmax, k = 0 included
    ii, jj, gaps, scale = diophantine._pair_table(base, Nmax)
    ks = diophantine.full_k_lattice(n, Kmax)
    weight = 1.0 + np.sum(np.abs(ks), axis=1) ** tau
    dense = np.abs(gaps[:, None] + omega[None, :] @ ks.T) * (weight[None, :] / scale[:, None])
    assert cert.min_margin == np.min(dense, initial=np.inf)
    assert cert.passed == (cert.min_margin >= gamma or gamma == 0.0)
    if not cert.passed:
        i, j, k = cert.violating_triple
        p = np.nonzero((ii == i - 1) & (jj == j - 1))[0][0]
        assert dense[p, np.nonzero((ks == k).all(axis=1))[0][0]] == cert.min_margin


series_cases = st.tuples(
    st.sampled_from([1, 2, 3]),                                   # n
    st.integers(1, 4),                                            # N
    st.integers(0, 3),                                            # K of P
    st.integers(0, 3),                                            # K of Q
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


def banded(n, N, K, rng):
    """A random operator series whose entries have their own live bands (-1: zero)."""
    shape = (2 * K + 1,) * n + (N, N)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    kinf = np.max(np.abs(k_box(n, K)), axis=1).reshape((2 * K + 1,) * n)
    c[kinf[..., None, None] > rng.integers(-1, K + 1, size=(N, N))] = 0.0
    return OperatorSeries(n, K, N, c)


@settings(max_examples=60, deadline=None)
@given(series_cases)
def test_operator_series_operations_act_on_each_entry(case):
    n, N, K, K2, seed = case
    rng = np.random.default_rng(seed)
    P, Q = banded(n, N, K, rng), banded(n, N, K2, rng)
    z = complex(*rng.normal(size=2))
    M = 2 * K + 2
    phis = rng.uniform(0.0, 2.0 * np.pi, size=(5, n))
    tol = 1e-13 * (1.0 + np.sum(np.abs(P.coeffs)) * (1.0 + np.sum(np.abs(Q.coeffs))))
    trimmed = P.trim()
    rev = (slice(None, None, -1),) * n
    herm = 0.0
    for i, j in itertools.product(range(N), repeat=2):
        p, q = entry(P, i, j), entry(Q, i, j)
        for whole, part in [
            (P.pad_to(K + 1), p.pad_to(K + 1)),
            (P.truncate(K // 2), p.truncate(K // 2)),
            (trimmed, p.trim().pad_to(trimmed.K)),
            (z * P, z * p),
            (P * z, p * z),
        ]:
            assert whole.K == part.K
            assert np.array_equal(entry(whole, i, j).coeffs, part.coeffs)
        assert np.max(np.abs(P.grid(M)[..., i, j] - p.grid(M))) <= tol
        assert np.max(np.abs(P.at(phis)[:, i, j] - p.at(phis))) <= tol
        assert np.max(np.abs(entry(P.product(Q), i, j).coeffs - p.product(q).coeffs)) <= tol
        herm = max(herm, np.max(np.abs(p.coeffs - np.conj(entry(P, j, i).coeffs[rev]))))
    assert trimmed.K == max(entry(P, i, j).trim().K for i in range(N) for j in range(N))

    # at on the grid points is the grid
    axes = [2.0 * np.pi * np.arange(M) / M] * n
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    assert np.max(np.abs(P.at(points).reshape(P.grid(M).shape) - P.grid(M))) <= tol

    # the Lie commutator of hermitian H and anti-hermitian B, formed from
    # H's triangle and B's pairs: expanded, its entries are sums of
    # entrywise products, and its off-diagonal is exactly hermitian
    H = OperatorSeries(n, K, N, 0.5 * (P.coeffs + _mirror(P.coeffs, n)))
    ii, jj = np.triu_indices(N, 1)
    B = PairSeries(n, K2, N, Q.coeffs[..., jj, ii])
    tri, _ = lie_commutator(triangle(H), K, B, K + K2)
    HB = dense(HermitianSeries(n, K + K2, N, tri))
    Bd = dense(B)
    for i, j in itertools.product(range(N), repeat=2):
        want = sum(entry(H, i, m).product(entry(Bd, m, j)).coeffs
                   - entry(Bd, i, m).product(entry(H, m, j)).coeffs for m in range(N))
        assert np.max(np.abs(entry(HB, i, j).coeffs - want)) <= tol
    values = HermitianSeries(n, K + K2, N, tri).at(phis)
    off = ~np.eye(N, dtype=bool)
    assert np.array_equal(values[:, off], np.conj(np.swapaxes(values, -1, -2))[:, off])

    # the mirror is the adjoint at -k: entry (i, j) meets conj(P_ji(-k))
    assert P.hermiticity_defect() == np.max(np.abs(P.coeffs - _mirror(P.coeffs, n))) == herm


transform_cases = st.tuples(
    st.sampled_from([1, 2, 3]),                                   # n
    st.integers(0, 4),                                            # K
    st.booleans(),                                                # a grid above the least fast one
    st.sampled_from([(), (1,), (3,), (2, 2)]),                    # trailing batch axes
    st.integers(0, 2**32 - 1),                                    # coefficient seed
)


@settings(max_examples=60, deadline=None)
@given(transform_cases)
def test_transforms_round_trip_and_refuse_an_aliasing_grid(case):
    n, K, larger, batch, seed = case
    rng = np.random.default_rng(seed)
    shape = (2 * K + 1,) * n + batch
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    M = torus.next_fast_len(2 * K + 2)
    if larger:
        M = torus.next_fast_len(M + 1)
    vals = torus.coeffs_to_grid(c, n, K, M)
    assert vals.shape == (M,) * n + batch
    back = torus.grid_to_coeffs(vals, n, K)
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))
    with pytest.raises(AliasingError):
        torus.grid_to_coeffs(vals[(slice(0, 2 * K + 1),) * n], n, K)


def _draw_array(rng, shape, sparse, real=False):
    """Normal samples, or mostly zeros and units, whose transforms have signed zeros."""
    def part():
        return rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], size=shape) if sparse else rng.normal(size=shape)
    return part() if real else part() + 1j * part()


@settings(max_examples=120, deadline=None)
@given(transform_cases, st.booleans(), st.booleans())
def test_transforms_are_scipys_bit_for_bit(case, sparse, real):
    n, K, larger, batch, seed = case
    rng = np.random.default_rng(seed)
    M = torus.next_fast_len(2 * K + 2)
    if larger:
        M = torus.next_fast_len(M + 1)
    axes = tuple(range(n))
    c = _draw_array(rng, (2 * K + 1,) * n + batch, sparse)
    table = torus._centered_to_fft(c, n, K, M)
    expect = scipy.fft.ifftn(table, axes=axes, norm="forward")
    got = torus.coeffs_to_grid(c, n, K, M)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()
    # a real grid is transformed as its complex cast (never by a real path)
    v = _draw_array(rng, (M,) * n + batch, sparse, real=real)
    expect = torus._fft_to_centered(scipy.fft.fftn(v.astype(complex), axes=axes, norm="forward"),
                                    n, K)
    got = torus.grid_to_coeffs(v, n, K)
    assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_transforms_keep_scipys_signed_zeros():
    # the transform of a unit impulse is full of exact zeros, whose signs
    # depend on how the forward transform applies its 1/M**n
    M, K = 4, 1
    for n in (1, 2, 3):
        for flat, unit in itertools.product(range(M**n), (1, -1, 1j, -1j)):
            v = np.zeros(M**n, dtype=complex)
            v[flat] = unit
            v = v.reshape((M,) * n)
            expect = scipy.fft.fftn(v, norm="forward")
            got = torus.grid_to_coeffs(v, n, K)
            assert got.tobytes() == torus._fft_to_centered(expect, n, K).tobytes(), (n, flat, unit)


magnus_cases = st.tuples(
    st.integers(1, 6),                                            # N
    st.integers(1, 2),                                            # forcing modes
    st.floats(1e-4, 1e-2),                                        # forcing size
    st.floats(0.0, 1e-2),                                         # k = 0 diagonal
    st.floats(0.0, 1e-2),                                         # mu
    st.floats(0.05, 1.5),                                         # omega
    st.integers(0, 2**32 - 1),                                    # seed
)


@settings(max_examples=25, deadline=None)
@given(magnus_cases)
def test_magnus_and_cf4_sweeps_agree(case):
    N, modes, size, diagonal, mu_size, omega, seed = case
    rng = np.random.default_rng(seed)
    lam = 1.0 + np.cumsum(rng.uniform(0.3, 3.0, N))
    c = np.zeros((2 * modes + 1, N, N), dtype=complex)
    c[modes] = np.diag(diagonal * rng.uniform(-1.0, 1.0, N))
    for k in range(1, modes + 1):
        c[modes + k] = size * (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        c[modes - k] = np.conj(c[modes + k].T)
    # a zero-average mu at k = 1, a mode P shares, and k = modes + 1, one P lacks
    K = modes + 1
    mu = np.zeros((N, 2 * K + 1), dtype=complex)
    for k in (1, K):
        mu[:, K + k] = mu_size * (rng.normal(size=N) + 1j * rng.normal(size=N))
        mu[:, K - k] = np.conj(mu[:, K + k])
    base = DiagonalPart(lam=lam, d=1.5, delta=0.0, n=1, mu=mu, K=K)
    P, w = OperatorSeries(1, modes, N, c), np.array([omega])
    ts = np.union1d(np.linspace(1.0, 10.0, 10), [2.0 * np.pi / omega])
    phi0 = rng.uniform(0.0, 2.0 * np.pi, 1)
    magnus = floquet.propagate_step_doubled(base, P, w, np.eye(N), phi0, ts, "magnus")[0]
    # CF4 at half the step its own step doubling accepts, so that its error,
    # which its estimate puts just below 1e-10 at worst, is a sixteenth of that
    dt = floquet.propagate_step_doubled(base, P, w, np.eye(N), phi0, ts)[1]
    cf4 = floquet.propagate_direct(base, P, w, np.eye(N), phi0, ts, dt=dt / 2)
    assert np.max(np.linalg.norm(magnus - cf4, ord=2, axis=(1, 2))) <= 1e-10
