"""Torus-series algebra: transforms, norms, structure preservation."""

import inspect
import math

import numpy as np
import pytest
from scipy.fft import next_fast_len as scipy_next_fast_len

from kamreduce import engine, homological, torus
from kamreduce.errors import AliasingError, KamError
from kamreduce.torus import (
    DiagonalPart,
    HermitianSeries,
    OperatorSeries,
    PairSeries,
    TorusSeries,
    coeffs_to_grid,
    delta_norm,
    directional_derivative,
    g_norm,
    grid_to_coeffs,
    k_box,
    next_fast_len,
    sup_norm_s,
)

from conftest import commutator_oracle, dense, traced_peak, triangle


def transform_roundtrip(f, grid_size):
    """Sample f on the grid_size**n grid and transform back: (series, max coefficient error)."""
    back = grid_to_coeffs(f.grid(grid_size), f.n, f.K)
    return f._like(f.K, back), float(np.max(np.abs(back - f.coeffs)))


def random_scalar(n, K, rng, s=0.0, real=True):
    shape = (2 * K + 1,) * n
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if s > 0:
        w = np.zeros(shape)
        for a in range(n):
            w = w + np.abs(np.arange(-K, K + 1)).reshape([-1 if i == a else 1 for i in range(n)])
        c = c * np.exp(-s * w)
    f = TorusSeries(n, K, c)
    if real:
        f = TorusSeries(n, K, 0.5 * (c + np.conj(c[(slice(None, None, -1),) * n])))
    return f


def random_hermitian(N, n, K, rng, s=0.0):
    shape = (2 * K + 1,) * n + (N, N)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if s > 0:
        w = np.zeros((2 * K + 1,) * n)
        for a in range(n):
            w = w + np.abs(np.arange(-K, K + 1)).reshape([-1 if i == a else 1 for i in range(n)])
        c = c * np.exp(-s * w)[..., None, None]
    mirror = np.conj(c[(slice(None, None, -1),) * n].swapaxes(-1, -2))
    return OperatorSeries(n, K, N, 0.5 * (c + mirror))


def dft_oracle(f, M):
    """Direct mode summation on the grid, no FFT anywhere."""
    kb = k_box(f.n, f.K)
    flat = f.coeffs.reshape(len(kb))
    out = np.zeros((M,) * f.n, dtype=complex)
    grid1d = 2 * np.pi * np.arange(M) / M
    mesh = np.meshgrid(*([grid1d] * f.n), indexing="ij")
    for kvec, c in zip(kb, flat):
        phase = np.zeros((M,) * f.n)
        for a in range(f.n):
            phase = phase + kvec[a] * mesh[a]
        out += c * np.exp(1j * phase)
    return out


# ---------------------------------------------------------------------------
# transforms


def test_roundtrip_constant_is_exact():
    f = TorusSeries.from_modes(2, 3, {(0, 0): 3.5 - 0.25j})
    back, err = transform_roundtrip(f, 16)
    assert err == 0.0
    assert back.average() == 3.5 - 0.25j


def test_roundtrip_matches_direct_summation_oracle():
    rng = np.random.default_rng(7)
    for n, K, M in [(1, 5, 16), (2, 3, 12), (2, 5, 16)]:
        f = random_scalar(n, K, rng, real=False)
        vals = f.grid(M)
        oracle = dft_oracle(f, M)
        assert np.max(np.abs(vals - oracle)) < 1e-11 * np.max(np.abs(oracle))
        back, err = transform_roundtrip(f, M)
        assert err < 1e-12 * np.max(np.abs(f.coeffs))


@pytest.mark.parametrize("n, batch", [(1, (3,)), (2, (4, 2)), (2, ())])
def test_transforms_match_numpy_fft_with_trailing_batch_axes(n, batch):
    rng = np.random.default_rng(29 + n)
    K, M = 3, 10
    coeffs = rng.normal(size=(2 * K + 1,) * n + batch) + 1j * rng.normal(size=(2 * K + 1,) * n + batch)
    axes = tuple(range(n))
    table = np.zeros((M,) * n + batch, dtype=complex)
    idx = np.arange(-K, K + 1) % M
    table[np.ix_(*([idx] * n))] = coeffs
    ref = np.fft.ifftn(table, axes=axes) * M**n
    vals = coeffs_to_grid(coeffs, n, K, M)
    assert vals.shape == (M,) * n + batch
    assert np.max(np.abs(vals - ref)) < 1e-13
    back_ref = (np.fft.fftn(ref, axes=axes) / M**n)[np.ix_(*([idx] * n))]
    back = grid_to_coeffs(vals, n, K)
    assert np.max(np.abs(back - back_ref)) < 1e-14
    assert np.max(np.abs(back - coeffs)) < 1e-14


def test_next_fast_len_is_scipys_rule_and_defined_once():
    targets = range(1, 5000)
    assert [next_fast_len(t) for t in targets] == [scipy_next_fast_len(t) for t in targets]
    assert homological.next_fast_len is torus.next_fast_len


def test_the_triangle_layout_is_defined_once():
    # torus alone indexes a triangle: engine forms no index pairs, and
    # neither engine nor homological gathers P's entries by them
    sources = {m.__name__: inspect.getsource(m) for m in (engine, homological)}
    assert "triu_indices" not in sources["kamreduce.engine"]
    assert not [name for name, text in sources.items() if "coeffs[..., jj, ii]" in text]


def test_trim_keeps_coefficients_and_a_live_outer_shell():
    rng = np.random.default_rng(31)
    inner = random_hermitian(3, 2, 2, rng)
    padded = inner.pad_to(6)
    trimmed = padded.trim()
    assert trimmed.K == 2
    assert np.array_equal(trimmed.coeffs, inner.coeffs)
    # one nonzero entry at |k|_inf = 4 keeps that shell and all within it
    c = padded.coeffs.copy()
    c[6 + 4, 6 - 1, 0, 2] = 1e-300
    trimmed = OperatorSeries(2, 6, 3, c).trim()
    assert trimmed.K == 4
    assert np.array_equal(trimmed.pad_to(6).coeffs, c)
    shell = np.ones((9, 9), dtype=bool)
    shell[1:-1, 1:-1] = False
    assert np.any(trimmed.coeffs[shell] != 0)
    assert OperatorSeries.zero(2, 5, 3).trim().K == 0


def test_roundtrip_rejects_undersampled_grid():
    f = TorusSeries.from_modes(1, 5, {})
    with pytest.raises(AliasingError):
        transform_roundtrip(f, 11)  # needs 2K+2 = 12


def test_pointwise_evaluation_matches_grid():
    rng = np.random.default_rng(3)
    f = random_scalar(2, 4, rng, real=False)
    M = 12
    vals = f.grid(M)
    for idx in [(0, 0), (3, 7), (11, 5)]:
        phi = 2 * np.pi * np.array(idx) / M
        assert abs(f.at(phi[None])[0] - vals[idx]) < 1e-12 * max(1.0, abs(vals[idx]))


@pytest.mark.parametrize("n, K", [(1, 0), (1, 5), (2, 0), (2, 3), (3, 0), (3, 2)])
def test_at_matches_a_dense_phase_table(n, K):
    # at sums one slab of the first mode axis at a time; the oracle forms
    # the whole (T, (2K+1)^n) table of e^{ik.phi} and takes one product
    rng = np.random.default_rng(10 * n + K)
    phis = rng.uniform(-4.0, 4.0, size=(7, n))
    for f in (random_scalar(n, K, rng, real=False), random_hermitian(3, n, K, rng)):
        table = np.exp(1j * (phis @ k_box(n, K).T))
        expect = (table @ f.coeffs.reshape(len(table.T), -1)).reshape((len(phis),) + f._tail)
        scale = np.sum(np.abs(f.coeffs))
        assert np.max(np.abs(f.at(phis) - expect)) <= 1e-14 * scale


def test_directional_derivative_single_mode():
    # f = e^{i(k . phi)} -> derivative i (omega . k) f
    f = TorusSeries.from_modes(2, 3, {(2, -1): 1.0})
    omega = np.array([0.7, 0.31])
    df = directional_derivative(f, omega)
    assert abs(df.coeffs[3 + 2, 3 - 1] - 1j * (2 * 0.7 - 0.31)) < 1e-15


def test_directional_derivative_finite_difference_oracle():
    rng = np.random.default_rng(11)
    f = random_scalar(2, 4, rng, s=0.5, real=False)
    omega = np.array([0.61803, 0.41421])
    df = directional_derivative(f, omega)
    h = 1e-5
    phi0 = np.array([0.9, 2.2])
    ahead, behind = f.at(np.array([phi0 + omega * h, phi0 - omega * h]))
    assert abs((ahead - behind) / (2 * h) - df.at(phi0[None])[0]) < 1e-8


def test_derivative_of_antihermitian_is_antihermitian():
    rng = np.random.default_rng(5)
    H = random_hermitian(4, 2, 3, rng)
    B = OperatorSeries(2, 3, 4, 1j * H.coeffs)  # i * hermitian = anti-hermitian
    # X is anti-hermitian iff i X is hermitian
    assert (B * 1j).hermiticity_defect() < 1e-14
    dB = directional_derivative(B, np.array([0.3, 0.9]))
    assert (dB * 1j).hermiticity_defect() < 1e-13


def test_hermiticity_preserved_by_roundtrip():
    rng = np.random.default_rng(13)
    P = random_hermitian(5, 1, 4, rng)
    back, _ = transform_roundtrip(P, 16)
    assert back.hermiticity_defect() < 1e-13 * np.max(np.abs(P.coeffs))


# ---------------------------------------------------------------------------
# norms


def test_sup_norm_two_cosine():
    # f = 2 cos(phi) = e^{i phi} + e^{-i phi}: ||f||_s = 2 e^s
    f = TorusSeries.from_modes(1, 1, {1: 1.0, -1: 1.0})
    assert abs(sup_norm_s(f, 0.0) - 2.0) < 1e-15
    s = 0.37
    assert abs(sup_norm_s(f, s) - 2 * np.exp(s)) < 1e-14


def test_sup_norm_upper_bounds_real_sup():
    rng = np.random.default_rng(17)
    f = random_scalar(2, 4, rng, s=0.3)
    grid_sup = float(np.max(np.abs(f.grid(64))))
    assert sup_norm_s(f, 0.0) >= grid_sup - 1e-12


def test_sup_norm_submultiplicative():
    rng = np.random.default_rng(19)
    for trial in range(25):
        n = 1 + trial % 2
        f = random_scalar(n, 3, rng, s=0.4, real=False)
        g = random_scalar(n, 3, rng, s=0.4, real=False)
        fg = f.product(g)
        for s in (0.0, 0.25):
            assert sup_norm_s(fg, s) <= sup_norm_s(f, s) * sup_norm_s(g, s) * (1 + 1e-12)


def test_parseval_on_grid():
    rng = np.random.default_rng(23)
    f = random_scalar(2, 3, rng, real=False)
    M = 16
    vals = f.grid(M)
    lhs = np.sum(np.abs(vals) ** 2) / M**2
    rhs = np.sum(np.abs(f.coeffs) ** 2)
    assert abs(lhs - rhs) < 1e-12 * rhs


def base_for(N, d=4 / 3, delta=0.2, n=1, lam=None):
    lam = np.arange(1, N + 1, dtype=float) ** d if lam is None else lam
    return DiagonalPart(lam=lam, d=d, delta=delta, n=n)


def test_delta_norm_exact_cancellation():
    # P = diag(i^delta) constant, lambda_i = i^d -> weighted matrix is identity
    N, d, delta = 6, 4 / 3, 0.2
    idx = np.arange(1, N + 1, dtype=float)
    P = OperatorSeries(1, 0, N, np.diag(idx**delta)[None, :, :].astype(complex))
    base = base_for(N, d, delta)
    assert abs(delta_norm(P, base, 0.0) - 1.0) < 1e-14


def test_delta_norm_bounds_gridwise_svd_oracle():
    # at s = 0 the majorant bounds the real-torus sup from above; on this
    # input it reads about 37.7 against a sampled maximum of about 11.2
    rng = np.random.default_rng(29)
    N = 8
    P = random_hermitian(N, 1, 3, rng)
    base = base_for(N)
    M = 32
    got = delta_norm(P, base, 0.0)
    W = np.diag(base.weight())
    best = 0.0
    for j in range(M):
        phi = 2 * np.pi * j / M
        mat = W @ P.at(np.array([[phi]]))[0]
        best = max(best, np.linalg.svd(mat, compute_uv=False)[0])
    assert got >= best * (1 - 1e-12)


def test_delta_norm_grows_with_strip_width():
    rng = np.random.default_rng(31)
    P = random_hermitian(5, 2, 3, rng, s=0.4)
    base = base_for(5, n=2)
    v0 = delta_norm(P, base, 0.0)
    vs = delta_norm(P, base, 0.3)
    assert vs >= v0 - 1e-12


def test_delta_norm_rejects_bad_lambda():
    with pytest.raises(KamError):
        DiagonalPart(lam=np.array([-1.0, 2.0]), d=4 / 3, delta=0.2, n=1)
    with pytest.raises(KamError):
        DiagonalPart(lam=np.array([2.0, 1.0]), d=4 / 3, delta=0.2, n=1)


def test_g_norm_diag_weight_invariance():
    # For diagonal B the conjugation by W changes nothing: g = plain sup
    N = 5
    c = np.zeros((3, N, N), dtype=complex)
    for k in range(3):
        c[k] += np.diag(1j * np.linspace(0.1, 0.5, N) * (k + 1))
    B = OperatorSeries(1, 1, N, c)
    base = base_for(N)
    g = g_norm(B, base, 0.0)
    p = delta_norm(B, DiagonalPart(lam=base.lam, d=base.d, delta=0.0, n=1), 0.0)
    assert abs(g - p) < 1e-12 * p


# ---------------------------------------------------------------------------
# products


def test_series_copies_all_but_a_loaded_array(tmp_path):
    from kamreduce.serialize import load_array, write_array
    from kamreduce.torus import freeze

    c = np.random.default_rng(3).normal(size=(5, 2, 2)) + 0j
    series = OperatorSeries(1, 2, 2, c)
    assert series.coeffs is not c and not series.coeffs.flags.writeable
    c[0] = 7.0
    assert series.coeffs[0, 0, 0] != 7.0
    # a read-only view of a larger buffer would keep all of it alive
    wide = series.pad_to(4).coeffs
    assert not np.shares_memory(OperatorSeries(1, 2, 2, wide[2:7]).coeffs, wide)
    # a frozen array, as an artifact is loaded, is held as it is and stays read-only
    frozen = freeze(c.copy())
    assert OperatorSeries(1, 2, 2, frozen).coeffs is frozen
    with pytest.raises(ValueError):
        frozen.flags.writeable = True
    write_array(tmp_path / "c.npy", c)
    loaded = load_array(tmp_path / "c.npy")
    assert OperatorSeries(1, 2, 2, loaded).coeffs is loaded
    with pytest.raises(ValueError):
        loaded.flags.writeable = True


def test_product_single_modes():
    f = TorusSeries.from_modes(1, 2, {1: 2.0})
    g = TorusSeries.from_modes(1, 2, {2: 0.5})
    fg = f.product(g)
    assert abs(fg.coeffs[fg.K + 3] - 1.0) < 1e-14


def test_product_keeps_the_full_band():
    f = TorusSeries.from_modes(1, 2, {2: 1.0})
    g = TorusSeries.from_modes(1, 2, {2: 1.0})
    fg = f.product(g)
    assert fg.K == 4 and abs(fg.coeffs[fg.K + 4] - 1.0) < 1e-14


def random_pairs(N, n, K, rng):
    """An anti-hermitian PairSeries with random pairs."""
    shape = (2 * K + 1,) * n + (N * (N - 1) // 2,)
    return PairSeries(n, K, N, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def test_commutator_matches_pointwise():
    rng = np.random.default_rng(37)
    for n, K_S, K_B in ((1, 2, 3), (2, 2, 1), (3, 1, 1)):
        S, B = random_hermitian(4, n, K_S, rng), random_pairs(4, n, K_B, rng)
        K = K_S + K_B + 1
        tri, M = torus.lie_commutator(triangle(S), K_S, B, K)
        assert M == next_fast_len(2 * (K_S + K_B) + 2)
        assert tri.shape == (2 * K + 1,) * n + (10,)
        SB = HermitianSeries(n, K, 4, tri)
        # zero outside the band K_S + K_B, and equal to the pointwise dense oracle
        assert SB.trim().K == K_S + K_B
        oracle = commutator_oracle(S, B).pad_to(K)
        assert np.max(np.abs(tri - triangle(oracle))) < 1e-12
        assert np.max(np.abs(dense(SB).coeffs - oracle.coeffs)) < 1e-12
        phi = rng.uniform(0.0, 2.0 * np.pi, size=(1, n))
        s_, b_ = S.at(phi)[0], B.at(phi)[0]
        assert np.max(np.abs(SB.at(phi)[0] - (s_ @ b_ - b_ @ s_))) < 1e-12
        # the diagonal's defect, the one place one can remain, is roundoff
        assert SB.hermiticity_defect() < 1e-12


def test_product_of_real_series_is_real():
    rng = np.random.default_rng(41)
    f = random_scalar(2, 3, rng, real=True)
    g = random_scalar(2, 3, rng, real=True)
    fg = f.product(g)
    assert fg.mirror_defect() < 1e-12 * max(1.0, np.max(np.abs(fg.coeffs)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_in_place_is_x_at_y_minus_y_at_x(n):
    rng = np.random.default_rng(43 + n)
    shape = (6,) * n + (5, 5)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    y = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    want = x @ y - y @ x
    y_before = y.copy()
    xy, yx = np.empty_like(x), np.empty_like(x)
    got, peak = traced_peak(lambda: torus._commute(x, y, xy, yx))
    assert got is x and got.tobytes() == want.tobytes()
    assert y.tobytes() == y_before.tobytes()
    # the two products are written into the scratch: no array is allocated
    assert peak < 1024


def test_commutator_holds_one_grid_and_a_slab(monkeypatch):
    rng = np.random.default_rng(47)
    S, B = random_hermitian(12, 2, 5, rng), random_pairs(12, 2, 4, rng)
    tri = triangle(S)
    M = next_fast_len(2 * (S.K + B.K) + 2)
    # a slab of one row of M grid points
    monkeypatch.setattr(torus, "SLAB_BYTES", M * 12 * 12 * 16)
    torus.lie_commutator(tri, S.K, B, 9)  # the transforms' first-call caches are not the commutator's
    (c, _), peak = traced_peak(lambda: torus.lie_commutator(tri, S.K, B, 9))
    assert M == 20 and c.shape == (19, 19, 12 * 13 // 2)
    # S's triangle and B's pairs on the grid are one N x N grid together,
    # and a slab holds four N x N buffers of its points, two of which then
    # take _commute's products; the result's triangle, transformed back and
    # placed at the caller's band, is less than the grid
    grid = M**2 * 12 * 12 * 16
    slab = 4 * torus.SLAB_BYTES
    assert peak <= grid + slab + 4096


def test_majorant_sum_is_mirror_symmetric_and_accurate():
    rng = np.random.default_rng(53)
    for n, K in ((1, 4), (2, 3), (3, 2)):
        c = rng.normal(size=(2 * K + 1,) * n + (4, 4)) * (1 + 1j)
        s = 0.3
        got = torus._majorant_sum(c, n, K, s)
        assert got.tobytes() == torus._majorant_sum(torus._mirror(c, n), n, K, s).T.tobytes()
        w = torus.strip_weight(n, K, s)[..., None, None]
        terms = (np.abs(c) * w).reshape(-1, 16)
        want = np.array([math.fsum(col) for col in terms.T]).reshape(4, 4)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
