"""Nonresonance certificates, admissible sampling, slab measure bounds."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from kamreduce import cli
from kamreduce.diophantine import (
    Dio2Certificate,
    Frequency,
    ResonanceSet,
    _dio1_values,
    _pair_table,
    _raw_divisor_margins,
    check_dio1,
    check_dio2,
    full_k_lattice,
    half_k_lattice,
    rejection_table,
    resonance_measure_bound,
    resonance_measure_estimate,
    sample_admissible,
)
from kamreduce.errors import ZeroAcceptanceError
from kamreduce.models import abstract_base
from kamreduce.serialize import RunManifest
from kamreduce.torus import DiagonalPart


GOLDEN = (np.sqrt(5) - 1) / 2
MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"


def base_power(N, d=4 / 3, delta=0.2, n=1):
    return DiagonalPart(lam=np.arange(1, N + 1, dtype=float) ** d, d=d, delta=delta, n=n)


def empty_by_gap_domination(rs, c_lambda, gap_scale, omega_sup=1.0):
    """Emptiness certificate: the lambda-gap dominates any reachable omega . k.

    gap_scale is |i^d - j^d|.  Requires alpha <= (c_lambda/2) gap_scale and
    |k|_1 <= (c_lambda/2) gap_scale / omega_sup; then
    |gap - omega.k| >= c_lambda*gap_scale - |k|_1*omega_sup > alpha on the box.
    """
    k1 = float(np.sum(np.abs(rs.k)))
    return rs.alpha <= 0.5 * c_lambda * gap_scale and omega_sup * k1 <= 0.5 * c_lambda * gap_scale


def pruned_dio2_margins(omegas, gaps, scale, ks, tau, c_lambda, gamma):
    """Per-sample min margin over (pair, k), dense but for a gap-domination prune.

    For omegas in [0,1]^n, a combination with |k|_1 <= c_lambda scale / 2
    and gamma / w(k) <= c_lambda / 2 has |gap + omega.k| >= c_lambda scale / 2,
    so its margin is at least gamma; it is skipped and counts as inf.
    Margins below gamma are therefore the dense ones.  The samples go 500
    rows at a time, so each block's projections stay small.
    """
    k1 = np.sum(np.abs(ks), axis=1)
    weight = 1.0 + k1**tau
    margins = np.full(omegas.shape[0], np.inf)
    for start in range(0, len(omegas), 500):
        proj = omegas[start : start + 500] @ ks.T
        rows = margins[start : start + 500]
        for p in range(len(gaps)):
            use = ~((k1 <= 0.5 * c_lambda * scale[p]) & (gamma / weight <= 0.5 * c_lambda))
            if np.any(use):
                vals = np.abs(gaps[p] + proj[:, use]) * (weight[use] / scale[p])[None, :]
                np.minimum(rows, np.min(vals, axis=1), out=rows)
    return margins


def dio1_margin_oracle(omega, tau, Kmax):
    """Pure-python enumeration of min |omega.k| |k|_1^tau, no shared code."""
    omega = np.atleast_1d(omega)
    n = len(omega)
    best = np.inf
    for k in itertools.product(range(-Kmax, Kmax + 1), repeat=n):
        l1 = sum(abs(x) for x in k)
        if l1 == 0 or l1 > Kmax:
            continue
        val = abs(sum(w * x for w, x in zip(omega, k))) * l1**tau
        best = min(best, val)
    return best


def test_dio1_golden_ratio_passes():
    cert = check_dio1(GOLDEN, gamma=0.1, tau=2.0, Kmax=20)
    assert cert.passed
    oracle = dio1_margin_oracle(np.array([GOLDEN]), 2.0, 20)
    assert abs(cert.min_margin - oracle) < 1e-13
    assert cert.min_margin >= 0.1


def test_dio1_detects_exact_rational_resonance():
    # omega = (1/2, 1/4): k = (1, -2) gives omega.k = 0
    cert = check_dio1(np.array([0.5, 0.25]), gamma=1e-6, tau=2.0, Kmax=4)
    assert not cert.passed
    k = np.array(cert.violating_k)
    assert abs(np.array([0.5, 0.25]) @ k) < 1e-15


def test_dio1_zero_gamma_is_vacuous():
    cert = check_dio1(np.array([0.5, 0.25]), gamma=0.0, tau=2.0, Kmax=4)
    assert cert.passed


def test_dio1_margin_reports_max_passing_gamma():
    cert = check_dio1(GOLDEN, gamma=0.05, tau=1.5, Kmax=12)
    assert check_dio1(GOLDEN, cert.min_margin * 0.999, 1.5, 12).passed
    assert not check_dio1(GOLDEN, cert.min_margin * 1.001, 1.5, 12).passed


def test_dio2_margin_reports_max_passing_gamma():
    # the margin is the exact minimum, k = 0 included, so it is the largest passing gamma
    manifest = RunManifest.load(MANIFESTS / "reference-n1.json")
    base, settings = cli._build_base(manifest), cli._settings(manifest)
    omega = np.asarray(manifest.frequency["omega"])
    args = (settings.tau, settings.horizon())
    cert = check_dio2(omega, base, settings.gamma, *args)
    assert cert.passed
    assert check_dio2(omega, base, cert.min_margin * 0.999, *args).passed
    assert not check_dio2(omega, base, cert.min_margin * 1.001, *args).passed


def test_dio2_oracle_small_case():
    # brute-force enumeration oracle on a small instance
    base = base_power(5)
    omega = np.array([GOLDEN])
    tau = 3.0
    Kmax = 6
    cert = check_dio2(omega, base, gamma=1e-4, tau=tau, Kmax=Kmax, Nmax=5)
    best = np.inf
    lam = base.lam
    for i in range(5):
        for j in range(5):
            if i >= j:
                continue
            g = abs((j + 1) ** base.d - (i + 1) ** base.d)
            for k in range(-Kmax, Kmax + 1):
                val = abs(lam[j] - lam[i] + omega[0] * k) * (1 + abs(k) ** tau) / g
                best = min(best, val)
    assert abs(cert.min_margin - best) < 1e-12
    assert cert.passed == (best >= 1e-4)


def test_dio2_exact_resonance_fails():
    base = base_power(4)
    gap = base.lam[1] - base.lam[0]  # lambda_2 - lambda_1
    omega = np.array([gap / 3.0, 0.9123])  # k = (-3, 0) hits the gap exactly
    cert = check_dio2(omega, base, gamma=1e-8, tau=5.0, Kmax=4, Nmax=4)
    assert not cert.passed
    i, j, k = cert.violating_triple
    lam_gap = base.lam[j - 1] - base.lam[i - 1]
    assert abs(lam_gap + omega @ np.array(k)) < 1e-12


def test_sample_admissible_reproducible_and_certified():
    base = base_power(6, n=2)
    acc1, rej1 = sample_admissible(2, base, gamma=0.05, tau=3.0, Kmax=4, Nmax=6,
                                   num_samples=300, seed=99, keep=5)
    acc2, rej2 = sample_admissible(2, base, gamma=0.05, tau=3.0, Kmax=4, Nmax=6,
                                   num_samples=300, seed=99, keep=5)
    assert rej1 == rej2
    assert all(np.array_equal(a.omega, b.omega) for a, b in zip(acc1, acc2))
    for f in acc1:
        assert isinstance(f, Frequency)
        assert f.dio1.passed and f.dio2.passed


def test_rejection_scales_roughly_linearly_in_gamma():
    base = base_power(8, n=2)
    # only the fractions are read, so no accepted omega is certified (keep=0)
    _, rej_lo = sample_admissible(2, base, gamma=0.05, tau=3.0, Kmax=5, Nmax=8,
                                  num_samples=4000, seed=5, keep=0)
    _, rej_hi = sample_admissible(2, base, gamma=0.10, tau=3.0, Kmax=5, Nmax=8,
                                  num_samples=4000, seed=5, keep=0)
    assert rej_hi > rej_lo
    ratio = rej_hi / rej_lo
    assert 1.5 <= ratio <= 2.5


def test_rejection_monotone_in_horizon():
    base = base_power(10, n=1)
    kwargs = dict(num_samples=2000, seed=17, keep=0)
    _, r_small = sample_admissible(1, base, 0.08, 3.0, Kmax=3, Nmax=4, **kwargs)
    _, r_bigK = sample_admissible(1, base, 0.08, 3.0, Kmax=6, Nmax=4, **kwargs)
    _, r_bigN = sample_admissible(1, base, 0.08, 3.0, Kmax=3, Nmax=10, **kwargs)
    assert r_bigK >= r_small - 1e-12
    assert r_bigN >= r_small - 1e-12


def test_windowed_sampling_matches_the_dense_margins_on_gate_7_inputs():
    # gate 7's rejection table, rebuilt from the pruned dense kernel
    base = abstract_base(12, 2, 4.0 / 3.0, 0.2)
    grid = [0.02 + 0.03 * i for i in range(7)]
    tau, Kmax, N, samples, seed = 9.0, 20, 12, 10**4, 777
    omegas = np.random.default_rng(seed).random((samples, 2))
    _, _, gaps, scale = _pair_table(base, N)
    m1 = np.min(_dio1_values(omegas, half_k_lattice(2, Kmax), tau), axis=1)
    m2 = pruned_dio2_margins(omegas, gaps, scale, full_k_lattice(2, Kmax), tau,
                             base.c_lambda(), max(grid))
    margin = np.minimum(m1, m2)
    dense = [(g, float(np.mean(margin < g))) for g in grid]
    assert rejection_table(2, base, grid, tau, Kmax, N, samples, seed) == dense
    # sample_admissible draws the same stream: its first 1000 omegas
    gamma = max(grid)
    accepted, rejection = sample_admissible(2, base, gamma, tau, Kmax, N, 1000, seed)
    want = omegas[:1000][margin[:1000] >= gamma]
    assert np.array_equal(np.array([f.omega for f in accepted]), want)
    assert rejection == 1.0 - len(want) / 1000


def test_sampled_margins_do_not_depend_on_the_block(monkeypatch):
    # _dio2_window warns that a column subset of omegas @ ks.T may round
    # differently; a row block must not, or the margins would move with it
    from kamreduce import diophantine

    base = abstract_base(12, 3, 4.0 / 3.0, 0.2)
    args = (3, base, 0.1, 9.0, 8, 12, 700, 4)             # 833 k at Kmax 8
    monkeypatch.setattr(diophantine, "_MARGIN_BLOCK", 10**9)
    _, whole = diophantine._sampled_margins(*args)
    for block in (1, 2500, 2**14, 2**18):                 # 1, 3, 19 and 314 rows
        monkeypatch.setattr(diophantine, "_MARGIN_BLOCK", block)
        _, blocked = diophantine._sampled_margins(*args)
        assert blocked.tobytes() == whole.tobytes(), block


@pytest.mark.parametrize("seed", range(4))
def test_raw_divisor_ranking_matches_the_dense_loop(seed):
    # unsorted lambda gives gaps of both signs; a repeated eigenvalue and a
    # projection placed on a gap give exact ties and exact zeros
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    lam = rng.permutation(np.arange(1, 9) ** (4.0 / 3.0)) * rng.uniform(0.05, 0.5)
    lam[5] = lam[2]
    gaps = np.array([lam[j] - lam[i] for i in range(8) for j in range(i + 1, 8)])
    proj = rng.random((60, n)) @ half_k_lattice(n, 4).T
    proj[0, 0] = -gaps[7]
    dense = np.min(np.abs(proj), axis=1)
    for g in gaps:
        dense = np.minimum(dense, np.min(np.abs(g + proj), axis=1))
        dense = np.minimum(dense, np.min(np.abs(g - proj), axis=1))
    assert np.array_equal(_raw_divisor_margins(proj, gaps), dense)
    assert np.array_equal(_raw_divisor_margins(proj, gaps[:0]), np.min(np.abs(proj), axis=1))


def test_k_lattices_match_the_itertools_enumeration():
    for n in (1, 2, 3):
        for K in range(7):
            box = list(itertools.product(range(-K, K + 1), repeat=n))
            full = [k for k in box if sum(abs(x) for x in k) <= K]
            half = [k for k in full if any(k) and next(x for x in k if x) > 0]
            for got, want in ((full_k_lattice(n, K), full), (half_k_lattice(n, K), half)):
                want = np.array(want, dtype=float).reshape(-1, n)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_zero_acceptance_is_signaled():
    base = base_power(4)
    with pytest.raises(ZeroAcceptanceError):
        # gamma far above any attainable margin at Kmax=1: |omega.k| <= 1
        sample_admissible(1, base, gamma=10.0, tau=1.0, Kmax=1, Nmax=4,
                          num_samples=50, seed=1)


def test_measure_bound_constant_gap_interval():
    # 1D slab |c - 2 omega| <= 0.1 with c = 1: omega in [0.45, 0.55], measure 0.1
    rs = ResonanceSet(i=1, j=2, k=(2,), alpha=0.1, gap=1.0)
    bound = resonance_measure_bound(rs)
    assert abs(bound - 0.2) < 1e-15
    est = resonance_measure_estimate(rs, 200000, seed=3)
    assert abs(est - 0.1) < 5e-3
    assert est <= bound


def test_measure_bound_holds_for_random_slabs():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = 1 + trial % 2
        k = tuple(int(x) for x in rng.integers(-4, 5, size=n))
        if sum(abs(x) for x in k) == 0:
            k = (1,) * n
        alpha = float(rng.uniform(0.01, 0.2))
        gap = float(rng.uniform(-2, 2))
        rs = ResonanceSet(i=1, j=2, k=k, alpha=alpha, gap=gap)
        est = resonance_measure_estimate(rs, 40000, seed=100 + trial)
        assert est <= resonance_measure_bound(rs) + 3e-3


def test_measure_bound_with_lipschitz_gap():
    # gap drifts with omega (Lipschitz, small constant): bound still holds
    rs = ResonanceSet(i=1, j=2, k=(3,), alpha=0.05,
                      gap=lambda w: 1.3 + 0.1 * float(w[0]))
    est = resonance_measure_estimate(rs, 100000, seed=8)
    assert est <= resonance_measure_bound(rs) + 2e-3


def test_emptiness_certificate_matches_montecarlo():
    # big lambda-gap, small k: certified empty, and MC finds nothing
    rs = ResonanceSet(i=2, j=9, k=(1,), alpha=0.3, gap=50.0)
    assert empty_by_gap_domination(rs, c_lambda=1.0, gap_scale=50.0)
    assert resonance_measure_estimate(rs, 20000, seed=4) == 0.0


def test_half_lattice_covers_sign_classes():
    ks = half_k_lattice(2, 3)
    as_set = {tuple(int(x) for x in k) for k in ks}
    for k in as_set:
        assert tuple(-x for x in k) not in as_set
    # every nonzero |k|_1 <= 3 vector appears up to sign
    count = sum(1 for k in itertools.product(range(-3, 4), repeat=2)
                if 0 < sum(abs(x) for x in k) <= 3)
    assert 2 * len(as_set) == count
