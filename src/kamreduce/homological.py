"""Homological-equation solvers used by the reduction step.

The step removes the off-diagonal, nonconstant part of a perturbation P of a
diagonal operator A(phi) = diag(lambda_i + mu_i(phi)) by an anti-hermitian
generator B solving

    [A, B] - i Bdot + (P - diag P) = 0 ,      Bdot = (omega . d/dphi) B.

With mu = 0 this is solved coefficient-wise:

    Bhat_ijk = - Phat_ijk / (omega.k + lambda_i - lambda_j),   i != j.

With mu != 0 each entry pair is one scalar equation

    -i (omega . d/dphi) chi + E1 chi + E2 h chi = b

solved exactly by Kuksin's integrating factor: with H the zero-average torus
primitive of h (Hhat_k = hhat_k / (i omega.k)),

    chi = e^{-i E2 H} u,        uhat_k = (e^{i E2 H} b)hat_k / (omega.k + E1).

One kernel solves a stack of pairs on one grid: solve_variable calls it
with all N(N-1)/2 pairs, whatever mu (with mu = 0 the factor is 1 and the
solve is the division above), solve_kuksin with one; solve_constant is the
division alone, for mu = 0.  The kernel runs in one pass over chunks of
pairs of a fixed byte size (_pair_chunks): the live threshold is fixed
from b's norms before any chunk divides, and each chunk is transformed,
divided, transformed back and cut straight into chi's one stack.  A
solve so holds chi and one chunk's scratch, whatever the number of
pairs, and returns B as its pairs, an anti-hermitian torus.PairSeries.

Every solve reports its relative defect as a bound.  One kernel, _defect,
forms the defect exactly in coefficients on the same pair stack, the
product (mu_j - mu_i) chi on an alias-free grid of one chunk of pairs at a
time, and ||W |D|_s||_2, which dominates ||W D(phi)||_2 on
|Im phi| <= s, is divided by the same norm of the right-hand side.  A
solution carries the generator's defect as a Defect: D's majorants at the
widths that are read, the solve's and the conjugation's, summed chunk by
chunk (_defect with widths), so D's whole stack is never held.  Defect.form
forms D (_generator_defect) as a triangle, a torus.HermitianSeries: the
entries D_ji (i < j) come from the kernel a column at a time, the entries
D_ij are their mirror conj(D_ji(-k)), and the diagonal (omega.k) B_ii(k)
is zero, as B_ii is.  The conjugation step asks for it once its a-priori
bound has missed tol.

solve_variable's guards (P's hermiticity, C*, each pair's Kuksin smallness
with theta = (delta/(d-1) + 1)/2, the factor's unimodularity) are advisory:
each is warned once, where it is measured, and returned in guard_messages.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DivisorTooSmall, GuardWarning, KamError
from .torus import (
    CHOP_FLOOR,
    DiagonalPart,
    HermitianSeries,
    OperatorSeries,
    PairSeries,
    TorusSeries,
    _abs_max,
    _box,
    _column,
    _k_dot_omega,
    _live_band,
    _majorant_sum,
    _majorant_sums,
    _square_matrix,
    coeffs_to_grid,
    freeze,
    grid_to_coeffs,
    k_box,
    k_norm1_grid,
    next_fast_len,
    strip_weight,
)

__all__ = [
    "Defect",
    "HomologicalSolution",
    "solve_constant",
    "torus_primitive",
    "solve_kuksin",
    "solve_variable",
]

# fixed solver constants; no caller sets them
FLOOR_SCALE = 1e-12  # divisor floor at k = 0, relaxed polynomially in |k|_1
C_GUARD = 1.0        # Kuksin guard |E1|^theta >= C_GUARD * E2
KUKSIN_THETA = 0.5   # solve_kuksin's guard exponent theta
UNIMOD_TOL = 1e-12   # largest | |e^{i E2 H}| - 1 | of the integrating factor without a guard
CSTAR = 10.0         # C* guard C_mu / C_lambda < CSTAR
OVERSAMPLE = 4       # grid oversampling of a pair solve without an explicit work_K


def _divisor_floor(n: int, K: int) -> np.ndarray:
    """Absolute floor FLOOR_SCALE, relaxed as 1 / (1 + |k|_1^2)."""
    return FLOOR_SCALE / (1.0 + k_norm1_grid(n, K) ** 2.0)


def _first_below(size, floor, live):
    """(index, size) of the first live entry with size = |divisor| < floor, in argwhere order, or None."""
    bad = live & (size < floor)
    if not np.any(bad):
        return None
    idx = tuple(int(x) for x in np.argwhere(bad)[0])
    return idx, float(np.broadcast_to(size, bad.shape)[idx])


def _check_divisors(first, n: int, K: int, what: str, pairs=None) -> None:
    """Raise DivisorTooSmall at first, the (index, |den|) that _first_below found, if any.

    The first n axes of the index are modes (k = index - K).  The rest are
    an (N, N) entry, one pair axis labelled by pairs, or none.
    """
    if first is None:
        return
    idx, value = first
    k = tuple(idx[a] - K for a in range(n))
    i = j = None
    if pairs is not None:
        i, j = (x + 1 for x in pairs[idx[n]])
    elif len(idx) == n + 2:
        i, j = idx[n] + 1, idx[n + 1] + 1
    where = f"k={k}" if i is None else f"(i,j,k)=({i},{j},{k})"
    raise DivisorTooSmall(f"{what} below floor at {where}", i=i, j=j, k=k, value=value)


# bytes of one chunk of a pair stack's per-pair arrays: the pair solve and the
# defect run one chunk of pairs at a time (_pair_chunks)
CHUNK_BYTES = 1 << 18


def _pair_chunks(points: int, pairs: int, wide: int = 1) -> list:
    """Slices of the pair axis, each at most wide CHUNK_BYTES of complex arrays of points per pair.

    An empty stack is one empty chunk.
    A fixed byte size rather than a share of the stack: what a chunk adds
    to the stacks a kernel holds stays the same small constant at every
    size, and a stack that fits one chunk is solved in one piece.
    """
    size = max(1, wide * CHUNK_BYTES // (16 * points))
    return [slice(start, min(start + size, pairs)) for start in range(0, max(pairs, 1), size)]


@dataclass(frozen=True)
class Defect:
    """A solved generator's defect D = [A,B] - i Bdot + (P - diag P), kept as its majorants.

    majorants maps each strip width s the solve measured at to |D|_s, D's
    entrywise majorant (N, N), summed chunk by chunk and equal bit for bit
    to the majorant of D formed whole.  form() forms D as its triangle, a
    HermitianSeries with a zero diagonal (_generator_defect), from B and
    what B was solved against.
    """

    B: PairSeries
    P: HermitianSeries | OperatorSeries
    base: DiagonalPart
    omega: np.ndarray
    majorants: dict = field(repr=False)
    # the grid per axis of the product (mu_j - mu_i) B_ji, 0 where the mu_i coincide
    grid_M: int = 0

    def majorant_matrix(self, s: float) -> np.ndarray:
        """|D|_s at a width the solve kept."""
        return self.majorants[s].copy()

    def form(self) -> HermitianSeries:
        return _generator_defect(self.B, self.P, self.base, self.omega)[0]


@dataclass(frozen=True)
class HomologicalSolution:
    """Generator B with its certification data.

    D is the generator's defect as a Defect: its majorants at the solve's
    width s and at the widths the caller asked for, from which residual is
    measured; D's triangle is formed only by D.form().
    """

    B: PairSeries
    # D = [A,B] - i Bdot + (P - diag P), the generator's defect, as its majorants
    D: Defect
    # ||W |D|_s||_2 / ||W |P_off|_s||_2 for the defect D of the equation, a
    # bound on the relative defect over the strip of the solve's width s
    residual: float
    min_divisor: float
    # each advisory guard the solve met, once, as it was warned
    guard_messages: tuple = ()
    truncation_residue: float = 0.0
    # work counters: pairs solved, and the grid per axis of the pair solve
    # (0 where the solve forms none); D.grid_M is the defect product's
    pairs: int = 0
    grid_M: int = 0
    # bytes of the largest stack a pair solve on a grid holds, chi's (0 if none)
    stack_bytes: int = 0


# the defect's majorants run over chunks this many pair-solve chunks wide:
# fewer, wider chunks cost less per pair than CHUNK_BYTES ones
MAJORANT_CHUNKS = 4


def _defect(chi, gap, mud, rhs, omega, widths=None):
    """D = (gap + mud) chi - i (omega.d) chi - rhs, formed exactly in coefficients.

    chi, rhs and mud are centred coefficient stacks with the pair axis last,
    as _solve_pairs takes them; gap holds one constant per pair and mud (or
    None) multiplies chi pairwise.  D's coefficients are formed, not
    sampled: the product mud chi is taken on an alias-free grid of the
    pairs alone, one chunk of pairs at a time (_pair_chunks), and D keeps
    its whole band.  Returns (D, the product's grid M per axis, 0 without
    mud); with widths, D's whole stack is never held: each chunk's
    majorants at every width are summed from one |D| (torus._majorant_sums),
    over chunks MAJORANT_CHUNKS wide, and (the majorants, one (pairs,) per
    width, M) is returned, each equal bit for bit to the whole stack's.
    """
    n = len(omega)
    K_chi, K_rhs = (chi.shape[0] - 1) // 2, (rhs.shape[0] - 1) // 2
    K_mu = 0 if mud is None else (mud.shape[0] - 1) // 2
    K, K_D = K_chi + K_mu, max(K_chi + K_mu, K_rhs)
    M = 0 if mud is None else next_fast_len(2 * K + 2)
    kdw = _k_dot_omega(n, K_chi, omega)[..., None]
    if widths is None:
        out, wide = np.empty((2 * K_D + 1,) * n + (len(gap),), dtype=complex), 1
    else:
        out, wide = [np.empty(len(gap)) for _ in widths], MAJORANT_CHUNKS
    for c in _pair_chunks(max(M, 2 * K_D + 1) ** n, len(gap), wide):
        D = np.zeros((2 * K_D + 1,) * n + (c.stop - c.start,), dtype=complex)
        if mud is not None:
            # D starts as the product's coefficients; the terms added after
            # them round as they did added to zeros, since addition commutes
            gc = coeffs_to_grid(chi[..., c], n, K_chi, M)
            np.multiply(coeffs_to_grid(mud[..., c], n, K_mu, M), gc, out=gc)
            D[_box(n, K, K_D)] = grid_to_coeffs(gc, n, K)
            del gc
        D[_box(n, K_chi, K_D)] += (kdw + gap[c]) * chi[..., c]
        D[_box(n, K_rhs, K_D)] -= rhs[..., c]
        if widths is None:
            out[..., c] = D
        else:
            for maj, part in zip(out, _majorant_sums(D, n, K_D, widths)):
                maj[c] = part
    return out, M


def _relative_defect(D, rhs_majorant: np.ndarray, s: float, W) -> float:
    """||W |D|_s||_2 / ||W |rhs|_s||_2, a bound on the relative defect on |Im phi| <= s.

    D is anything with majorant_matrix(s); rhs_majorant is |rhs|_s, the
    right-hand side's entrywise majorant at s.
    """
    dn = np.linalg.norm(W[:, None] * D.majorant_matrix(s), 2)
    rn = np.linalg.norm(W[:, None] * rhs_majorant, 2)
    return float(dn) / max(float(rn), 1e-300)


def _off_majorant(P: HermitianSeries | OperatorSeries, s: float) -> np.ndarray:
    """|P - diag P|_s: P's own majorant with its diagonal zeroed, entry for entry the same bits."""
    maj = P.majorant_matrix(s)
    np.fill_diagonal(maj, 0.0)
    return maj


def _defect_terms(base: DiagonalPart) -> tuple:
    """(gap, mud) of a generator's defect on the pair stack, as _defect takes them.

    Entry (j, i) of [A, B] is (a_j - a_i) B_ji: gap = lambda_j - lambda_i,
    mud = mu_j - mu_i (None where the mu_i coincide); the right-hand side is -P_ji.
    """
    ii, jj = np.triu_indices(base.N, 1)
    mud = None
    if base.mu is not None:
        mud = np.moveaxis(base.mu[jj] - base.mu[ii], 0, -1)
        mud = mud if np.any(mud) else None
    return base.lam[jj] - base.lam[ii], mud


def _generator_defect(B: PairSeries, P: HermitianSeries | OperatorSeries, base: DiagonalPart, omega):
    """The defect D = [A,B] - i Bdot + (P - diag P) of a generator, in coefficients.

    D is a HermitianSeries: its entries D_ji, i < j, are formed one column
    of B's pairs at a time (_column, _defect), straight into the triangle,
    never a pair stack beside it; D_ij = conj(D_ji(-k)), as for an
    anti-hermitian B and a hermitian P (solve_variable warns when P is
    not), and the diagonal (omega.k) B_ii(k) is zero, as B_ii is.  Returns
    (D, the grid M per axis of the product (mu_j - mu_i) B_ji, 0 where the
    mu_i coincide).
    """
    n, N, P = B.n, B.N, P.hermitian()
    gap, mud = _defect_terms(base)
    K_D = max(B.K + (0 if mud is None else (mud.shape[0] - 1) // 2), P.K)
    D, M = np.zeros((2 * K_D + 1,) * n + P.coeffs.shape[n:], dtype=complex), 0
    for i in range(N - 1):
        pairs, col = _column(N - 1, i), _column(N, i)
        below = slice(col.start + 1, col.stop)
        D[..., below], M = _defect(B.coeffs[..., pairs], gap[pairs],
                                   None if mud is None else mud[..., pairs],
                                   -P.coeffs[..., below], omega)
    return HermitianSeries(n, K_D, N, freeze(D)), M


def _measured_defect(B: PairSeries, P, b: np.ndarray, base: DiagonalPart, omega, widths) -> Defect:
    """The Defect of B, solved against b = -P's pairs: its majorants at each width, never its stack."""
    majs, M = _defect(B.coeffs, *_defect_terms(base), b, omega, widths)
    return Defect(B, P, base, omega, {s: _square_matrix(m, P.N) for s, m in zip(widths, majs)}, M)


def solve_constant(
    P: HermitianSeries | OperatorSeries,
    base: DiagonalPart,
    omega,
) -> HomologicalSolution:
    """Coefficient-wise solve for constant diagonal part (mu = 0).

    Only P's off-diagonal pairs are divided; B_ij mirrors B_ji.  The
    residual is the defect bound on the real torus (s = 0).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    if base.mu is not None and np.max(np.abs(base.mu)) > 0:
        raise KamError("solve_constant requires mu = 0; use solve_variable")
    n, K, N = P.n, P.K, P.N
    ii, jj = np.triu_indices(N, 1)
    b = -P.pairs()
    den = _k_dot_omega(n, K, omega)[..., None] + (base.lam[jj] - base.lam[ii])
    live = np.abs(b) > 0
    _check_divisors(_first_below(np.abs(den), _divisor_floor(n, K)[..., None], live), n, K,
                    "divisor", list(zip(ii.tolist(), jj.tolist())))
    Bp = np.divide(b, den, out=np.zeros_like(b), where=np.abs(den) > 0)
    B = PairSeries(n, K, N, freeze(Bp))
    D = _measured_defect(B, P, b, base, omega, (0.0,))
    min_div = float(np.min(np.abs(den[live]))) if np.any(live) else np.inf
    return HomologicalSolution(B=B, D=D, min_divisor=min_div,
                               residual=_relative_defect(D, _off_majorant(P, 0.0), 0.0,
                                                         base.weight()))


def torus_primitive(h: TorusSeries, omega) -> TorusSeries:
    """Zero-average primitive H with (omega . d/dphi) H = h (requires hhat_0 = 0)."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    scale = float(np.max(np.abs(h.coeffs))) if h.coeffs.size else 0.0
    if abs(h.average()) > 1e-10 * max(scale, 1e-300):
        raise KamError("torus_primitive requires a zero-average input")
    Hc = _primitive(h.coeffs, h.n, h.K, omega, np.abs(h.coeffs) > 0)
    return TorusSeries(h.n, h.K, Hc)


def _primitive(c, n: int, K: int, omega, live, pairs=None):
    """Coefficients c / (i omega.k) with the k = 0 mode dropped; batch axes trail.

    A live entry whose |omega.k| falls below the floor raises DivisorTooSmall.
    """
    shape = (2 * K + 1,) * n + (1,) * (c.ndim - n)
    kdw = _k_dot_omega(n, K, omega).reshape(shape)
    ctr = (K,) * n
    live[ctr] = False
    _check_divisors(_first_below(np.abs(kdw), _divisor_floor(n, K).reshape(shape), live), n, K,
                    "|omega.k|", pairs)
    H = np.zeros_like(c)
    np.divide(c, 1j * kdw, out=H, where=np.abs(kdw) > 0)
    H[ctr] = 0.0
    return H


def _working_grid(band: int, work_K: int | None = None) -> int:
    """Grid of the pair solve: oversampled, or alias-free up to an explicit work_K."""
    if work_K is not None:
        return next_fast_len(2 * max(work_K, band) + 2)
    return next_fast_len(OVERSAMPLE * (2 * band + 2))


def _solve_pairs(b, mud, E1, omega, M: int, K_out, pairs=None):
    """Integrating-factor solve of -i (omega.d) chi + (E1 + mud) chi = b, pair axis last.

    b and mud (zero average) are centred coefficient stacks with one pair
    per trailing index and E1 holds one constant per pair; all products are
    taken on one grid of M points per axis.  With mud = 0 the factor is 1:
    the solve divides on b's own band and every nonzero coefficient is live.
    K_out caps the band of chi, never pads it; None chops chi at CHOP_FLOOR
    times its largest coefficient and keeps its live band, as P+ and mu
    are cut.  Returns (chi, min_divisor, unimodularity_defect, the l1 mass
    chopped and truncated, summed over the dropped coefficients).

    The stack runs in one pass, one chunk of pairs at a time
    (_pair_chunks): each chunk's factor f = e^{i E2 H} is formed once, b is
    transformed and multiplied by it, its coefficients btil at the grid's
    band (M - 2) // 2 are divided, multiplied by conj(f), transformed back
    and cut, and the cut chunk is written into chi's one stack.  So the
    solve holds chi and one chunk's scratch.  The live threshold is fixed
    from b before any chunk divides: a coefficient of btil is live above
    1e-16 max_p ||b_p||_2 / M^(n/2).  f is unimodular (to UNIMOD_TOL), so
    by Parseval the M^n modes of f b_p have the norm ||b_p||_2, and the
    threshold is at most 1e-16 times the largest of them; where that mode
    lies in btil's band the threshold is at or below 1e-16 max |btil|.
    min_divisor, the factor's unimodularity and the first divisor below its
    floor are taken over all pairs, as a whole-stack solve takes them.
    """
    n = len(omega)
    K_b, K_mu = (b.shape[0] - 1) // 2, (mud.shape[0] - 1) // 2
    variable = bool(np.any(mud))
    if variable:
        K = (M - 2) // 2
        # mud has zero average by construction of mu
        live = np.abs(mud) > 1e-16 * max(float(np.max(np.abs(mud))), 1e-300)
        Hd = _primitive(mud, n, K_mu, omega, live, pairs)
        norm = np.max(np.linalg.norm(b.reshape(-1, b.shape[-1]), axis=0), initial=0.0)
        floor_live = 1e-16 * max(float(norm), 1e-300) / M ** (n / 2)
    else:
        # no variable part: the factor is 1 and the solve is one division
        K = K_b
    chunks = _pair_chunks((M if variable else 2 * K + 1) ** n, b.shape[-1])
    kdw = _k_dot_omega(n, K, omega)[..., None]
    floor = _divisor_floor(n, K)[..., None]
    K_cut = K if K_out is None else min(K_out, K)
    dropped = np.max(np.abs(k_box(n, K)), axis=1).reshape((2 * K + 1,) * n) > K_cut
    chi = np.empty((2 * K_cut + 1,) * n + b.shape[n:], dtype=complex)
    first, min_div, unimod, trunc = None, np.inf, 0.0, 0.0
    for c in chunks:
        if variable:
            # each product writes into its second operand: np.multiply(a, b, out=b)
            # rounds as np.multiply(a, b) does (only swapping the operands moves bits)
            f = coeffs_to_grid(Hd[..., c], n, K_mu, M)
            np.multiply(f, 1j, out=f)
            np.exp(f, out=f)
            unimod = max(unimod, float(np.max(np.abs(np.abs(f) - 1.0))))
            gb = coeffs_to_grid(b[..., c], n, K_b, M)
            np.multiply(f, gb, out=gb)
            uc = grid_to_coeffs(gb, n, K)
            del gb
            live = np.abs(uc) > floor_live
        else:
            # divided where it lies, so b's own chunk is copied
            uc = np.array(b[..., c])
            live = uc != 0
        den = kdw + E1[c]
        size = np.abs(den)
        found = _first_below(size, floor, live)
        if found is not None and (first is None or found[0][:n] < first[0][:n]):
            idx, value = found
            first = idx[:n] + (idx[n] + c.start,), value
        if first is not None:
            # no chi is returned; the rest of the stack is only searched
            continue
        if np.any(live):
            min_div = min(min_div, float(np.min(size[live])))
        # divided in place, zero where not live
        live &= size > 0
        np.divide(uc, den, out=uc, where=live)
        uc[~live] = 0.0
        del den, size, live
        if variable:
            gu = coeffs_to_grid(uc, n, K, M)
            del uc
            np.multiply(np.conj(f, out=f), gu, out=gu)
            del f
            uc = grid_to_coeffs(gu, n, K)
            del gu
        if K_out is not None:
            trunc += float(np.sum(np.abs(uc[dropped])))
        chi[..., c] = uc[_box(n, K_cut, K)]
        del uc
    _check_divisors(first, n, K, "|omega.k + E1|", pairs)
    if K_out is None:
        # P+'s band rule at chi's own scale: chop, then drop the all-zero
        # outer shells (an absolute floor would keep a unit-size chi's roundoff)
        small = np.abs(chi) < CHOP_FLOOR * float(np.max(np.abs(chi), initial=0.0))
        trunc = float(np.sum(np.abs(chi[small])))
        chi[small] = 0.0
        chi = chi[_box(n, _live_band(chi, n, K), K)]
    return chi, min_div, unimod, trunc


def _guard(messages: list, msg: str) -> None:
    """Record an advisory guard finding and warn it: once each, where it is measured."""
    messages.append(msg)
    warnings.warn(msg, GuardWarning)


def solve_kuksin(
    b: TorusSeries,
    h: TorusSeries | None,
    E1: float,
    E2: float,
    omega,
    K_out: int | None = None,
    with_info: bool = False,
):
    """Solve -i (omega.d/dphi) chi + E1 chi + E2 h chi = b by integrating factor.

    The one-pair call of the kernel solve_variable runs.  h should be
    normalized (||h||_s <= 1) and of zero average; E2 >= 0 carries the size.
    The smallness guard |E1|^KUKSIN_THETA >= C_GUARD E2 is advisory: a
    violation emits a GuardWarning, never a silent pass, as does a factor
    that is not unimodular.  Returns chi, or (chi, info) with info =
    {residual, min_divisor, unimodularity_defect, guard_messages, K_out};
    residual is the relative defect bound on the real torus.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n = b.n
    if E2 < 0:
        raise KamError("E2 must be nonnegative")
    messages = []
    if E2 > 0 and abs(E1) ** KUKSIN_THETA < C_GUARD * E2:
        _guard(messages, f"kuksin guard |E1|^theta >= C*E2 violated: "
                         f"|{E1}|^{KUKSIN_THETA} < {C_GUARD}*{E2}")
    if h is None or E2 == 0.0:
        mud = np.zeros((1,) * n + (1,), dtype=complex)
    else:
        if abs(h.average()) > 1e-10 * max(float(np.max(np.abs(h.coeffs))), 1e-300):
            raise KamError("solve_kuksin requires a zero-average h")
        mud = E2 * h.coeffs[..., None]
    M = _working_grid(b.K + (mud.shape[0] - 1) // 2)
    chic, min_div, unimod, _ = _solve_pairs(b.coeffs[..., None], mud, np.array([float(E1)]),
                                            omega, M, K_out)
    if unimod > UNIMOD_TOL:
        _guard(messages, f"integrating factor unimodularity defect {unimod:.2e}")
    chi = TorusSeries(n, (chic.shape[0] - 1) // 2, chic[..., 0])
    if not with_info:
        return chi
    D, _ = _defect(chic, np.array([float(E1)]), mud, b.coeffs[..., None], omega)
    residual = _relative_defect(OperatorSeries(n, (D.shape[0] - 1) // 2, 1, D[..., None]),
                                _majorant_sum(b.coeffs[..., None, None], n, b.K, 0.0), 0.0,
                                np.ones(1))
    return chi, {"residual": residual, "min_divisor": min_div, "unimodularity_defect": unimod,
                 "guard_messages": tuple(messages), "K_out": chi.K}


def solve_variable(
    P: HermitianSeries | OperatorSeries,
    base: DiagonalPart,
    omega,
    s: float = 0.0,
    K_out: int | None = None,
    work_K: int | None = None,
    widths: tuple = (),
) -> HomologicalSolution:
    """Remove the off-diagonal part of P against A = diag(lambda_i + mu_i(phi)).

    Pairs are arranged with E1 = lambda_j - lambda_i > 0 (i < j): the (j, i)
    entry is solved by the scalar integrating-factor equation with
    b = -P_ji, E2 h = mu_j - mu_i; the PairSeries B holds the (i, j) entry as
    its mirror Bhat_ij(k) = -conj(Bhat_ji(-k)).  With mu = 0 each pair is one
    division on P's band.  Returns the generator together with the relative
    equation defect, bounded at strip width s, and its guard findings.  The
    defect D is kept as its majorants at s and at each of widths, the
    widths its caller will read (the conjugation's), never as its stack.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    n, N = P.n, P.N
    if base.N != N:
        raise KamError("dimension mismatch between P and base")
    messages = []
    if P.hermiticity_defect() > 1e-11 * max(1.0, _abs_max(P.coeffs)):
        _guard(messages, "P is not hermitian to 1e-11; generator mirror uses P as given")
    c_mu = base.c_mu(s)
    c_lam = base.c_lambda()
    if c_mu / c_lam >= CSTAR:
        _guard(messages, f"C* guard violated: C_mu/C_lambda = {c_mu / c_lam:.3g} >= {CSTAR}")

    # pair p is (i, j) = (ii[p], jj[p]) with i < j; B_ji is solved, B_ij mirrors it
    ii, jj = np.triu_indices(N, 1)
    pairs = list(zip(ii.tolist(), jj.tolist()))
    # stacked scalar data, pair axis last: mud (modes..., pairs), zero without mu
    E1, mud = _defect_terms(base)
    mud = np.zeros((1,) * n + E1.shape) if mud is None else mud
    w_s = strip_weight(n, (mud.shape[0] - 1) // 2, s).reshape(-1)
    E2 = w_s @ np.abs(mud).reshape(len(w_s), len(pairs))
    theta = (base.delta / (base.d - 1.0) + 1.0) / 2.0
    for p, (i, j) in enumerate(pairs):
        if E2[p] > 0 and E1[p] ** theta < C_GUARD * E2[p]:
            _guard(messages, f"kuksin guard failed for pair ({i + 1},{j + 1}): "
                             f"E1^theta={E1[p] ** theta:.3g} < C*E2={C_GUARD * E2[p]:.3g}")

    M = _working_grid(P.K + base.K, work_K)
    b = -P.pairs()                  # gathered once, for the solve and its defect
    chic, min_div, unimod, trunc = _solve_pairs(b, mud, E1, omega, M, K_out, pairs)
    if unimod > UNIMOD_TOL:
        _guard(messages, f"integrating factor unimodularity defect {unimod:.2e}")
    # chi's one stack, which chic is or views when its band was cut (_solve_pairs)
    held = (chic if chic.base is None else chic.base).nbytes
    B = PairSeries(n, (chic.shape[0] - 1) // 2, N, freeze(chic))
    D = _measured_defect(B, P, b, base, omega, (s,) + tuple(widths))
    variable = bool(np.any(mud))
    return HomologicalSolution(B=B, D=D, min_divisor=min_div,
                               residual=_relative_defect(D, _off_majorant(P, s), s,
                                                         base.weight()),
                               guard_messages=tuple(messages), truncation_residue=trunc,
                               pairs=len(pairs), grid_M=M if variable else 0,
                               stack_bytes=held if variable else 0)
