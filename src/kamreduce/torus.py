"""Truncated Fourier series on the n-torus and the norms used by the reduction.

Scalar series f(phi) = sum_{|k|_inf <= K} fhat_k e^{i k.phi} are stored as a
complex array of shape (2K+1,)*n with axis index t <-> k = t - K.  Matrix
valued series carry two trailing axes (N, N), a PairSeries (the
anti-hermitian generator) one axis of the entries below the diagonal and
a HermitianSeries (every hermitian series) one of its triangle, the
entries on and below it.  All four share one implementation, _Series,
which differs between them only by those trailing axes: padding and
truncation by _box, scaling, majorants, grid sampling, evaluation at a
batch of angles (at, by direct mode summation) and one alias-free grid
product (product, entrywise).  lie_commutator commutes a hermitian
level's triangle with a PairSeries from their halves and returns a
triangle.  All transforms are plain FFTs on equispaced grids; products
are computed on grids large enough to be exact for the sum of the input
bandwidths and keep that whole band.
The transforms are numpy.fft's, one axis at a time in place, and the grid
sizes come from next_fast_len here.  _mirror is the one k -> -k mirror.

Norm conventions, each an upper bound at every strip width s >= 0:

* ``sup_norm_s``: weighted-l1 coefficient bound  sum_k |fhat_k| e^{s|k|_1},
  an upper bound for the sup of |f| on the complex strip of width s (at
  s = 0, on the real torus).
* ``delta_norm``: ||W P|| with W = diag(lambda_i^(-delta/d)), the spectral
  norm ||W |P|_s||_2 of the entrywise majorant |P|_s = sum_k |Phat_k|
  e^{s|k|_1}, an upper bound on the strip |Im phi| <= s (the spectral norm
  is monotone in entrywise moduli).  No grid is formed and no SVD is run.
* ``g_norm``: max of the unweighted and W-conjugated norms, same majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AliasingError, KamError

__all__ = [
    "TorusSeries",
    "OperatorSeries",
    "PairSeries",
    "HermitianSeries",
    "DiagonalPart",
    "directional_derivative",
    "sup_norm_s",
    "delta_norm",
    "freeze",
    "g_norm",
    "k_box",
    "k_norm1_grid",
    "lie_commutator",
    "strip_weight",
]


# ---------------------------------------------------------------------------
# mode bookkeeping helpers


def k_box(n: int, K: int) -> np.ndarray:
    """All integer vectors with |k|_inf <= K, shape ((2K+1)**n, n)."""
    axes = [np.arange(-K, K + 1)] * n
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def _axis_sum(rows) -> np.ndarray:
    """sum_a rows[a][t_a] over the mode box, one row of 2K+1 values per axis."""
    n = len(rows)
    out = np.zeros((len(rows[0]),) * n)
    for a, row in enumerate(rows):
        out = out + row.reshape([-1 if i == a else 1 for i in range(n)])
    return out


def k_norm1_grid(n: int, K: int) -> np.ndarray:
    """|k|_1 over the mode box, shaped like a coefficient array."""
    return _axis_sum([np.abs(np.arange(-K, K + 1))] * n)


def strip_weight(n: int, K: int, s: float) -> np.ndarray:
    """e^{s |k|_1} over the mode box, shaped like a coefficient array."""
    return np.exp(s * k_norm1_grid(n, K))


def _majorant_sums(coeffs: np.ndarray, n: int, K: int, widths) -> list:
    """sum_k |c_k| e^{s|k|_1} over the n leading mode axes of coeffs, one per width s.

    One summation order for every majorant.  Modes k and -k are added
    first, which is exact to swap since e^{s|k|_1} is even, so a block and
    its mirror conj(c(-k)) give the same bits.  The folded terms are then
    accumulated in mode order, k = 0 last, one running sum per entry, the
    same for every entry whatever the trailing axes, so a majorant summed
    over a slice of the trailing axes is that slice of the whole one.  |c|
    is formed once for all widths, for one pair of slabs of the first mode
    axis, t and 2K - t, at a time.  Each majorant has shape coeffs.shape[n:].
    """
    slab = ((2 * K + 1) ** (n - 1), math.prod(coeffs.shape[n:]))
    ws = [strip_weight(n, K, s).reshape(2 * K + 1, slab[0], 1) for s in widths]
    accs = [None] * len(ws)
    for t in range(K + 1):
        low = np.abs(coeffs[t]).reshape(slab)
        high = np.abs(coeffs[2 * K - t]).reshape(slab) if t < K else None
        for i, w in enumerate(ws):
            terms = low * w[t]
            if t < K:
                mirror = high * w[2 * K - t]
                terms += mirror[::-1]
                del mirror
                rows = len(terms)
            else:
                # the middle slab folds onto itself around k = 0, which comes last
                rows = len(terms) // 2
                terms[:rows] += terms[:rows:-1]
                rows += 1
            if accs[i] is not None:
                terms[0] += accs[i]
            np.cumsum(terms[:rows], axis=0, out=terms[:rows])
            accs[i] = terms[rows - 1].copy()
    return [acc.reshape(coeffs.shape[n:]) for acc in accs]


def _majorant_sum(coeffs: np.ndarray, n: int, K: int, s: float) -> np.ndarray:
    """_majorant_sums at the one width s."""
    return _majorant_sums(coeffs, n, K, (s,))[0]


def next_fast_len(target: int) -> int:
    """The least 11-smooth integer >= target, a fast pocketfft length (scipy.fft.next_fast_len's rule)."""
    m = max(int(target), 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _k_dot_omega(n: int, K: int, omega: np.ndarray) -> np.ndarray:
    """omega . k over the mode box, shaped like a coefficient array."""
    rng = np.arange(-K, K + 1)
    return _axis_sum([omega[a] * rng for a in range(n)])


def _box(n: int, K: int, K_big: int) -> tuple:
    """Index of the |k|_inf <= K block inside a centred block of band K_big."""
    return tuple(slice(K_big - K, K_big + K + 1) for _ in range(n))


def _mirror(coeffs: np.ndarray, n: int) -> np.ndarray:
    """conj(chat(-k)): the coefficients of conj(f(phi)) on the real torus.

    The first n axes are modes.  Two trailing axes are an operator's (N, N)
    and are transposed, giving the adjoint; one trailing axis is a stack of
    scalar series.
    """
    out = np.conj(coeffs[(slice(None, None, -1),) * n])
    return out.swapaxes(-1, -2) if coeffs.ndim == n + 2 else out


def _square_matrix(held: np.ndarray, N: int, sign: int = 1) -> np.ndarray:
    """(..., N, N): values held (..., m) at (j, i), sign * conj(held) at (i, j), i < j.

    held is a triangle, m = N(N+1)/2 entries in np.triu_indices(N)'s order,
    or m = N(N-1)/2 pairs in np.triu_indices(N, 1)'s, with a zero diagonal.
    """
    ii, jj = np.triu_indices(N, int(held.shape[-1] < N * (N + 1) // 2))
    upper = np.conj(held)
    out = np.zeros(held.shape[:-1] + (N, N), dtype=held.dtype)
    out[..., ii, jj] = upper if sign > 0 else np.negative(upper, out=upper)
    out[..., jj, ii] = held
    return out


def _on_diagonal(N: int) -> np.ndarray:
    """A boolean mask of a triangle's N(N+1)/2 entries (j, i), i <= j: true on the diagonal."""
    return np.equal(*np.triu_indices(N))


def _column(N: int, i: int) -> slice:
    """Column i of a triangle, its entries (j, i), j >= i: one run of np.triu_indices(N)'s order.

    A PairSeries' pairs are the triangle of an N - 1 matrix in this sense:
    their column i, the entries (j, i), j > i, is _column(N - 1, i).
    """
    at = i * N - i * (i - 1) // 2
    return slice(at, at + N - i)


def _centered_to_fft(coeffs: np.ndarray, n: int, K: int, M: int) -> np.ndarray:
    """Embed a centered coefficient block into an M-per-axis FFT layout."""
    if M < 2 * K + 1:
        raise AliasingError(f"grid {M} cannot hold modes up to K={K}")
    idx = (np.arange(-K, K + 1)) % M
    out = np.zeros((M,) * n + coeffs.shape[n:], dtype=complex)
    out[np.ix_(*([idx] * n))] = coeffs
    return out


def _fft_to_centered(table: np.ndarray, n: int, K: int) -> np.ndarray:
    M = table.shape[0]
    if M < 2 * K + 1:
        raise AliasingError(f"grid {M} cannot resolve modes up to K={K}")
    idx = (np.arange(-K, K + 1)) % M
    return table[np.ix_(*([idx] * n))]


def coeffs_to_grid(coeffs: np.ndarray, n: int, K: int, M: int) -> np.ndarray:
    """Evaluate a coefficient block on the equispaced M**n grid (zero-padded FFT).

    The first n axes are modes; any trailing axes are batch axes.  One axis
    at a time, in place; bit for bit scipy.fft.ifftn(..., norm="forward").
    """
    table = _centered_to_fft(coeffs, n, K, M)
    for a in range(n):
        np.fft.ifft(table, axis=a, norm="forward", out=table)
    return table


def grid_to_coeffs(values: np.ndarray, n: int, K: int) -> np.ndarray:
    """Centered coefficients |k|_inf <= K from grid samples (alias-folding beyond M/2).

    The first n axes are grid axes; any trailing axes are batch axes.  One
    axis at a time, in place; bit for bit scipy.fft.fftn(..., norm="forward")
    of the values as complex (scipy's real-input path rounds otherwise).
    The transform consumes values: a writeable C-contiguous complex array
    is transformed where it lies, so its contents are lost; any other input
    is transformed in a complex copy.
    """
    M = values.shape[0]
    if M < 2 * K + 2:
        raise AliasingError(f"grid size {M} < 2K+2 = {2 * K + 2}")
    table = values
    if not (values.dtype == complex and values.flags.c_contiguous and values.flags.writeable):
        table = np.array(values, dtype=complex)
    np.fft.fft(table, axis=0, out=table)
    # scaled once, after the first axis, real and imaginary parts alike: the
    # n-d call's rounding, signed zeros included
    parts = table.view(float)
    parts *= 1.0 / M**n
    for a in range(1, n):
        np.fft.fft(table, axis=a, out=table)
    return _fft_to_centered(table, n, K)


# noise floor: a KAM step chops P+ and mu at it, a free chi at it times its scale
CHOP_FLOOR = 1e-15


def chop(coeffs: np.ndarray, floor: float) -> np.ndarray:
    """Zero out coefficients below an absolute floor (noise control)."""
    out = coeffs.copy()
    out[np.abs(out) < floor] = 0.0
    return out


def _commute(x: np.ndarray, y: np.ndarray, xy: np.ndarray, yx: np.ndarray) -> np.ndarray:
    """x @ y - y @ x over the leading axes, written into x by way of the scratch xy and yx.

    Returns x; y is left as it was.
    """
    np.matmul(x, y, out=xy)
    np.matmul(y, x, out=yx)
    return np.subtract(xy, yx, out=x)


def _abs_max(coeffs: np.ndarray) -> float:
    """max |c| over a coefficient block, one slab of the first axis at a time (0 if empty)."""
    return max((float(np.max(np.abs(slab), initial=0.0)) for slab in coeffs), default=0.0)


def freeze(arr: np.ndarray) -> np.ndarray:
    """arr as a read-only view that a series keeps without copying.

    The caller hands arr over, and arr must be the whole of the memory it
    lives in, as np.load returns it.  Its owner is made read-only too, and
    numpy refuses to make a view of a read-only owner writeable.
    """
    view = arr.view()
    for a in (view.base, view):
        a.flags.writeable = False
    return view


def _frozen(c: np.ndarray) -> bool:
    """c is what freeze returns: a read-only view of a read-only owner of its size.

    The size check keeps a series from holding a larger buffer alive.  An
    array that owns its memory is not frozen: whoever passed it can make it
    writeable again.
    """
    owner = c.base
    return (isinstance(owner, np.ndarray) and not (c.flags.writeable or owner.flags.writeable)
            and owner.nbytes == c.nbytes)


def _values_at(phis: np.ndarray, n: int, K: int, slabs, tail: tuple) -> np.ndarray:
    """sum_k c_k e^{ik.phi} at a batch of angles phis (T, n), shape (T,) + tail.

    slabs yields the 2K+1 slabs of the first mode axis in order, each of
    shape (2K+1,)*(n-1) + tail, and each is used before the next is asked
    for: a coefficient array, or a file read into one buffer.  Summed one
    slab at a time, so the phase table e^{ik.phi} holds the (2K+1)^(n-1)
    modes of one slab, never all (2K+1)^n.
    """
    ks = k_box(n, K).reshape(2 * K + 1, -1, n)
    values = np.zeros((len(phis), math.prod(tail)), dtype=complex)
    term = np.empty_like(values)
    for k, c in zip(ks, slabs, strict=True):
        values += np.matmul(np.exp(1j * (phis @ k.T)), c.reshape(len(k), -1), out=term)
    return values.reshape((len(phis),) + tail)


def _live_band(coeffs: np.ndarray, n: int, K: int) -> int:
    """Largest |k|_inf that carries a nonzero coefficient (0 if none); modes lead."""
    live = np.argwhere(np.any(coeffs != 0, axis=tuple(range(n, coeffs.ndim))))
    return int(np.max(np.abs(live - K))) if len(live) else 0


# ---------------------------------------------------------------------------
# series containers


class _Series:
    """The one implementation behind the four series types.

    Subclasses are frozen dataclasses with fields n, K and coeffs.  _tail is
    the shape of the trailing axes held, () or (N, N) or one axis of pairs
    or of a triangle, which _square fills into the series' values.
    Operations hand their fresh arrays over with freeze, so a series keeps
    them without a copy; a view, as truncate makes, is copied.
    """

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        want = (2 * self.K + 1,) * self.n + self._tail
        if c.shape != want:
            raise KamError(f"coefficient shape {c.shape} != {want}")
        if not _frozen(c):
            c = c.copy()
            c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def _like(self, K: int, coeffs: np.ndarray):
        """A series of the same kind with cutoff K and the given coefficients."""
        return replace(self, K=K, coeffs=coeffs)

    def _square(self, values: np.ndarray) -> np.ndarray:
        return values

    def grid(self, M: int) -> np.ndarray:
        return self._square(coeffs_to_grid(self.coeffs, self.n, self.K, M))

    def at(self, phis: np.ndarray) -> np.ndarray:
        """Values at a batch of angles phis (T, n): _square of the held entries' sums (_values_at)."""
        return self._square(_values_at(phis, self.n, self.K, self.coeffs, self._tail))

    def pad_to(self, K: int):
        if K < self.K:
            raise KamError("pad_to cannot shrink the cutoff")
        if K == self.K:
            return self
        c = np.zeros((2 * K + 1,) * self.n + self._tail, dtype=complex)
        c[_box(self.n, self.K, K)] = self.coeffs
        return self._like(K, freeze(c))

    def truncate(self, K: int):
        if K >= self.K:
            return self.pad_to(K)
        return self._like(K, self.coeffs[_box(self.n, K, self.K)])

    def trim(self):
        """Drop the all-zero outer |k|_inf shells; every coefficient is kept.

        The result's cutoff is the live band (_live_band).
        """
        return self.truncate(_live_band(self.coeffs, self.n, self.K))

    def __mul__(self, scalar: complex):
        return self._like(self.K, freeze(self.coeffs * scalar))

    __rmul__ = __mul__

    def product(self, other):
        """Exact entrywise grid product, at band self.K + other.K.

        The product is written into self's grid, which the transform then
        consumes: two grids are alive at a time, never three.
        """
        K = self.K + other.K
        M = next_fast_len(2 * K + 2)
        values, other_values = self.grid(M), other.grid(M)
        np.multiply(values, other_values, out=values)
        del other_values
        coeffs = grid_to_coeffs(values, self.n, K)
        del values
        return self._like(K, freeze(coeffs))

    def majorant_matrix(self, s: float) -> np.ndarray:
        """Entrywise sum_k |c_k| e^{s|k|_1} of the values; dominates each |value| on the strip."""
        # the held entries' majorant, filled in: _square's signs and conjugates keep the moduli
        return np.abs(self._square(_majorant_sum(self.coeffs, self.n, self.K, s)))

    def mirror_defect(self) -> float:
        """Max |c - _mirror(c)|: zero iff real (scalar) or hermitian (operator) on the torus."""
        return float(np.max(np.abs(self.coeffs - _mirror(self.coeffs, self.n))))


@dataclass(frozen=True)
class TorusSeries(_Series):
    """Scalar truncated Fourier series on the n-torus."""

    n: int
    K: int
    coeffs: np.ndarray = field(repr=False)

    _tail = ()

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_modes(n: int, K: int, modes: dict) -> "TorusSeries":
        """Build from a {k-tuple: coefficient} mapping."""
        c = np.zeros((2 * K + 1,) * n, dtype=complex)
        for k, v in modes.items():
            k = (k,) if np.isscalar(k) else tuple(k)
            if len(k) != n or max(abs(x) for x in k) > K:
                raise KamError(f"mode {k} outside box K={K}")
            c[tuple(x + K for x in k)] = v
        return TorusSeries(n, K, c)

    # -- structure ------------------------------------------------------------

    def average(self) -> complex:
        return complex(self.coeffs[(self.K,) * self.n])

    def zero_average(self) -> "TorusSeries":
        c = self.coeffs.copy()
        c[(self.K,) * self.n] = 0.0
        return TorusSeries(self.n, self.K, c)


@dataclass(frozen=True)
class _Matrix(_Series):
    """The fields of the N x N series types, whichever of the entries coeffs holds (_tail)."""

    n: int
    K: int
    N: int
    coeffs: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class OperatorSeries(_Matrix):
    """Matrix-valued truncated Fourier series; trailing axes are (N, N)."""

    @property
    def _tail(self) -> tuple:
        return (self.N, self.N)

    @staticmethod
    def zero(n: int, K: int, N: int) -> "OperatorSeries":
        return OperatorSeries(n, K, N, np.zeros((2 * K + 1,) * n + (N, N), dtype=complex))

    # -- structure -----------------------------------------------------------

    # max coefficient defect of Phat(-k) = Phat(k)^H
    hermiticity_defect = _Series.mirror_defect

    def pairs(self) -> np.ndarray:
        """The entries below the diagonal, in PairSeries' order: the trailing axis the pairs."""
        ii, jj = np.triu_indices(self.N, 1)
        return self.coeffs[..., jj, ii]

    def hermitian(self) -> "HermitianSeries":
        """The entries (j, i), i <= j, as a HermitianSeries: the series if it is hermitian."""
        ii, jj = np.triu_indices(self.N)
        return HermitianSeries(self.n, self.K, self.N, freeze(self.coeffs[..., jj, ii]))


@dataclass(frozen=True)
class PairSeries(_Matrix):
    """An anti-hermitian N x N series, a generator B, held as its entries below the diagonal.

    coeffs' trailing axis holds the entries c_ji, i < j, in _square_matrix's
    order.  Entry (i, j) is -conj(c_ji(-k)) and the diagonal is zero, so the
    series and its values (at, grid) are exactly anti-hermitian on the real torus.
    """

    @property
    def _tail(self) -> tuple:
        return (self.N * (self.N - 1) // 2,)

    def _square(self, values: np.ndarray) -> np.ndarray:
        return _square_matrix(values, self.N, -1)


@dataclass(frozen=True)
class HermitianSeries(_Matrix):
    """A hermitian N x N series held as its triangle; trailing axis the entries (j, i), i <= j.

    coeffs holds column i's entries c_ji, j >= i, as one run (_column);
    entry (i, j), i < j, is conj(c_ji(-k)), so the diagonal is the one place
    a hermiticity defect can remain.  P, the generator's defect D (its
    diagonal zero), P+ and, as bare triangles, the Lie-series levels use it.
    """

    @property
    def _tail(self) -> tuple:
        return (self.N * (self.N + 1) // 2,)

    def hermitian(self) -> "HermitianSeries":
        """The series itself, as OperatorSeries.hermitian gathers a dense one."""
        return self

    def diagonal(self) -> np.ndarray:
        """The diagonal entries c_ii: modes lead, the trailing axis is i."""
        return self.coeffs[..., _on_diagonal(self.N)]

    def pairs(self) -> np.ndarray:
        """The entries below the diagonal, in PairSeries' order: the trailing axis the pairs."""
        return self.coeffs[..., ~_on_diagonal(self.N)]

    def hermiticity_defect(self) -> float:
        """max |c_ii - conj(c_ii(-k))|: the diagonal is the one place a defect can remain."""
        diagonal = self.diagonal()
        return float(np.max(np.abs(diagonal - _mirror(diagonal, self.n)), initial=0.0))

    def _square(self, values: np.ndarray) -> np.ndarray:
        return _square_matrix(values, self.N)


# bytes of one slab of N x N values that lie_commutator fills and commutes at a time
SLAB_BYTES = 1 << 18


def lie_commutator(S: np.ndarray, K_S: int, B: PairSeries, K: int) -> tuple:
    """(c, M): the triangle c, at band K, of S B - B S for hermitian S and anti-hermitian B.

    S and c are triangles of band K_S and K: the entries (j, i), i <= j, of
    a hermitian series in np.triu_indices order, column by column
    (_column), with modes leading.  The commutator is hermitian, so it is
    formed from halves on the alias-free grid of M points per axis for band
    K_S + B.K <= K: S's triangle and B's pairs are transformed there,
    together one N x N grid.  Their N x N values, the upper halves
    conj(S_ji) and -conj(B_ji), are filled in one slice per column and
    commuted one slab of SLAB_BYTES of grid points at a time, in four N x N
    buffers of the slab; each slab's triangle overwrites S's values there.
    Only that triangle is transformed back.  c is writeable and zero
    outside band K_S + B.K, so a caller can add to it in place.
    """
    n, N = B.n, B.N
    K_SB = K_S + B.K
    M = next_fast_len(2 * K_SB + 2)
    values = coeffs_to_grid(S, n, K_S, M)
    flat = values.reshape(-1, S.shape[-1])
    pairs = coeffs_to_grid(B.coeffs, n, B.K, M).reshape(len(flat), -1)
    # U holds S's column i and V B's column i as row i of the upper half,
    # each written as one slice; X and Y are their values, conj(U) and
    # -conj(V) above the diagonal and their transposes on and below it, with
    # Y's diagonal zero.  U and V then take the commutator's two products
    size = max(1, SLAB_BYTES // (16 * N * N))
    U, V, X, Y = (np.zeros((size, N, N), dtype=complex) for _ in range(4))
    lower = np.tri(N, dtype=bool)
    for start in range(0, len(flat), size):
        v, b = flat[start : start + size], pairs[start : start + size]
        Us, Vs, Xs, Ys = U[: len(v)], V[: len(v)], X[: len(v)], Y[: len(v)]
        for i in range(N):
            Us[:, i, i:] = v[:, _column(N, i)]
            Vs[:, i, i + 1 :] = b[:, _column(N - 1, i)]
        Vs.reshape(len(v), -1)[:, :: N + 1] = 0.0
        np.conj(Us, out=Xs)
        np.copyto(Xs, Us.swapaxes(1, 2), where=lower)
        np.conj(Vs, out=Ys)
        np.negative(Ys, out=Ys)
        np.copyto(Ys, Vs.swapaxes(1, 2), where=lower)
        _commute(Xs, Ys, Us, Vs)
        for i in range(N):
            v[:, _column(N, i)] = Xs[:, i:, i]
    del v, b, Us, Vs, Xs, Ys, U, V, X, Y, pairs, flat
    coeffs = grid_to_coeffs(values, n, K_SB)
    del values
    c = np.zeros((2 * K + 1,) * n + S.shape[n:], dtype=complex)
    c[_box(n, K_SB, K)] = coeffs
    return c, M


@dataclass(frozen=True)
class DiagonalPart:
    """Diagonal operator lambda_i + mu_i(phi) with growth exponent d.

    lambda_i must be positive and strictly increasing; each mu_i is a
    real-on-real-torus, zero-average scalar series (mu None means zero).
    delta is the off-diagonal growth budget carried along for the weighted
    norms; requires 0 <= delta < d - 1.
    """

    lam: np.ndarray
    d: float
    delta: float
    n: int
    mu: np.ndarray | None = field(default=None, repr=False)  # (N, modes...) or None
    K: int = 0

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).copy()
        if np.any(lam <= 0):
            raise KamError("lambda_i must be positive")
        if np.any(np.diff(lam) <= 0):
            raise KamError("lambda_i must be strictly increasing")
        if not (self.d > 1.0):
            raise KamError("growth exponent d must exceed 1")
        if not (0.0 <= self.delta < self.d - 1.0):
            raise KamError("delta must lie in [0, d-1)")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)
        if self.mu is not None:
            mu = np.asarray(self.mu, dtype=complex)
            want = (self.N,) + (2 * self.K + 1,) * self.n
            if mu.shape != want:
                raise KamError(f"mu shape {mu.shape} != {want}")
            ctr = (slice(None),) + (self.K,) * self.n
            if np.max(np.abs(mu[ctr])) > 1e-10 * max(1.0, np.max(np.abs(mu))):
                raise KamError("mu_i must have zero average")
            mu = mu.copy()
            mu[ctr] = 0.0
            mu.flags.writeable = False
            object.__setattr__(self, "mu", mu)

    @property
    def N(self) -> int:
        return len(self.lam)

    def values_on_grid(self, M: int) -> np.ndarray:
        """a_i(phi) = lambda_i + mu_i(phi) on the M**n grid, shape (M,)*n + (N,)."""
        base = np.broadcast_to(self.lam, (M,) * self.n + (self.N,)).astype(complex)
        if self.mu is None:
            return base.copy()
        vals = coeffs_to_grid(np.moveaxis(self.mu, 0, -1), self.n, self.K, M)
        return base + vals

    def weight(self) -> np.ndarray:
        """W = diag(lambda_i^(-delta/d))."""
        return self.lam ** (-self.delta / self.d)

    def c_lambda(self) -> float:
        """Witness constant min_{i!=j} |lambda_i - lambda_j| / |i^d - j^d| (inf for N = 1)."""
        idx = np.arange(1, self.N + 1, dtype=float)
        gaps = np.abs(self.lam[:, None] - self.lam[None, :])
        denom = np.abs(idx[:, None] ** self.d - idx[None, :] ** self.d)
        mask = ~np.eye(self.N, dtype=bool)
        return float(np.min(gaps[mask] / denom[mask], initial=np.inf))

    def c_mu(self, s: float = 0.0) -> float:
        """Witness constant max_i ||mu_i||_s / i^delta (0 when mu vanishes)."""
        if self.mu is None:
            return 0.0
        norms = np.abs(self.mu.reshape(self.N, -1)) @ strip_weight(self.n, self.K, s).reshape(-1)
        if self.delta == 0.0:
            return float(np.max(norms))
        return float(np.max(norms / np.arange(1, self.N + 1) ** self.delta))


# ---------------------------------------------------------------------------
# spec operations


def directional_derivative(f: TorusSeries | OperatorSeries, omega) -> "TorusSeries | OperatorSeries":
    """d/dt f(phi + omega t) at t = 0: multiply fhat_k by i (omega . k)."""
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (f.n,):
        raise KamError(f"omega must have length n={f.n}")
    w = 1j * _k_dot_omega(f.n, f.K, omega)
    return f._like(f.K, f.coeffs * w.reshape(w.shape + (1,) * len(f._tail)))


def sup_norm_s(f: TorusSeries, s: float) -> float:
    """Weighted-l1 bound sum_k |fhat_k| e^{s |k|_1} (s >= 0)."""
    if s < 0:
        raise KamError("strip width s must be nonnegative")
    return float(np.sum(np.abs(f.coeffs) * strip_weight(f.n, f.K, s)))


def _majorant_norm(maj: np.ndarray, weightings) -> float:
    """max over (wl, wr) of ||diag(wl) maj diag(wr)||_2 for an entrywise majorant maj."""
    return max(float(np.linalg.norm(wl[:, None] * maj * wr[None, :], 2)) for wl, wr in weightings)


def _weighted_norm(P: OperatorSeries, weightings, s: float) -> float:
    """max over (wl, wr) of ||diag(wl) |P|_s diag(wr)||_2, the majorant bound at strip width s."""
    if s < 0:
        raise KamError("strip width s must be nonnegative")
    return _majorant_norm(P.majorant_matrix(s), weightings)


def delta_norm(P: OperatorSeries, base: DiagonalPart, s: float) -> float:
    """||W P||, W = diag(lambda_i^(-delta/d)), at strip width s >= 0.

    ||W |P|_s||_2 for the entrywise majorant |P|_s, an upper bound for
    sup ||W P(phi)||_2 on the strip |Im phi| <= s, at s = 0 on the real
    torus; no grid is formed.
    """
    if base.N != P.N:
        raise KamError("base and P dimension mismatch")
    return _weighted_norm(P, [(base.weight(), np.ones(P.N))], s)


def g_norm(B: OperatorSeries, base: DiagonalPart, s: float) -> float:
    """max(||B||_{0,s}, ||W B W^{-1}||_{0,s}), W and the majorant bound as in delta_norm."""
    W, ones = base.weight(), np.ones(B.N)
    return _weighted_norm(B, [(ones, ones), (W, 1.0 / W)], s)
