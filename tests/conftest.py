"""Helpers shared by the test modules: the Pauli matrices and the 2x2
matrix forms the vector and pair kernels of `_su2` are checked against
(`from_vector`, `to_vector`, the commutator `comm`, `frob` and the pair
embedding `as_matrix`), the curvature references (a vector-form one to
compare bit for bit, a matrix-form one), the matrix-form covariant
calculus the su(2) vector form of `moduli.AnnulusCalculus` is checked
against, the reduction of a torus-invariant connection to its Higgs pair, a
bitwise comparison of arrays, and the tori of the Fourier-gap tests."""

import math

import numpy as np

from ipl import _su2
from ipl.gauge import PAIRS, self_dual
from ipl.geometry import TWO_PI, TorusSpec
from ipl.hitchin import HiggsPairOnPlane
from ipl.moduli import _along, differentiation_matrix, fourier_diff, \
    quadrature_weights

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
SIGMA3 = PAULI[2]
EYE2 = np.eye(2, dtype=complex)


def _entries(X):
    X = np.asarray(X)
    return X[..., 0, 0], X[..., 0, 1], X[..., 1, 0], X[..., 1, 1]


def _assemble(a, b, c, d):
    """The matrices [[a, b], [c, d]] from broadcast-compatible entries."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(c),
                                       np.shape(d)) + (2, 2),
                   dtype=np.result_type(a, b, c, d))
    out[..., 0, 0] = a
    out[..., 0, 1] = b
    out[..., 1, 0] = c
    out[..., 1, 1] = d
    return out


def comm(X, Y):
    """Commutator [X, Y] = XY - YX over the trailing 2x2 axes, broadcasting."""
    a, b, c, d = _entries(X)
    e, f, g, h = _entries(Y)
    t = b * g - c * f
    return _assemble(t, f * (a - d) - b * (e - h), c * (e - h) - g * (a - d), -t)


def from_vector(v):
    """Vector(s) (..., 3) -> the matrices i(v.sigma): anti-hermitian and
    traceless for real v."""
    x, y, z = np.moveaxis(np.asarray(v), -1, 0)
    return _assemble(1j * z, y + 1j * x, 1j * x - y, -1j * z)


def to_vector(X):
    """Inverse of from_vector on real vectors; takes the i(v.sigma) part of
    X."""
    a, b, c, d = _entries(np.asarray(X, dtype=complex))
    return np.stack([(b + c).imag, (b - c).real, (a - d).imag], axis=-1) * 0.5


def frob(X):
    """Frobenius norm over the trailing 2x2 axes."""
    X = np.asarray(X)
    return np.sqrt(np.sum(np.abs(X) ** 2, axis=(-2, -1)))


def as_matrix(U):
    """The matrices [[p, q], [-conj q, conj p]] (..., 2, 2) of SU(2) pairs
    U = (p, q) (..., 2)."""
    p, q = U[..., 0], U[..., 1]
    return _assemble(p, q, -np.conj(q), np.conj(p))


def same_bits(a, b):
    """Bitwise equality of two float or complex arrays, the sign of a zero
    aside (adding +0.0 maps -0.0 to +0.0 and leaves every other value
    alone)."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        (a + 0.0).view(np.uint64), (b + 0.0).view(np.uint64))


def stacked_vector_curvature(conn, pts):
    """F_ab = d_a A_b - d_b A_a + [A_a, A_b] in the coordinate frame,
    stacked over PAIRS as su(2) vectors (..., 6, 3), from the
    (..., 4, 4, 3) table of partials d[..., i, j] = partial_i a_j."""
    a = conn.evaluate(pts)
    d = conn.derivative(pts)
    return np.stack([d[..., i, j, :] - d[..., j, i, :]
                     + _su2.comm_vector(a[..., i, :], a[..., j, :])
                     for i, j in PAIRS], axis=-2)


def stacked_curvature(conn, pts):
    """The same in matrix form (..., 6, 2, 2): the components and partials
    turned into matrices by `from_vector`, the bracket by `comm`."""
    a = from_vector(conn.evaluate(pts))
    d = from_vector(conn.derivative(pts))
    return np.stack([d[..., i, j, :, :] - d[..., j, i, :, :]
                     + comm(a[..., i, :, :], a[..., j, :, :])
                     for i, j in PAIRS], axis=-3)


class MatrixCalculus:
    """AnnulusCalculus on (..., 2, 2) complex su(2) matrices: the connection
    from one evaluate on the whole grid turned into matrices by
    `from_vector`, brackets by `comm`, and the pairing
    Re tr(X Y^dagger) on the float views. Sections are
    (n_r, n_theta, n_x, n_y, 2, 2), forms carry a leading slot axis."""

    def __init__(self, conn, grid):
        self.grid, self.torus = grid, conn.torus
        self.r_col = grid.rs.reshape(-1, 1, 1, 1, 1, 1)
        A = np.moveaxis(from_vector(conn.evaluate(
            grid.points(self.torus))), -3, 0).copy()
        A[1] = A[1] / self.r_col
        self.A = A
        self.Dr = differentiation_matrix(grid.rs)
        self.w = quadrature_weights(grid, self.torus)[0].reshape(
            -1, 1, 1, 1, 1, 1)

    def _plain(self, i, u):
        if i == 0:
            return _along(self.Dr, u, 0)
        if i == 1:
            return fourier_diff(u, 1, TWO_PI) / self.r_col
        return fourier_diff(u, i, (self.torus.period_x,
                                   self.torus.period_y)[i - 2])

    def _cov(self, i, u):
        return self._plain(i, u) + comm(self.A[i], u)

    def _cov_adj(self, i, u):
        if i == 0:
            plain = _along(self.Dr.T, self.w * u, 0) / self.w
        else:
            plain = -self._plain(i, u)
        return plain - comm(self.A[i], u)

    def d0(self, u):
        return np.stack([self._cov(i, u) for i in range(4)], axis=0)

    def dstar(self, a):
        return sum(self._cov_adj(i, a[i]) for i in range(4))

    def d1(self, a):
        out = []
        for i, j in PAIRS:
            f = self._cov(i, a[j]) - self._cov(j, a[i])
            if (i, j) == (0, 1):
                f = f + a[1] / self.r_col
            out.append(f)
        return np.stack(out, axis=0)

    def dplus(self, a):
        return self_dual(self.d1(a), axis=0)

    def inner(self, a, b):
        g = self.grid
        _, w_cell = quadrature_weights(g, self.torus)
        rows = [np.ascontiguousarray(x, dtype=complex).view(float).reshape(
            -1, g.n_r, 8 * g.n_theta * g.n_x * g.n_y) for x in (a, b)]
        return float(np.sum(np.einsum("sri,sri->sr", *rows)
                            * w_cell.ravel()))


class NotTorusInvariantError(ValueError):
    pass


# `reduce` checks torus invariance at this many random points, to this
# component deviation, with this seed
N_CHECK, CHECK_TOL, CHECK_SEED = 16, 1e-9, 0


def reduce(conn):
    """Reduce a torus-invariant connection to its Higgs pair (the inverse
    of `hitchin.lift`): B = (a_r, a_theta) and q = (v_y - i v_x) / 2.

    Torus invariance is verified on N_CHECK random (r, theta) points by
    comparing component values at random torus positions against the base
    torus position; raises NotTorusInvariantError beyond CHECK_TOL.
    """
    n = N_CHECK
    rng = np.random.default_rng(CHECK_SEED)
    r_lo = max(conn.r_min, 1e-3)
    r_hi = r_lo * 100.0 + 10.0
    rs = rng.uniform(r_lo + 1e-6, r_hi, size=n)
    ths = rng.uniform(0.0, 2 * math.pi, size=n)
    base = np.stack([rs, ths, np.zeros(n), np.zeros(n)], axis=-1)
    xs = rng.uniform(0.0, conn.torus.period_x, size=n)
    ys = rng.uniform(0.0, conn.torus.period_y, size=n)
    moved = np.stack([rs, ths, xs, ys], axis=-1)
    dev = float(np.max(_su2.frob_vector(conn.evaluate(moved)
                                        - conn.evaluate(base))))
    if dev > CHECK_TOL:
        raise NotTorusInvariantError(
            f"component deviation {dev:.3e} over the torus exceeds "
            f"{CHECK_TOL:.1e}")

    def _lift_points(points):
        """(..., 2) plane points (r, theta) -> (r, theta, 0, 0)."""
        points = np.asarray(points, dtype=float)
        return np.concatenate([points, np.zeros_like(points)], axis=-1)

    def q_slice(a):
        """q = (v_y - i v_x)/2 from connection components, or the same for
        their partials."""
        return (a[..., 3, :] - 1j * a[..., 2, :]) / 2.0

    def evaluate(points):
        a = conn.evaluate(_lift_points(points))
        return a[..., :2, :], q_slice(a)

    def derivative(points):
        da = conn.derivative(_lift_points(points))
        return da[..., :2, :2, :], q_slice(da)[..., :2, :]

    return HiggsPairOnPlane(
        evaluate=evaluate, derivative=derivative,
        torus=conn.torus, r_min=conn.r_min, name=f"reduce({conn.name})",
    )


# square, oblong, small and long tori, periods from 1e-3 to 1e3: the
# Fourier-gap tests run on each
GAP_TORI = {"2pix2pi": TorusSpec(), "4x7": TorusSpec(4.0, 7.0),
            "0.5x0.5": TorusSpec(0.5, 0.5), "30x1": TorusSpec(30.0, 1.0),
            "1x100": TorusSpec(1.0, 100.0), "100x1": TorusSpec(100.0, 1.0),
            "1e-3x1e3": TorusSpec(1e-3, 1e3)}
