"""Helpers shared by the test modules: the Pauli matrices, the curvature
references (a vector-form one to compare bit for bit, a matrix-form one),
the matrix-form covariant calculus the su(2) vector form of
`moduli.AnnulusCalculus` is checked against, and a bitwise comparison of
arrays."""

import numpy as np

from ipl import _su2
from ipl.gauge import PAIRS, self_dual
from ipl.geometry import TWO_PI
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
    turned into matrices by `from_vector`, the bracket by `_su2.comm`."""
    a = _su2.from_vector(conn.evaluate(pts))
    d = _su2.from_vector(conn.derivative(pts))
    return np.stack([d[..., i, j, :, :] - d[..., j, i, :, :]
                     + _su2.comm(a[..., i, :, :], a[..., j, :, :])
                     for i, j in PAIRS], axis=-3)


class MatrixCalculus:
    """AnnulusCalculus on (..., 2, 2) complex su(2) matrices: the connection
    from one evaluate on the whole grid turned into matrices by
    `from_vector`, brackets by `_su2.comm`, and the pairing
    Re tr(X Y^dagger) on the float views. Sections are
    (n_r, n_theta, n_x, n_y, 2, 2), forms carry a leading slot axis."""

    def __init__(self, conn, grid):
        self.grid, self.torus = grid, conn.torus
        self.r_col = grid.rs.reshape(-1, 1, 1, 1, 1, 1)
        A = np.moveaxis(_su2.from_vector(conn.evaluate(
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
        return self._plain(i, u) + _su2.comm(self.A[i], u)

    def _cov_adj(self, i, u):
        if i == 0:
            plain = _along(self.Dr.T, self.w * u, 0) / self.w
        else:
            plain = -self._plain(i, u)
        return plain - _su2.comm(self.A[i], u)

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
