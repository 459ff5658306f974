"""Hyperkähler linear algebra and tangent-space numerics on the instanton
side: the three complex structures, discrete covariant calculus on an
annulus grid with exact adjoints, the linearized-equation residuals of an
instanton tangent, its L2 metric, the dimension formula, and the explicit
charge-1 chart of degree-1 rational maps.

The discrete adjoint d* is the exact transpose of the discrete d under
the quadrature inner product, so integration-by-parts identities hold to
machine precision rather than to discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _su2
from .gauge import ConnectionSource, DomainError, PAIRS, curvature
from .geometry import TWO_PI, AnnulusGrid, TorusSpec


def complex_structures():
    """The three constant complex structures on the product of the torus
    and the plane, in coordinates (z1, z2, w1, w2):
    I1: (-z2, z1, -w2, w1); I2: (-w1, w2, z1, -z2); I3: (-w2, -w1, z2, z1).
    """
    I1 = np.array([[0, -1, 0, 0],
                   [1, 0, 0, 0],
                   [0, 0, 0, -1],
                   [0, 0, 1, 0]], dtype=float)
    I2 = np.array([[0, 0, -1, 0],
                   [0, 0, 0, 1],
                   [1, 0, 0, 0],
                   [0, -1, 0, 0]], dtype=float)
    I3 = np.array([[0, 0, 0, -1],
                   [0, 0, -1, 0],
                   [0, 1, 0, 0],
                   [1, 0, 0, 0]], dtype=float)
    return I1, I2, I3


def differentiation_matrix(nodes: np.ndarray) -> np.ndarray:
    """Polynomial (barycentric) differentiation matrix on distinct nodes;
    spectrally accurate on Chebyshev-spaced points."""
    x = np.asarray(nodes, dtype=float)
    n = x.size
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    c = np.prod(diff, axis=1)
    D = (c[:, None] / c[None, :]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def interpolatory_weights(nodes: np.ndarray, a: float, b: float) -> np.ndarray:
    """Quadrature weights exact for polynomials of degree < n on [a, b]."""
    x = np.asarray(nodes, dtype=float)
    n = x.size
    t = 2.0 * (x - a) / (b - a) - 1.0
    V = np.polynomial.legendre.legvander(t, n - 1).T
    m = np.zeros(n)
    m[0] = b - a
    return np.linalg.solve(V, m)


def fourier_diff(arr: np.ndarray, axis: int, period: float) -> np.ndarray:
    """Spectral derivative along a periodic axis; the Nyquist mode is
    zeroed so the operator is exactly skew-adjoint."""
    n = arr.shape[axis]
    k = 2j * np.pi * np.fft.fftfreq(n, d=period / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(arr, axis=axis) * k.reshape(shape),
                       axis=axis)


def quadrature_weights(grid: AnnulusGrid, torus: TorusSpec):
    """(radial weights times the volume factor r, angular-torus cell
    volume): the quadrature of AnnulusCalculus and of l2_metric."""
    w_radial = interpolatory_weights(grid.rs, grid.r_min, grid.r_max) \
        * grid.rs
    w_angular = (TWO_PI / grid.n_theta) * (torus.period_x / grid.n_x) \
        * (torus.period_y / grid.n_y)
    return w_radial, w_angular


@dataclass
class TangentVectorInstanton:
    """su(2)-valued 1-form on an annulus grid, orthonormal-frame
    components ordered (radial, angular, torus-x, torus-y):
    comps shape (4, n_r, n_theta, n_x, n_y, 2, 2)."""
    grid: AnnulusGrid
    comps: np.ndarray
    torus: TorusSpec

    def __post_init__(self):
        expect = (4, self.grid.n_r, self.grid.n_theta,
                  self.grid.n_x, self.grid.n_y, 2, 2)
        self.comps = np.asarray(self.comps, dtype=complex)
        if self.comps.shape != expect:
            raise ValueError(f"components must have shape {expect}")
        if float(np.max(_su2.algebra_defect(self.comps))) > 1e-9:
            raise ValueError("components must be anti-hermitian traceless")


class AnnulusCalculus:
    """Discrete covariant calculus for a fixed connection on a fixed grid.

    Frame components throughout; the radial derivative is a polynomial
    differentiation matrix on the grid's Chebyshev radii, periodic
    directions are Nyquist-zeroed spectral derivatives, and adjoints are
    exact transposes under the quadrature inner product."""

    def __init__(self, conn: ConnectionSource, grid: AnnulusGrid):
        if grid.r_min < conn.r_min:
            raise DomainError(f"grid starts at r = {grid.r_min}, below the "
                              f"connection's r_min = {conn.r_min}")
        self.conn = conn
        self.grid = grid
        self.torus = conn.torus
        rs, ths = grid.rs, grid.thetas
        xs, ys = grid.xs(self.torus), grid.ys(self.torus)
        R, T, X, Y = np.meshgrid(rs, ths, xs, ys, indexing="ij")
        pts = np.stack([R, T, X, Y], axis=-1)
        A = np.asarray(conn.evaluate(pts), dtype=complex)
        A = np.moveaxis(A, -3, 0).copy()  # (4, n_r, n_t, n_x, n_y, 2, 2)
        A[1] = A[1] / R[None, ..., None, None][0]
        self.A = A
        self.rs = rs
        self.r_col = rs.reshape(-1, 1, 1, 1, 1, 1)
        self.Dr = differentiation_matrix(rs)
        self.w_radial, self.w_angular = quadrature_weights(grid, self.torus)
        if np.any(self.w_radial <= 0):
            raise ValueError("radial quadrature weights must be positive")
        self.weight = self.w_radial.reshape(-1, 1, 1, 1) * self.w_angular

    # -- scalar building blocks ------------------------------------------

    def _dr(self, u):
        return np.einsum("ab,b...->a...", self.Dr, u)

    def _dr_adj(self, u):
        w = self.w_radial.reshape(-1, 1, 1, 1, 1, 1)
        return np.einsum("ba,b...->a...", self.Dr, w * u) / w

    def _dtheta(self, u):
        return fourier_diff(u, 0 + 1, TWO_PI) / self.r_col

    def _dx(self, u):
        return fourier_diff(u, 2, self.torus.period_x)

    def _dy(self, u):
        return fourier_diff(u, 3, self.torus.period_y)

    def _cov(self, i, u):
        plain = (self._dr, self._dtheta, self._dx, self._dy)[i](u)
        return plain + _su2.comm(self.A[i], u)

    def _cov_adj(self, i, u):
        if i == 0:
            plain = self._dr_adj(u)
        else:
            plain = -(None, self._dtheta, self._dx, self._dy)[i](u)
        return plain - _su2.comm(self.A[i], u)

    # -- the operators -----------------------------------------------------

    def d0(self, u: np.ndarray) -> np.ndarray:
        """Covariant gradient of a section: (4, ...) frame components."""
        return np.stack([self._cov(i, u) for i in range(4)], axis=0)

    def dstar(self, a: np.ndarray) -> np.ndarray:
        """Exact adjoint of d0 under the quadrature inner product."""
        return sum(self._cov_adj(i, a[i]) for i in range(4))

    def d1(self, a: np.ndarray) -> np.ndarray:
        """Covariant exterior derivative, 6 frame components in the pair
        order of the curvature sample; includes the frame curvature term
        on the radial-angular slot."""
        out = []
        for k, (i, j) in enumerate(PAIRS):
            f = self._cov(i, a[j]) - self._cov(j, a[i])
            if (i, j) == (0, 1):
                f = f + a[1] / self.r_col
            out.append(f)
        return np.stack(out, axis=0)

    def sd_part(self, f6: np.ndarray) -> np.ndarray:
        return np.stack([(f6[0] + f6[5]) / 2.0,
                         (f6[1] - f6[4]) / 2.0,
                         (f6[2] + f6[3]) / 2.0], axis=0)

    def dplus(self, a: np.ndarray) -> np.ndarray:
        return self.sd_part(self.d1(a))

    # -- inner products ---------------------------------------------------

    def inner(self, a, b) -> float:
        """L2 pairing of stacked-slot fields of equal shape."""
        w = self.weight.reshape((1,) * (a.ndim - 6) + self.weight.shape)
        vals = np.real(np.einsum("...ij,...ij->...", a, np.conj(b)))
        return float(np.sum(w * vals))

    def norm(self, a) -> float:
        return math.sqrt(max(self.inner(a, a), 0.0))


def instanton_tangent_residual(a: TangentVectorInstanton,
                               calc: AnnulusCalculus):
    """(gauge-fixing residual, linearized-equation residual): L2 norms of
    the covariant codifferential and of the self-dual part of the
    covariant exterior derivative of the tangent field, on calc's grid
    about calc.conn."""
    return calc.norm(calc.dstar(a.comps)), calc.norm(calc.dplus(a.comps))


def translation_tangent(conn: ConnectionSource, grid: AnnulusGrid,
                        direction=(1.0, 0.0)) -> TangentVectorInstanton:
    """Moduli direction from a plane translation: the curvature contracted
    with the translation vector field, in frame components."""
    rs, ths = grid.rs, grid.thetas
    xs, ys = grid.xs(conn.torus), grid.ys(conn.torus)
    R, T, X, Y = np.meshgrid(rs, ths, xs, ys, indexing="ij")
    pts = np.stack([R, T, X, Y], axis=-1)
    F = curvature(conn, pts).unit_frame()  # (..., 6, 2, 2)
    F = np.moveaxis(F, -3, 0)
    c1, c2 = direction
    vr = (c1 * np.cos(T) + c2 * np.sin(T))[..., None, None]
    vt = (-c1 * np.sin(T) + c2 * np.cos(T))[..., None, None]
    a_r = -vt * F[0]
    a_t = vr * F[0]
    a_x = vr * F[1] + vt * F[3]
    a_y = vr * F[2] + vt * F[4]
    comps = np.stack([a_r, a_t, a_x, a_y], axis=0)
    return TangentVectorInstanton(grid=grid, comps=comps, torus=conn.torus)


def random_tangent(grid: AnnulusGrid, torus: TorusSpec,
                   seed: int = 0) -> TangentVectorInstanton:
    """Smooth random tangent field: Fourier modes -1, 0, 1 in each periodic
    direction times a radial polynomial that vanishes at both radial ends,
    with random su(2) directions."""
    rng = np.random.default_rng(seed)
    rs, ths = grid.rs, grid.thetas
    xs, ys = grid.xs(torus), grid.ys(torus)
    R, T, X, Y = np.meshgrid(rs, ths, xs, ys, indexing="ij")
    t = 2.0 * (R - grid.r_min) / (grid.r_max - grid.r_min) - 1.0
    comps = np.zeros((4,) + R.shape + (2, 2), dtype=complex)
    for slot in range(4):
        f = np.zeros_like(R)
        for _ in range(3):
            p = rng.integers(-1, 2)
            n = rng.integers(-1, 2)
            m = rng.integers(-1, 2)
            phase = rng.uniform(0, TWO_PI)
            radial = np.polynomial.polynomial.polyval(
                t, rng.normal(size=3)) * (1.0 - t ** 2)
            f = f + radial * np.cos(
                p * T + n * TWO_PI * X / torus.period_x
                + m * TWO_PI * Y / torus.period_y + phase)
        comps[slot] = f[..., None, None] * _su2.from_vector(rng.normal(size=3))
    return TangentVectorInstanton(grid=grid, comps=comps, torus=torus)


def apply_complex_structure(a: TangentVectorInstanton,
                            I: np.ndarray) -> TangentVectorInstanton:
    """Pointwise action of a constant complex structure on the form slots;
    an isometry of the L2 metric since the matrices are orthogonal. The
    frame components are rotated through Cartesian components ordered
    (z1, z2, w1, w2) = (torus-x, torus-y, plane-1, plane-2)."""
    ths = a.grid.thetas
    ct = np.cos(ths).reshape(1, -1, 1, 1, 1, 1)
    st = np.sin(ths).reshape(1, -1, 1, 1, 1, 1)
    ar, at, ax, ay = a.comps
    cart = np.stack([ax, ay, ct[0] * ar - st[0] * at,
                     st[0] * ar + ct[0] * at], axis=0)
    rot = np.einsum("ji,j...->i...", I, cart)
    bx, by, bw1, bw2 = rot
    br = ct[0] * bw1 + st[0] * bw2
    bt = -st[0] * bw1 + ct[0] * bw2
    return TangentVectorInstanton(
        grid=a.grid, comps=np.stack([br, bt, bx, by], axis=0), torus=a.torus)


def l2_metric(t1: TangentVectorInstanton,
              t2: TangentVectorInstanton) -> float:
    """Symmetric positive-definite L2 pairing of two instanton tangents on
    one grid, with the quadrature weights of AnnulusCalculus."""
    if t1.grid != t2.grid:
        raise DomainError("instanton tangents must share a grid")
    wr, w_ang = quadrature_weights(t1.grid, t1.torus)
    w = wr.reshape(1, -1, 1, 1, 1) * w_ang
    vals = np.real(np.einsum("s...ij,s...ij->s...",
                             t1.comps, np.conj(t2.comps)))
    return float(np.sum(w * vals))


# ---------------------------------------------------------------------------
# dimension formula and the charge-1 chart

def moduli_dimension(k: int) -> int:
    """Real dimension 8k - 4 of the instanton moduli space of charge k."""
    if k < 1:
        raise ValueError("no irreducible instantons below charge 1")
    return 8 * k - 4


@dataclass(frozen=True)
class K1Chart:
    """One-complex-parameter family of degree-1 rational maps
    f(w) = (w + b)/(c w + d) with f(0) and f'(0) fixed, together with the
    dimension record: torus factor (2 real) times the base plane (2 real)
    matches the charge-1 moduli dimension."""
    f0: complex
    fp0: complex

    def coefficients(self, c: complex):
        """(b, c, d) of the family member at parameter c."""
        c = complex(c)
        d = (1.0 - c * self.f0) / self.fp0
        if abs(d) < 1e-14:
            raise ValueError("degenerate parameter: denominator loses rank")
        b = self.f0 * d
        return b, c, d

    def evaluate(self, c: complex, w):
        b, cc, d = self.coefficients(c)
        w = np.asarray(w, dtype=complex)
        out = (w + b) / (cc * w + d)
        return out if out.ndim else complex(out)

    @property
    def record(self) -> dict:
        return {"complex_parameters": 1,
                "torus_real_dim": 2,
                "base_real_dim": 2,
                "total_real_dim": 4,
                "matches_dimension_formula": 4 == moduli_dimension(1)}


def k1_chart(f0: complex, fp0: complex) -> K1Chart:
    """Chart of the charge-1 moduli space: rational maps of degree 1 with
    value and derivative at the origin fixed; one complex parameter."""
    if abs(complex(fp0)) < 1e-14:
        raise ValueError("degenerate constraint: vanishing derivative "
                         "drops the map degree")
    return K1Chart(f0=complex(f0), fp0=complex(fp0))
