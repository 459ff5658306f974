"""Hyperkähler linear algebra and tangent-space numerics on the instanton
side: the three complex structures, discrete covariant calculus on an
annulus grid with exact adjoints, the linearized-equation residuals of an
instanton tangent, its L2 metric, the dimension formula, and the explicit
charge-1 chart of degree-1 rational maps.

The discrete adjoint d* is the exact transpose of the discrete d under the
quadrature inner product, so integration-by-parts identities hold to
machine precision rather than to discretization order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import _su2
from .gauge import ConnectionSource, DomainError, PAIRS, curvature, \
    interior, self_dual
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


def _along(M: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """The real matrix M applied along one axis of a real or complex arr:
    out[..., a, ...] = sum_b M[a, b] arr[..., b, ...]."""
    # einsum's own loop, not BLAS, whose unpinned threads slow small products
    arr = np.asarray(arr)
    dtype = complex if np.iscomplexobj(arr) else float
    flat = np.ascontiguousarray(arr, dtype=dtype).view(float)
    flat = flat.reshape(math.prod(arr.shape[:axis]), arr.shape[axis], -1)
    out = np.ascontiguousarray(np.einsum("zb,abc->azc", M, flat))
    return out.view(dtype).reshape(arr.shape)


@cache
def fourier_matrix(n: int, period: float) -> np.ndarray:
    """Spectral differentiation matrix on n equispaced points of one
    period, with the Nyquist mode zeroed (Trefethen, Spectral Methods in
    MATLAB, ch. 3): real, exactly skew-symmetric, cached per (n, period),
    read-only."""
    # first column: (-1)^m / 2 times cot(m pi / n) for even n, csc for odd
    # n, for 0 < m < n / 2; the rest by skew-symmetry, the Nyquist entry 0
    m = np.arange(1, (n + 1) // 2)
    half = np.pi * m / n
    scale = np.where(m % 2 == 0, 0.5, -0.5) * (TWO_PI / period)
    col = np.zeros(n)
    col[m] = scale / (np.tan(half) if n % 2 == 0 else np.sin(half))
    col[n - m] = -col[m]
    D = col[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    D.flags.writeable = False
    return D


def fourier_diff(arr: np.ndarray, axis: int, period: float) -> np.ndarray:
    """Spectral derivative along a periodic axis, applied as the dense
    matrix fourier_matrix(n, period); the Nyquist mode is zeroed so the
    operator is exactly skew-adjoint. Its cost per element grows with n,
    which the shipped grids keep at n <= 24."""
    n = np.shape(arr)[axis]
    return _along(fourier_matrix(n, period), arr, axis)


@cache
def quadrature_weights(grid: AnnulusGrid, torus: TorusSpec):
    """(radial weights times the volume factor r, those times the
    angular-torus cell volume, shaped (n_r, 1, 1, 1)): the quadrature of
    AnnulusCalculus and of l2_metric, cached per (grid, torus), read-only."""
    w_radial = interpolatory_weights(grid.rs, grid.r_min, grid.r_max) \
        * grid.rs
    if np.any(w_radial <= 0):
        raise ValueError("radial quadrature weights must be positive")
    w_angular = (TWO_PI / grid.n_theta) * (torus.period_x / grid.n_x) \
        * (torus.period_y / grid.n_y)
    w_cell = w_radial.reshape(-1, 1, 1, 1) * w_angular
    w_radial.flags.writeable = w_cell.flags.writeable = False
    return w_radial, w_cell


def _l2_pairing(a, b, grid: AnnulusGrid, torus: TorusSpec) -> float:
    """L2 pairing 2 v.w of su(2)-vector sections (n_r, ..., 3) or stacked
    fields (k, n_r, ..., 3) under quadrature_weights: one real dot per
    (slot, radius), then the rows weighted by the cell volumes."""
    _, w_cell = quadrature_weights(grid, torus)
    rows = [np.ascontiguousarray(x, dtype=float).reshape(
        -1, grid.n_r, 3 * grid.n_theta * grid.n_x * grid.n_y) for x in (a, b)]
    return float(np.sum(np.einsum("sri,sri->sr", *rows)
                        * 2.0 * w_cell.ravel()))


@dataclass
class TangentVectorInstanton:
    """su(2)-valued 1-form on an annulus grid, orthonormal-frame
    components ordered (radial, angular, torus-x, torus-y), each in su(2)
    vector form: comps shape (4, n_r, n_theta, n_x, n_y, 3), real."""
    grid: AnnulusGrid
    comps: np.ndarray
    torus: TorusSpec

    def __post_init__(self):
        expect = (4, self.grid.n_r, self.grid.n_theta,
                  self.grid.n_x, self.grid.n_y, 3)
        # every calculus operator reads comps slot by slot; strided
        # components (a moveaxis view, say) ran them about 1.5x slower
        self.comps = np.ascontiguousarray(self.comps, dtype=float)
        if self.comps.shape != expect:
            raise ValueError(f"components must have shape {expect}")


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
        self.points = grid.points(self.torus)
        self.r_col = grid.rs.reshape(-1, 1, 1, 1, 1)
        self.A = np.moveaxis(conn.evaluate(self.points),
                             -2, 0).copy()  # (4, n_r, n_t, n_x, n_y, 3)
        self.A[1] /= self.r_col
        self.Dr = differentiation_matrix(grid.rs)
        self.w_radial, _ = quadrature_weights(grid, self.torus)

    # -- scalar building blocks ------------------------------------------

    def _dr(self, u):
        return _along(self.Dr, u, 0)

    def _dr_adj(self, u):
        w = self.w_radial.reshape(-1, 1, 1, 1, 1)
        return _along(self.Dr.T, w * u, 0) / w

    def _dtheta(self, u):
        return fourier_diff(u, 0 + 1, TWO_PI) / self.r_col

    def _dx(self, u):
        return fourier_diff(u, 2, self.torus.period_x)

    def _dy(self, u):
        return fourier_diff(u, 3, self.torus.period_y)

    def _cov(self, i, u):
        plain = (self._dr, self._dtheta, self._dx, self._dy)[i](u)
        return plain + _su2.comm_vector(self.A[i], u)

    def _cov_adj(self, i, u):
        if i == 0:
            plain = self._dr_adj(u)
        else:
            plain = -(None, self._dtheta, self._dx, self._dy)[i](u)
        return plain - _su2.comm_vector(self.A[i], u)

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
        return self_dual(f6, axis=0)

    def dplus(self, a: np.ndarray) -> np.ndarray:
        return self.sd_part(self.d1(a))

    # -- inner products ---------------------------------------------------

    def inner(self, a, b) -> float:
        """L2 pairing of su(2)-vector fields of equal shape."""
        return _l2_pairing(a, b, self.grid, self.torus)

    def norm(self, a) -> float:
        return math.sqrt(max(self.inner(a, a), 0.0))


def instanton_tangent_residual(a: TangentVectorInstanton,
                               calc: AnnulusCalculus):
    """(gauge-fixing residual, linearized-equation residual): L2 norms of
    the covariant codifferential and of the self-dual part of the
    covariant exterior derivative of the tangent field, on calc's grid
    about calc.conn."""
    return calc.norm(calc.dstar(a.comps)), calc.norm(calc.dplus(a.comps))


def _cartesian_from_frame(thetas: np.ndarray) -> np.ndarray:
    """P[t]: the frame (r, theta, x, y) at thetas[t] to (z1, z2, w1, w2)."""
    ct, st = np.cos(thetas), np.sin(thetas)
    P = np.zeros((ct.size, 4, 4))
    P[:, 0, 2] = P[:, 1, 3] = 1.0
    P[:, 2, 0], P[:, 2, 1], P[:, 3, 0], P[:, 3, 1] = ct, -st, st, ct
    return P


def translation_tangents(calc: AnnulusCalculus,
                         directions) -> list[TangentVectorInstanton]:
    """Moduli directions from translations, one per constant vector d =
    (z1, z2, w1, w2) of directions: the curvature of calc.conn on calc's
    grid, sampled once by radius, contracted with d's frame vector P^T d."""
    P = _cartesian_from_frame(calc.grid.thetas)
    frames = np.einsum("tji,dj->dti", P, directions)[:, :, None, None]
    comps = np.empty((len(frames), 4) + calc.points.shape[:-1] + (3,))
    for k, pts in enumerate(calc.points):
        F = curvature(calc.conn, pts)  # (n_theta, n_x, n_y, 6, 3)
        for c, v in zip(comps, frames):
            c[:, k] = np.moveaxis(interior(F, v), -2, 0)
    return [TangentVectorInstanton(calc.grid, c, calc.torus) for c in comps]


def random_tangent(grid: AnnulusGrid, torus: TorusSpec,
                   seed: int) -> TangentVectorInstanton:
    """Smooth random tangent field: Fourier modes -1, 0, 1 in each periodic
    direction times a radial polynomial that vanishes at both radial ends,
    with random su(2) directions."""
    rng = np.random.default_rng(seed)
    t = 2.0 * (grid.rs - grid.r_min) / (grid.r_max - grid.r_min) - 1.0
    xs, ys = grid.torus_nodes(torus)
    # e^{i k s} on the theta, x and y nodes, row k + 1 for k = -1, 0, 1
    ks = np.array([-1.0, 0.0, 1.0])[:, None]
    e_th, e_x, e_y = (np.exp(1j * ks * s) for s in (
        grid.thetas, TWO_PI / torus.period_x * xs,
        TWO_PI / torus.period_y * ys))
    comps = np.zeros((4, grid.n_r, grid.n_theta, grid.n_x, grid.n_y, 3))
    for slot in range(4):
        f = np.zeros(comps.shape[1:-1])
        for _ in range(3):
            p = rng.integers(-1, 2)
            n = rng.integers(-1, 2)
            m = rng.integers(-1, 2)
            phase = rng.uniform(0, TWO_PI)
            radial = np.polynomial.polynomial.polyval(
                t, rng.normal(size=3)) * (1.0 - t ** 2)
            # cos(p theta + n k_x x + m k_y y + phase) from 1-D factors
            wave = (np.exp(1j * phase) * e_th[p + 1, :, None, None]
                    * e_x[n + 1, :, None] * e_y[m + 1]).real
            f += radial[:, None, None, None] * wave
        comps[slot] = f[..., None] * rng.normal(size=3)
    return TangentVectorInstanton(grid=grid, comps=comps, torus=torus)


def apply_complex_structure(a: TangentVectorInstanton,
                            I: np.ndarray) -> TangentVectorInstanton:
    """Pointwise action of a constant complex structure on the form slots;
    an isometry of the L2 metric since the matrices are orthogonal. The
    frame components are rotated through Cartesian components ordered
    (z1, z2, w1, w2) = (torus-x, torus-y, plane-1, plane-2)."""
    P = _cartesian_from_frame(a.grid.thetas)
    # the frame action P^T I P at each angle, contracted without BLAS, as
    # in _along
    M = np.einsum("tji,jk,tkl->til", P, I, P)
    f = a.comps.reshape(4, a.grid.n_r, a.grid.n_theta, -1)
    comps = np.einsum("tzb,brtk->zrtk", M, f, order="C")
    return TangentVectorInstanton(grid=a.grid, torus=a.torus,
                                  comps=comps.reshape(a.comps.shape))


def l2_metric(t1: TangentVectorInstanton,
              t2: TangentVectorInstanton) -> float:
    """Symmetric positive-definite L2 pairing of two instanton tangents on
    one grid, with the quadrature weights of AnnulusCalculus."""
    if t1.grid != t2.grid:
        raise DomainError("instanton tangents must share a grid")
    if t1.torus != t2.torus:
        raise DomainError("instanton tangents must share a torus")
    return _l2_pairing(t1.comps, t2.comps, t1.grid, t1.torus)


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
