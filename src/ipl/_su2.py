"""su(2)/SU(2) matrix helpers, vectorized over leading batch axes.

Conventions: su(2) elements are anti-hermitian traceless 2x2 complex
matrices X = i (v . sigma) with v real; the Frobenius inner product
<X, Y> = Re tr(X Y^dagger) is used everywhere (positive definite,
equal to -Re tr(XY) on anti-hermitian matrices). On the real vectors v
(..., 3) of `to_vector`, <X, Y> = 2 v.w, so |X|_F^2 = 2 |v|^2, and [X, Y]
is -2 v x w (`comm_vector`).

Every 2x2 product, commutator and conjugate transpose in the package goes
through `mul`, `comm`, `comm_diag` and `dag` here, and nowhere else. They
are closed-form elementwise expressions in the four entries, broadcasting
over leading axes; numpy's batched `@` on (..., 2, 2) arrays pays a generic
per-matrix cost several times larger than the arithmetic.
"""

from __future__ import annotations

import numpy as np

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


def mul(X, Y):
    """X @ Y over the trailing 2x2 axes, broadcasting over leading axes."""
    a, b, c, d = _entries(X)
    e, f, g, h = _entries(Y)
    return _assemble(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def comm(X, Y):
    """Commutator [X, Y] = XY - YX over the trailing 2x2 axes, broadcasting."""
    a, b, c, d = _entries(X)
    e, f, g, h = _entries(Y)
    t = b * g - c * f
    return _assemble(t, f * (a - d) - b * (e - h), c * (e - h) - g * (a - d), -t)


def comm_vector(v, w):
    """-2 v x w (..., 3), the vector of [i v.sigma, i w.sigma]; broadcasts."""
    v, w = 2.0 * np.asarray(v), np.asarray(w)  # the factor 2 is exact
    out = np.empty(np.broadcast_shapes(v.shape, w.shape))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(v[..., j] * w[..., i], v[..., i] * w[..., j],
                    out=out[..., k])
    return out


def comm_diag(g, X):
    """[diag(g), X] for diagonals g (..., 2): (g_a - g_b) X_ab, one broadcast
    multiply with no matrix product."""
    g = np.asarray(g)
    return (g[..., :, None] - g[..., None, :]) * X


def dag(X):
    """Conjugate transpose over the trailing 2x2 axes."""
    return np.conj(np.swapaxes(X, -1, -2))


def from_vector(v):
    """Real vector(s) (..., 3) -> anti-hermitian traceless i(v.sigma)."""
    v = np.asarray(v, dtype=float)
    return 1j * np.einsum("...k,kab->...ab", v, PAULI)


def to_vector(X):
    """Inverse of from_vector; takes the i(v.sigma) part of X."""
    a, b, c, d = _entries(np.asarray(X, dtype=complex))
    return np.stack([(b + c).imag, (b - c).real, (a - d).imag], axis=-1) * 0.5


def frob(X):
    """Frobenius norm over the trailing 2x2 axes."""
    X = np.asarray(X)
    return np.sqrt(np.sum(np.abs(X) ** 2, axis=(-2, -1)))


def expm_su2(X):
    """exp(X) for anti-hermitian traceless X, closed form, batched.

    X = i t (n.sigma) with |n| = 1 gives exp(X) = cos(t) I + sin(t)/t X.
    Only the su(2) part i(v.sigma) of X is used: a = i v3 and
    b = v2 + i v1 are its (0, 0) and (0, 1) entries.
    """
    a, b, c, d = _entries(np.asarray(X, dtype=complex))
    v3 = (a - d).imag / 2.0
    w = (b - np.conj(c)) / 2.0
    t = np.sqrt(v3 ** 2 + w.real ** 2 + w.imag ** 2)
    # sin(t)/t via sinc, stable at t = 0
    s = np.sinc(t / np.pi)
    p = np.cos(t) + 1j * s * v3
    q = s * w
    return _assemble(p, q, -np.conj(q), np.conj(p))


def log_su2(U):
    """Rotation vector v (|v| in [0, pi]) with U = exp(i v.sigma), batched.

    For U = cos(t) I + i sin(t) (n.sigma) returns t*n; at t = pi the axis
    is still recovered from the anti-hermitian part unless it vanishes.
    """
    U = np.asarray(U, dtype=complex)
    c = np.clip(np.trace(U, axis1=-2, axis2=-1).real / 2.0, -1.0, 1.0)
    A = (U - dag(U)) / 2.0
    sn = to_vector(A)  # sin(t) * n
    s = np.linalg.norm(sn, axis=-1)
    t = np.arctan2(s, c)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s > 0.0, t / np.where(s > 0.0, s, 1.0), 1.0)
    return scale[..., None] * sn


def project_su2(M):
    """Nearest SU(2) element in the Frobenius norm, closed form, batched.

    SU(2) is the unit sphere |p|^2 + |q|^2 = 1 of the real span of the
    quaternion matrices [[p, q], [-conj q, conj p]], whose orthogonal
    complement is [[p, q], [conj q, -conj p]]; the nearest point is
    therefore the normalized quaternion part of M (nonzero for every M
    near SU(2)).
    """
    a, b, c, d = _entries(np.asarray(M, dtype=complex))
    p = (a + np.conj(d)) / 2.0
    q = (b - np.conj(c)) / 2.0
    n = np.sqrt(p.real ** 2 + p.imag ** 2 + q.real ** 2 + q.imag ** 2)
    p, q = p / n, q / n
    return _assemble(p, q, -np.conj(q), np.conj(p))
