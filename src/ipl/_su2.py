"""su(2) and SU(2) arithmetic, vectorized over leading batch axes.

The one rule of the package: an element of the Lie algebra is a 3-vector,
and only an element of the group is a 2x2 matrix. An su(2) element is a
real v (..., 3) standing for X = i v.sigma (`from_vector`); an sl(2,C)
element (the Higgs field) is a complex q (..., 3) standing for
psi = i q.sigma. The Frobenius inner product <X, Y> = Re tr(X Y^dagger)
is 2 Re(v . conj w), so |X|_F^2 = 2 |v|^2 (`frob_vector`), and the bracket
[X, Y] is -2 v x w (`comm_vector`); both hold for complex vectors too,
being bilinear. An SU(2) element (a holonomy, a transport step) is a
complex (..., 2, 2) matrix: `expm_su2` maps a vector to one, `log_su2`
maps one back, and `mul`, `comm` and `project_su2` act on them. These
kernels are closed-form elementwise expressions in the vector components
or the four matrix entries; numpy's batched `@` on (..., 2, 2) arrays pays
a generic per-matrix cost several times larger than the arithmetic.
"""

from __future__ import annotations

import numpy as np


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
    """-2 v x w (..., 3), the vector of [i v.sigma, i w.sigma], for real or
    complex v and w; broadcasts."""
    v, w = 2.0 * np.asarray(v), np.asarray(w)  # the factor 2 is exact
    out = np.empty(np.broadcast_shapes(v.shape, w.shape),
                   dtype=np.result_type(v, w))
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(v[..., j] * w[..., i], v[..., i] * w[..., j],
                    out=out[..., k])
    return out


def frob_vector(v):
    """|i v.sigma|_F = sqrt(2) |v| over the trailing axis of real or complex
    vectors v (..., 3)."""
    return np.sqrt(2.0 * np.sum(np.abs(v) ** 2, axis=-1))


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


def expm_su2(v):
    """exp(i v.sigma) for real vectors v (..., 3), closed form, batched.

    With t = |v|, exp(i v.sigma) = cos(t) I + sin(t)/t i(v.sigma), whose
    (0, 0) and (0, 1) entries are p = cos(t) + i sin(t)/t v3 and
    q = sin(t)/t (v2 + i v1).
    """
    v = np.asarray(v, dtype=float)
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    t = np.sqrt(v3 ** 2 + v2 ** 2 + v1 ** 2)
    # sin(t)/t via sinc, stable at t = 0
    s = np.sinc(t / np.pi)
    p = np.cos(t) + 1j * s * v3
    q = s * (v2 + 1j * v1)
    return _assemble(p, q, -np.conj(q), np.conj(p))


def log_su2(U):
    """Rotation vector v (|v| in [0, pi]) with U = exp(i v.sigma), batched.

    For U = cos(t) I + i sin(t) (n.sigma) returns t*n; at t = pi the axis
    is still recovered from the anti-hermitian part unless it vanishes.
    """
    U = np.asarray(U, dtype=complex)
    c = np.clip(np.trace(U, axis1=-2, axis2=-1).real / 2.0, -1.0, 1.0)
    sn = to_vector(U)  # sin(t) * n, read from the anti-hermitian part
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
