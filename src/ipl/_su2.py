"""su(2) and SU(2) arithmetic, vectorized over leading batch axes.

An element of the Lie algebra is a 3-vector, and an element of the group
is a pair. An su(2) element is a real v (..., 3) standing for X = i v.sigma;
an sl(2,C) element (the Higgs field) is a complex q (..., 3) standing for
psi = i q.sigma. The Frobenius inner product <X, Y> = Re tr(X Y^dagger)
is 2 Re(v . conj w), so |X|_F^2 = 2 |v|^2 (`frob_vector`), and the bracket
[X, Y] is -2 v x w (`comm_vector`); both hold for complex vectors too,
being bilinear. An SU(2) element (a holonomy, a transport step) is the
complex pair (p, q) (..., 2), the first row of its matrix
[[p, q], [-conj q, conj p]] = Re p I + i u.sigma with
u = (Im q, Re q, Im p) (`vector_part`): `expm_su2` maps a vector to a
pair, `log_su2` maps one back, and `mul` and `project_su2` act on pairs.
Every kernel is a closed-form elementwise expression in the components.
"""

from __future__ import annotations

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])


def mul(X, Y):
    """The product of SU(2) pairs X Y (..., 2), broadcasting over leading
    axes: (p1 p2 - q1 conj q2, p1 q2 + q1 conj p2)."""
    p1, q1 = X[..., 0], X[..., 1]
    p2, q2 = Y[..., 0], Y[..., 1]
    out = np.empty(np.broadcast_shapes(X.shape, Y.shape), dtype=complex)
    np.subtract(p1 * p2, q1 * np.conj(q2), out=out[..., 0])
    np.add(p1 * q2, q1 * np.conj(p2), out=out[..., 1])
    return out


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


def vector_part(U):
    """u = (Im q, Re q, Im p) (..., 3) of pairs U = (p, q) (..., 2), whose
    matrices are Re p I + i u.sigma."""
    return np.stack([U[..., 1].imag, U[..., 1].real, U[..., 0].imag], axis=-1)


def expm_su2(v):
    """exp(i v.sigma) for real vectors v (..., 3), closed form, batched:
    with t = |v| it is cos(t) I + sin(t)/t i(v.sigma), the pair
    p = cos(t) + i sin(t)/t v3, q = sin(t)/t (v2 + i v1) (..., 2)."""
    v = np.asarray(v, dtype=float)
    v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
    t = np.sqrt(v3 ** 2 + v2 ** 2 + v1 ** 2)
    # sin(t)/t via sinc, stable at t = 0
    s = np.sinc(t / np.pi)
    out = np.empty(v.shape[:-1] + (2,), dtype=complex)
    out.real[..., 0] = np.cos(t)
    np.multiply(s, v3, out=out.imag[..., 0])
    np.multiply(s, v2, out=out.real[..., 1])
    np.multiply(s, v1, out=out.imag[..., 1])
    return out


def log_su2(U):
    """Rotation vector v (|v| in [0, pi]) with U = exp(i v.sigma), for
    pairs U (..., 2), batched.

    For U = cos(t) I + i sin(t) (n.sigma) returns t*n; at t = pi the axis
    is still recovered from the vector part unless it vanishes.
    """
    U = np.asarray(U, dtype=complex)
    c = np.clip(U[..., 0].real, -1.0, 1.0)
    sn = vector_part(U)  # sin(t) * n
    s = np.linalg.norm(sn, axis=-1)
    t = np.arctan2(s, c)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(s > 0.0, t / np.where(s > 0.0, s, 1.0), 1.0)
    return scale[..., None] * sn


def project_su2(U):
    """The pairs U (..., 2) divided by sqrt(|p|^2 + |q|^2): the nearest
    SU(2) element, in the Frobenius norm, to the quaternion matrix of each
    nonzero pair."""
    U = np.asarray(U, dtype=complex)
    p, q = U[..., 0], U[..., 1]
    n = np.sqrt(p.real ** 2 + p.imag ** 2 + q.real ** 2 + q.imag ** 2)
    return U / n[..., None]
