"""Helpers shared by the test modules: the coordinate-frame curvature
reference and a bitwise comparison of complex arrays."""

import numpy as np

from ipl import _su2
from ipl.gauge import PAIRS


def same_bits(a, b):
    """Bitwise equality of two complex arrays, the sign of a zero aside
    (adding +0.0 maps -0.0 to +0.0 and leaves every other value alone)."""
    return a.shape == b.shape and np.array_equal(
        (a + 0.0).view(np.uint64), (b + 0.0).view(np.uint64))


def stacked_curvature(conn, pts):
    """F_ab = d_a A_b - d_b A_a + [A_a, A_b] in the coordinate frame,
    stacked over PAIRS, from the (..., 4, 4, 2, 2) table of partials
    d[..., i, j] = partial_i a_j."""
    a = conn.evaluate(pts)
    d = conn.derivative(pts)
    return np.stack([d[..., i, j, :, :] - d[..., j, i, :, :]
                     + _su2.comm(a[..., i, :, :], a[..., j, :, :])
                     for i, j in PAIRS], axis=-3)
