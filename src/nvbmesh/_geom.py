"""Array kernels for the geometric formulas shared across the package.

Points are float arrays with (x, y) on the last axis; every kernel
broadcasts over the leading axes, so one call covers all elements of a
mesh.  The only scalar helpers are ``cross2``, whose arithmetic serves
scalars and arrays alike, and ``midpoint``, used by the recursive
bisection-forest and overlay code.

Coordinates in this library are dyadic rationals (iterated exact midpoints
of the initial vertices), so cross products, areas and midpoints below are
exact in double precision for any realistic refinement depth.  Lengths are
not exact.  ``lengths`` rounds each one as ``math.hypot`` does (the
rounding of ``math.dist``), mapped over the coordinate differences:
``np.hypot`` calls the C library, which rounds differently on a small share
of inputs, and a one-ulp change would move ties in longest-edge rotations,
corner and Dörfler selections and the recorded chain distances.
``diameters`` feeds only realized constants and keeps ``np.hypot``.
"""

from __future__ import annotations

import math

import numpy as np


def cross2(ax, ay, bx, by):
    """z-component of the 2D cross product a x b."""
    return ax * by - ay * bx


def _orient(p0, p1, p2):
    """(p1 - p0) x (p2 - p0): twice the signed area of (p0, p1, p2)."""
    return cross2(p1[..., 0] - p0[..., 0], p1[..., 1] - p0[..., 1],
                  p2[..., 0] - p0[..., 0], p2[..., 1] - p0[..., 1])


def signed_areas(p0, p1, p2) -> np.ndarray:
    """Signed areas of the triangles (p0, p1, p2); positive iff CCW."""
    return 0.5 * _orient(p0, p1, p2)


def lengths(dx, dy) -> np.ndarray:
    """Euclidean lengths of the vectors (dx, dy), each rounded as
    ``math.hypot``."""
    return np.fromiter(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()),
                       np.float64, count=dx.size).reshape(dx.shape)


def diameters(coords: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Vectorized longest edge lengths for an (m,3) triangle index array."""
    p = coords[tris]
    d = p[:, [1, 2, 0]] - p
    return np.hypot(d[..., 0], d[..., 1]).max(axis=1)


def pow2_half(k: np.ndarray) -> np.ndarray:
    """2**(k/2) for an integer array k, each distinct value evaluated by
    Python's float power (bit-identical to ``2.0 ** (int(k) / 2.0)``)."""
    values, inverse = np.unique(k, return_inverse=True)
    return np.array([2.0 ** (v / 2.0) for v in values.tolist()])[inverse]


def midpoint(p, q) -> tuple[float, float]:
    """Exact midpoint of two dyadic points."""
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def _along_segment(p, a, b):
    """For points p and segments [a, b], arrays with (x, y) on the last axis:
    whether p is on the line through a and b, (p - a).(b - a) and |b - a|^2."""
    abx, aby = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    apx, apy = p[..., 0] - a[..., 0], p[..., 1] - a[..., 1]
    return (cross2(abx, aby, apx, apy) == 0.0, apx * abx + apy * aby,
            abx * abx + aby * aby)


def point_on_segment(p, a, b):
    """Whether p lies on the closed segment [a, b] (exact arithmetic)."""
    line, dot, length2 = _along_segment(p, a, b)
    return line & (0.0 <= dot) & (dot <= length2)


def point_strictly_inside_segment(p, a, b):
    """Whether p lies on the segment [a, b] excluding the endpoints."""
    line, dot, length2 = _along_segment(p, a, b)
    return line & (0.0 < dot) & (dot < length2)


def in_triangles(p, p0, p1, p2):
    """Whether p lies in the closed CCW triangle (p0, p1, p2)."""
    return ((signed_areas(p0, p1, p) >= 0.0) & (signed_areas(p1, p2, p) >= 0.0)
            & (signed_areas(p2, p0, p) >= 0.0))


def point_segment_distances(p, a, b) -> np.ndarray:
    """Euclidean distances from points p to the closed segments [a, b]."""
    _, dot, length2 = _along_segment(p, a, b)
    t = np.divide(dot, length2, out=np.zeros(np.broadcast(dot, length2).shape),
                  where=length2 != 0.0)
    t = np.clip(t, 0.0, 1.0)
    qx = a[..., 0] + t * (b[..., 0] - a[..., 0])
    qy = a[..., 1] + t * (b[..., 1] - a[..., 1])
    return lengths(p[..., 0] - qx, p[..., 1] - qy)


def point_triangle_distances(p, tris) -> np.ndarray:
    """Distances from the point p to each closed triangle of tris (m, 3, 2)."""
    d = point_segment_distances(p, tris, tris[:, [1, 2, 0]]).min(axis=1)
    return np.where(in_triangles(p, tris[:, 0], tris[:, 1], tris[:, 2]), 0.0, d)


def triangle_distances(t1, t2) -> np.ndarray:
    """Distances between the closed triangles t1 and t2, (..., 3, 2) arrays:
    zero if the first vertex of one lies in the other, else the least
    distance over the 3 x 3 edge pairs, zero where two edges cross."""
    inside = (in_triangles(t1[..., 0, :], t2[..., 0, :], t2[..., 1, :], t2[..., 2, :])
              | in_triangles(t2[..., 0, :], t1[..., 0, :], t1[..., 1, :], t1[..., 2, :]))
    a, b = t1[..., :, None, :], t1[..., [1, 2, 0], None, :]   # (..., 3, 1, 2)
    c, d = t2[..., None, :, :], t2[..., None, [1, 2, 0], :]   # (..., 1, 3, 2)
    crossing = (((_orient(a, b, c) > 0) != (_orient(a, b, d) > 0))
                & ((_orient(c, d, a) > 0) != (_orient(c, d, b) > 0)))
    pair = np.minimum.reduce([point_segment_distances(a, c, d),
                              point_segment_distances(b, c, d),
                              point_segment_distances(c, a, b),
                              point_segment_distances(d, a, b)])
    pair = np.where(crossing, 0.0, pair)
    return np.where(inside, 0.0, pair.min(axis=(-2, -1)))
