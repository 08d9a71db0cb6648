"""Small exact-friendly geometry helpers shared across the package.

Coordinates in this library are dyadic rationals (iterated exact midpoints
of the initial vertices), so cross products, areas and midpoints below are
exact in double precision for any realistic refinement depth.
"""

from __future__ import annotations

import math

import numpy as np


def cross2(ax, ay, bx, by):
    """z-component of the 2D cross product a x b."""
    return ax * by - ay * bx


def signed_area(p0, p1, p2) -> float:
    """Signed area of the triangle (p0, p1, p2); positive iff CCW."""
    return 0.5 * cross2(p1[0] - p0[0], p1[1] - p0[1], p2[0] - p0[0], p2[1] - p0[1])


def signed_areas(coords: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Vectorized signed areas for an (m,3) triangle index array."""
    x, y = coords[:, 0][tris], coords[:, 1][tris]
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                  - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


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


def diameter(p0, p1, p2) -> float:
    """Longest edge length of the triangle."""
    return max(math.dist(p0, p1), math.dist(p1, p2), math.dist(p2, p0))


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


def point_in_triangle(p, p0, p1, p2) -> bool:
    """True iff p lies in the closed CCW triangle."""
    return (signed_area(p0, p1, p) >= 0.0
            and signed_area(p1, p2, p) >= 0.0
            and signed_area(p2, p0, p) >= 0.0)


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from point p to the closed segment [a, b]."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.dist(p, a)
    t = (apx * abx + apy * aby) / denom
    t = min(1.0, max(0.0, t))
    return math.dist(p, (a[0] + t * abx, a[1] + t * aby))


def segment_segment_distance(a, b, c, d) -> float:
    """Distance between closed segments [a,b] and [c,d]."""
    # Proper intersection means distance zero.
    d1 = cross2(b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1])
    d2 = cross2(b[0] - a[0], b[1] - a[1], d[0] - a[0], d[1] - a[1])
    d3 = cross2(d[0] - c[0], d[1] - c[1], a[0] - c[0], a[1] - c[1])
    d4 = cross2(d[0] - c[0], d[1] - c[1], b[0] - c[0], b[1] - c[1])
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(point_segment_distance(a, c, d),
               point_segment_distance(b, c, d),
               point_segment_distance(c, a, b),
               point_segment_distance(d, a, b))


def triangle_distance(t1, t2) -> float:
    """Distance between two closed triangles, each a tuple of 3 points.

    Segment-segment distance over the 3x3 edge pairs plus containment
    checks (one triangle inside the other).
    """
    if point_in_triangle(t1[0], *t2) or point_in_triangle(t2[0], *t1):
        return 0.0
    best = math.inf
    edges1 = [(t1[0], t1[1]), (t1[1], t1[2]), (t1[2], t1[0])]
    edges2 = [(t2[0], t2[1]), (t2[1], t2[2]), (t2[2], t2[0])]
    for a, b in edges1:
        for c, d in edges2:
            best = min(best, segment_segment_distance(a, b, c, d))
    return best
