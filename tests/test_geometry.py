"""The array geometry kernels and their callers (corner and Dörfler marking,
longest-edge reference edges, chain bounds) against the scalar loops."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles
from conftest import random_trace, small_mesh_corpus
from nvbmesh import _geom
from nvbmesh.analysis import verify_chain_bounds
from nvbmesh.marking import (RunConfig, assign_reference_edges, make_policy,
                             run_refinement, select_marked)
from nvbmesh.mesh import Mesh, lshape6, square2
from nvbmesh.refine import uniform

COMBOS = [("refineNVB", "bisec3"), ("refineNVB3", "bisec3"),
          ("refineNVBred", "red"), ("refine", "interior-node")]


def random_triangles(rng, k):
    """k random CCW triangles, (k, 3, 2)."""
    tris = rng.normal(size=(k, 3, 2))
    cw = _geom.signed_areas(tris[:, 0], tris[:, 1], tris[:, 2]) < 0
    tris[cw] = tris[cw][:, ::-1]
    return tris


def test_lengths_round_as_math_dist():
    rng = np.random.default_rng(0)
    d = rng.normal(size=(20000, 2)) * np.exp2(rng.integers(-30, 30, size=(20000, 1)))
    expect = [math.dist(v, (0.0, 0.0)) for v in d.tolist()]
    assert _geom.lengths(d[:, 0], d[:, 1]).tolist() == expect
    grid = d.reshape(100, 200, 2)
    assert _geom.lengths(grid[..., 0], grid[..., 1]).tolist() == \
        np.reshape(expect, (100, 200)).tolist()


def test_distance_kernels_match_scalar_loops():
    rng = np.random.default_rng(1)
    t1, t2 = random_triangles(rng, 2000), random_triangles(rng, 2000)
    t2[:500] = t1[:500] * 0.5 + 0.1          # overlapping and nested pairs
    got = _geom.triangle_distances(t1, t2)
    expect = [oracles.triangle_distance(a, b) for a, b in zip(t1.tolist(), t2.tolist())]
    assert got.tolist() == expect
    assert (got == 0.0).sum() > 500 and (got > 0.0).sum() > 500
    for p in ([0.0, 0.0], [0.3, -0.2], t1[0, 1].tolist()):
        got = _geom.point_triangle_distances(np.array(p), t1)
        expect = [0.0 if oracles.point_in_triangle(p, *tri) else
                  min(oracles.point_segment_distance(p, tri[i], tri[(i + 1) % 3])
                      for i in range(3)) for tri in t1.tolist()]
        assert got.tolist() == expect
    # a degenerate segment measures the distance to its point
    assert _geom.point_segment_distances(np.array([3.0, 4.0]), np.zeros(2),
                                         np.zeros(2)).tolist() == 5.0


def traced_meshes(dialect, policy, ref_edges):
    meshes = []
    for seed, base in ((0, lshape6()), (1, square2())):
        initial = assign_reference_edges(base, ref_edges, seed)
        trace, _ = random_trace(initial, seed=seed, steps=4, dialect=dialect,
                                policy=None if policy == "bisec3" else make_policy(policy))
        meshes += trace[2::2]
    return meshes


def corners_of(mesh):
    """Points off the mesh nodes, a vertex, and an edge midpoint."""
    a, b = mesh.elements[mesh.n_elements // 2, :2]
    return [(0.0, 0.0), (0.3, 0.7), (0.25, 0.5), tuple(mesh.vertices[a]),
            tuple((mesh.vertices[a] + mesh.vertices[b]) / 2.0)]


@pytest.mark.parametrize("ref_edges", ["as-given", "random"])
@pytest.mark.parametrize("dialect,policy", COMBOS)
def test_corner_and_dorfler_selections_match_loops(dialect, policy, ref_edges):
    for mesh in traced_meshes(dialect, policy, ref_edges):
        for corner in corners_of(mesh):
            for radius in (0.0, 0.125, 0.3):
                config = RunConfig(strategy="corner", corner=corner, radius=radius)
                assert select_marked(mesh, config, None) == \
                    oracles.select_marked(mesh, config)
            for alpha, theta in itertools.product((0.5, 1.0, 2.0), (0.1, 0.5, 0.9)):
                config = RunConfig(strategy="dorfler", corner=corner,
                                   alpha=alpha, theta=theta)
                assert select_marked(mesh, config, None) == \
                    oracles.select_marked(mesh, config)


def test_selections_on_symmetric_ties():
    # square2 and its uniform refinements are symmetric about the diagonal
    # x = y, so mirror elements have bit-equal indicators and distances
    meshes = [square2(), uniform(square2(), "bisec3"),
              uniform(uniform(square2(), "bisec3"), "bisec1")]
    for mesh in meshes:
        for corner in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.25, 0.25)):
            etas = oracles.dorfler_indicators(mesh, corner, 1.0)
            assert len(np.unique(etas)) < mesh.n_elements
            for theta in np.linspace(0.1, 0.9, 9).tolist():
                config = RunConfig(strategy="dorfler", corner=corner, theta=theta)
                assert select_marked(mesh, config, None) == \
                    oracles.select_marked(mesh, config)
            for radius in (0.0, 0.25, 0.5):
                config = RunConfig(strategy="corner", corner=corner, radius=radius)
                assert select_marked(mesh, config, None) == \
                    oracles.select_marked(mesh, config)


def test_dorfler_indicator_that_is_not_finite_is_a_value_error():
    # (2/3, 1/3) is the centroid of square2's element 0; one ulp off it,
    # the power -40 overflows
    for x, alpha, error in ((2.0 / 3.0, 1.0, ZeroDivisionError),
                            (math.nextafter(2.0 / 3.0, 1.0), 40.0, OverflowError)):
        config = RunConfig(strategy="dorfler", corner=(x, 1.0 / 3.0), alpha=alpha)
        with pytest.raises(ValueError, match="centroid of element 0, raised to "
                                             f"the power {-alpha!r}"):
            select_marked(square2(), config, None)
        with pytest.raises(error):
            oracles.select_marked(square2(), config)


def kite_meshes():
    """Single triangles (0,0), (2,1), (1,2) under every vertex numbering and
    rotation: two longest edges of length sqrt(5), tied."""
    pts = [(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)]
    for perm in itertools.permutations(range(3)):
        vertices = [pts[perm.index(i)] for i in range(3)]
        for r in range(3):
            ccw = [perm[(r + k) % 3] for k in range(3)]
            yield Mesh(vertices, [ccw])


def test_longest_edge_rotations_match_loop():
    fine = lshape6()
    for _ in range(4):
        fine = uniform(fine, "bisec1")
    kites = list(kite_meshes())
    meshes = [*small_mesh_corpus().values(), Mesh(fine.vertices, fine.elements),
              *kites]
    for kite in kites[:2]:
        sons = uniform(uniform(kite, "bisec3"), "bisec1")
        meshes.append(Mesh(sons.vertices, sons.elements))
    for mesh in meshes:
        rotated = assign_reference_edges(mesh, "longest-edge")
        assert rotated.elements.tolist() == \
            oracles.longest_edge_references(mesh).tolist()
    # the tie goes to the edge whose opposite vertex has the smaller id
    for kite in kites:
        apex = assign_reference_edges(kite, "longest-edge").elements[0, 2]
        origin = kite.vertices.tolist().index([0.0, 0.0])
        assert apex == min({0, 1, 2} - {origin})


def test_chain_bounds_match_loop():
    for seed in range(8):
        base = square2() if seed % 2 else lshape6()
        initial = assign_reference_edges(base, "random", seed=seed)
        meshes, markings = random_trace(initial, seed=seed, steps=4,
                                        dialect="refineNVB", fraction=0.2)
        report = verify_chain_bounds(meshes[:-1], markings)
        assert report == oracles.verify_chain_bounds(meshes[:-1], markings)
    result = run_refinement(RunConfig(initial="lshape6", strategy="corner",
                                      steps=12))
    report = verify_chain_bounds(result.meshes[:-1], result.markings)
    assert report == oracles.verify_chain_bounds(result.meshes[:-1],
                                                 result.markings)
    assert report.max_dist_scaled == 0.0
