"""Shared fixtures and randomized-run helpers for the test suite."""

from __future__ import annotations

import itertools
import os

# one BLAS thread, as perfbench/run.py pins it: on a 2-vCPU host the
# suite's small solves ran slower on a pool of two, and a pool contends
# with any other process on the host.  Set before numpy is imported, which
# reads these once.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest
from hypothesis import settings

import oracles
from nvbmesh.mesh import Mesh, lshape6, square2
from nvbmesh.refine import MarkingInput, PatternPolicy, refine_step


# property tests: a fixed seed and a bounded example count keep them
# deterministic and fast
settings.register_profile("nvbmesh", derandomize=True, database=None,
                          deadline=None, max_examples=100)


def square2_incompatible() -> Mesh:
    """Unit square where the diagonal is the reference edge of exactly one
    element: T0's reference edge is the bottom edge instead."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    elements = [(0, 1, 2), (0, 2, 3)]
    return Mesh(vertices, elements)


def square2_boundary_refs() -> Mesh:
    """Unit square where both reference edges lie on the boundary; the
    shared diagonal is the reference edge of neither (still BDD)."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    elements = [(0, 1, 2), (2, 3, 0)]
    return Mesh(vertices, elements)


def crisscross() -> Mesh:
    """Unit square split into 4 triangles through the center (8 edges)."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    elements = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)]
    return Mesh(vertices, elements)


def single_triangle() -> Mesh:
    return Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])


def chained_mesh(points, triangles, succ) -> Mesh:
    """Generation-0 mesh of the triangles (vertex-id triples in any order)
    with N(t) = succ[t]: t's reference edge is the edge it shares with
    succ[t], or for succ[t] = -1 one it shares with no other triangle.
    The elements are listed in a shuffled order."""
    tris = [set(t) for t in triangles]
    elements = []
    for t, tri in enumerate(tris):
        if succ[t] >= 0:
            a, b = sorted(tri & tris[succ[t]])
        else:
            a, b = next(e for e in itertools.combinations(sorted(tri), 2)
                        if sum(set(e) <= other for other in tris) == 1)
        apex = (tri - {a, b}).pop()
        ccw = oracles.signed_area(points[a], points[b], points[apex]) > 0
        elements.append((a, b, apex) if ccw else (b, a, apex))
    order = np.random.default_rng(0).permutation(len(elements))
    return Mesh(points, np.array(elements)[order])


# a ring of 16 points round the origin, counterclockwise, and the fan of
# the 16 elements between the origin and two consecutive ring points
_RING = [(-2, -2), (-1, -2), (0, -2), (1, -2), (2, -2), (2, -1), (2, 0), (2, 1),
         (2, 2), (1, 2), (0, 2), (-1, 2), (-2, 2), (-2, 1), (-2, 0), (-2, -1)]
FAN_POINTS = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in _RING]
FAN = [(0, 1 + i, 1 + (i + 1) % 16) for i in range(16)]


def fan_cycle() -> Mesh:
    """The fan alone, each element's N(T) the next one round the origin:
    one reference-neighbour cycle through all 16 elements."""
    return chained_mesh(FAN_POINTS, FAN, [(i + 1) % 16 for i in range(16)])


# every dialect with each pattern policy it admits, by RunConfig names
COMBOS = [("refineNVB", "bisec3"), ("refineNVB3", "bisec3"),
          ("refineNVBred", "bisec3"), ("refineNVBred", "red"),
          ("refine", "bisec3"), ("refine", "red"),
          ("refine", "interior-node")]


def random_marking(mesh: Mesh, rng: np.random.Generator, dialect: str,
                   fraction: float = 0.3) -> MarkingInput:
    draws = rng.random(mesh.n_elements)
    marked = [t for t in range(mesh.n_elements) if draws[t] < fraction]
    if not marked:
        marked = [int(rng.integers(mesh.n_elements))]
    if dialect == "refineNVB":
        return MarkingInput(marked)
    return MarkingInput.all_edges(mesh, marked)


def random_trace(initial: Mesh, seed: int, steps: int, dialect: str,
                 policy: PatternPolicy | None = None, fraction: float = 0.3):
    """Seeded refinement trace; returns (meshes, markings)."""
    rng = np.random.default_rng(seed)
    meshes = [initial]
    markings = []
    for _ in range(steps):
        marking = random_marking(meshes[-1], rng, dialect, fraction)
        mesh, _ = refine_step(meshes[-1], marking, dialect, policy)
        meshes.append(mesh)
        markings.append(marking)
    return meshes, markings


def only_builtin_types(value) -> bool:
    """Whether value is built of Python's bool, int, float, str and None
    through lists, tuples and str-keyed dicts.  A NumPy scalar fails:
    json.dumps refuses np.bool_ and np.int64, and np.float64, a float
    subclass it accepts, would hide an array leaking into a report."""
    if isinstance(value, (list, tuple)):
        return all(map(only_builtin_types, value))
    if isinstance(value, dict):
        return all(type(k) is str and only_builtin_types(v)
                   for k, v in value.items())
    return type(value) in (bool, int, float, str, type(None))


def same_arrays(a: Mesh, b: Mesh) -> bool:
    """Whether two meshes have bit-identical vertices (the sign of zero
    included), elements, generations, ancestors and red-son flags."""
    return (a.vertices.shape == b.vertices.shape
            and np.array_equal(a.vertices.view(np.int64), b.vertices.view(np.int64))
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("elements", "gen", "ancestor", "red_son")))


# sons per pattern, counted by hand from the templates, not read from refine
SONS = {"none": 1, "bisec1": 2, "bisec2_left": 3, "bisec2_right": 3,
        "bisec3": 4, "red": 4, "bisec5": 6}


def split_fathers(mesh: Mesh, plan, fine: Mesh) -> np.ndarray:
    """The father in ``mesh`` of each element of ``fine``, the split of
    ``mesh`` by ``plan``: each element's sons in element order, as many as
    its pattern makes.  Asserts that every son lies inside its father, by
    the son's interior point ((v0+v1)/2 + v2)/2, and that the sons' areas
    sum to the father's exactly."""
    fathers = np.repeat(np.arange(mesh.n_elements),
                        [SONS[p] for p in plan.pattern.tolist()])
    assert fathers.size == fine.n_elements
    own = np.take(fine.vertices, fine.elements, axis=0)
    inner = ((own[:, 0] + own[:, 1]) / 2.0 + own[:, 2]) / 2.0
    tri = np.take(mesh.vertices, mesh.elements[fathers], axis=0)
    for k in range(3):
        e, q = tri[:, (k + 1) % 3] - tri[:, k], inner - tri[:, k]
        assert (e[:, 0] * q[:, 1] > e[:, 1] * q[:, 0]).all()
    assert np.array_equal(np.bincount(fathers, fine.areas, mesh.n_elements),
                          mesh.areas)
    return fathers


def assert_topology_matches(mesh):
    """``mesh.edge_table`` equals the dict oracle's table of its elements
    and holds read-only int64 arrays."""
    oracle = oracles.edge_table(mesh.elements)
    table = mesh.edge_table
    edge_id = {e: i for i, e in enumerate(oracle)}
    assert table.edge2nodes.tolist() == [list(e) for e in oracle]
    assert table.edge2elements.tolist() == [[*inc, -1][:2]
                                            for inc in oracle.values()]
    assert table.element2edges.tolist() == [
        [edge_id[e] for e in oracles.edges_of(mesh, t)]
        for t in range(mesh.n_elements)]
    for arr in (table.element2edges, table.edge2nodes, table.edge2elements):
        assert arr.dtype == np.int64 and not arr.flags.writeable


def small_mesh_corpus():
    """Meshes with at most 12 edges, for exhaustive closure enumeration."""
    return {
        "square2": square2(),
        "square2_incompatible": square2_incompatible(),
        "square2_boundary_refs": square2_boundary_refs(),
        "crisscross": crisscross(),
        "single": single_triangle(),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sq():
    return square2()


@pytest.fixture
def lshape():
    return lshape6()
