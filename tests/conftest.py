"""Shared fixtures and randomized-run helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

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


ALL_POLICIES = (PatternPolicy.always_bisec3, PatternPolicy.always_red,
                PatternPolicy.interior_node)


def random_marking(mesh: Mesh, rng: np.random.Generator, dialect: str,
                   fraction: float = 0.3) -> MarkingInput:
    draws = rng.random(mesh.n_elements)
    marked = [t for t in range(mesh.n_elements) if draws[t] < fraction]
    if not marked:
        marked = [int(rng.integers(mesh.n_elements))]
    if dialect == "refineNVB":
        return MarkingInput.of(marked)
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


def same_arrays(a: Mesh, b: Mesh) -> bool:
    """Whether two meshes have bit-identical vertices (the sign of zero
    included), elements, generations, ancestors and red-son flags."""
    return (a.vertices.shape == b.vertices.shape
            and np.array_equal(a.vertices.view(np.int64), b.vertices.view(np.int64))
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("elements", "gen", "ancestor", "red_son")))


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
