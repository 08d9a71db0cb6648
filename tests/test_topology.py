"""The array edge topology, closure, splitter and random marking against
loop oracles."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from nvbmesh.marking import (RunConfig, assign_reference_edges, build_initial,
                             make_policy, marking_for, select_marked)
from nvbmesh.mesh import Mesh, build_edge_table, lshape6, square2, validate_mesh
from nvbmesh.meshio import dumps_mesh
from nvbmesh.refine import step_with_plan, uniform

# every dialect with each pattern policy it admits
COMBOS = [("refineNVB", "bisec3"), ("refineNVB3", "bisec3"),
          ("refineNVBred", "bisec3"), ("refineNVBred", "red"),
          ("refine", "bisec3"), ("refine", "red"),
          ("refine", "interior-node")]


def assert_topology_matches(mesh):
    oracle = oracles.edge_table(mesh.elements)
    table = mesh.edge_table
    edge_id = {e: i for i, e in enumerate(oracle)}
    assert table.edge2nodes.tolist() == [list(e) for e in oracle]
    assert table.edge2elements.tolist() == [[*inc, -1][:2]
                                            for inc in oracle.values()]
    assert table.element2edges.tolist() == [
        [edge_id[e] for e in mesh.edges_of(t)] for t in range(mesh.n_elements)]
    for arr in (table.element2edges, table.edge2nodes, table.edge2elements):
        assert arr.dtype == np.int64 and not arr.flags.writeable


@pytest.mark.parametrize("ref_edges", ["as-given", "random"])
@pytest.mark.parametrize("dialect,policy", COMBOS)
def test_topology_and_split_match_oracles(dialect, policy, ref_edges):
    config = RunConfig(initial="lshape6", ref_edges=ref_edges,
                       dialect=dialect, policy=policy, strategy="random",
                       fraction=0.3, seed=11)
    rng = np.random.default_rng(config.seed)
    pattern_policy = make_policy(policy)
    mesh = build_initial(config)
    for _ in range(6):
        assert_topology_matches(mesh)
        marking = marking_for(mesh, dialect, select_marked(mesh, config, rng))
        fine, _, plan = step_with_plan(mesh, marking, dialect, pattern_policy)
        assert (plan.closed_edges, plan.iterations, plan.pattern) == \
            oracles.closure(mesh, plan.seed_edges)
        expect = oracles.split(mesh, plan, pattern_policy)
        assert dumps_mesh(fine) == dumps_mesh(expect)
        assert np.array_equal(fine.vertex_parents, expect.vertex_parents)
        assert np.array_equal(fine.parent_elems, expect.parent_elems)
        assert (fine.has_red_history, fine.has_bisec5_history) == \
            (expect.has_red_history, expect.has_bisec5_history)
        mesh = fine
    assert_topology_matches(mesh)
    assert mesh.n_elements > 100


def test_overshared_edge_is_reported_with_every_element():
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 1.0), (-0.5, 1.0)]
    elements = np.array([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    mesh = Mesh(vertices, elements, validate=False)
    table = build_edge_table(elements)
    assert table.edge2nodes[0].tolist() == [0, 1]
    assert table.edge2elements[0].tolist() == [0, 1]
    over = [v for v in validate_mesh(mesh).violations
            if v.kind == "overshared_edge"]
    assert [v.ids for v in over] == [(0, 1, 2)]


def test_random_reference_edges_and_marking_match_oracles():
    fine = lshape6()
    for _ in range(5):
        fine = uniform(fine, "bisec1")
    meshes = [square2(), lshape6(), Mesh(fine.vertices, fine.elements)]
    config = RunConfig(strategy="random", fraction=0.05)
    for mesh in meshes:
        for seed in range(21):
            rotated = assign_reference_edges(mesh, "random", seed)
            assert rotated.elements.tolist() == \
                oracles.random_reference_edges(mesh, seed).tolist()
            rng, expect_rng = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(3):
                assert select_marked(rotated, config, rng) == oracles.random_marked(
                    rotated.n_elements, config.fraction, expect_rng)
