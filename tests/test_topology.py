"""The array edge topology, closure, splitter and random marking against
loop oracles."""

from __future__ import annotations

import re

import numpy as np
import pytest

import oracles
from conftest import COMBOS, assert_topology_matches, split_fathers
from nvbmesh.marking import (RunConfig, assign_reference_edges, build_initial,
                             make_policy, marking_for, select_marked)
from nvbmesh.mesh import (Mesh, MeshError, build_edge_table, lshape6, square2,
                          validate_mesh)
from nvbmesh.meshio import dumps_mesh, loads_mesh
from nvbmesh.refine import step_with_plan, uniform


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
        for ids in (marking.edges, plan.seed_edges, plan.closed_edges):
            assert ids.dtype == np.int64 and not ids.flags.writeable
            assert (np.diff(ids) > 0).all()
        assert plan.pattern.dtype == "<U12" and not plan.pattern.flags.writeable
        closed, iterations, patterns = oracles.closure(
            mesh, oracles.edge_keys(mesh, plan.seed_edges))
        patterns = np.array(patterns)
        full = np.flatnonzero(patterns == "bisec3")
        patterns[full] = pattern_policy.choose(
            full, np.isin(full, list(marking.elements)))
        patterns = patterns.tolist()
        assert (oracles.edge_keys(mesh, plan.closed_edges), plan.iterations,
                plan.pattern.tolist()) == (closed, iterations, patterns)
        expect, fathers = oracles.split(mesh, plan)
        assert dumps_mesh(fine) == dumps_mesh(expect)
        assert np.array_equal(fine.vertex_parents, expect.vertex_parents)
        assert fathers == split_fathers(mesh, plan, fine).tolist()
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


def test_triplicated_mesh_is_rejected_like_the_oracle():
    # every triangle three times, rows shuffled: every edge is over-shared
    fine = uniform(uniform(lshape6(), "bisec1"), "bisec1")
    order = np.random.default_rng(0).permutation(3 * fine.n_elements)
    elements = np.tile(fine.elements, (3, 1))[order]
    mesh = Mesh(fine.vertices, elements, validate=False)
    over, expect = ([v for v in report.violations if v.kind == "overshared_edge"]
                    for report in (validate_mesh(mesh), oracles.validate_mesh(mesh)))
    assert over == expect and len(over) > 1
    e, inc = next((e, inc) for e, inc in oracles.edge_table(elements).items()
                  if len(inc) > 2)
    message = re.escape(f"edge {e} shared by {len(inc)} elements") + "$"
    with pytest.raises(MeshError, match="^" + message):
        Mesh(fine.vertices, elements)
    # the file names the line of the last element on the first such edge
    line = 3 + mesh.n_vertices + over[0].ids[-1]
    message = re.escape(f"<string>:{line}: non-conforming mesh: {over[0].detail} "
                        f"({len(validate_mesh(mesh).violations)} violation(s) total)")
    with pytest.raises(MeshError, match="^" + message + "$"):
        loads_mesh(dumps_mesh(mesh))


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
                marked = select_marked(rotated, config, rng)
                assert marked.tolist() == oracles.random_marked(
                    rotated.n_elements, config.fraction, expect_rng)
