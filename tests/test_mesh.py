"""Mesh data model: conformity, neighbors, structure flags, restriction."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import coords, point
from nvbmesh import _geom
from conftest import (COMBOS, assert_topology_matches, crisscross, random_trace,
                      single_triangle, small_mesh_corpus, split_fathers,
                      square2_boundary_refs, square2_incompatible)
from nvbmesh.mesh import (COMPATIBLY_DIVISIBLE, INCOMPATIBLE, NOT_ADJACENT,
                          Mesh, MeshError, build_edge_table, classify_pair,
                          lshape6, reference_neighbor, restrict, same_mesh, square2,
                          Violation, structure_flags, validate_mesh)
from nvbmesh.analysis import verify_levels
from nvbmesh.marking import assign_reference_edges, make_policy
from nvbmesh.correspondence import CorrMap
from nvbmesh.refine import MarkingInput, refine_step, step_with_plan, uniform
from nvbmesh.stability import NodeWeights, check_conditions, compute_weights


def test_valid_square_reports_clean(sq):
    assert validate_mesh(sq).ok


def test_cw_triple_reports_orientation_violation():
    mesh = Mesh([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
                [(2, 0, 1), (2, 0, 3)],  # second triple is CW
                validate=False)
    report = validate_mesh(mesh)
    assert "inverted_element" in report.kinds()
    assert not report.ok


def _tri_intersection_violations(mesh):
    """Oracle: pairwise closed-triangle intersections must be empty, a
    common vertex, or a common full edge of both."""
    bad = []
    for t1, t2 in itertools.combinations(range(mesh.n_elements), 2):
        shared_nodes = set(int(v) for v in mesh.elements[t1]) & \
            set(int(v) for v in mesh.elements[t2])
        if len(shared_nodes) >= 2:
            continue  # common edge (over-sharing is caught separately)
        # no shared edge: any vertex of one strictly inside an edge of the
        # other witnesses a non-conforming contact
        for a, b in ((t1, t2), (t2, t1)):
            tri = coords(mesh, b)
            edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
            for v in mesh.elements[a]:
                p = point(mesh, int(v))
                if any(oracles.point_strictly_inside_segment(p, e0, e1)
                       for e0, e1 in edges):
                    bad.append((t1, t2))
    return bad


def test_hanging_node_detected_and_matches_pairwise_oracle():
    # one long edge abuts two half-edges of the upper triangles
    vertices = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, -1.0)]
    mesh = Mesh(vertices, [(0, 2, 3), (2, 1, 3), (1, 0, 4)], validate=False)
    report = validate_mesh(mesh)
    assert "hanging_node" in report.kinds()
    assert _tri_intersection_violations(mesh), "oracle must also flag it"


_NAN, _INF = math.nan, math.inf
_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
_EDGE_CASES = {
    # two NaN rows are not duplicates of each other
    "nan_pair": (_SQUARE + [(_NAN, _NAN), (_NAN, _NAN)], [(2, 0, 1), (0, 2, 3)]),
    "inf_duplicates": (_SQUARE + [(_INF, 0.0), (_INF, 0.0), (1.0, -_INF)],
                       [(2, 0, 1), (0, 2, 3)]),
    "negative_zero_duplicate": (_SQUARE + [(-0.0, 0.0)], [(2, 0, 1), (4, 2, 3)]),
    # the left edge's midpoint is (-0.0, 0.0); vertex 2 sits there as (0.0, 0.0)
    "negative_zero_hanging": ([(-0.0, -1.0), (-0.0, 1.0), (0.0, 0.0), (1.0, 0.0),
                               (-1.0, 0.0)], [(0, 1, 4), (0, 3, 2), (2, 3, 1)]),
    "overshared_edge": (_SQUARE + [(0.5, -1.0)], [(0, 1, 2), (0, 2, 3), (1, 0, 4),
                                                  (0, 1, 3)]),
    "orphans": (_SQUARE + [(2.0, 2.0), (3.0, 3.0)], [(2, 0, 1), (0, 2, 3)]),
    # every edge has two incidences, both from the same pair of elements
    "doubly_covered": (_SQUARE[:3], [(0, 1, 2), (1, 2, 0)]),
    "doubly_covered_flipped": (_SQUARE[:3], [(0, 1, 2), (0, 2, 1)]),
    "doubly_covered_pairs": (_SQUARE, [(2, 0, 1), (0, 2, 3), (0, 1, 2),
                                       (3, 0, 2)]),
    # two CCW elements on one side of their shared edge (0, 1) overlap; in
    # "fold_then_duplicate" that pair is reported before a later-numbered
    # doubly covered triangle
    "folded": ([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 0.5)],
               [(0, 1, 2), (0, 1, 3)]),
    "fold_then_duplicate": ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.25, 0.25),
                             (5.0, 5.0), (6.0, 5.0), (5.0, 6.0)],
                            [(0, 1, 2), (4, 5, 6), (0, 1, 3), (5, 6, 4)]),
    # an edge between coincident vertices has its ends as its midpoint
    "coincident_ends": (_SQUARE + [(1.0, 0.0)], [(2, 0, 1), (0, 2, 3), (1, 4, 2)]),
    "mixed": ([(-0.0, -1.0), (-0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (-1.0, 0.0),
               (_NAN, 1.0), (_NAN, 1.0), (_INF, _INF), (_INF, _INF), (0.0, -0.0),
               (0.5, 0.5), (1.0, 0.0)],
              [(0, 1, 4), (0, 3, 2), (2, 3, 1), (11, 10, 1), (1, 0, 10),
               (0, 3, 1)]),
}


@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_validate_mesh_edge_cases_match_oracle(name):
    vertices, elements = _EDGE_CASES[name]
    mesh = Mesh(vertices, elements, validate=False)
    for exhaustive in (None, False, True):
        got = validate_mesh(mesh, exhaustive).violations
        assert got == oracles.validate_mesh(mesh, exhaustive).violations
    assert got, name


@pytest.mark.parametrize("vertices,bad", [
    ([(0.0, 0.0), (1.0, 0.0), (_NAN, 1.0), (0.0, 1.0)], 2),
    ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, _INF)], 3),
    (_SQUARE + [(_NAN, 0.5)], 4),  # orphan: in no element
], ids=["nan", "inf", "orphan_nan"])
def test_mesh_refuses_non_finite_coordinates(vertices, bad):
    elements = [(0, 1, 3), (1, 2, 3)]
    message = f"vertex {bad} has non-finite coordinates"
    with pytest.raises(MeshError, match=message):
        Mesh(vertices, elements)
    unchecked = Mesh(vertices, elements, validate=False)
    assert message in [v.detail for v in validate_mesh(unchecked).violations]


def test_validate_mesh_matches_oracle_on_refined_and_tampered_meshes():
    meshes = []
    for seed in range(4):
        initial = lshape6() if seed % 2 else square2()
        fine = random_trace(initial, seed=seed, steps=7, dialect="refineNVB",
                            fraction=0.3)[0][-1]
        meshes.append(fine)
        # move vertices onto other vertices and onto edge midpoints
        rng = np.random.default_rng(seed)
        xy = fine.vertices.copy()
        e2n = fine.edge_table.edge2nodes
        moved = rng.choice(fine.n_vertices, size=6, replace=False)
        xy[moved[:3]] = xy[rng.choice(fine.n_vertices, size=3)]
        e = rng.choice(len(e2n), size=3, replace=False)
        xy[moved[3:]] = (xy[e2n[e, 0]] + xy[e2n[e, 1]]) / 2.0
        meshes.append(Mesh(xy, fine.elements, gen=fine.gen, ancestor=fine.ancestor,
                           validate=False))
    kinds = set()
    for mesh in meshes:
        for exhaustive in (None, False):
            report = validate_mesh(mesh, exhaustive)
            expect = oracles.validate_mesh(mesh, exhaustive)
            assert report.violations == expect.violations
            kinds |= report.kinds()
    assert {"duplicate_vertex", "hanging_node", "inverted_element"} <= kinds


def test_doubly_covered_triangle_detected():
    # the constructor refuses a duplicate element as a fold of its edges
    with pytest.raises(MeshError, match=r"^elements 0 and 1 lie on one side "
                       r"of their shared edge \(0, 1\)$"):
        Mesh(_SQUARE[:3], [(0, 1, 2), (1, 2, 0)])
    mesh = Mesh(_SQUARE[:3], [(0, 1, 2), (1, 2, 0)], validate=False)
    assert validate_mesh(mesh).violations == [Violation(
        "duplicate_element", "elements 0 and 1 cover the same triangle",
        (0, 1))]


def test_duplicate_vertex_detected():
    mesh = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0)],
                [(0, 1, 2), (0, 3, 2)], validate=False)
    assert "duplicate_vertex" in validate_mesh(mesh).kinds()


def test_reference_neighbor_mutual_on_bdd_square(sq):
    assert reference_neighbor(sq, 0) == 1
    assert reference_neighbor(sq, 1) == 0


def test_reference_neighbor_single_triangle_boundary():
    assert reference_neighbor(single_triangle(), 0) is None


_NEIGHBOR_MESHES = {
    **small_mesh_corpus(), "lshape6": lshape6(),
    "random_trace": random_trace(assign_reference_edges(lshape6(), "random", seed=3),
                                 seed=3, steps=4, dialect="refineNVB")[0][-1]}


@pytest.mark.parametrize("name", list(_NEIGHBOR_MESHES))
def test_reference_neighbor_lshape_boundary_legs(name):
    # oracle: boundary edges are exactly the edge-table entries of length 1
    mesh = _NEIGHBOR_MESHES[name]
    table = oracles.edge_table(mesh.elements)
    boundary = {e for e, inc in table.items() if len(inc) == 1}
    neighbors = np.stack([mesh.edge_table.neighbors(slot) for slot in range(3)],
                         axis=1)
    for t in range(mesh.n_elements):
        ref = oracles.ref_edge(mesh, t)
        expected = None if ref in boundary else \
            next(i for i in table[ref] if i != t)
        assert reference_neighbor(mesh, t) == expected
        assert neighbors[t].tolist() == [
            -1 if e in boundary else next(i for i in table[e] if i != t)
            for e in oracles.edges_of(mesh, t)]
    # interior edges in id (first-touch) order, compatibly divisible iff the
    # reference edge of both elements or of neither
    e, t1, t2, compatible = mesh.edge_table.shared_edges()
    shared = {key: inc for key, inc in table.items() if len(inc) == 2}
    assert list(zip(map(tuple, mesh.edge_table.edge2nodes[e].tolist()),
                    t1.tolist(), t2.tolist(), compatible.tolist())) == [
        (key, p, q, (oracles.ref_edge(mesh, p) == key)
         == (oracles.ref_edge(mesh, q) == key)) for key, (p, q) in shared.items()]


def test_reference_neighbor_bad_id(sq):
    with pytest.raises(ValueError):
        reference_neighbor(sq, 5)


def test_classify_pair_cases(sq):
    assert classify_pair(sq, 0, 1) == COMPATIBLY_DIVISIBLE
    inc = square2_incompatible()
    assert classify_pair(inc, 0, 1) == INCOMPATIBLE
    cc = crisscross()
    assert classify_pair(cc, 0, 2) == NOT_ADJACENT


def test_classify_pair_takes_any_integer_id(sq):
    for t1, t2 in ((np.int64(0), 1), (0, np.int32(1)), (np.uint8(1), False)):
        assert classify_pair(sq, t1, t2) == COMPATIBLY_DIVISIBLE
    with pytest.raises(ValueError, match="two distinct elements"):
        classify_pair(sq, np.int64(1), True)
    for t1, t2 in ((np.int64(0), 1.0), (0.0, 1)):
        with pytest.raises(TypeError):
            classify_pair(sq, t1, t2)


def test_classify_pair_symmetric():
    for mesh in small_mesh_corpus().values():
        for t1, t2 in itertools.combinations(range(mesh.n_elements), 2):
            assert classify_pair(mesh, t1, t2) == classify_pair(mesh, t2, t1)


def test_classify_pair_matches_node_pair_definition():
    for mesh in small_mesh_corpus().values():
        for t1, t2 in itertools.permutations(range(mesh.n_elements), 2):
            shared = set(oracles.edges_of(mesh, t1)) & set(oracles.edges_of(mesh, t2))
            on_ref = sum(oracles.ref_edge(mesh, t) in shared for t in (t1, t2))
            expected = (NOT_ADJACENT if not shared else COMPATIBLY_DIVISIBLE
                        if on_ref in (0, 2) else INCOMPATIBLE)
            assert classify_pair(mesh, t1, t2) == expected


def test_structure_flags_bdd_square(sq):
    flags = structure_flags(sq)
    assert flags.is_bdd and flags.is_weak_bdd
    assert flags.isolated.size == 0


def test_structure_flags_incompatible_square():
    flags = structure_flags(square2_incompatible())
    assert not flags.is_bdd


def test_bdd_implies_weak_bdd_on_corpus():
    # exhaustive pair enumeration on every corpus mesh
    for name, mesh in small_mesh_corpus().items():
        flags = structure_flags(mesh)
        if flags.is_bdd:
            assert flags.is_weak_bdd, name


def test_boundary_reference_edges_literal_reading():
    # both reference edges on the boundary: literally isolated, and the two
    # elements share the diagonal, so the literal weak-BDD reading fails
    # while the boundary-exempt primary reading holds
    mesh = square2_boundary_refs()
    flags = structure_flags(mesh)
    assert flags.is_bdd
    assert flags.is_weak_bdd
    assert flags.isolated_literal.tolist() == [0, 1]
    for ids in (flags.isolated, flags.isolated_literal):
        assert ids.dtype == np.int64 and not ids.flags.writeable
    assert not flags.is_weak_bdd_literal


def test_area_and_diameter_right_triangle():
    tri = single_triangle()
    assert tri.areas.tolist() == [0.5]
    assert tri.diameters.tolist() == [math.sqrt(2.0)]


def test_cached_geometry_is_read_only_and_shared(sq):
    fine = uniform(sq, "bisec3")
    for name in ("areas", "diameters"):
        arr = getattr(fine, name)
        assert arr is getattr(fine, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_mesh_attributes_cannot_be_rebound_or_deleted(sq):
    fine = uniform(sq, "bisec3")
    with pytest.raises(AttributeError, match="^a Mesh is immutable: cannot "
                       "set 'areas'$"):
        fine.areas = np.array([-1.0, -1.0])
    with pytest.raises(AttributeError, match="cannot set 'elements'"):
        fine.elements = fine.elements[::-1]
    for name in ("areas", "diameters", "edge_table", "gen", "initial"):
        with pytest.raises(AttributeError, match=f"cannot delete '{name}'"):
            delattr(fine, name)
    with pytest.raises(AttributeError, match="cannot set 'extra'"):
        fine.extra = None
    assert validate_mesh(fine).ok and fine.total_area() == 1.0
    # the cached geometry still fills on first use, past the guard
    unchecked = Mesh(fine.vertices, fine.elements, validate=False)
    assert "areas" not in vars(unchecked)
    assert unchecked.areas is unchecked.areas
    assert np.array_equal(unchecked.diameters, fine.diameters)


def test_verifiers_compute_the_diameters_once(sq, monkeypatch):
    kernel, calls = _geom.diameters, []
    monkeypatch.setattr(_geom, "diameters",
                        lambda *args: calls.append(args) or kernel(*args))
    fine = uniform(uniform(sq, "bisec3"), "bisec1")
    verify_levels(fine, sq)
    check_conditions(fine, compute_weights(fine))
    assert len(calls) == 1


def test_bisection_halves_area(sq):
    fine, _, plan = step_with_plan(sq, MarkingInput.of([0]), "refineNVB")
    fathers = split_fathers(sq, plan, fine)
    fine_areas, sq_areas = fine.areas, sq.areas
    for t in range(fine.n_elements):
        parent = int(fathers[t])
        if int(fine.gen[t]) == 1:
            assert fine_areas[t] == sq_areas[parent] / 2.0


def test_uniform_bisec3_son_areas(sq):
    fine = uniform(sq, "bisec3")
    assert fine.n_elements == 8
    # oracle: shoelace per son
    areas = fine.areas
    for t in range(fine.n_elements):
        p0, p1, p2 = coords(fine, t)
        shoelace = 0.5 * abs(
            p0[0] * (p1[1] - p2[1]) + p1[0] * (p2[1] - p0[1])
            + p2[0] * (p0[1] - p1[1]))
        assert areas[t] == shoelace == 0.125


def test_restrict_identity(sq):
    sub = restrict(sq, [0, 1])
    assert same_mesh(sub, sq)


def test_restrict_after_refinement(sq):
    marking = MarkingInput.all_edges(sq, [0])
    fine, _ = refine_step(sq, marking, "refineNVB3")
    sub = restrict(fine, [1])
    # oracle: independent recomputation by ancestor filtering
    expected = sorted(coords(fine, t) for t in range(fine.n_elements)
                      if int(fine.ancestor[t]) == 1)
    got = sorted(coords(sub, t) for t in range(sub.n_elements))
    assert got == expected
    assert validate_mesh(sub).ok
    assert (sub.gen >= 0).all()


def test_restrict_is_conforming_on_random_runs(rng):
    from conftest import random_trace

    meshes, _ = random_trace(lshape6(), seed=7, steps=4, dialect="refineNVB")
    fine = meshes[-1]
    sub = restrict(fine, [0, 1, 2])
    assert validate_mesh(sub).ok
    # generations and areas carried over exactly
    assert sub.total_area() == sum(
        fine.areas[np.isin(fine.ancestor, (0, 1, 2))].tolist())


def test_restrict_empty_subset_rejected(sq):
    with pytest.raises(ValueError):
        restrict(sq, [])


def test_restrict_takes_integer_ids_only(sq):
    fine = uniform(sq, "bisec3")
    for ids in ([np.int64(1)], [np.uint8(1), 1], (True,), range(1, 2)):
        assert same_mesh(restrict(fine, ids), restrict(fine, [1]))
    for ids in ([1.7], [1.0], [np.float64(1.0)], [0, 0.5]):
        with pytest.raises(TypeError):
            restrict(fine, ids)


@pytest.mark.parametrize("ids", [[2], [-1], [0, 5]])
def test_restrict_refuses_an_id_that_is_no_ancestor(sq, ids):
    bad = [i for i in ids if i not in (0, 1)][0]
    for mesh in (sq, uniform(sq, "bisec1")):
        with pytest.raises(ValueError, match=f"^initial element {bad} is no "
                           "ancestor of the mesh$"):
            restrict(mesh, ids)


def test_total_area_preserved_and_area_generation_exact():
    from conftest import random_trace

    for dialect, policy_name in (("refineNVB", None), ("refine", "interior")):
        from nvbmesh.refine import PatternPolicy

        policy = PatternPolicy.interior_node() if policy_name else None
        meshes, _ = random_trace(square2(), seed=3, steps=5, dialect=dialect,
                                 policy=policy)
        initial = meshes[0]
        anc_areas = initial.areas
        for mesh in meshes:
            assert abs(mesh.total_area() - 1.0) < 1e-12
            areas = mesh.areas
            for t in range(mesh.n_elements):
                expect = anc_areas[int(mesh.ancestor[t])] * 2.0 ** (-int(mesh.gen[t]))
                assert areas[t] == expect


def test_edge_table_matches_dict_oracle():
    for mesh in small_mesh_corpus().values():
        assert_topology_matches(mesh)


def assert_same_edge_table(elements):
    """``build_edge_table`` equals the stable-argsort oracle array for array."""
    got, expect = build_edge_table(elements), oracles.stable_edge_table(elements)
    for name in ("element2edges", "edge2nodes", "edge2elements"):
        a, b = getattr(got, name), getattr(expect, name)
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@settings(settings.get_profile("nvbmesh"))
@given(st.sampled_from([square2, lshape6]),
       st.sampled_from(["as-given", "random"]), st.sampled_from(COMBOS),
       st.integers(0, 2**16), st.integers(1, 4))
def test_edge_table_matches_stable_sort_on_relabelled_meshes(
        make_initial, refs, combo, seed, steps):
    initial = assign_reference_edges(make_initial(), refs, seed=seed)
    dialect, policy = combo
    mesh = random_trace(initial, seed=seed, steps=steps, dialect=dialect,
                        policy=make_policy(policy))[0][-1]
    relabel = np.random.default_rng(seed).permutation(mesh.n_vertices)
    assert_same_edge_table(relabel[mesh.elements])


@settings(settings.get_profile("nvbmesh"))
@given(st.integers(3, 4), st.lists(st.permutations(range(6)), max_size=8),
       st.randoms(use_true_random=False))
def test_edge_table_matches_stable_sort_on_overshared_edges(fan, extra, rnd):
    # edge (0, 1) in 3-4 triangles, among others over six vertices, rows
    # and the vertices of each row in random order
    rows = [[0, 1, 2 + i] for i in range(fan)] + [p[:3] for p in extra]
    for row in rows:
        rnd.shuffle(row)
    rnd.shuffle(rows)
    count = np.bincount(build_edge_table(rows).element2edges.ravel())
    assert count.max() >= fan
    assert_same_edge_table(np.array(rows))


@settings(settings.get_profile("nvbmesh"))
@given(st.lists(st.integers(0, 2**31), min_size=3, max_size=3, unique=True))
def test_edge_table_matches_stable_sort_on_one_element(triple):
    assert_same_edge_table(np.array([triple]))


def _key_bound(elements) -> int:
    """(largest edge code + 1) * 3m, computed in Python integers: the
    combined sort key fits int64 iff this is at most 2**63."""
    width = max(map(max, elements)) + 1
    codes = [min(a, b) * width + max(a, b)
             for t in elements for a, b in zip(t, t[1:] + t[:1])]
    return (max(codes) + 1) * 3 * len(elements)


def test_edge_table_matches_stable_sort_at_the_key_size_limit():
    # two elements on one shared edge, with vertex ids near 1.2e9: the
    # largest base id whose key still fits, and the next one
    def elements(base):
        return [[base + 1, base + 2, base], [base + 2, base + 1, base + 3]]

    lo, hi = 0, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _key_bound(elements(mid)) <= 2**63 else (lo, mid)
    assert _key_bound(elements(lo)) <= 2**63 < _key_bound(elements(lo + 1))
    for base in (lo, lo + 1):
        assert_same_edge_table(np.array(elements(base)))
        table = build_edge_table(np.array(elements(base)))
        assert table.edge2elements.tolist() == [[0, 1], [0, -1], [0, -1],
                                                [1, -1], [1, -1]]


def test_incidence_pair_count():
    for mesh in small_mesh_corpus().values():
        assert len(oracles.incidence_pairs(mesh)) == 3 * mesh.n_elements


def test_mesh_is_immutable(sq):
    with pytest.raises(ValueError):
        sq.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        sq.elements[0, 0] = 2


def test_mesh_owns_its_arrays(sq):
    fine = uniform(uniform(sq, "bisec1"), "bisec3")
    v, e = fine.vertices.copy(), fine.elements.copy()
    view = e[:]
    mesh = Mesh(v, e)
    assert v.flags.writeable and e.flags.writeable
    before = (mesh.vertices.copy(), mesh.elements.copy(),
              validate_mesh(mesh).violations)
    view[0] = view[1]
    e[2] = e[3, [1, 2, 0]]
    v[:] = 0.0
    assert np.array_equal(mesh.vertices, before[0])
    assert np.array_equal(mesh.elements, before[1])
    assert validate_mesh(mesh).violations == before[2] == []
    # a frozen input is copied too, so a writable view taken before it was
    # frozen cannot lay a second triangle over element 0 behind the table
    e = np.array(sq.elements)
    view = e[:]
    e.setflags(write=False)
    m = Mesh(sq.vertices, e)
    before = m.elements.copy(), validate_mesh(m).violations
    view[1] = [0, 1, 2]
    assert np.array_equal(m.elements, before[0])
    assert validate_mesh(m).violations == before[1] == []
    # another mesh's arrays are copied as well
    names = ("vertices", "elements", "gen", "ancestor", "red_son",
             "vertex_parents")
    again = Mesh(**{name: getattr(fine, name) for name in names})
    for name in names:
        assert np.array_equal(getattr(again, name), getattr(fine, name))
        assert not np.shares_memory(getattr(again, name), getattr(fine, name))


def _value_and_inputs(kind: str, sq: Mesh):
    """A constructor of ``kind`` over fresh writable input arrays, the
    inputs by keyword and the names of the value's arrays."""
    fine = uniform(sq, "bisec1")
    if kind == "Mesh":
        names = ("vertices", "elements", "gen", "ancestor", "red_son",
                 "vertex_parents")
        inputs = {name: np.array(getattr(fine, name)) for name in names}
        return Mesh, inputs, names
    if kind == "NodeWeights":
        inputs = {"exponents": np.array(compute_weights(fine).exponents)}
        return NodeWeights, inputs, ("exponents",)
    if kind == "MarkingInput":
        inputs = {"edges": np.array(fine.edge_table.element2edges[1])}
        inputs["edges"].sort()
        return (lambda **kw: MarkingInput(frozenset([1]), **kw), inputs,
                ("edges",))
    inputs = {"image": np.arange(3 * fine.n_elements).reshape(-1, 3)}
    return (lambda **kw: CorrMap(fine, fine, **kw), inputs, ("image",))


@pytest.mark.parametrize("frozen", [False, True],
                         ids=["writable", "frozen_after_a_view"])
@pytest.mark.parametrize("kind", ["Mesh", "NodeWeights", "MarkingInput",
                                  "CorrMap"])
def test_values_copy_and_freeze_their_input_arrays(sq, kind, frozen):
    make, inputs, names = _value_and_inputs(kind, sq)
    writable = list(inputs.values())
    if frozen:
        writable = [arr[:] for arr in writable]
        for arr in inputs.values():
            arr.setflags(write=False)
    value = make(**inputs)
    before = [getattr(value, name).copy() for name in names]
    for arr in writable:
        if arr.dtype == bool:
            np.logical_not(arr, out=arr)
        else:
            arr += 1
    for name, old in zip(names, before):
        arr = getattr(value, name)
        assert np.array_equal(arr, old), name
        assert not arr.flags.writeable, name
        assert not any(np.shares_memory(arr, given)
                       for given in inputs.values()), name


@pytest.mark.parametrize("elements,kwargs,message", [
    (np.zeros((0, 3), dtype=np.int64), {}, "mesh has no elements"),
    ([(2, 0, 1), (0, 2, 4)], {}, "element vertex index out of range"),
    ([(2, 0, 1), (0, 2, 3)], {"gen": [0, -1]}, "negative generation"),
    ([(2, 0, 1), (0, 2, 3)], {"ancestor": [-1, 0]}, "negative ancestor id"),
    ([(2, 0, 1), (0, 2, 3)], {"ancestor": [0, 2]},
     "ancestor id out of range of the initial mesh"),
])
def test_construction_errors(sq, elements, kwargs, message):
    with pytest.raises(MeshError, match=f"^{message}$"):
        Mesh(sq.vertices, elements, **kwargs)


def test_construction_rejects_cw():
    with pytest.raises(MeshError):
        Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 2, 1)])


def test_construction_rejects_a_folded_edge():
    # both triangles lie above their shared edge (0, 1): each is CCW and
    # no edge has three elements, yet they overlap
    vertices = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, 0.5)]
    elements = [(0, 1, 2), (0, 1, 3)]
    detail = "elements 0 and 1 lie on one side of their shared edge (0, 1)"
    with pytest.raises(MeshError, match=f"^{re.escape(detail)}$"):
        Mesh(vertices, elements)
    folded = Mesh(vertices, elements, validate=False)
    assert validate_mesh(folded).violations == [
        Violation("folded_edge", detail, (0, 1))]
    # a second triangle below the edge, (1, 0, 4), is no fold
    Mesh(vertices + [(0.5, -1.0)], [(0, 1, 2), (1, 0, 4)])


def test_construction_rejects_overshared_edge():
    with pytest.raises(MeshError):
        Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 1.0), (-0.5, 1.0)],
             [(0, 1, 2), (0, 1, 3), (0, 1, 4)], validate=True)


def test_lshape_builder(lshape):
    assert lshape.n_vertices == 8
    assert lshape.n_elements == 6
    assert lshape.total_area() == 3.0
    assert validate_mesh(lshape).ok
    assert structure_flags(lshape).is_bdd


def test_edge_key_canonical():
    assert oracles.edge_key(3, 1) == oracles.edge_key(1, 3) == (1, 3)
