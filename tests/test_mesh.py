"""Mesh data model: conformity, neighbors, structure flags, restriction."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles
from oracles import coords, point
from nvbmesh import _geom
from conftest import (assert_topology_matches, crisscross, random_trace,
                      single_triangle, small_mesh_corpus,
                      square2_boundary_refs, square2_incompatible)
from nvbmesh.mesh import (COMPATIBLY_DIVISIBLE, INCOMPATIBLE, NOT_ADJACENT,
                          Mesh, MeshError, _neighbors, _shared_edges,
                          classify_pair,
                          lshape6, reference_neighbor, restrict, same_mesh, square2,
                          Violation, structure_flags, validate_mesh)
from nvbmesh.marking import assign_reference_edges
from nvbmesh.correspondence import CorrMap
from nvbmesh.refine import MarkingInput, refine_step, uniform
from nvbmesh.stability import NodeWeights, compute_weights


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
    with np.errstate(invalid="ignore", over="ignore"):
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
    with np.errstate(invalid="ignore", over="ignore"):
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
                           initial=initial, validate=False))
    kinds = set()
    for mesh in meshes:
        for exhaustive in (None, False):
            report = validate_mesh(mesh, exhaustive)
            expect = oracles.validate_mesh(mesh, exhaustive)
            assert report.violations == expect.violations
            kinds |= report.kinds()
    assert {"duplicate_vertex", "hanging_node", "inverted_element"} <= kinds


def test_doubly_covered_triangle_detected():
    mesh = Mesh(_SQUARE[:3], [(0, 1, 2), (1, 2, 0)])
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
    neighbors = np.stack([_neighbors(mesh.edge_table, slot) for slot in range(3)],
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
    e, t1, t2, compatible = _shared_edges(mesh.edge_table)
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
    assert tri.areas().tolist() == [0.5]
    assert _geom.diameters(tri.vertices, tri.elements).tolist() == [math.sqrt(2.0)]


def test_bisection_halves_area(sq):
    fine, _ = refine_step(sq, MarkingInput.of([0]), "refineNVB")
    fine_areas, sq_areas = fine.areas(), sq.areas()
    for t in range(fine.n_elements):
        parent = int(fine.parent_elems[t])
        if int(fine.gen[t]) == 1:
            assert fine_areas[t] == sq_areas[parent] / 2.0


def test_uniform_bisec3_son_areas(sq):
    fine = uniform(sq, "bisec3")
    assert fine.n_elements == 8
    # oracle: shoelace per son
    areas = fine.areas()
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
        fine.areas()[np.isin(fine.ancestor, (0, 1, 2))].tolist())


def test_restrict_empty_subset_rejected(sq):
    with pytest.raises(ValueError):
        restrict(sq, [])


def test_total_area_preserved_and_area_generation_exact():
    from conftest import random_trace

    for dialect, policy_name in (("refineNVB", None), ("refine", "interior")):
        from nvbmesh.refine import PatternPolicy

        policy = PatternPolicy.interior_node() if policy_name else None
        meshes, _ = random_trace(square2(), seed=3, steps=5, dialect=dialect,
                                 policy=policy)
        initial = meshes[0]
        anc_areas = initial.areas()
        for mesh in meshes:
            assert abs(mesh.total_area() - 1.0) < 1e-12
            areas = mesh.areas()
            for t in range(mesh.n_elements):
                expect = anc_areas[int(mesh.ancestor[t])] * 2.0 ** (-int(mesh.gen[t]))
                assert areas[t] == expect


def test_edge_table_matches_dict_oracle():
    for mesh in small_mesh_corpus().values():
        assert_topology_matches(mesh)


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
             "parent_elems", "vertex_parents")
    again = Mesh(**{name: getattr(fine, name) for name in names},
                 initial=fine.initial)
    for name in names:
        assert np.array_equal(getattr(again, name), getattr(fine, name))
        assert not np.shares_memory(getattr(again, name), getattr(fine, name))


def _value_and_inputs(kind: str, sq: Mesh):
    """A constructor of ``kind`` over fresh writable input arrays, the
    inputs by keyword and the names of the value's arrays."""
    fine = uniform(sq, "bisec1")
    if kind == "Mesh":
        names = ("vertices", "elements", "gen", "ancestor", "red_son",
                 "parent_elems", "vertex_parents")
        inputs = {name: np.array(getattr(fine, name)) for name in names}
        return lambda **kw: Mesh(**kw, initial=sq), inputs, names
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
