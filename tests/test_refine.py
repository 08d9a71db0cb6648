"""Closure fixpoints, splitting patterns, dialects, chains, overlay."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (COMBOS, fan_cycle, random_marking, random_trace,
                      same_arrays, single_triangle, small_mesh_corpus,
                      split_fathers, square2_incompatible)
from oracles import (brute_force_closure, coords, edge_ids, edge_keys,
                     edge_table, edges_of, midpoint, point,
                     point_strictly_inside_triangle, ref_edge)
from nvbmesh.marking import (POLICY_NAMES, STRATEGIES, RunConfig,
                             assign_reference_edges, make_policy, run_refinement,
                             select_marked)
from nvbmesh.mesh import (Mesh, PrecisionExhausted, lshape6, reference_neighbor,
                          same_mesh, square2, validate_mesh)
from nvbmesh.refine import (BISEC1, BISEC2_LEFT, BISEC3, BISEC5, DIALECTS, RED,
                            MarkingInput, PatternPolicy,
                            UnsupportedRefinementError, _tree_keys, chain,
                            close_marks, overlay, refine_step, split,
                            step_with_plan, trace_to_csv, uniform)

PROPERTY = settings.get_profile("nvbmesh")


# -- closure -------------------------------------------------------------------


def test_close_marks_empty(sq):
    plan = close_marks(sq, MarkingInput([]), mode="nvb")
    assert plan.closed_edges.size == 0
    assert all(p == "none" for p in plan.pattern)
    assert plan.iterations == 0


def test_close_marks_incompatible_square_pulls_in_neighbor():
    # T0's reference edge is the bottom boundary edge; T1's is the diagonal.
    # Marking T0 in nvb mode seeds the bottom edge; the diagonal is an edge
    # of T0, so once it's seeded fixpoint propagation is needed when T1 is
    # marked: mark T1 instead and watch T0's reference edge get pulled in.
    mesh = square2_incompatible()
    plan = close_marks(mesh, MarkingInput([1]), mode="nvb")
    # seed: ref edge of T1 = diagonal (0,2); the diagonal is an edge of T0,
    # so E_T0 = (0,1) joins; (0,1) is only in T0: fixpoint
    assert edge_keys(mesh, plan.closed_edges) == frozenset({(0, 2), (0, 1)})
    assert plan.pattern[0] in ("bisec2_left", "bisec2_right")
    assert plan.pattern[1] == "bisec1"
    # brute-force minimality oracle
    assert edge_keys(mesh, plan.closed_edges) == brute_force_closure(
        mesh, edge_keys(mesh, plan.seed_edges))


def test_close_marks_all_edges_already_closed(sq):
    marking = MarkingInput.all_edges(sq, range(sq.n_elements))
    plan = close_marks(sq, marking, mode="mnvb")
    assert edge_keys(sq, plan.closed_edges) == frozenset(edge_table(sq.elements))
    assert all(p == BISEC3 for p in plan.pattern)
    assert plan.iterations == 0


def test_close_marks_minimality_exhaustive_on_small_corpus():
    for name, mesh in small_mesh_corpus().items():
        table = edge_table(mesh.elements)
        if len(table) > 12:
            continue
        for t in range(mesh.n_elements):
            plan = close_marks(mesh, MarkingInput([t]), mode="nvb")
            oracle = brute_force_closure(mesh, edge_keys(mesh, plan.seed_edges))
            assert edge_keys(mesh, plan.closed_edges) == oracle, (name, t)
        for edges in itertools.combinations(sorted(table), 2):
            elems = [table[e][0] for e in edges]
            marking = MarkingInput(elems, edge_ids(mesh, edges))
            plan = close_marks(mesh, marking, mode="mnvb")
            oracle = brute_force_closure(mesh, frozenset(edges))
            assert edge_keys(mesh, plan.closed_edges) == oracle, (name, edges)


def test_close_marks_iteration_bound():
    for mesh in small_mesh_corpus().values():
        for t in range(mesh.n_elements):
            plan = close_marks(mesh, MarkingInput([t]), mode="nvb")
            assert plan.iterations <= 3 * mesh.n_elements


def test_close_marks_rejects_foreign_edge(sq):
    for edge in (5, 99, -1):  # square2 has 5 edges, ids 0..4
        with pytest.raises(ValueError,
                           match=f"marked edge {edge} is not an edge of the mesh"):
            close_marks(sq, MarkingInput([0], [0, edge]), mode="mnvb")


def test_close_marks_rejects_unmarked_container(sq):
    a, b = edges_of(sq, 1)[1]  # edge of T1 only
    edge = edge_ids(sq, [(a, b)])[0]
    with pytest.raises(ValueError, match=rf"marked edge {edge} \({a}, {b}\) "
                                         "lies in no marked element"):
        close_marks(sq, MarkingInput([0], [edge]), mode="mnvb")


@pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (1, 2)], [[0, 1, 2]],
                                   [0.0, 1.0], [True], 3, "01"])
def test_marking_rejects_anything_but_edge_ids(edges):
    with pytest.raises(ValueError, match="1-D sequence of edge ids"):
        MarkingInput([0], edges)


@pytest.mark.parametrize("elements", [[0.9], [True], frozenset({0.5}),
                                      np.array([1.0]), [[0, 1]], "01", 3])
def test_marking_rejects_anything_but_element_ids(sq, elements):
    # a truncated float or a bool would mark some other element
    with pytest.raises(ValueError, match="1-D sequence of element ids"):
        MarkingInput(elements)
    with pytest.raises(ValueError, match="1-D sequence of element ids"):
        MarkingInput.all_edges(sq, elements)


@pytest.mark.parametrize("bad", [5, -1])
def test_all_edges_rejects_element_ids_out_of_range(sq, bad):
    # checked before indexing: -1 would take the last element's edges
    with pytest.raises(ValueError, match=f"^marked element {bad} out of range$"):
        MarkingInput.all_edges(sq, [0, bad])
    with pytest.raises(ValueError, match=f"^marked element {bad} out of range$"):
        close_marks(sq, MarkingInput([0, bad]), mode="nvb")


def test_marking_elements_are_a_frozenset_of_ints():
    for given in ([2, 0, 2], (0, 2), range(0, 3, 2), np.array([2, 0], np.int32),
                  frozenset({np.int64(0), 2}), (t for t in (0, 2))):
        elements = MarkingInput(given).elements
        assert elements == frozenset({0, 2})
        assert {type(t) for t in elements} == {int}
    assert MarkingInput([]).elements == frozenset()


def test_marking_edges_are_sorted_unique_read_only_ids(sq):
    marking = MarkingInput([0, 1], [4, 0, 4, np.int32(2)])
    assert marking.edges.tolist() == [0, 2, 4]
    assert marking.edges.dtype == np.int64
    assert not marking.edges.flags.writeable
    assert MarkingInput([0]).edges.tolist() == []
    assert MarkingInput.all_edges(sq, [1]).edges.tolist() == \
        sorted(sq.edge_table.element2edges[1].tolist())


# -- splitting -----------------------------------------------------------------


def test_uniform_bisec3_square(sq):
    fine = uniform(sq, "bisec3")
    assert fine.n_elements == 8
    assert (fine.gen == 2).all()
    assert fine.total_area() == 1.0


def test_red_refinement_of_single_triangle():
    tri = single_triangle()
    marking = MarkingInput.all_edges(tri, [0])
    fine, refined = refine_step(tri, marking, "refineNVBred",
                                make_policy("red"))
    assert refined == frozenset({0})
    assert fine.n_elements == 4
    assert (fine.gen == 2).all()
    assert [bool(r) for r in fine.red_son] == [False, False, True, True]
    areas = fine.areas
    assert np.all(areas == 0.125)  # |T|/4 exactly
    # similar sons: every son has the same angle set as the father
    def angles(pts):
        import math
        out = []
        for i in range(3):
            a, b, c = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
            v1 = (b[0] - a[0], b[1] - a[1])
            v2 = (c[0] - a[0], c[1] - a[1])
            dot = v1[0] * v2[0] + v1[1] * v2[1]
            cross = abs(v1[0] * v2[1] - v1[1] * v2[0])
            out.append(round(math.atan2(cross, dot), 12))
        return sorted(out)
    father_angles = angles(coords(tri, 0))
    for t in range(4):
        assert angles(coords(fine, t)) == father_angles


def test_bisec5_interior_node_and_generations():
    tri = single_triangle()
    marking = MarkingInput.all_edges(tri, [0])
    fine, _ = refine_step(tri, marking, "refine", make_policy("interior-node"))
    assert fine.n_elements == 6
    assert sorted(fine.gen.tolist()) == [2, 2, 3, 3, 3, 3]
    # exactly one new node strictly inside the father
    father = coords(tri, 0)
    interior = [j for j in range(fine.n_vertices)
                if point_strictly_inside_triangle(point(fine, j), *father)]
    assert len(interior) == 1
    # area bookkeeping: |T| * (2/4 + 4/8) = |T|
    assert fine.total_area() == tri.total_area()
    assert validate_mesh(fine).ok


def test_bisec2_son_structure():
    # marking T1 of the incompatible square pulls T0's reference edge into
    # the closure, leaving T0 with two marked edges: one son stays at +1,
    # the deeper two land at +2
    mesh = square2_incompatible()
    fine, refined, plan = step_with_plan(mesh, MarkingInput([1]), "refineNVB")
    assert refined == frozenset({0, 1})
    assert fine.n_elements == 5
    by_parent = {}
    for t, father in enumerate(split_fathers(mesh, plan, fine).tolist()):
        by_parent.setdefault(father, []).append(int(fine.gen[t]))
    assert sorted(by_parent[0]) == [1, 2, 2]
    assert sorted(by_parent[1]) == [1, 1]
    assert validate_mesh(fine).ok


def test_deep_corner_refinement_stays_exact():
    # 25 steps of corner bisection reach generation 25; the dyadic area
    # identity and the jump law must hold exactly all the way down
    from nvbmesh.analysis import verify_levels
    from nvbmesh.marking import RunConfig, run_refinement

    config = RunConfig(initial="lshape6", dialect="refineNVB",
                       strategy="corner", steps=25)
    result = run_refinement(config)
    assert int(result.final.gen.max()) == 25
    report = verify_levels(result.final, result.initial, nvb_dialect=True)
    assert report.ok
    assert report.max_level_jump <= 1  # BDD initial mesh


def test_split_validates_for_every_dialect_and_policy(rng):
    cases = [("refineNVB", None), ("refineNVB3", None),
             ("refineNVBred", make_policy("red")),
             ("refine", make_policy("interior-node")),
             ("refine", make_policy("red"))]
    for dialect, policy in cases:
        meshes, _ = random_trace(square2(), seed=17, steps=4,
                                 dialect=dialect, policy=policy)
        for mesh in meshes:
            assert validate_mesh(mesh).ok, dialect


def test_new_nodes_are_closed_edge_midpoints_only():
    mesh = lshape6()
    marking = MarkingInput.all_edges(mesh, [0, 3])
    plan = close_marks(mesh, marking, mode="mnvb",
                       policy=make_policy("bisec3"))
    fine = split(mesh, plan)
    expected = set()
    for (a, b) in edge_keys(mesh, plan.closed_edges):
        expected.add(midpoint(point(mesh, a), point(mesh, b)))
    new_nodes = {point(fine, j) for j in range(mesh.n_vertices, fine.n_vertices)}
    assert new_nodes == expected


def test_bisec5_adds_exactly_one_extra_node_beyond_midpoints():
    tri = single_triangle()
    marking = MarkingInput.all_edges(tri, [0])
    plan = close_marks(tri, marking, mode="mnvb",
                       policy=make_policy("interior-node"))
    fine = split(tri, plan)
    midpoints = {midpoint(point(tri, a), point(tri, b))
                 for (a, b) in edge_keys(tri, plan.closed_edges)}
    new_nodes = {point(fine, j) for j in range(tri.n_vertices, fine.n_vertices)}
    assert len(new_nodes - midpoints) == 1


def test_precision_exhaustion_is_typed():
    config = RunConfig(initial="square2", strategy="corner",
                       corner=(0.3, 0.7), steps=120)
    with pytest.raises(PrecisionExhausted, match="generation 105"):
        run_refinement(config)


def test_split_refines_a_hand_made_plan_as_named(lshape):
    # a plan naming red or bisec(5) for fully marked elements is refined by
    # those patterns, whatever the closure's own default would be
    plan = close_marks(lshape, MarkingInput.all_edges(lshape, [0, 3, 4]))
    full = np.flatnonzero(plan.pattern == BISEC3)
    assert full.size >= 3 and (plan.pattern != BISEC3).any()
    pattern = plan.pattern.copy()
    pattern[full] = np.resize(["red", "bisec5", BISEC3], full.size)
    named = dataclasses.replace(plan, pattern=pattern)
    fine, (expect, fathers) = split(lshape, named), oracles.split(lshape, named)
    assert same_arrays(fine, expect)
    assert np.array_equal(fine.vertex_parents, expect.vertex_parents)
    assert fathers == split_fathers(lshape, named, fine).tolist()


@pytest.mark.parametrize("dialect,policy", COMBOS)
def test_split_does_what_the_plan_names(dialect, policy):
    pattern_policy = make_policy(policy)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        mesh = square2()
        for _ in range(4):
            marking = random_marking(mesh, rng, dialect)
            fine, _, plan = step_with_plan(mesh, marking, dialect,
                                           pattern_policy)
            split_fathers(mesh, plan, fine)
            mesh = fine


def test_the_sons_are_the_elements_that_hold_a_new_node():
    # verify_chain_bounds finds the sons of a split this way: every son of
    # every pattern holds a new node, and no element kept as it was holds one
    seen = set()
    for seed, (dialect, policy) in enumerate(COMBOS):
        pattern_policy = make_policy(policy)
        rng = np.random.default_rng(seed)
        mesh = assign_reference_edges(lshape6(), "random", seed=3)
        for _ in range(4):
            marking = random_marking(mesh, rng, dialect)
            fine, _, plan = step_with_plan(mesh, marking, dialect,
                                           pattern_policy)
            fathers = split_fathers(mesh, plan, fine)
            holds_new = (fine.elements >= mesh.n_vertices).any(axis=1)
            assert np.array_equal(holds_new, plan.pattern[fathers] != "none")
            seen |= set(plan.pattern.tolist())
            mesh = fine
    assert seen == {"none", "bisec1", "bisec2_left", "bisec2_right", "bisec3",
                    "red", "bisec5"}


def test_plan_holds_read_only_copies(sq):
    plan = close_marks(sq, MarkingInput([0]), mode="nvb")
    for name in ("closed_edges", "pattern", "seed_edges"):
        given = np.array(getattr(plan, name))
        held = getattr(dataclasses.replace(plan, **{name: given}), name)
        before = held.tolist()
        given[:] = "red" if name == "pattern" else given + 1
        assert held.tolist() == before and not held.flags.writeable
        assert not np.shares_memory(held, given)
    # a str array is not cut to the length of the known names
    long = dataclasses.replace(plan, pattern=["bisec1", "bisec2_rightX"])
    with pytest.raises(ValueError, match="unknown pattern 'bisec2_rightX'"):
        split(sq, long)


def test_plan_mesh_mismatch_rejected(sq):
    plan = close_marks(sq, MarkingInput([0]), mode="nvb")
    other = uniform(sq, "bisec3")
    with pytest.raises(ValueError, match="element count differs"):
        split(other, plan)


def test_plan_with_other_closed_edges_rejected(sq):
    # the patterns need the diagonal halved; the plan claims other edges
    plan = close_marks(sq, MarkingInput([0]), mode="nvb")
    for closed in ([0, 1], [1], np.arange(5)):
        wrong = dataclasses.replace(plan, closed_edges=np.array(closed))
        with pytest.raises(ValueError, match="closed edges differ"):
            split(sq, wrong)


@pytest.mark.parametrize("pattern,bad", [(["bisec1", "bisec4"], "bisec4"),
                                         (["", "bisec1"], "")])
def test_plan_with_unknown_pattern_rejected(sq, pattern, bad):
    plan = close_marks(sq, MarkingInput([0]), mode="nvb")
    assert plan.pattern.tolist() == [BISEC1, BISEC1]
    wrong = dataclasses.replace(plan, pattern=np.array(pattern))
    with pytest.raises(ValueError, match=f"unknown pattern {bad!r}"):
        split(sq, wrong)


# -- dialects ------------------------------------------------------------------


def test_refine_step_empty_marking_returns_same_mesh(sq):
    new, refined = refine_step(sq, MarkingInput([]), "refineNVB")
    assert new is sq
    assert refined == frozenset()


def test_growth_at_least_marked_count():
    # every marked element is split into >= 2 sons
    for dialect, policy in (("refineNVB", None),
                            ("refineNVBred", make_policy("red")),
                            ("refine", make_policy("interior-node"))):
        meshes, markings = random_trace(lshape6(), seed=23, steps=4,
                                        dialect=dialect, policy=policy)
        for before, after, marking in zip(meshes, meshes[1:], markings):
            assert after.n_elements - before.n_elements >= len(marking.elements)


def test_refineNVB_rejects_red_policy(sq):
    with pytest.raises(ValueError):
        refine_step(sq, MarkingInput([0]), "refineNVB",
                    make_policy("red"))
    # before the closure looks at the marking
    for dialect in ("refineNVB", "refineNVB3"):
        with pytest.raises(ValueError, match="admits only three-bisection"):
            refine_step(sq, MarkingInput([99]), dialect,
                        make_policy("interior-node"))


def test_named_policies_are_named_by_their_policy_names():
    assert POLICY_NAMES == ("bisec3", "red", "interior-node")
    for name in POLICY_NAMES:
        assert make_policy(name).name == name
    with pytest.raises(ValueError, match="^unknown pattern policy 'always_red'"):
        make_policy("always_red")


def _fully_marked_run():
    """A mesh and a refine marking whose closure fully marks elements it
    did not mark, and those elements' ids."""
    mesh = uniform(uniform(lshape6(), "bisec3"), "bisec1")
    marking = random_marking(mesh, np.random.default_rng(4), "refine", 0.4)
    plan = close_marks(mesh, marking)
    full = np.flatnonzero(plan.pattern == BISEC3)
    assert not set(full.tolist()) <= marking.elements
    return mesh, marking, full.tolist()


def test_unknown_names_are_value_errors(sq):
    with pytest.raises(ValueError, match="^unknown closure mode 'red'$"):
        close_marks(sq, MarkingInput([0]), mode="red")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"unknown dialect 'NVB'; one of {DIALECTS}") + "$"):
        step_with_plan(sq, MarkingInput([0]), "NVB")
    with pytest.raises(ValueError, match="^unknown uniform kind 'bisec2'$"):
        uniform(sq, "bisec2")
    with pytest.raises(ValueError, match="^unknown reference-edge policy 'short'$"):
        assign_reference_edges(sq, "short")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"unknown strategy 'all-edges'; one of {STRATEGIES}") + "$"):
        select_marked(sq, RunConfig(strategy="all-edges"),
                      np.random.default_rng(0))


def test_reference_edges_are_assigned_on_initial_meshes_only(sq):
    with pytest.raises(ValueError, match="^reference-edge assignment applies "
                       "to initial meshes$"):
        assign_reference_edges(uniform(sq, "bisec1"), "random")


def test_close_marks_asks_the_policy_once_with_every_fully_marked_element():
    mesh, marking, full = _fully_marked_run()
    calls = []

    def rule(elems, is_marked):
        calls.append((elems.dtype, elems.tolist(), is_marked.tolist()))
        return np.where(elems % 3 == 0, RED, BISEC5)

    plan = close_marks(mesh, marking, policy=PatternPolicy("counting", rule))
    assert calls == [(np.int64, full, [t in marking.elements for t in full])]
    assert plan.pattern[full].tolist() == [RED if t % 3 == 0 else BISEC5
                                           for t in full]


def test_custom_asks_its_rule_per_element_in_ascending_order():
    mesh, marking, full = _fully_marked_run()
    calls = []

    def fn(t, is_marked):
        calls.append((type(t), type(is_marked), t, is_marked))
        return "bisec1" if t == full[0] else RED

    # every element is asked before a name is checked
    with pytest.raises(ValueError, match="^policy 'typed' returned 'bisec1'$"):
        close_marks(mesh, marking, policy=PatternPolicy.custom(fn, "typed"))
    assert calls == [(int, bool, t, t in marking.elements) for t in full]


@pytest.mark.parametrize("bad", ["bisec1", "none", "", None, 3])
def test_custom_policy_returning_no_full_pattern_is_a_value_error(sq, bad):
    policy = PatternPolicy.custom(lambda t, m: bad, name="broken")
    with pytest.raises(ValueError, match=re.escape(
            f"policy 'broken' returned {bad!r}") + "$"):
        refine_step(sq, MarkingInput.all_edges(sq, [0]), "refine", policy)


def test_refineNVBred_rejects_bisec5(sq):
    with pytest.raises(UnsupportedRefinementError):
        refine_step(sq, MarkingInput.all_edges(sq, [0, 1]), "refineNVBred",
                    make_policy("interior-node"))
    with pytest.raises(UnsupportedRefinementError,
                       match=r"^refineNVBred forbids bisec\(5\) refinement$"):
        refine_step(sq, MarkingInput.all_edges(sq, [0]), "refineNVBred",
                    PatternPolicy.custom(lambda t, m: "bisec5"))


def test_full_edge_marking_equals_two_reference_edge_passes(rng):
    # one refineNVB3 step == refineNVB step + refineNVB step on the leftover
    # marked-edge containers within the originally marked elements
    for seed in range(8):
        this_rng = np.random.default_rng(seed)
        meshes, _ = random_trace(square2(), seed=seed + 100, steps=2,
                                 dialect="refineNVB")
        mesh = meshes[-1]
        draws = this_rng.random(mesh.n_elements)
        marked = [t for t in range(mesh.n_elements) if draws[t] < 0.4] or [0]
        marking = MarkingInput.all_edges(mesh, marked)

        direct, _ = refine_step(mesh, marking, "refineNVB3")

        half, _, plan = step_with_plan(mesh, MarkingInput(marked),
                                       "refineNVB")
        fathers = split_fathers(mesh, plan, half)
        # elements of the intermediate mesh lying inside a marked father and
        # still containing a marked edge in full
        still_marked = []
        for t in range(half.n_elements):
            if int(fathers[t]) not in marked:
                continue
            if any(e in edge_keys(mesh, marking.edges)
                   for e in _geom_edges_as_parent_keys(half, mesh, t)):
                still_marked.append(t)
        two_step, _ = refine_step(half, MarkingInput(still_marked),
                                  "refineNVB")
        assert same_mesh(direct, two_step), seed


def _geom_edges_as_parent_keys(fine, coarse, t):
    """Edges of fine element t expressed as coarse edge keys when both
    endpoints are original coarse nodes (else dropped)."""
    nc = coarse.n_vertices
    out = []
    for a, b in edges_of(fine, t):
        if a < nc and b < nc:
            out.append((a, b) if a < b else (b, a))
    return out


def test_refine_decomposes_into_two_refineNVBred_steps():
    # a bisec(5) step equals bisec(3) followed by bisection of the two sons
    # whose reference edge is the interior median
    tri = lshape6()
    marked = [0, 4]
    marking = MarkingInput.all_edges(tri, marked)
    direct, _ = refine_step(tri, marking, "refine", make_policy("interior-node"))

    half, _, plan = step_with_plan(tri, marking, "refineNVBred",
                                   make_policy("bisec3"))
    fathers = split_fathers(tri, plan, half)
    second = []
    for t in range(half.n_elements):
        parent = int(fathers[t])
        if parent not in marked:
            continue
        v0, v1, v2 = (int(v) for v in tri.elements[parent])
        median = (midpoint(point(tri, v0), point(tri, v1)),
                  point(tri, v2))
        e = ref_edge(half, t)
        ge = (point(half, e[0]), point(half, e[1]))
        if set(ge) == set(median):
            second.append(t)
    assert len(second) == 2 * len(marked)
    marking2 = MarkingInput(second, edge_ids(half, [ref_edge(half, t)
                                                       for t in second]))
    two_step, _ = refine_step(half, marking2, "refineNVBred")
    assert same_mesh(direct, two_step)


# -- chain ---------------------------------------------------------------------


def test_chain_boundary_reference_edge():
    tri = single_triangle()
    assert chain(tri, 0) == [0]


def test_chain_mutual_neighbors(sq):
    assert chain(sq, 0) == [0, 1]
    assert chain(sq, 1) == [1, 0]


def test_chain_and_reference_neighbor_take_any_integer_id(lshape):
    for t in (np.int64(3), np.int32(3), np.uint8(3)):
        c = chain(lshape, t)
        assert c == chain(lshape, 3)
        assert all(type(s) is int for s in c)
        assert reference_neighbor(lshape, t) == reference_neighbor(lshape, 3)
    assert chain(lshape, True) == chain(lshape, 1)
    for f in (chain, reference_neighbor):
        with pytest.raises(TypeError):
            f(lshape, 3.0)
        for t in (6, -1):
            with pytest.raises(ValueError, match=f"^element id {t} out of range$"):
                f(lshape, t)


def test_chain_equals_refined_set_under_single_marking():
    # every element of random runs, with given and with random reference
    # edges, and of the fan cycle, where the chain closes on its first
    # element, which is then bisected twice
    meshes = [random_trace(lshape6(), seed=seed, steps=3,
                           dialect="refineNVB")[0][-1] for seed in range(10)]
    for seed, base in itertools.product(range(6), (square2, lshape6)):
        initial = assign_reference_edges(base(), "random", seed=seed)
        meshes.append(random_trace(initial, seed=seed, steps=7,
                                   dialect="refineNVB")[0][-1])
    fan = fan_cycle()
    for mesh in meshes + [fan]:
        for t in range(mesh.n_elements):
            _, refined, plan = step_with_plan(mesh, MarkingInput([t]),
                                              "refineNVB")
            assert refined == frozenset(chain(mesh, t)), t
            if mesh is fan:
                assert len(refined) == 16 and plan.pattern[t] == BISEC2_LEFT


def test_chain_entries_distinct_on_random_meshes():
    meshes, _ = random_trace(square2(), seed=2, steps=5, dialect="refineNVB")
    mesh = meshes[-1]
    for t in range(mesh.n_elements):
        c = chain(mesh, t)
        assert len(c) == len(set(c))


# -- uniform -------------------------------------------------------------------


def test_uniform_bisec3_quadruples_everything(lshape):
    fine = uniform(lshape, "bisec3")
    assert fine.n_elements == 4 * lshape.n_elements


def test_uniform_bisec1_on_bdd_doubles(sq):
    fine = uniform(sq, "bisec1")
    assert fine.n_elements == 2 * sq.n_elements
    assert (fine.gen == 1).all()


def test_uniform_step_peak_is_a_small_multiple_of_the_mesh_it_returns(sq):
    # one live copy of each whole-mesh array: the traced peak of a uniform
    # step above its start stays within 2.5 times the bytes of the returned
    # mesh's arrays and edge table (32,768 -> 65,536 elements)
    mesh = sq
    for _ in range(14):
        mesh = uniform(mesh, "bisec1")
    marking = MarkingInput(np.arange(mesh.n_elements))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        new, _, _ = step_with_plan(mesh, marking, "refineNVB")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = new.edge_table
    held = sum(a.nbytes for a in (
        new.vertices, new.elements, new.gen, new.ancestor, new.red_son,
        new.vertex_parents, table.element2edges, table.edge2nodes,
        table.edge2elements))
    assert new.n_elements == 2 * mesh.n_elements == 65536
    assert peak - start <= 2.5 * held


def test_uniform_bisec3_twice_matches_full_marking_twice(sq):
    a = uniform(uniform(sq, "bisec3"), "bisec3")
    b = sq
    for _ in range(2):
        marking = MarkingInput.all_edges(b, range(b.n_elements))
        plan = close_marks(b, marking, mode="mnvb",
                           policy=make_policy("bisec3"))
        b = split(b, plan)
    assert a.n_elements == b.n_elements == 16 * sq.n_elements
    assert same_mesh(a, b)


# -- overlay -------------------------------------------------------------------


def test_overlay_idempotent(sq):
    a, _ = random_trace(sq, seed=5, steps=4, dialect="refineNVB")
    assert same_mesh(overlay(a[-1], a[-1], sq), a[-1])


def test_overlay_with_initial_returns_other(sq):
    meshes, _ = random_trace(sq, seed=6, steps=3, dialect="refineNVB")
    assert same_mesh(overlay(sq, meshes[-1], sq), meshes[-1])
    assert same_mesh(overlay(meshes[-1], sq, sq), meshes[-1])


def test_overlay_bound_on_random_pairs():
    initial = lshape6()
    for seed in range(15):
        a, _ = random_trace(initial, seed=seed, steps=3, dialect="refineNVB")
        b, _ = random_trace(initial, seed=seed + 1000, steps=3,
                            dialect="refineNVB3")
        ov = overlay(a[-1], b[-1], initial)
        assert ov.n_elements <= a[-1].n_elements + b[-1].n_elements \
            - initial.n_elements
        assert validate_mesh(ov).ok
        # the overlay refines both inputs: every input leaf is a union of
        # overlay leaves, so counts dominate
        assert ov.n_elements >= max(a[-1].n_elements, b[-1].n_elements)


def test_overlay_rejects_red_meshes(sq):
    red, _ = refine_step(sq, MarkingInput.all_edges(sq, [0, 1]),
                         "refineNVBred", make_policy("red"))
    with pytest.raises(UnsupportedRefinementError,
                       match="no node of the bisection tree"):
        overlay(red, sq, sq)


def test_overlay_accepts_bisec5_meshes(sq):
    b5, _ = refine_step(sq, MarkingInput.all_edges(sq, [0, 1]),
                        "refine", make_policy("interior-node"))
    ov = overlay(b5, sq, sq)
    assert same_arrays(ov, oracles.overlay(b5, sq, sq))
    assert same_mesh(ov, b5)


def test_overlay_accepts_red_meshes_once_every_red_son_is_bisected(sq):
    red, _ = refine_step(sq, MarkingInput.all_edges(sq, [0, 1]),
                         "refineNVBred", make_policy("red"))
    sons = np.flatnonzero(red.red_son)
    fine, _ = refine_step(red, MarkingInput(sons), "refineNVB")
    assert sons.size == 4 and not fine.red_son.any()
    rebuilt = Mesh(fine.vertices, fine.elements, gen=fine.gen,
                   ancestor=fine.ancestor)
    for mesh in (fine, rebuilt):  # one verdict for one geometry
        ov = overlay(mesh, sq, sq)
        assert same_arrays(ov, oracles.overlay(mesh, sq, sq))
        assert same_mesh(ov, fine)


def test_overlay_rejects_mismatched_initial_meshes(sq, lshape):
    a = uniform(sq, "bisec1")
    b = uniform(lshape, "bisec1")
    # by lshape's ancestor ids beyond sq, and by sq's geometry
    with pytest.raises(ValueError, match="^element 4 has ancestor id 2, but "
                       "the initial mesh has 2 elements$"):
        overlay(a, b, sq)
    with pytest.raises(UnsupportedRefinementError,
                       match="no node of the bisection tree"):
        overlay(a, b, lshape)
    for initial in (sq, lshape):
        with pytest.raises(ValueError):
            oracles.overlay(a, b, initial)


def test_tree_keys_place_every_element_once(sq):
    meshes, _ = random_trace(sq, seed=9, steps=4, dialect="refineNVB")
    mesh = meshes[-1]
    width = int(mesh.gen.max())
    keys, tri = _tree_keys(mesh, sq, width)
    assert keys.shape == (mesh.n_elements, 1 + width)
    assert np.array_equal(tri, np.take(mesh.vertices, mesh.elements, axis=0))
    assert np.array_equal(np.count_nonzero(keys[:, 1:], axis=1), mesh.gen)
    assert np.unique(keys, axis=0).shape[0] == mesh.n_elements
    assert np.array_equal(np.unique(keys[:, 0]), np.arange(sq.n_elements))


_TRACES = st.tuples(st.sampled_from(COMBOS), st.integers(0, 2**16),
                    st.integers(1, 4))


@settings(PROPERTY)
@given(st.sampled_from([square2, lshape6]),
       st.sampled_from(["as-given", "longest-edge", "random"]),
       st.integers(0, 2**16), st.booleans(), _TRACES, _TRACES)
def test_overlay_properties(make_initial, refs, ref_seed, negative_zeros,
                            trace_a, trace_b):
    initial = assign_reference_edges(make_initial(), refs, seed=ref_seed)
    if negative_zeros:  # the sign of zero survives into the overlay's bits
        xy = initial.vertices.copy()
        xy[xy == 0.0] = -0.0
        initial = Mesh(xy, initial.elements)
    a, b = (random_trace(initial, seed=seed, steps=steps, dialect=dialect,
                         policy=make_policy(policy))[0][-1]
            for (dialect, policy), seed, steps in (trace_a, trace_b))
    # the inputs' geometry alone decides: every element must be a node of
    # the bisection tree, which bisec(5) sons and bisected red sons are
    if a.red_son.any() or b.red_son.any():
        with pytest.raises(UnsupportedRefinementError,
                           match="no node of the bisection tree"):
            overlay(a, b, initial)
        with pytest.raises(ValueError):
            oracles.overlay(a, b, initial)
        return
    ov = overlay(a, b, initial)
    assert same_arrays(ov, oracles.overlay(a, b, initial))
    assert same_mesh(ov, overlay(b, a, initial))
    assert same_mesh(overlay(ov, a, initial), ov)
    assert same_mesh(overlay(ov, b, initial), ov)
    assert validate_mesh(ov).ok
    assert ov.n_elements <= a.n_elements + b.n_elements - initial.n_elements
    assert math.fsum(ov.areas) == math.fsum(initial.areas)


def test_overlay_matches_oracle_on_corner_runs():
    # 40 steps towards the reentrant corner and towards (-1, -1)
    a, b = (run_refinement(RunConfig(initial="lshape6", strategy="corner",
                                     corner=corner, steps=40)).final
            for corner in ((0.0, 0.0), (-1.0, -1.0)))
    assert int(a.gen.max()) == int(b.gen.max()) == 40
    initial = lshape6()
    for x, y in ((a, b), (b, a), (a, a)):
        assert same_arrays(overlay(x, y, initial), oracles.overlay(x, y, initial))


def _rotated(mesh, t):
    elements = mesh.elements.copy()
    elements[t] = np.roll(elements[t], 1)
    return Mesh(mesh.vertices, elements, gen=mesh.gen, ancestor=mesh.ancestor)


def _dropped(mesh, t):
    keep = np.arange(mesh.n_elements) != t
    return Mesh(mesh.vertices, mesh.elements[keep], gen=mesh.gen[keep],
                ancestor=mesh.ancestor[keep])


def _without_root(mesh, t):
    keep = mesh.ancestor != mesh.ancestor[t]
    return Mesh(mesh.vertices, mesh.elements[keep], gen=mesh.gen[keep],
                ancestor=mesh.ancestor[keep])


@pytest.mark.parametrize("tamper", [_rotated, _dropped, _without_root])
def test_overlay_rejects_inputs_that_do_not_tile(tamper):
    initial = lshape6()
    fine = random_trace(initial, seed=2, steps=3, dialect="refineNVB")[0][-1]
    for t in (0, fine.n_elements // 2, fine.n_elements - 1):
        bad = tamper(fine, t)
        for x, y in ((bad, fine), (fine, bad)):
            with pytest.raises(UnsupportedRefinementError):
                overlay(x, y, initial)
            with pytest.raises(ValueError):
                oracles.overlay(x, y, initial)


def test_overlay_rejects_an_element_of_the_wrong_generation():
    initial = lshape6()
    fine = uniform(uniform(initial, "bisec1"), "bisec1")
    for shift in (-1, 1):
        gen = fine.gen.copy()
        gen[3] += shift
        bad = Mesh(fine.vertices, fine.elements, gen=gen, ancestor=fine.ancestor)
        with pytest.raises(UnsupportedRefinementError, match="element 3 "):
            overlay(bad, fine, initial)


def _same_mesh_cases():
    mesh = random_trace(lshape6(), seed=4, steps=3, dialect="refineNVB")[0][-1]
    rng = np.random.default_rng(0)
    perm_v = rng.permutation(mesh.n_vertices)
    perm_e = rng.permutation(mesh.n_elements)
    inv = np.argsort(perm_v)
    renumbered = Mesh(mesh.vertices[perm_v], inv[mesh.elements][perm_e],
                      gen=mesh.gen[perm_e], ancestor=mesh.ancestor[perm_e])

    elements, gen, red = mesh.elements.copy(), mesh.gen.copy(), mesh.red_son.copy()
    elements[2] = np.roll(elements[2], 1)
    gen[5] += 1
    red[7] = True
    return {"itself": (mesh, mesh), "renumbered": (mesh, renumbered),
            "rotated": (mesh, Mesh(mesh.vertices, elements, gen=mesh.gen)),
            "gen changed": (mesh, Mesh(mesh.vertices, mesh.elements, gen=gen)),
            "red flag flipped": (mesh, Mesh(mesh.vertices, mesh.elements,
                                            gen=mesh.gen, red_son=red)),
            "other mesh": (mesh, uniform(lshape6(), "bisec1"))}


@pytest.mark.parametrize("case", sorted(_same_mesh_cases()))
def test_same_mesh_matches_oracle(case):
    a, b = _same_mesh_cases()[case]
    expected = oracles.same_mesh(a, b)
    assert expected == (case in ("itself", "renumbered"))
    assert same_mesh(a, b) == same_mesh(b, a) == expected


def test_trace_csv_format():
    from nvbmesh.refine import StepRecord

    rec = StepRecord(step=1, n_marked=2, n_marked_edges=6,
                     closure_iterations=1, n_refined=3, n_elements=9)
    text = trace_to_csv([rec])
    assert text == ("step,marked,marked_edges,closure_iters,refined,elements\n"
                    "1,2,6,1,3,9\n")
