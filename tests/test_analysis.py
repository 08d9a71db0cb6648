"""Structural verifiers: level laws, neighbor rules, ledgers, scalar bound."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import only_builtin_types, random_trace
import oracles
from oracles import area_identity_and_diameter_scale, coords
from nvbmesh.analysis import (closure_accounting, max_equal_gen_chain,
                              reciprocal_sum_bound, verify_chain_bounds,
                              verify_levels, verify_neighbor_rules)
from nvbmesh.mesh import Mesh, lshape6, reference_neighbor, square2
from nvbmesh.refine import (MarkingInput, StepRecord, overlay, refine_step,
                            uniform)
from nvbmesh.marking import RunConfig, assign_reference_edges, run_refinement

REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "regression.json").read_text())


def test_uniform_refinement_has_zero_jump(sq):
    fine = uniform(uniform(sq, "bisec3"), "bisec3")
    report = verify_levels(fine, sq)
    assert report.ok
    assert report.max_level_jump == 0


def test_corner_marking_respects_jump_two(sq):
    mesh = sq
    for _ in range(10):
        marked = [t for t in range(mesh.n_elements)
                  if any(p == (0.0, 0.0) for p in coords(mesh, t))]
        mesh, _ = refine_step(mesh, MarkingInput.of(marked), "refineNVB")
        report = verify_levels(mesh, sq)
        assert report.ok
        assert report.max_level_jump <= 2


def test_bdd_initial_with_nvb_respects_jump_one(sq):
    meshes, _ = random_trace(sq, seed=4, steps=8, dialect="refineNVB")
    for mesh in meshes:
        report = verify_levels(mesh, sq, nvb_dialect=True)
        assert report.ok
        assert report.max_level_jump <= 1


def test_non_bdd_initial_notes_misuse():
    from conftest import square2_incompatible

    initial = square2_incompatible()
    meshes, _ = random_trace(initial, seed=1, steps=3, dialect="refineNVB")
    report = verify_levels(meshes[-1], initial, nvb_dialect=True)
    assert report.notes  # misuse note, not a failure
    assert report.ok


def test_area_generation_identity_detects_tampering(sq):
    fine = uniform(sq, "bisec3")
    gens = fine.gen.copy()
    gens[3] += 1
    bad = Mesh(fine.vertices.copy(), fine.elements.copy(), gen=gens,
               ancestor=fine.ancestor.copy())
    report = verify_levels(bad, sq)
    assert not report.ok
    failed = {c.name for c in report.failed()}
    assert "area_generation_identity" in failed


def test_area_identity_and_diameter_scale_match_loop_oracle():
    cases = []
    for seed in range(12):
        initial = lshape6() if seed % 2 else square2()
        meshes, _ = random_trace(initial, seed=seed, steps=5,
                                 dialect=("refineNVB", "refineNVB3")[seed % 3 > 0])
        cases.append((meshes[-1], initial))
    # tampered generations: more than ten witnesses, reported in id order
    fine, initial = max(cases, key=lambda case: case[0].n_elements)
    gens = fine.gen.copy()
    gens[1::3] += 1
    cases.append((Mesh(fine.vertices.copy(), fine.elements.copy(), gen=gens,
                       ancestor=fine.ancestor.copy()), initial))
    for mesh, initial in cases:
        bad, lo, hi = area_identity_and_diameter_scale(mesh, initial)
        report = verify_levels(mesh, initial)
        check = report.checks[0]
        assert check.name == "area_generation_identity"
        assert check.passed == (not bad)
        assert check.witnesses == tuple(bad[:10])
        assert report.diam_scale_lower.hex() == lo.hex()
        assert report.diam_scale_upper.hex() == hi.hex()
        assert only_builtin_types(report.to_dict())
    assert len(bad) > 10


def test_max_equal_gen_chain_matches_loop_oracle():
    from test_acceptance import corpus

    meshes = [run["meshes"][-1] for run in corpus()]
    # random reference edges on a generation-0 mesh: long equal-generation
    # runs, some ending in cycles longer than two
    fine = uniform(uniform(lshape6(), "bisec3"), "bisec3")
    flat = Mesh(fine.vertices, fine.elements)
    meshes += [assign_reference_edges(flat, "random", seed) for seed in range(8)]
    found = [max_equal_gen_chain(mesh) for mesh in meshes]
    assert found == [oracles.max_equal_gen_chain(mesh) for mesh in meshes]
    assert max(found) > 3


def _chained_mesh(points, triangles, succ) -> Mesh:
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


def _strip(points, bottom, top):
    """Triangles of the strip between two rows of point ids, from its
    first column to its last, each sharing an edge with the next."""
    return [tri for j in range(len(bottom) - 1)
            for tri in ((bottom[j], bottom[j + 1], top[j]),
                        (bottom[j + 1], top[j + 1], top[j]))]


def test_max_equal_gen_chain_runs_through_every_element():
    k = 20
    points = [(float(x), float(y)) for y in (0, 1) for x in range(k + 1)]
    tris = _strip(points, list(range(k + 1)), list(range(k + 1, 2 * k + 2)))
    mesh = _chained_mesh(points, tris, list(range(1, len(tris))) + [-1])
    assert max_equal_gen_chain(mesh) == oracles.max_equal_gen_chain(mesh) == 2 * k


def test_max_equal_gen_chain_ends_in_a_long_cycle():
    # a fan of 16 elements round the origin, each N(T) the next one, and a
    # strip of 12 elements, run from its far end, entering it at x = 2
    ring = [(-2, -2), (-1, -2), (0, -2), (1, -2), (2, -2), (2, -1), (2, 0),
            (2, 1), (2, 2), (1, 2), (0, 2), (-1, 2), (-2, 2), (-2, 1), (-2, 0),
            (-2, -1)]
    length = 6
    points = [(0.0, 0.0)] + [(float(x), float(y)) for x, y in ring]
    points += [(2.0 + j, float(y)) for y in (-1, 0) for j in range(1, length + 1)]
    fan = [(0, 1 + i, 1 + (i + 1) % 16) for i in range(16)]
    bottom = [6] + list(range(17, 17 + length))        # (2, -1) onwards
    top = [7] + list(range(17 + length, 17 + 2 * length))  # (2, 0) onwards
    tail = _strip(points, bottom, top)[::-1]
    succ = [(i + 1) % 16 for i in range(16)]
    succ += list(range(17, 16 + len(tail))) + [5]  # into the fan at (2, -1)-(2, 0)
    mesh = _chained_mesh(points, fan + tail, succ)
    expect = 2 * length + 16
    assert max_equal_gen_chain(mesh) == oracles.max_equal_gen_chain(mesh) == expect


def test_neighbor_rules_vacuous_on_fresh_bdd(sq):
    report = verify_neighbor_rules(sq, sq)
    assert report.ok


def test_neighbor_rules_hold_on_randomized_nvb_runs():
    # 100 seeds, 8 steps each, one random element marked per step
    for seed in range(100):
        initial = lshape6() if seed % 2 else square2()
        rng = np.random.default_rng(seed)
        mesh = initial
        for _ in range(8):
            t = int(rng.integers(mesh.n_elements))
            mesh, _ = refine_step(mesh, MarkingInput.of([t]), "refineNVB")
        report = verify_neighbor_rules(mesh, initial)
        assert report.ok, (seed, report.failed())


def test_neighbor_rules_report_corrupted_generation(sq):
    fine = uniform(uniform(sq, "bisec3"), "bisec1")
    victim = None
    for t in range(fine.n_elements):
        if reference_neighbor(fine, t) is not None:
            victim = reference_neighbor(fine, t)
            break
    gens = fine.gen.copy()
    gens[victim] += 3
    bad = Mesh(fine.vertices.copy(), fine.elements.copy(), gen=gens,
               ancestor=fine.ancestor.copy())
    report = verify_neighbor_rules(bad, sq)
    assert not report.ok
    assert any(c.witnesses for c in report.failed())


@pytest.mark.parametrize("verify", [verify_levels, verify_neighbor_rules])
def test_foreign_initial_mesh_is_a_value_error(sq, verify):
    fine = uniform(uniform(lshape6(), "bisec1"), "bisec1")
    with pytest.raises(ValueError, match="^element 8 has ancestor id 2, but "
                       "the initial mesh has 2 elements$"):
        verify(fine, sq)


@pytest.mark.parametrize("verify", [verify_levels, verify_neighbor_rules])
def test_refined_initial_mesh_is_a_value_error(sq, verify):
    # a refined mesh is no initial mesh, even where its ancestor ids fit
    half = uniform(sq, "bisec1")
    fine = uniform(half, "bisec1")
    for mesh in (half, fine):
        with pytest.raises(ValueError, match="^the initial mesh has element 0 "
                           "of generation 1, but an initial mesh has "
                           "generation 0 only$"):
            verify(mesh, half)
    # refused by the same check as overlay's
    with pytest.raises(ValueError, match="^the initial mesh has element 0 "):
        overlay(fine, fine, half)


def _neighbor_rule_cases():
    """Random-reference-edge runs, BDD runs and their tampered copies."""
    flat = uniform(uniform(uniform(lshape6(), "bisec1"), "bisec1"), "bisec1")
    flat = Mesh(flat.vertices, flat.elements)
    cases = []
    for seed in range(6):
        initial = assign_reference_edges(flat, "random", seed) if seed % 3 else flat
        meshes, _ = random_trace(initial, seed=seed, steps=8, dialect="refineNVB",
                                 fraction=0.15)
        cases.append((meshes[-1], initial))
    rng = np.random.default_rng(7)
    for fine, initial in cases[:4]:
        m = fine.n_elements
        # rotated triples: new reference edges, so incompatible pairs
        tris = fine.elements.copy()
        rot = rng.choice(m, size=m // 3, replace=False)
        tris[rot] = np.roll(tris[rot], 1, axis=1)
        cases.append((Mesh(fine.vertices, tris, gen=fine.gen,
                           ancestor=fine.ancestor), initial))
        # bumped generations
        gens = fine.gen.copy()
        gens[rng.choice(m, size=m // 4, replace=False)] += rng.integers(1, 3)
        cases.append((Mesh(fine.vertices, fine.elements, gen=gens,
                           ancestor=fine.ancestor), initial))
    return cases


def test_neighbor_rules_match_loop_oracle():
    failed = set()
    for mesh, initial in _neighbor_rule_cases():
        report = verify_neighbor_rules(mesh, initial)
        expect = oracles.verify_neighbor_rules(mesh, initial)
        assert report.to_dict() == expect.to_dict()
        assert only_builtin_types(report.to_dict())
        failed |= {c.name for c in report.failed()}
        assert all(len(c.witnesses) <= 10 for c in report.checks)
    # every check fails on some tampered mesh, so every mask is compared
    assert len(failed) == 4


def test_chain_bounds_single_bisection_distance_zero(sq):
    report = verify_chain_bounds([sq], [MarkingInput.of([0])])
    assert report.ok
    # sons touch the marked element
    assert report.max_dist_scaled == 0.0


def test_chain_bounds_overshoot_at_most_two_and_attained():
    # with BDD initial meshes single-marking chains stay compatibly
    # divisible and only +1 creations occur; random reference edges
    # realize the sharp +2 case
    from nvbmesh.marking import assign_reference_edges

    worst = 0
    for seed in range(12):
        base = square2() if seed % 2 else lshape6()
        initial = assign_reference_edges(base, "random", seed=seed)
        meshes, markings = random_trace(initial, seed=seed, steps=5,
                                        dialect="refineNVB", fraction=0.2)
        report = verify_chain_bounds(meshes[:-1], markings)
        assert report.ok, seed
        assert report.max_gen_overshoot <= 2
        worst = max(worst, report.max_gen_overshoot)
    assert worst == 2  # the bound is sharp: +2 creations do occur


def test_scaled_creation_distance_does_not_diverge():
    # the recorded max of dist * 2^(gen/2) from a 20-step corner run
    config = RunConfig(initial="lshape6", dialect="refineNVB",
                       strategy="corner", steps=20)
    result = run_refinement(config)
    report = verify_chain_bounds(result.meshes[:-1], result.markings)
    assert report.ok
    assert report.max_dist_scaled == \
        REGRESSION["chain_distance"]["bdd_corner_20_steps_max_dist_scaled"]
    # two windows of the run: the later one must not blow past the earlier
    early = verify_chain_bounds(result.meshes[:10], result.markings[:10])
    assert report.max_dist_scaled <= max(1.0, 4.0 * max(early.max_dist_scaled,
                                                        1e-9))


def test_equal_gen_chain_length_is_reported(sq):
    assert max_equal_gen_chain(sq) == 2


# -- closure accounting ----------------------------------------------------------


def test_uniform_runs_have_rho_at_most_four(lshape):
    config = RunConfig(initial="lshape6", strategy="all", dialect="refineNVB3",
                       steps=4)
    result = run_refinement(config)
    ledger = closure_accounting(result.records, lshape.n_elements)
    assert ledger.sum_bound_ok
    assert ledger.max_rho <= 4.0


def test_sum_bound_on_every_random_trace():
    for seed in range(10):
        config = RunConfig(initial="square2", strategy="random",
                           fraction=0.3, dialect="refineNVB", steps=6,
                           seed=seed)
        result = run_refinement(config)
        ledger = closure_accounting(result.records, 2)
        assert ledger.sum_bound_ok, seed
        for row in ledger.rows:
            if row.rho is not None:
                assert row.rho >= 1.0


def test_rho_undefined_until_marks_accumulate():
    ledger = closure_accounting(
        [StepRecord(step=1, n_marked=0, n_marked_edges=0,
                    closure_iterations=0, n_refined=0, n_elements=6)], 6)
    assert ledger.rows[0].rho is None


def _record(step, marked, refined, elements):
    return StepRecord(step=step, n_marked=marked, n_marked_edges=0,
                      closure_iterations=0, n_refined=refined,
                      n_elements=elements)


@pytest.mark.parametrize("records,sum_bound_ok", [
    ([_record(1, 5, 5, 4)], False),                       # 5 marks, 2 new
    ([_record(1, 1, 1, 4), _record(2, 5, 5, 6)], False),  # 6 marks, 4 new
    ([_record(1, 5, 3, 4)], True),   # a marked element left unrefined
])
def test_sum_bound_fails_when_marks_outnumber_new_elements(records,
                                                           sum_bound_ok):
    assert closure_accounting(records, 2).sum_bound_ok == sum_bound_ok


def test_corner_run_rho_stays_single_digit():
    config = RunConfig(initial="lshape6", dialect="refineNVB",
                       strategy="corner", steps=25)
    result = run_refinement(config)
    ledger = closure_accounting(result.records, 6)
    assert ledger.sum_bound_ok
    assert ledger.max_rho < 10.0


def test_ledger_csv_shape():
    config = RunConfig(initial="square2", strategy="all", steps=2)
    result = run_refinement(config)
    ledger = closure_accounting(result.records, 2)
    lines = ledger.to_csv().strip().splitlines()
    assert lines[0] == "step,marked,elements,cum_marked,rho"
    assert len(lines) == 3


# -- scalar reciprocal-sum bound --------------------------------------------------


def test_reciprocal_sum_all_ones():
    res = reciprocal_sum_bound(1.0, 1.0, 1.0)
    assert res.lhs == 6.0
    assert res.bound == 6.0
    assert res.holds


def test_reciprocal_sum_sharp_at_a_equals_m():
    big_m = math.pi
    res = reciprocal_sum_bound(big_m, 1.0, big_m)
    assert abs(res.lhs - res.bound) <= 1e-12
    assert res.holds


def test_reciprocal_sum_rejects_out_of_range():
    with pytest.raises(ValueError):
        reciprocal_sum_bound(3.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        reciprocal_sum_bound(2.0, 2.0, 2.0)  # a*b = 4 > M
    with pytest.raises(ValueError):
        reciprocal_sum_bound(1.0, 1.0, 0.5)  # M < 1


def test_reciprocal_sum_grid_no_violations():
    rng = np.random.default_rng(0)
    count = 0
    while count < 10_000:
        big_m = float(rng.uniform(1.0, math.pi))
        a = float(rng.uniform(1.0 / big_m, big_m))
        b = float(rng.uniform(1.0 / big_m, big_m))
        if not (1.0 / big_m <= a * b <= big_m):
            continue
        res = reciprocal_sum_bound(a, b, big_m)
        assert res.holds, (a, b, big_m)
        count += 1
