"""Acceptance criteria: one test per criterion, each printing a pass line.

Criteria with existential constants are regression-pinned against
tests/data/regression.json, recorded at the first green build from fully
deterministic runs.  Run with ``pytest tests/test_acceptance.py -v`` (add
``-s`` to see the per-criterion lines inline).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import COMBOS, same_arrays, small_mesh_corpus
import oracles
from oracles import (brute_force_closure, brute_force_weight_exponents,
                     coords, edge_ids, edge_keys, edge_table, point,
                     point_strictly_inside_triangle)
from nvbmesh.analysis import (closure_accounting, reciprocal_sum_bound,
                              verify_chain_bounds)
from nvbmesh.correspondence import corresponding_sequence, verify_corr
from nvbmesh.marking import RunConfig, make_policy, run_refinement
from nvbmesh.mesh import lshape6, same_mesh, square2, structure_flags
from nvbmesh.refine import (MarkingInput, PatternPolicy,
                            close_marks, overlay, refine_step, uniform)
from nvbmesh.stability import (NodeWeights, check_conditions,
                               compute_weights, measure_h1_stability,
                               project_l2, assemble_nested)

REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "regression.json").read_text())


def _report(num: int, name: str, elapsed: float, detail: str = ""):
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s){extra}")


# -- shared 100-run corpus -------------------------------------------------------

_CORPUS = None

def corpus():
    """105 seeded runs, 8 steps each, covering every dialect/policy combo.

    A few random elements are marked per step (constant count, not a
    fraction) so the meshes stay at brute-force-oracle scale while still
    exercising deep local refinement."""
    global _CORPUS
    if _CORPUS is None:
        runs = []
        seed = 0
        for repeat in range(15):
            for dialect, policy_name in COMBOS:
                initial = square2() if seed % 2 else lshape6()
                rng = np.random.default_rng(seed)
                policy = make_policy(policy_name)
                meshes, markings = [initial], []
                for _ in range(8):
                    mesh = meshes[-1]
                    k = min(3, mesh.n_elements)
                    marked = sorted(int(t) for t in rng.choice(
                        mesh.n_elements, size=k, replace=False))
                    if dialect == "refineNVB":
                        marking = MarkingInput(marked)
                    else:
                        marking = MarkingInput.all_edges(mesh, marked)
                    new, _ = refine_step(mesh, marking, dialect, policy)
                    meshes.append(new)
                    markings.append(marking)
                runs.append({"seed": seed, "dialect": dialect,
                             "policy": policy_name, "initial": initial,
                             "meshes": meshes, "markings": markings})
                seed += 1
        _CORPUS = runs
    return _CORPUS


def test_criterion_01_closure_minimality():
    t0 = time.time()
    checked = 0
    for name, mesh in small_mesh_corpus().items():
        table = edge_table(mesh.elements)
        assert len(table) <= 12, name
        for t in range(mesh.n_elements):
            plan = close_marks(mesh, MarkingInput([t]), mode="nvb")
            assert edge_keys(mesh, plan.closed_edges) == brute_force_closure(
                mesh, edge_keys(mesh, plan.seed_edges))
            checked += 1
        for combo in itertools.combinations(sorted(table), 2):
            elems = frozenset(table[e][0] for e in combo)
            plan = close_marks(mesh, MarkingInput(elems, edge_ids(mesh, combo)),
                               mode="mnvb")
            assert edge_keys(mesh, plan.seed_edges) == frozenset(combo)
            assert edge_keys(mesh, plan.closed_edges) == brute_force_closure(
                mesh, frozenset(combo))
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"closure minimality took {elapsed:.2f}s"
    _report(1, "closure-minimality", elapsed, f"{checked} exact matches")


def test_criterion_02_level_jump_law():
    t0 = time.time()
    runs = corpus()
    assert len(runs) >= 100
    assert {r["dialect"] for r in runs} == {"refineNVB", "refineNVB3",
                                            "refineNVBred", "refine"}
    assert {r["policy"] for r in runs} == {"bisec3", "red", "interior-node"}
    violations = 0
    for run in runs:
        bdd_nvb = (run["dialect"] == "refineNVB"
                   and structure_flags(run["initial"]).is_bdd)
        bound = 1 if bdd_nvb else 2
        for mesh in run["meshes"]:
            e2el = mesh.edge_table.edge2elements
            t1, t2 = e2el[e2el[:, 1] >= 0].T
            violations += int((np.abs(mesh.gen[t1] - mesh.gen[t2]) > bound).sum())
    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"level-jump law took {elapsed:.2f}s"
    _report(2, "level-jump-law", elapsed, f"{len(runs)} runs")


def test_criterion_03_area_generation_identity():
    t0 = time.time()
    checked = 0
    for run in corpus():
        anc_areas = run["initial"].areas
        for mesh in run["meshes"]:
            areas = mesh.areas
            for t in range(mesh.n_elements):
                expect = float(anc_areas[int(mesh.ancestor[t])]) \
                    * 2.0 ** (-int(mesh.gen[t]))
                assert areas[t] == expect  # exact dyadic equality
                checked += 1
    _report(3, "area-generation-identity", time.time() - t0,
            f"{checked} elements exact")


def test_criterion_04_closure_accounting():
    t0 = time.time()
    for run in corpus():
        n0 = run["initial"].n_elements
        cum = 0
        for marking, mesh in zip(run["markings"], run["meshes"][1:]):
            cum += len(marking.elements)
            assert cum <= mesh.n_elements - n0  # exact counting bound
    spec = REGRESSION["corner_run"]
    config = RunConfig(initial=spec["initial"], dialect=spec["dialect"],
                       strategy=spec["strategy"], theta=spec["theta"],
                       alpha=spec["alpha"], corner=tuple(spec["corner"]),
                       steps=spec["steps"], seed=spec["seed"])
    result = run_refinement(config)
    ledger = closure_accounting(result.records, result.initial.n_elements)
    assert ledger.sum_bound_ok
    assert ledger.max_rho <= spec["max_rho"] + 1e-9, \
        f"rho regression: {ledger.max_rho} > recorded {spec['max_rho']}"
    _report(4, "closure-accounting", time.time() - t0,
            f"max rho {ledger.max_rho:.4f} <= {spec['max_rho']:.4f}")


def test_criterion_05_creation_generation_bound():
    t0 = time.time()
    total_created = 0
    for run in corpus():
        if run["dialect"] != "refineNVB":
            continue
        report = verify_chain_bounds(run["meshes"][:-1], run["markings"])
        assert report.ok, (run["seed"], report.violations[:3])
        assert report.max_gen_overshoot <= 2
        total_created += 1
    assert total_created >= 15
    _report(5, "creation-generation-bound", time.time() - t0,
            f"{total_created} refineNVB traces, overshoot <= 2")


def test_criterion_06_overlay_bound():
    t0 = time.time()
    pairs = 0
    for seed in range(25):
        initial = square2() if seed % 2 else lshape6()
        sides = []
        for sub_seed in (seed, seed + 500):
            rng = np.random.default_rng(sub_seed)
            mesh = initial
            for _ in range(3):
                draws = rng.random(mesh.n_elements)
                marked = [t for t in range(mesh.n_elements)
                          if draws[t] < 0.3] or [0]
                mesh, _ = refine_step(mesh, MarkingInput(marked),
                                      "refineNVB")
            sides.append(mesh)
        a, b = sides
        for x, y in ((a, b), (b, a)):
            ov = overlay(x, y, initial)
            assert same_arrays(ov, oracles.overlay(x, y, initial))
            assert ov.n_elements <= x.n_elements + y.n_elements \
                - initial.n_elements
            pairs += 1
        assert same_mesh(overlay(a, a, initial), a)
    assert pairs == 50
    _report(6, "overlay-bound", time.time() - t0, f"{pairs} pairs")


def test_criterion_07_correspondence():
    t0 = time.time()
    for seed in range(20):
        initial = lshape6() if seed % 2 else square2()
        policy = (make_policy("red") if seed % 2
                  else PatternPolicy.custom(
                      lambda t, m: "red" if t % 2 else "bisec3", name="mixed"))
        rng = np.random.default_rng(seed + 900)
        mesh = initial
        markings = []
        for _ in range(5):
            draws = rng.random(mesh.n_elements)
            marked = [t for t in range(mesh.n_elements) if draws[t] < 0.3] \
                or [0]
            markings.append(MarkingInput.all_edges(mesh, marked))
            mesh, _ = refine_step(mesh, markings[-1], "refineNVBred", policy)
        seq = corresponding_sequence(initial, markings, policy)
        for i, corr in enumerate(seq.maps):
            assert corr.left.n_elements == corr.right.n_elements
            for t in range(corr.left.n_elements):
                assert len(corr.image_elements(t)) <= 2
            report = verify_corr(corr)
            assert report.ok, (seed, i, report.violations[:3])
        for marking, tilde in zip(markings, seq.tilde_markings):
            assert len(tilde.elements) <= 2 * len(marking.elements)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"correspondence took {elapsed:.2f}s"
    _report(7, "correspondence", elapsed, "20 traces, all properties")


def test_criterion_08_nodal_weights():
    t0 = time.time()
    runs = corpus()
    finals = [run["meshes"][-1] for run in runs[:50]]
    assert len(finals) == 50
    for mesh in finals:
        fast = compute_weights(mesh).exponents
        brute = brute_force_weight_exponents(mesh)
        assert np.array_equal(fast, brute)  # bit-exact integer equality
    checked = 0
    for run in runs:
        mesh = run["meshes"][-1]
        weights = compute_weights(mesh)
        report = check_conditions(mesh, weights)
        assert report.all_pass
        assert report.max_ratio <= 2.0
        assert report.max_s_sum < 25.0
        lam_eig = np.linalg.eigvalsh(
            oracles._bhat(weights.exponents[mesh.elements]))[:, 0]
        assert np.abs(report.lam_min_closed - lam_eig).max() < 1e-10
        checked += mesh.n_elements
    equal = check_conditions(square2(),
                             NodeWeights(exponents=np.zeros(4, dtype=np.int64)))
    assert (equal.lam_min_closed == 2.0).all()
    assert np.allclose(np.linalg.eigvalsh(oracles._bhat([0, 0, 0])),
                       [2.0, 2.0, 8.0])
    _report(8, "nodal-weights", time.time() - t0,
            f"50 bit-exact meshes, {checked} elements within bounds")


def test_criterion_09_scalar_inequality():
    t0 = time.time()
    sharp = reciprocal_sum_bound(math.pi, 1.0, math.pi)
    assert abs(sharp.lhs - sharp.bound) <= 1e-12
    count = 0
    for big_m in np.linspace(1.0, math.pi, 12):
        grid = np.geomspace(1.0 / big_m, big_m, 35)
        for a in grid:
            for b in grid:
                c = a * b
                if not (1.0 / big_m <= c <= big_m):
                    continue
                res = reciprocal_sum_bound(float(a), float(b), float(big_m))
                assert res.holds, (a, b, big_m)
                count += 1
    assert count >= 10_000
    _report(9, "scalar-inequality", time.time() - t0,
            f"sharp case + {count} grid points")


def test_criterion_10_projection_laws():
    t0 = time.time()
    coarse = uniform(lshape6(), "bisec1")
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    system = assemble_nested(coarse, fine)
    m_f, m_c, p = system.mass, system.coarse.mass, system.prolong
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.standard_normal(fine.n_vertices)
        c = project_l2(system, u)
        norm_u = math.sqrt(float(u @ (m_f @ u)))
        norm_c = math.sqrt(float(c @ (m_c @ c)))
        assert norm_c <= norm_u * (1.0 + 1e-12)
        c2 = project_l2(system, p @ c)
        assert np.abs(c2 - c).max() <= 1e-10 * max(1.0, np.abs(c).max())
    for _ in range(20):
        c0 = rng.standard_normal(coarse.n_vertices)
        c = project_l2(system, p @ c0)
        assert np.abs(c - c0).max() <= 1e-10 * max(1.0, np.abs(c0).max())
    _report(10, "projection-laws", time.time() - t0,
            "norm, idempotence, fixed points at 1e-10")


def test_criterion_11_h1_stability_measurement():
    t0 = time.time()
    sanity = measure_h1_stability(uniform(square2(), "bisec3"),
                                  uniform(square2(), "bisec3"))
    assert sanity <= 1.0 + 1e-8
    spec = REGRESSION["corner_run"]
    bound = REGRESSION["h1_sequence"]["max_constant"] * (1.0 + 1e-6)
    exact_tops = REGRESSION["h1_sequence"]["exact_tops"]
    config = RunConfig(initial=spec["initial"], dialect=spec["dialect"],
                       strategy=spec["strategy"], theta=spec["theta"],
                       alpha=spec["alpha"], corner=tuple(spec["corner"]),
                       steps=spec["steps"], seed=spec["seed"])
    result = run_refinement(config)
    assert len(result.meshes) == len(exact_tops)
    worst = 0.0
    for step, (coarse, exact) in enumerate(zip(result.meshes, exact_tops)):
        fine = uniform(uniform(coarse, "bisec1"), "bisec1")
        value = measure_h1_stability(coarse, fine)
        assert abs(value - exact) <= 1e-10 * exact, (step, value, exact)
        worst = max(worst, value)
    assert worst <= bound, f"H1 regression: {worst} > recorded {bound}"
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"H1 sequence took {elapsed:.1f}s"
    _report(11, "h1-stability-measurement", elapsed,
            f"max constant {worst:.6f} over {len(result.meshes)} steps, "
            f"fine up to {4 * result.final.n_elements} elements")


def test_criterion_12_interior_node_property():
    t0 = time.time()
    instances = 0
    seed = 0
    while instances < 50:
        rng = np.random.default_rng(7000 + seed)
        mesh = lshape6() if seed % 2 else square2()
        # pre-refine a little so instances vary
        for _ in range(seed % 3):
            draws = rng.random(mesh.n_elements)
            marked = [t for t in range(mesh.n_elements) if draws[t] < 0.3] \
                or [0]
            mesh, _ = refine_step(mesh, MarkingInput(marked), "refineNVB")
        draws = rng.random(mesh.n_elements)
        marked = [t for t in range(mesh.n_elements) if draws[t] < 0.3] or [0]
        marking = MarkingInput.all_edges(mesh, marked)
        fine, _ = refine_step(mesh, marking, "refine",
                              make_policy("interior-node"))
        new_nodes = [point(fine, j)
                     for j in range(mesh.n_vertices, fine.n_vertices)]
        for t in marked:
            father = coords(mesh, t)
            interior = [p for p in new_nodes
                        if point_strictly_inside_triangle(p, *father)]
            assert len(interior) == 1, (seed, t)
            instances += 1
        seed += 1
    _report(12, "interior-node-property", time.time() - t0,
            f"{instances} bisec(5) instances checked geometrically")
