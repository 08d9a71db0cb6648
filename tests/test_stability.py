"""Nodal weights, element conditions, assembly, projection, H1 measurement."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (COMBOS, only_builtin_types, random_trace, single_triangle,
                      split_fathers)
from oracles import (brute_force_weight_exponents, conditions, coords,
                     delta_distance)
from nvbmesh.marking import (REF_EDGE_POLICIES, RunConfig, assign_reference_edges,
                             run_refinement)
from nvbmesh.mesh import Mesh, MeshError, lshape6, square2
from nvbmesh.refine import PatternPolicy, step_with_plan, uniform
from nvbmesh import _geom
from nvbmesh.stability import (_MASS_HAT, NodeWeights, NumericFailure,
                               _mass_pencil_eigvalsh,
                               assemble, assemble_nested, check_conditions,
                               compute_weights, measure_h1_stability,
                               project_l2, prolongation, weights_to_csv)

# 7-point Gauss rule on the triangle, exact through degree 5
_G7 = [
    ((1 / 3, 1 / 3), 9 / 40),
    ((0.059715871789770, 0.470142064105115), 0.132394152788506),
    ((0.470142064105115, 0.059715871789770), 0.132394152788506),
    ((0.470142064105115, 0.470142064105115), 0.132394152788506),
    ((0.797426985353087, 0.101286507323456), 0.125939180544827),
    ((0.101286507323456, 0.797426985353087), 0.125939180544827),
    ((0.101286507323456, 0.101286507323456), 0.125939180544827),
]


def _gauss_mass(coords):
    p0 = np.array(coords[0])
    p1 = np.array(coords[1])
    p2 = np.array(coords[2])
    area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                     - (p1[1] - p0[1]) * (p2[0] - p0[0]))
    m = np.zeros((3, 3))
    for (r, s), w in _G7:
        lam = np.array([1 - r - s, r, s])
        m += w * np.outer(lam, lam)
    return area * m


def element_mass(coords) -> np.ndarray:
    return assemble(Mesh(coords, [(0, 1, 2)])).mass.toarray()


def element_stiffness(coords) -> np.ndarray:
    return assemble(Mesh(coords, [(0, 1, 2)])).stiffness.toarray()


def test_element_mass_reference_triangle_matches_quadrature():
    coords = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    m = element_mass(coords)
    assert m[0, 0] == m[1, 1] == m[2, 2] == pytest.approx(1 / 12, abs=0)
    assert m[0, 1] == m[0, 2] == m[1, 2] == pytest.approx(1 / 24, abs=0)
    q = _gauss_mass(coords)
    assert np.abs(m - q).max() < 1e-14


def test_element_mass_scaling_relation():
    # M_T equals |T|/12 times the unit pattern 1 + delta
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.uniform(-2, 2, size=(3, 2))
        area = 0.5 * float((pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                           - (pts[1, 1] - pts[0, 1]) * (pts[2, 0] - pts[0, 0]))
        if area < 1e-3:
            continue
        m = element_mass(tuple(map(tuple, pts)))
        pattern = m / (area / 12.0)
        assert np.abs(pattern - (np.ones((3, 3)) + np.eye(3))).max() < 1e-12
        q = _gauss_mass(tuple(map(tuple, pts)))
        assert np.abs(m - q).max() < 1e-13 * max(1.0, area)


def test_element_mass_partition_of_unity():
    coords = ((0.0, 0.0), (2.0, 0.0), (0.5, 1.5))
    m = element_mass(coords)
    ones = np.ones(3)
    area = 0.5 * abs((2.0) * 1.5 - 0.0)
    assert ones @ m @ ones == pytest.approx(area, rel=1e-15)


def test_element_mass_rejects_degenerate():
    with pytest.raises(MeshError, match="not CCW"):
        element_mass(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)))


def test_element_stiffness_kernel_and_quadrature():
    coords = ((0.0, 0.0), (1.5, 0.25), (0.25, 1.0))
    k = element_stiffness(coords)
    assert np.abs(k @ np.ones(3)).max() < 1e-14
    # oracle: gradients of the hat functions are constant; integrate directly
    p = np.array(coords)
    area = 0.5 * float((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                       - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
    grads = np.zeros((3, 2))
    for i in range(3):
        a, b = p[(i + 1) % 3], p[(i + 2) % 3]
        grads[i] = np.array([a[1] - b[1], b[0] - a[0]]) / (2 * area)
    assert np.abs(k - area * grads @ grads.T).max() < 1e-13


# -- delta distance ----------------------------------------------------------


def test_delta_same_element_is_one():
    dd = delta_distance(single_triangle())
    assert dd.dist(0, 1) == 1
    assert dd.dist(0, 0) == 0


def test_delta_across_square_diagonal(sq):
    dd = delta_distance(sq)
    # corners (1,0) and (0,1) share no triangle of the diagonal split
    assert dd.dist(1, 3) == 2
    # both diagonal endpoints touch everything
    assert dd.dist(0, 2) == 1


def test_delta_symmetry_on_random_mesh(rng):
    meshes, _ = random_trace(lshape6(), seed=21, steps=3, dialect="refineNVB")
    mesh = meshes[-1]
    dd = delta_distance(mesh)
    nodes = rng.integers(0, mesh.n_vertices, size=(40, 2))
    for j, k in nodes:
        assert dd.dist(int(j), int(k)) == dd.dist(int(k), int(j))


def test_delta_chains_connect_through_shared_nodes():
    # two triangles meeting only at a node still form a chain of length 2
    bowtie = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
                  [(0, 1, 2), (0, 3, 4)])
    dd = delta_distance(bowtie)
    assert dd.dist(1, 3) == 2
    # connected: compute_weights accepts it and matches the brute force
    assert compute_weights(bowtie).exponents.tolist() == \
        brute_force_weight_exponents(bowtie).tolist()


def test_delta_disconnected_reports_infinity():
    two_islands = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                        (5.0, 5.0), (6.0, 5.0), (5.0, 6.0)],
                       [(0, 1, 2), (3, 4, 5)])
    dd = delta_distance(two_islands)
    assert dd.dist(1, 4) == math.inf
    with pytest.raises(ValueError, match="^mesh is not connected$"):
        compute_weights(two_islands)


# -- nodal weights -------------------------------------------------------------


def test_weights_on_initial_mesh_are_one(sq, lshape):
    for mesh in (sq, lshape):
        w = compute_weights(mesh)
        assert (w.exponents == 0).all()
        assert (w.values == 1.0).all()


def test_weights_on_uniform_generation_mesh(sq):
    mesh = uniform(uniform(sq, "bisec3"), "bisec3")  # all gen 4
    w = compute_weights(mesh)
    assert (w.exponents == -4).all()
    assert (w.values == 0.25).all()


def test_fast_weights_equal_brute_force_on_random_corpus():
    cases = []
    for seed in range(25):
        dialect = ("refineNVB", "refineNVB3", "refineNVBred",
                   "refine")[seed % 4]
        policy = {"refineNVBred": PatternPolicy.always_red(),
                  "refine": PatternPolicy.interior_node()}.get(dialect)
        initial = square2() if seed % 2 else lshape6()
        meshes, _ = random_trace(initial, seed=seed, steps=4,
                                 dialect=dialect, policy=policy)
        cases.append(meshes[-1])
        cases.append(meshes[-2])
    assert len(cases) == 50
    for mesh in cases:
        fast = compute_weights(mesh).exponents
        brute = brute_force_weight_exponents(mesh)
        assert np.array_equal(fast, brute)


def test_fast_weights_equal_brute_force_on_a_steep_generation_gradient():
    # one element 40 generations deeper than the other 511: the deep value
    # spreads one touching hop per round, so the exponents take as many
    # distinct values as the relaxation runs rounds that change something
    mesh = square2()
    for _ in range(8):
        mesh = uniform(mesh, "bisec1")
    gen = np.zeros(mesh.n_elements, dtype=np.int64)
    gen[0] = 40
    steep = Mesh(mesh.vertices, mesh.elements, gen=gen)
    exps = compute_weights(steep).exponents
    assert np.array_equal(exps, brute_force_weight_exponents(steep))
    assert np.unique(exps).size >= 12


def test_weight_ratio_bound_within_elements():
    for seed in range(12):
        meshes, _ = random_trace(lshape6(), seed=seed, steps=6,
                                 dialect="refineNVB", fraction=0.2)
        mesh = meshes[-1]
        exps = compute_weights(mesh).exponents
        for t in range(mesh.n_elements):
            e = [int(exps[int(v)]) for v in mesh.elements[t]]
            assert max(e) - min(e) <= 2, (seed, t)


def test_weights_csv_format(sq):
    w = compute_weights(sq)
    text = weights_to_csv(sq, w)
    lines = text.strip().splitlines()
    assert lines[0] == "node,x,y,exponent"
    assert len(lines) == sq.n_vertices + 1
    assert lines[1] == "0,0.0,0.0,0"


# -- per-element conditions ------------------------------------------------------


def test_equal_weights_give_lambda_two(sq):
    w = NodeWeights(exponents=np.zeros(sq.n_vertices, dtype=np.int64))
    report = check_conditions(sq, w)
    assert report.s_sum.tolist() == [9.0] * sq.n_elements
    assert report.lam_min_closed.tolist() == [2.0] * sq.n_elements
    # eigenvalues of the equal-weight matrix are {8, 2, 2}
    evals = np.linalg.eigvalsh(oracles._bhat([0, 0, 0]))
    assert np.allclose(evals, [2.0, 2.0, 8.0])


def test_ratio_two_case_stays_below_pair_sum_bound():
    # exponents (2, 0, 0): ratios (2, 2, 1); S_T = 13.5 < 24.95
    s = sum(2.0 ** (a - b) for a in (2, 0, 0) for b in (2, 0, 0))
    assert s == 13.5
    bound = 3 + 2 * (1 + math.pi ** 2 + math.pi ** -2)
    assert s <= bound <= 24.95 < 25


def test_closed_form_matches_eigensolve_everywhere():
    meshes, _ = random_trace(lshape6(), seed=8, steps=6, dialect="refineNVB")
    mesh = meshes[-1]
    weights = compute_weights(mesh)
    report = check_conditions(mesh, weights)
    lam_eig = np.linalg.eigvalsh(
        oracles._bhat(weights.exponents[mesh.elements]))[:, 0]
    assert np.abs(report.lam_min_closed - lam_eig).max() < 1e-10


def test_conditions_pass_on_every_dialect():
    for seed, (dialect, policy) in enumerate(
            [("refineNVB", None), ("refineNVB3", None),
             ("refineNVBred", PatternPolicy.always_red()),
             ("refine", PatternPolicy.interior_node())]):
        meshes, _ = random_trace(lshape6(), seed=40 + seed, steps=5,
                                 dialect=dialect, policy=policy)
        mesh = meshes[-1]
        report = check_conditions(mesh, compute_weights(mesh))
        assert report.all_pass, dialect
        assert report.max_ratio <= 2.0
        assert report.max_s_sum < 25.0
        assert report.min_lam > 0.0
        assert report.relaxed_ratio_value < 11.0


def test_quadratic_form_inequalities_with_realized_constants(rng):
    meshes, _ = random_trace(square2(), seed=51, steps=5,
                             dialect="refineNVB", fraction=0.3)
    mesh = meshes[-1]
    weights = compute_weights(mesh)
    report = check_conditions(mesh, weights)
    c7, c8 = report.scaled_quartic_bound, report.scaled_mass_bound
    assert c7 > 0 and c8 > 0
    mass_hat = np.ones((3, 3)) + np.eye(3)
    exps = weights.exponents
    for t in range(mesh.n_elements):
        e = [int(exps[int(v)]) for v in mesh.elements[t]]
        p0, p1, p2 = coords(mesh, t)
        h = max(math.dist(p0, p1), math.dist(p1, p2), math.dist(p2, p0))
        lam2 = np.diag([h * h * 2.0 ** (-a) for a in e])
        quartic = lam2 @ mass_hat @ lam2
        sym = 0.5 * (lam2 @ mass_hat + mass_hat @ lam2)
        xs = rng.standard_normal((1000, 3))
        lhs = np.einsum("ij,jk,ik->i", xs, quartic, xs)
        mid = np.einsum("ij,jk,ik->i", xs, mass_hat, xs)
        rhs = np.einsum("ij,jk,ik->i", xs, sym, xs)
        assert (lhs <= c7 * mid * (1 + 1e-9)).all()
        assert (mid <= c8 * rhs * (1 + 1e-9)).all()


def _bits(value):
    return value.hex() if isinstance(value, float) else repr(value)


_COLUMNS = {"exponent_spread": np.int64, "ratio": np.float64,
            "s_sum": np.float64, "lam_min_closed": np.float64,
            "passes": np.bool_}


def assert_columns_match_oracle(report, conds):
    """Each column of the report holds the oracle's per-element values bit
    for bit, as a read-only array of its dtype."""
    for name, dtype in _COLUMNS.items():
        column = getattr(report, name)
        assert column.dtype == dtype and not column.flags.writeable, name
        assert list(map(_bits, column.tolist())) == \
            [_bits(getattr(c, name)) for c in conds], name


def test_conditions_match_loop_oracle_on_criterion_8_corpus():
    from test_acceptance import corpus

    cases = [(run["meshes"][-1], compute_weights(run["meshes"][-1]))
             for run in corpus()]
    mesh, weights = cases[0]
    exps = weights.exponents.copy()
    exps[::5] += 4
    cases.append((mesh, NodeWeights(exponents=exps)))
    for mesh, weights in cases:
        fast = check_conditions(mesh, weights)
        conds, constants = conditions(mesh, weights)
        assert_columns_match_oracle(fast, conds)
        fast_d = fast.to_dict()
        assert only_builtin_types(fast_d)
        slow_d = {"all_pass": all(c.passes for c in conds),
                  "n_elements": len(conds), **constants,
                  "measured_h1_constant": None,
                  "failing_elements": [c.elem for c in conds if not c.passes]}
        for key in ("scaled_quartic_bound", "scaled_mass_bound"):
            a, b = fast_d.pop(key), slow_d.pop(key)
            assert abs(a - b) <= 1e-12 * b, key
        assert {k: _bits(v) for k, v in fast_d.items()} == \
            {k: _bits(v) for k, v in slow_d.items()}
    # the tampered case has elements with lam_min_closed <= 0, which c8 skips
    assert (fast.lam_min_closed <= 0.0).any()
    assert fast.scaled_mass_bound > 0.0


def _widening_strip() -> tuple[Mesh, NodeWeights]:
    """A strip of 24 elements between columns at ever wider gaps, with
    weight exponents 0, 1, 2 by node id: no two rows of lam2 are equal."""
    xs = [j * (j + 1) / 2 for j in range(13)]
    mesh = Mesh([(x, 0.0) for x in xs] + [(x, 1.0) for x in xs],
                [tri for j in range(12) for tri in
                 ((j, j + 1, 13 + j), (j + 1, 14 + j, 13 + j))])
    return mesh, NodeWeights(exponents=np.arange(mesh.n_vertices) % 3)


def _lam2_rows(mesh: Mesh, weights: NodeWeights) -> np.ndarray:
    h = _geom.diameters(mesh.vertices, mesh.elements)
    return h[:, None] * h[:, None] * np.ldexp(1.0, -weights.exponents[mesh.elements])


def _per_element_bounds(mesh: Mesh, weights: NodeWeights, positive) -> tuple:
    """The two quadratic-form constants from one pencil per element."""
    lam2 = _lam2_rows(mesh, weights)
    quartic = lam2[:, :, None] * _MASS_HAT * lam2[:, None, :]
    l2 = lam2[positive]
    sym = 0.5 * (l2[:, :, None] * _MASS_HAT + _MASS_HAT * l2[:, None, :])
    return (float(_mass_pencil_eigvalsh(quartic)[:, -1].max()),
            float((1.0 / _mass_pencil_eigvalsh(sym)[:, 0]).max(initial=0.0)))


@pytest.mark.parametrize("case", ["distinct", "equal", "none_positive"])
def test_conditions_solve_each_distinct_row_once(case):
    if case == "distinct":
        mesh, weights = _widening_strip()
    elif case == "equal":
        mesh = uniform(uniform(uniform(square2(), "bisec1"), "bisec1"), "bisec1")
        weights = compute_weights(mesh)
    else:  # an exponent spread of 4 or more in every element
        mesh, weights = square2(), NodeWeights(exponents=[0, 8, 4, 8])
    rows = len(np.unique(_lam2_rows(mesh, weights), axis=0))
    assert rows == {"distinct": mesh.n_elements, "equal": 1}.get(case, rows)
    report = check_conditions(mesh, weights)
    conds, constants = conditions(mesh, weights)
    assert_columns_match_oracle(report, conds)
    positive = report.lam_min_closed > 0.0
    assert positive.any() == (case != "none_positive")
    bounds = (report.scaled_quartic_bound, report.scaled_mass_bound)
    assert list(map(_bits, bounds)) == \
        list(map(_bits, _per_element_bounds(mesh, weights, positive)))
    for got, key in zip(bounds, ("scaled_quartic_bound", "scaled_mass_bound")):
        assert abs(got - constants[key]) <= 1e-12 * constants[key], key
    if case == "none_positive":
        assert report.scaled_mass_bound == 0.0 == constants["scaled_mass_bound"]


@settings(settings.get_profile("nvbmesh"))
@given(st.sampled_from([square2, lshape6]),
       st.sampled_from(["as-given", "longest-edge", "random"]),
       st.sampled_from([("refineNVB", None), ("refineNVB3", None),
                        ("refineNVBred", PatternPolicy.always_red),
                        ("refine", PatternPolicy.interior_node)]),
       st.integers(0, 2**16), st.integers(1, 4),
       st.none() | st.tuples(st.integers(0, 2**16), st.integers(-8, 8)))
def test_condition_columns_properties(make_initial, refs, dialect_policy, seed,
                                      steps, tamper):
    initial = assign_reference_edges(make_initial(), refs, seed=seed)
    dialect, policy = dialect_policy
    mesh = random_trace(initial, seed=seed, steps=steps, dialect=dialect,
                        policy=policy and policy())[0][-1]
    exps = compute_weights(mesh).exponents.copy()
    if tamper is not None:
        exps[tamper[0] % mesh.n_vertices] += tamper[1]
    weights = NodeWeights(exponents=exps)
    report = check_conditions(mesh, weights)
    conds, constants = conditions(mesh, weights, with_c78=False)
    assert_columns_match_oracle(report, conds)
    assert {k: _bits(getattr(report, k)) for k in constants} == \
        {k: _bits(v) for k, v in constants.items()}
    lam_eig = np.linalg.eigvalsh(oracles._bhat(exps[mesh.elements]))[:, 0]
    assert np.abs(report.lam_min_closed - lam_eig).max() < 1e-10


def test_weights_are_a_read_only_copy():
    mesh = uniform(square2(), "bisec1")
    weights = compute_weights(mesh)
    with pytest.raises(ValueError, match="read-only"):
        weights.exponents[0] = 40
    assert check_conditions(mesh, weights).all_pass
    exps = compute_weights(mesh).exponents.copy()
    given = NodeWeights(exponents=exps)
    exps[0] = 40
    assert given.exponents[0] != 40
    assert check_conditions(mesh, given).all_pass


@pytest.mark.parametrize("exps", [np.zeros(4), np.zeros(4, dtype=bool),
                                  np.zeros((4, 1), dtype=np.int64), 0,
                                  ["0", "1"]],
                         ids=["float", "bool", "2-D", "scalar", "str"])
def test_weights_refuse_anything_but_integer_exponents(exps):
    with pytest.raises(ValueError, match="weight exponents must be a 1-D "
                                         "integer array"):
        NodeWeights(exponents=exps)


def test_conditions_overflow_is_a_numeric_failure(sq):
    # (h/d)**4 of an element at generation 600 is 2**1200, past float64
    deep = Mesh(sq.vertices, sq.elements, gen=[600, 0])
    with pytest.raises(NumericFailure, match=r"^the scaled quartic matrix of "
                       r"element 0 \(generation 600\) overflows float64$"):
        check_conditions(deep, compute_weights(deep))


def test_tampered_weights_fail_conditions(sq):
    exps = compute_weights(sq).exponents.copy()
    exps[0] += 4  # ratio 4 within every element touching node 0
    report = check_conditions(sq, NodeWeights(exponents=exps))
    assert not report.all_pass


# -- assembly and projection ----------------------------------------------------


def test_stiffness_annihilates_constants_and_mass_sums_to_area(lshape):
    mesh = uniform(lshape, "bisec3")
    sys = assemble(mesh)
    ones = np.ones(mesh.n_vertices)
    assert np.abs(sys.stiffness @ ones).max() < 1e-12
    assert abs(sys.mass.sum() - 3.0) < 1e-12
    # row sums of M are the hat-function integrals: positive, sum to area
    row_sums = np.asarray(sys.mass.sum(axis=1)).ravel()
    assert (row_sums > 0).all()


def test_prolongation_reproduces_coarse_functions(rng, sq):
    coarse = uniform(sq, "bisec3")
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    sys = assemble_nested(coarse, fine)
    p, b = sys.prolong, sys.cross_mass
    # Galerkin consistency: (P c)' M_f u == (B c)' u ... B = P' M_f
    for _ in range(10):
        c = rng.standard_normal(coarse.n_vertices)
        u = rng.standard_normal(fine.n_vertices)
        assert abs((p @ c) @ (sys.mass @ u) - (b @ u) @ c) < 1e-12 * (
            1 + abs((b @ u) @ c))
    # exact nesting identities
    assert np.abs((p.T @ sys.mass @ p - sys.coarse.mass)).max() < 1e-14
    assert np.abs((p.T @ sys.stiffness @ p - sys.coarse.stiffness)).max() < 1e-12


def _assert_same_csr(a, b):
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_prolongation_matches_loop_oracle_on_nested_pairs():
    pairs = []
    for initial in (square2(), lshape6()):
        coarse = uniform(initial, "bisec3")
        fine = uniform(uniform(coarse, "bisec1"), "bisec1")
        pairs += [(coarse, coarse), (coarse, uniform(coarse, "bisec1")),
                  (coarse, fine)]
    for dialect, policy in (("refineNVB", None),
                            ("refine", PatternPolicy.interior_node()),
                            ("refineNVBred", PatternPolicy.always_red())):
        meshes, markings = random_trace(lshape6(), 3, 5, dialect, policy)
        pairs += [(meshes[0], meshes[-1]), (meshes[1], meshes[4])]
        if dialect == "refine":  # a bisec(5) step: a father with six sons
            plans = (step_with_plan(m, k, dialect, policy)[2]
                     for m, k in zip(meshes, markings))
            assert max(np.bincount(split_fathers(m, plan, f)).max() for m, plan, f
                       in zip(meshes, plans, meshes[1:])) == 6
    for coarse, fine in pairs:
        _assert_same_csr(prolongation(coarse, fine),
                         oracles.prolongation(coarse, fine))


def test_prolongation_rejects_non_nested(sq, lshape):
    coarse = uniform(sq, "bisec3")
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    parents = fine.vertex_parents.copy()
    parents[coarse.n_vertices + 3] = (-1, -1)       # no recorded parents
    parents[coarse.n_vertices + 7, 1] = coarse.n_vertices + 7   # not earlier
    cases = [(sq, lshape), (fine, coarse), (coarse, Mesh(fine.vertices,
                                                        fine.elements)),
             (coarse, Mesh(fine.vertices, fine.elements,
                           vertex_parents=parents))]
    for a, b in cases:
        with pytest.raises(ValueError) as expected:
            oracles.prolongation(a, b)
        with pytest.raises(ValueError) as raised:
            prolongation(a, b)
        assert str(raised.value) == str(expected.value)


def test_projection_fixes_coarse_space(rng, sq):
    coarse = uniform(sq, "bisec3")
    fine = uniform(coarse, "bisec1")
    sys = assemble_nested(coarse, fine)
    c0 = rng.standard_normal(coarse.n_vertices)
    c = project_l2(sys, sys.prolong @ c0)
    assert np.abs(c - c0).max() < 1e-10


def test_projection_is_contraction_and_idempotent(rng, lshape):
    coarse = lshape
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    sys = assemble_nested(coarse, fine)
    m_f, m_c = sys.mass, sys.coarse.mass
    for _ in range(100):
        u = rng.standard_normal(fine.n_vertices)
        c = project_l2(sys, u)
        norm_u = math.sqrt(u @ (m_f @ u))
        norm_c = math.sqrt(c @ (m_c @ c))
        assert norm_c <= norm_u * (1 + 1e-12)
        c2 = project_l2(sys, sys.prolong @ c)
        assert np.abs(c2 - c).max() < 1e-10 * max(1.0, np.abs(c).max())


# -- H1 stability measurement -----------------------------------------------------


def test_measure_identity_when_spaces_coincide(sq):
    coarse = uniform(sq, "bisec3")
    val = measure_h1_stability(coarse, coarse)
    assert val <= 1.0 + 1e-8
    assert val > 0.99


def test_measure_stable_under_extra_fine_level(sq):
    coarse = uniform(sq, "bisec3")
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    finer = uniform(fine, "bisec1")
    v1 = measure_h1_stability(coarse, fine)
    v2 = measure_h1_stability(coarse, finer)
    assert v2 >= v1 - 1e-8  # richer space, larger supremum
    assert abs(v2 - v1) / v1 < 0.10


def test_measure_matches_dense_eigensolve(sq):
    import scipy.linalg as sla

    coarse = uniform(sq, "bisec3")
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    sys = assemble_nested(coarse, fine)
    n = fine.n_vertices
    minv = np.linalg.inv(sys.coarse.mass.toarray())
    a = (sys.cross_mass.T @ minv @ sys.coarse.stiffness.toarray()
         @ minv @ sys.cross_mass.toarray())
    k = sys.stiffness.toarray()
    ones = np.ones(n)
    evals = sla.eigh(a, k + np.outer(ones, ones), eigvals_only=True)
    dense = math.sqrt(max(evals))
    mine = measure_h1_stability(coarse, fine)
    assert abs(dense - mine) < 1e-10


def test_measure_reports_nonconvergence(monkeypatch):
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.array([]),
                                       np.zeros((0, 0)))

    coarse = uniform(square2(), "bisec3")
    fine = uniform(coarse, "bisec1")
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NumericFailure, match="did not converge"):
        measure_h1_stability(coarse, fine)


def test_measure_rejects_a_ritz_pair_above_the_residual_bound(monkeypatch):
    import scipy.sparse.linalg as spla

    eigsh = spla.eigsh

    def perturbed(*args, **kwargs):
        values, vectors = eigsh(*args, **kwargs)
        noise = np.random.default_rng(0).standard_normal(vectors.shape)
        return values, vectors + 1e-6 * noise

    coarse = uniform(square2(), "bisec3")
    fine = uniform(coarse, "bisec1")
    measure_h1_stability(coarse, fine)          # the exact pair passes
    monkeypatch.setattr(spla, "eigsh", perturbed)
    with pytest.raises(NumericFailure, match="residual bound"):
        measure_h1_stability(coarse, fine)


def test_measure_matches_exact_reduction_on_corner_run():
    # the criterion-11 corner run up to step 20 (at most 1,000 coarse
    # nodes): its maximum at step 16 and the clustered tops at 19-20
    config = RunConfig(initial="lshape6", dialect="refineNVB",
                       strategy="dorfler", theta=0.3, corner=(0.0, 0.0),
                       steps=20)
    for coarse in run_refinement(config).meshes:
        fine = uniform(uniform(coarse, "bisec1"), "bisec1")
        exact = oracles.h1_exact(coarse, fine, count=1)[0]
        assert abs(measure_h1_stability(coarse, fine) - exact) <= 1e-10 * exact


@settings(settings.get_profile("nvbmesh"), max_examples=15)
@given(st.sampled_from(["square2", "lshape6"]), st.sampled_from(REF_EDGE_POLICIES),
       st.sampled_from(COMBOS), st.integers(1, 10), st.integers(0, 2**16))
def test_measure_matches_exact_reduction_on_random_runs(initial, ref_edges,
                                                        combo, steps, seed):
    dialect, policy = combo
    config = RunConfig(initial=initial, ref_edges=ref_edges, dialect=dialect,
                       policy=policy, strategy="random", fraction=0.3,
                       steps=steps, seed=seed)
    # the last mesh of the run with at most 200 nodes keeps the dense
    # oracle cheap
    coarse = [m for m in run_refinement(config).meshes if m.n_vertices <= 200][-1]
    fine = uniform(uniform(coarse, "bisec1"), "bisec1")
    exact = oracles.h1_exact(coarse, fine, count=1)[0]
    assert abs(measure_h1_stability(coarse, fine) - exact) <= 1e-10 * exact


def test_measure_bounded_on_adaptive_sequence():
    config = RunConfig(initial="lshape6", dialect="refineNVB",
                       strategy="dorfler", theta=0.3, steps=10)
    result = run_refinement(config)
    values = []
    for coarse in result.meshes[::2]:
        fine = uniform(uniform(coarse, "bisec1"), "bisec1")
        values.append(measure_h1_stability(coarse, fine))
    assert max(values) < 3.0

