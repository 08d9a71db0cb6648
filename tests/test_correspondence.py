"""Red/bisec3 correspondence: construction, templates, verification."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import single_triangle
from nvbmesh.correspondence import (CorrespondenceError, CorrMap, build_corr,
                                    corresponding_sequence, identity_corr,
                                    transfer_marking, verify_corr)
from nvbmesh.mesh import lshape6, square2
from nvbmesh.refine import (MarkingInput, PatternPolicy,
                            UnsupportedRefinementError, refine_step)


def red_trace(initial, seed, steps, policy, fraction=0.3):
    rng = np.random.default_rng(seed)
    mesh = initial
    markings = []
    for _ in range(steps):
        draws = rng.random(mesh.n_elements)
        marked = [t for t in range(mesh.n_elements) if draws[t] < fraction]
        if not marked:
            marked = [int(rng.integers(mesh.n_elements))]
        markings.append(MarkingInput.all_edges(mesh, marked))
        mesh, _ = refine_step(mesh, markings[-1], "refineNVBred", policy)
    return markings


def test_bisec3_only_trace_gives_identity_maps(sq):
    markings = red_trace(sq, seed=0, steps=3, policy=PatternPolicy.always_bisec3())
    seq = corresponding_sequence(sq, markings, PatternPolicy.always_bisec3())
    for corr in seq.maps:
        assert corr.left.n_elements == corr.right.n_elements
        for t in range(corr.left.n_elements):
            assert corr.left.coords(t) == corr.right.coords(t)
            for e in corr.left.edges_of(t):
                assert corr.pairs[(t, e)] == (t, e)


def _exhaustive_neighbor_property(corr):
    """Definition-level check of neighbor preservation over every pair of
    incidence pairs (quadratic; for tiny meshes only)."""
    a, b = corr.left, corr.right
    items = list(corr.pairs.items())
    for (p1, q1), (p2, q2) in itertools.combinations(items, 2):
        t1, e1 = p1
        t2, e2 = p2
        s1, f1 = q1
        s2, f2 = q2
        share_src = (t1 != t2 and e1 == e2
                     and set(a.edge_table[e1]) == {t1, t2})
        share_dst = (s1 != s2 and f1 == f2
                     and set(b.edge_table[f1]) == {s1, s2})
        assert share_src == share_dst, ((p1, p2), (q1, q2))


def test_single_red_refinement_matches_template():
    tri = single_triangle()
    marking = MarkingInput.all_edges(tri, [0])
    seq = corresponding_sequence(tri, [marking], PatternPolicy.always_red())
    corr = seq.maps[-1]
    assert corr.left.n_elements == corr.right.n_elements == 4
    assert len(corr.pairs) == 12
    assert len(set(corr.pairs.values())) == 12
    # the two red sons spread over exactly two images each
    for t in range(4):
        spread = len(corr.image_elements(t))
        assert spread == (2 if corr.left.red_son[t] else 1)
    report = verify_corr(corr)
    assert report.ok, report.violations
    _exhaustive_neighbor_property(corr)
    # generations agree pairwise (Definition property (i))
    for (t, _), (s, _) in corr.pairs.items():
        assert int(corr.left.gen[t]) == int(corr.right.gen[s])


def test_identity_map_verifies(sq):
    report = verify_corr(identity_corr(sq))
    assert report.ok


def test_swapped_pair_detected(sq):
    corr = identity_corr(sq)
    pairs = dict(corr.pairs)
    # swap the images of two pairs of one element
    (t, e1), (t2, e2) = list(pairs)[0], list(pairs)[1]
    pairs[(t, e1)], pairs[(t2, e2)] = pairs[(t2, e2)], pairs[(t, e1)]
    broken = CorrMap(left=sq, right=sq, pairs=pairs)
    report = verify_corr(broken)
    assert not report.ok


def test_image_spread_bounded_by_two():
    for seed in range(6):
        initial = lshape6() if seed % 2 else square2()
        markings = red_trace(initial, seed, 4, PatternPolicy.always_red())
        seq = corresponding_sequence(initial, markings,
                                     PatternPolicy.always_red())
        for corr in seq.maps:
            for t in range(corr.left.n_elements):
                assert len(corr.image_elements(t)) <= 2


def test_sequences_verify_and_preserve_counts():
    for seed in range(10):
        initial = lshape6() if seed % 2 else square2()
        policy = (PatternPolicy.always_red() if seed % 3
                  else PatternPolicy.custom(
                      lambda t, m: "red" if t % 2 else "bisec3", name="mixed"))
        markings = red_trace(initial, seed + 50, 5, policy)
        seq = corresponding_sequence(initial, markings, policy)
        for i, corr in enumerate(seq.maps):
            assert corr.left.n_elements == corr.right.n_elements, (seed, i)
            report = verify_corr(corr)
            assert report.ok, (seed, i, report.violations[:3])
        for marking, tilde in zip(markings, seq.tilde_markings):
            assert len(tilde.elements) <= 2 * len(marking.elements)


def test_marked_edge_transfer_matches_proof_set(sq):
    # the transferred pair set is {(T, E) : T marked, E marked edge of T}
    corr = identity_corr(sq)
    marking = MarkingInput.of([0], [sq.edges_of(0)[0], sq.edges_of(0)[2]])
    tilde = transfer_marking(corr, marking)
    assert tilde.elements == frozenset({0})
    assert tilde.edges == frozenset({sq.edges_of(0)[0], sq.edges_of(0)[2]})


def test_structural_laws_transfer_between_corresponding_meshes():
    # generation preservation makes the level laws equivalent on the two
    # sides: check both meshes of every step against the same criteria
    from nvbmesh.analysis import verify_levels

    markings = red_trace(square2(), 7, 5, PatternPolicy.always_red())
    seq = corresponding_sequence(square2(), markings, PatternPolicy.always_red())
    for corr in seq.maps:
        rep_red = verify_levels(corr.left, square2())
        rep_b3 = verify_levels(corr.right, square2())
        assert rep_red.ok == rep_b3.ok is True
        assert rep_red.max_level_jump <= 2
        assert rep_b3.max_level_jump <= 2


def test_area_band_holds_on_all_maps():
    markings = red_trace(lshape6(), 3, 5, PatternPolicy.always_red())
    seq = corresponding_sequence(lshape6(), markings, PatternPolicy.always_red())
    for corr in seq.maps:
        for (t, _), (s, _) in corr.pairs.items():
            ratio = corr.left.area(t) / corr.right.area(s)
            assert 0.25 <= ratio <= 4.0


def test_bisec5_trace_rejected(sq):
    with pytest.raises(UnsupportedRefinementError):
        corresponding_sequence(sq, [MarkingInput.all_edges(sq, [0, 1])],
                               PatternPolicy.interior_node())


def test_build_corr_rejects_unrelated_meshes(sq, lshape):
    with pytest.raises(CorrespondenceError):
        build_corr(sq, lshape)


def test_corr_json_dump_roundtrip(sq):
    import json

    corr = identity_corr(sq)
    rows = json.loads(corr.to_json())
    assert len(rows) == 6
    assert {tuple(r["edge"]) for r in rows} <= set(sq.edge_table)
