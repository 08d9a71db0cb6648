"""Red/bisec3 correspondence: construction, templates, verification."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from oracles import coords
from conftest import (square2_boundary_refs, square2_incompatible,
                      single_triangle)
from nvbmesh.correspondence import (CorrespondenceError, CorrMap, build_corr,
                                    corresponding_sequence, identity_corr,
                                    transfer_marking, verify_corr)
from nvbmesh.mesh import Mesh, lshape6, square2
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
            assert coords(corr.left, t) == coords(corr.right, t)
            for e in oracles.edges_of(corr.left, t):
                assert corr.pairs[(t, e)] == (t, e)


def _exhaustive_neighbor_property(corr):
    """Definition-level check of neighbor preservation over every pair of
    incidence pairs (quadratic; for tiny meshes only)."""
    a, b = corr.left, corr.right
    a_table, b_table = (oracles.edge_table(m.elements) for m in (a, b))
    items = list(corr.pairs.items())
    for (p1, q1), (p2, q2) in itertools.combinations(items, 2):
        t1, e1 = p1
        t2, e2 = p2
        s1, f1 = q1
        s2, f2 = q2
        share_src = (t1 != t2 and e1 == e2
                     and set(a_table[e1]) == {t1, t2})
        share_dst = (s1 != s2 and f1 == f2
                     and set(b_table[f1]) == {s1, s2})
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


def test_map_is_frozen(sq):
    corr = identity_corr(sq)
    with pytest.raises(dataclasses.FrozenInstanceError):
        corr.image = np.array([[3, 4, 5], [3, 4, 5]])
    assert verify_corr(corr).ok


def test_swapped_pair_detected(sq):
    corr = identity_corr(sq)
    image = corr.image.copy()
    # swap the images of two pairs of one element
    image[0, 0], image[0, 1] = image[0, 1], image[0, 0]
    broken = CorrMap(left=sq, right=sq, image=image)
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


def count_traces():
    """The ten traces of test_sequences_verify_and_preserve_counts, as
    (markings, sequence) pairs."""
    for seed in range(10):
        initial = lshape6() if seed % 2 else square2()
        policy = (PatternPolicy.always_red() if seed % 3
                  else PatternPolicy.custom(
                      lambda t, m: "red" if t % 2 else "bisec3", name="mixed"))
        markings = red_trace(initial, seed + 50, 5, policy)
        yield markings, corresponding_sequence(initial, markings, policy)


def test_sequences_verify_and_preserve_counts():
    for seed, (markings, seq) in enumerate(count_traces()):
        for i, corr in enumerate(seq.maps):
            assert corr.left.n_elements == corr.right.n_elements, (seed, i)
            report = verify_corr(corr)
            assert report.ok, (seed, i, report.violations[:3])
        for marking, tilde in zip(markings, seq.tilde_markings):
            assert len(tilde.elements) <= 2 * len(marking.elements)


def test_marked_edge_transfer_matches_proof_set(sq):
    # the transferred pair set is {(T, E) : T marked, E marked edge of T}
    corr = identity_corr(sq)
    ref, _, left = oracles.edges_of(sq, 0)
    marking = MarkingInput.of([0], oracles.edge_ids(sq, [ref, left]))
    tilde = transfer_marking(corr, marking)
    assert tilde.elements == frozenset({0})
    assert oracles.edge_keys(sq, tilde.edges) == frozenset({ref, left})


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
        left, right = corr.left.areas(), corr.right.areas()
        for (t, _), (s, _) in corr.pairs.items():
            ratio = left[t] / right[s]
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
    assert {tuple(r["edge"]) for r in rows} <= set(oracles.edge_table(sq.elements))


def _violations(corr):
    return oracles.verify_corr(corr.pairs, corr.left, corr.right).violations


def test_maps_match_loop_oracles():
    maps = 0
    for markings, seq in count_traces():
        for i, corr in enumerate(seq.maps):
            a = corr.left
            pairs = corr.pairs
            assert list(pairs) == [(t, e) for t in range(a.n_elements)
                                   for e in oracles.edges_of(a, t)]
            if i:
                assert pairs == oracles.build_corr(a, corr.right)
                prev = seq.maps[i - 1]
                tilde = seq.tilde_markings[i - 1]
                expect = oracles.transfer_marking(prev.pairs, prev.left,
                                                  prev.right, markings[i - 1])
                assert tilde.elements == expect.elements
                assert np.array_equal(tilde.edges, expect.edges)
            assert corr.to_json() == oracles.corr_to_json(pairs)
            assert verify_corr(corr).violations == _violations(corr)
            maps += 1
    assert maps == 60


def test_verify_matches_oracle_on_tampered_maps():
    rng = np.random.default_rng(11)
    maps = [corr for _, seq in count_traces() for corr in seq.maps[1:]]
    kinds = set()
    for k in range(240):
        corr = maps[k % len(maps)]
        image = corr.image.copy().ravel()
        i, j = rng.choice(image.size, size=2, replace=False)
        image[i], image[j] = image[j], image[i]
        broken = CorrMap(corr.left, corr.right, image.reshape(-1, 3))
        fast = verify_corr(broken).violations
        assert fast and fast == _violations(broken), k
        kinds |= {v[0] for v in fast}
    # maps that send every edge to itself in a copy of the mesh with some
    # vertex triples rotated (moving their reference edges) and, every
    # other time, ancestors merged in pairs
    for k in range(40):
        a = maps[k % len(maps)].left
        shift = rng.integers(0, 3, a.n_elements) * (rng.random(a.n_elements) < 0.2)
        rows = np.arange(a.n_elements)[:, None]
        rotated = a.elements[rows, (np.arange(3) - shift[:, None]) % 3]
        b = Mesh(a.vertices, rotated, gen=a.gen,
                 ancestor=a.ancestor // (1 + k % 2), red_son=a.red_son)
        broken = CorrMap(a, b, 3 * rows + (np.arange(3) + shift[:, None]) % 3)
        fast = verify_corr(broken).violations
        assert fast == _violations(broken), k
        kinds |= {v[0] for v in fast}
    assert len(kinds) == 14, kinds
    # a shuffled map: far more violations than the report keeps
    corr = maps[-1]
    broken = CorrMap(corr.left, corr.right,
                     rng.permutation(corr.image.ravel()).reshape(-1, 3))
    fast = verify_corr(broken).violations
    assert len(fast) == 50
    assert fast == _violations(broken)


def test_build_corr_merges_negative_zero(lshape):
    vertices = lshape.vertices.copy()
    vertices[vertices == 0.0] = -0.0
    assert np.signbit(vertices).sum() > np.signbit(lshape.vertices).sum()
    corr = build_corr(lshape, Mesh(vertices, lshape.elements))
    assert (corr.image == identity_corr(lshape).image).all()


def _two_diamonds():
    """Two diamonds over the unit square, one along each diagonal."""
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    return Mesh(vertices, [(0, 2, 3), (2, 0, 1), (1, 3, 0), (3, 1, 2)],
                validate=False)


def _error_cases():
    sq = square2()
    flat = Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)],
                [(0, 1, 2), (1, 0, 3)], validate=False)
    shifted = Mesh(sq.vertices + [2.0, 0.0], sq.elements)
    rotated = Mesh(_two_diamonds().vertices,
                   _two_diamonds().elements[:, [1, 2, 0]], validate=False)
    return {
        "counts": (sq, lshape6()),
        "duplicate triples": (sq, Mesh(sq.vertices, [(2, 0, 1), (2, 0, 1)],
                                       validate=False)),
        "no partner": (square2_incompatible(), sq),
        "no partner right": (sq, square2_boundary_refs()),
        "not a diamond": (sq, square2_incompatible()),
        "degenerate diamond": (flat, sq),
        "repeated corner set": (_two_diamonds(), rotated),
        "corner sets": (sq, shifted),
        "template": (sq, Mesh(sq.vertices, [(0, 2, 1), (2, 0, 3)],
                              validate=False)),
    }


def _outcome(build, left, right):
    try:
        result = build(left, right)
    except CorrespondenceError as exc:
        return str(exc)
    return dict(result.pairs if isinstance(result, CorrMap) else result)


@pytest.mark.parametrize("case", sorted(_error_cases()))
def test_build_corr_errors_match_oracle(case):
    left, right = _error_cases()[case]
    expected = _outcome(oracles.build_corr, left, right)
    assert isinstance(expected, str)
    assert _outcome(build_corr, left, right) == expected


def test_degenerate_diamond_message_prints_plain_floats():
    left, right = _error_cases()["degenerate diamond"]
    message = _outcome(build_corr, left, right)
    assert message.startswith("left diamond at [(0.0, 0.0), ")
    assert "np.float64" not in message


def test_build_corr_first_error_matches_oracle_on_rotated_elements():
    # rotating an element's vertex triple moves its reference edge, which
    # breaks the correspondence at some elements of the rotated side
    seq = next(count_traces())[1]
    rng = np.random.default_rng(5)
    messages = set()
    for k in range(120):
        corr = seq.maps[1 + k % 5]
        side = k % 2
        mesh = (corr.left, corr.right)[side]
        elements = mesh.elements.copy()
        for t in rng.choice(mesh.n_elements, size=1 + k % 4, replace=False):
            elements[t] = np.roll(elements[t], 1 + k % 3 % 2)
        pair = [corr.left, corr.right]
        pair[side] = Mesh(mesh.vertices, elements, gen=mesh.gen,
                          ancestor=mesh.ancestor, red_son=mesh.red_son)
        expected = _outcome(oracles.build_corr, *pair)
        assert _outcome(build_corr, *pair) == expected, k
        if isinstance(expected, str):
            messages.add(expected.split(" ")[0] + " " + expected.split(" ")[-1])
    assert len(messages) >= 3, messages
