"""The .nvbm text format: round trips and line-numbered diagnostics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_trace
from nvbmesh import meshio
from nvbmesh.mesh import (_EXHAUSTIVE_LIMIT, Mesh, MeshError, Violation, lshape6,
                          same_mesh, square2, validate_mesh)
from nvbmesh.meshio import _csv, dumps_mesh, loads_mesh, read_mesh, write_mesh
from nvbmesh.refine import uniform

PROPERTY = settings.get_profile("nvbmesh")


def test_roundtrip_is_exact(tmp_path):
    meshes, _ = random_trace(lshape6(), seed=11, steps=4, dialect="refineNVB")
    mesh = meshes[-1]
    path = tmp_path / "m.nvbm"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.elements, mesh.elements)
    assert np.array_equal(back.gen, mesh.gen)
    assert np.array_equal(back.ancestor, mesh.ancestor)
    assert same_mesh(back, mesh)


def test_write_twice_identical(tmp_path):
    mesh = square2()
    a, b = tmp_path / "a.nvbm", tmp_path / "b.nvbm"
    write_mesh(mesh, a)
    write_mesh(mesh, b)
    assert a.read_bytes() == b.read_bytes()


def test_header_format():
    text = dumps_mesh(square2())
    lines = text.splitlines()
    assert lines[0] == "nvbm 1"
    assert lines[1] == "4 2"
    assert len(lines) == 2 + 4 + 2


@pytest.mark.parametrize("mutate,lineno", [
    (lambda lines: ["wrong 1"] + lines[1:], 1),
    (lambda lines: [lines[0], "4"] + lines[2:], 2),
    (lambda lines: lines[:2] + ["x y"] + lines[3:], 3),
    (lambda lines: lines[:6] + ["0 1 2 0 0"] + lines[7:], 7),
])
def test_parse_errors_carry_line_numbers(mutate, lineno):
    lines = dumps_mesh(square2()).splitlines()
    bad = "\n".join(mutate(lines))
    with pytest.raises(MeshError, match=f":{lineno}:"):
        loads_mesh(bad, source="input")


def test_nonconforming_input_rejected():
    # CW second element
    text = ("nvbm 1\n4 2\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
            "2 0 1 0 0 0\n2 0 3 0 1 0\n")
    with pytest.raises(MeshError, match="non-conforming"):
        loads_mesh(text)


def test_hanging_node_input_rejected():
    text = ("nvbm 1\n5 3\n0.0 0.0\n2.0 0.0\n1.0 0.0\n1.0 1.0\n1.0 -1.0\n"
            "0 2 3 0 0 0\n2 1 3 0 1 0\n1 0 4 0 2 0\n")
    with pytest.raises(MeshError, match="non-conforming"):
        loads_mesh(text)


def test_hanging_node_off_the_midpoint_rejected_in_a_large_file():
    # two unit squares, vertex 2 inside edge (1, 3) that the right one has
    # alone, beside a disjoint bisected square2: above the exhaustive limit,
    # and the edge's midpoint is no vertex
    far = square2()
    for _ in range(11):
        far = uniform(far, "bisec1")
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.25), (1.0, 1.0), (0.0, 1.0),
                (2.0, 0.0), (2.0, 1.0)]
    elements = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (1, 5, 6), (1, 6, 3)]
    mesh = Mesh(vertices + (far.vertices + (3.0, 0.0)).tolist(),
                elements + (far.elements + len(vertices)).tolist())
    assert mesh.n_elements == 4101 > _EXHAUSTIVE_LIMIT
    expect = [Violation("hanging_node",
                        "vertex 2 lies inside edge (1, 3) of elements (4,)",
                        (2, 1, 3))]
    for exhaustive in (None, True):
        assert validate_mesh(mesh, exhaustive).violations == expect
    assert oracles.validate_mesh(mesh).violations == expect
    with pytest.raises(MeshError, match=":5: non-conforming mesh: vertex 2 lies"):
        loads_mesh(dumps_mesh(mesh))


def test_out_of_range_vertex_index_rejected():
    text = "nvbm 1\n3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n0 1 9 0 0 0\n"
    with pytest.raises(MeshError, match=":6:"):
        loads_mesh(text)


_TRIANGLE = "nvbm 1\n3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"


@pytest.mark.parametrize("element", [
    "0 1 2 0 99999999999999999999999 0",      # ancestor
    "0 1 2 99999999999999999999999 0 0",      # generation
    "0 1 -99999999999999999999999 0 0 0",     # vertex index
    "0 1 2 0 0 99999999999999999999999",      # red flag
])
def test_out_of_int64_integer_fields_rejected(element):
    with pytest.raises(MeshError, match=":6: integer field out of the int64"):
        loads_mesh(_TRIANGLE + element + "\n", source="input")


@pytest.mark.parametrize("coords", ["nan 0.0", "inf 0.0", "0.0 -inf", "1e309 1.0"])
def test_non_finite_coordinates_rejected_without_warnings(coords):
    text = "nvbm 1\n3 1\n0.0 0.0\n1.0 0.0\n" + coords + "\n0 1 2 0 0 0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshError, match=":5: non-finite coordinate"):
            loads_mesh(text, source="input")


def test_loaded_refined_mesh_supports_further_refinement(tmp_path):
    from nvbmesh.refine import MarkingInput, refine_step, uniform
    from nvbmesh.mesh import restrict, validate_mesh

    meshes, _ = random_trace(square2(), seed=13, steps=3, dialect="refineNVB")
    path = tmp_path / "m.nvbm"
    write_mesh(meshes[-1], path)
    loaded = read_mesh(path)

    # refinement and uniform passes need no initial mesh
    again, refined = refine_step(loaded, MarkingInput.of([0]), "refineNVB")
    assert refined
    assert validate_mesh(again).ok
    assert validate_mesh(uniform(loaded, "bisec3")).ok


def test_overlay_and_restrict_of_loaded_meshes_equal_in_memory_results(tmp_path):
    # a loaded mesh is its arrays alone, and overlay and restrict need no more
    from nvbmesh.mesh import restrict
    from nvbmesh.refine import overlay

    initial = lshape6()
    meshes = {"initial": initial}
    for name, seed in (("a", 13), ("b", 14)):
        meshes[name] = random_trace(initial, seed=seed, steps=3,
                                    dialect="refineNVB")[0][-1]
    loaded = {}
    for name, mesh in meshes.items():
        write_mesh(mesh, tmp_path / f"{name}.nvbm")
        loaded[name] = read_mesh(tmp_path / f"{name}.nvbm")
    a, b = meshes["a"], meshes["b"]
    expect = overlay(a, b, initial)
    for x, y, init in ((loaded["a"], loaded["b"], loaded["initial"]),
                       (loaded["a"], b, initial), (a, loaded["b"], initial)):
        assert same_mesh(overlay(x, y, init), expect)
    for subset in ([0], [1, 4], range(initial.n_elements)):
        assert same_mesh(restrict(loaded["a"], subset), restrict(a, subset))


_VALID = {
    "square2": dumps_mesh(square2()),
    "trace": dumps_mesh(random_trace(lshape6(), seed=5, steps=4,
                                     dialect="refineNVB", fraction=0.2)[0][-1]),
}


def _outcome(load, text: str) -> str:
    """The written mesh, or the text of the MeshError; any other exception
    propagates."""
    try:
        return dumps_mesh(load(text, source="in.nvbm"))
    except MeshError as exc:
        return f"MeshError: {exc}"


@st.composite
def _mutated(draw) -> str:
    text = _VALID[draw(st.sampled_from(sorted(_VALID)))]
    chars = st.sampled_from("0123456789 \n\t\r-+._e\x00\x0b\x85") | \
        st.integers(0, 255).map(chr)
    spot = draw(st.randoms(use_true_random=False))  # uniform positions
    for _ in range(draw(st.integers(1, 3))):
        i = spot.randrange(len(text) + 1)
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        c = draw(chars)
        text = (text[:i] + (c if op != "delete" else "")
                + text[i + (op != "insert"):])
    return text


_TRIANGLES = "nvbm 1\n4 2\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
# vertex 4 (line 7) repeats vertex 0; elements 0 and 1 (lines 6, 7) cover
# one triangle twice
_DUPLICATE_VERTEX = (_TRIANGLES.replace("4 2", "5 2") + "0.0 0.0\n"
                     "2 0 1 0 0 0\n0 2 3 0 1 0\n")
_DOUBLE_COVER = ("nvbm 1\n3 2\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                 "0 1 2 0 0 0\n1 2 0 0 1 0\n")
# element 1 (line 8) is clockwise, or has ancestor 2 in a 2-element initial mesh
_INVERTED = _TRIANGLES + "2 0 1 0 0 0\n0 3 2 0 1 0\n"
_ANCESTOR_OUT_OF_RANGE = _TRIANGLES + "2 0 1 0 0 0\n0 2 3 0 2 0\n"
# edge (0, 1) of elements 0..2 (lines 8..10) is shared by all three
_OVERSHARED = ("nvbm 1\n5 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n0.5 1.0\n-0.5 1.0\n"
               "0 1 2 0 0 0\n0 1 3 0 1 0\n0 1 4 0 2 0\n")
# elements 0 and 1 (lines 7, 8) both run edge (0, 1) from 0 to 1: they lie
# on one side of it and overlap
_FOLDED = ("nvbm 1\n4 2\n0.0 0.0\n1.0 0.0\n0.5 1.0\n0.5 0.5\n"
           "0 1 2 0 0 0\n0 1 3 0 1 0\n")
# vertex 2 (line 5) is the midpoint of element 2's edge (0, 1)
_HANGING_NODE = ("nvbm 1\n5 3\n0.0 0.0\n2.0 0.0\n1.0 0.0\n1.0 1.0\n1.0 -1.0\n"
                 "0 2 3 0 0 0\n2 1 3 0 1 0\n1 0 4 0 2 0\n")


@pytest.mark.parametrize("text", [
    _TRIANGLES + "2 0 1 0 0 0\n0 2 3 0 1 0\n",                   # valid
    _TRIANGLES + "2\t0 1 0 0 0\r\n0 2 3 +1 0_1 0\n\nextra\n",    # valid, slow path
    _TRIANGLES.replace("1.0 1.0", "1.0 1.0\x85") + "2 0 1 0 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES + "2 0 1 0 0 0\n0 2 3 \u0663 1 0\n",                # Arabic-Indic 3
    _TRIANGLES + "2 0 1 9223372036854775807 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES + "2 0 1 9223372036854775808 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES + "2 0 1 0 0 0\n0 2 3 0 -1 0\n",
    _TRIANGLES + "2 0 1 0 -1 0\n0 2 3 0 1 7\n",                  # line error first
    _TRIANGLES + "2 0 1 -1 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES + "2 0 1 0 0 2\n0 2 3 0 1 0\n",
    _TRIANGLES + "2 0 4 0 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES + "2 0 1 0 0 0 0\n0 2 3 0 1\n",                    # 7 then 5 fields
    _TRIANGLES + "2 0 1 0.0 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES.replace("0.0 1.0", "0.0 1.0 2.0") + "2 0 1 0 0 0\n0 2 3 0\n",
    _TRIANGLES.replace("1.0 0.0", "1e400 0.0") + "2 0 x 0 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES.replace("1.0 0.0", "1_0 nan") + "2 0 1 0 0 0\n0 2 3 0 1 0\n",
    _TRIANGLES.replace("4 2", "6 2") + "2.0 2.0\n-0.0 0.0\n2 0 1 0 0 0\n0 2 3 0 1 0\n",
    _HANGING_NODE,
    _TRIANGLES + "2 0 1 0 0 0\n0 2 1 0 1 0\n",
    _DUPLICATE_VERTEX,
    _DOUBLE_COVER,
    _FOLDED,
    _INVERTED,
    _ANCESTOR_OUT_OF_RANGE,
    _OVERSHARED,
    _TRIANGLES + "2 0 1 1 0 0\n0 2 3 0 2 0\n",                  # gen 1: not initial
    _TRIANGLES + " 2 0 1 0 0\n0 2 3 0 1 0\n",                  # leading space, 5 fields
    # non-ASCII whitespace splits fields: line 3 has three, line 4 one
    _TRIANGLES.replace(" 0.0\n1.0 0.0", "\u00a00.0 1.0\n0.0 \u00a0")
    + "2 0 1 0 0 0\n0 2 3 0 1 0\n",
])
def test_malformed_corpus_fails_like_the_line_parser(text):
    assert _outcome(loads_mesh, text) == _outcome(oracles.loads_mesh, text)


@pytest.mark.parametrize("text,message", [
    (_DUPLICATE_VERTEX, "in.nvbm:7: non-conforming mesh: vertices 0 and 4 "
     "coincide"),
    (_DOUBLE_COVER, "in.nvbm:7: non-conforming mesh: elements 0 and 1 cover "
     "the same triangle"),
    (_FOLDED, "in.nvbm:8: non-conforming mesh: elements 0 and 1 lie on one "
     "side of their shared edge (0, 1) (1 violation(s) total)"),
    (_INVERTED, "in.nvbm:8: non-conforming mesh: element 1 has signed area -0.5"),
    (_ANCESTOR_OUT_OF_RANGE, "in.nvbm:8: ancestor id 2 out of range 0..1"),
    (_OVERSHARED, "in.nvbm:10: non-conforming mesh: edge (0, 1) shared by "
     "elements (0, 1, 2)"),
    (_HANGING_NODE, "in.nvbm:5: non-conforming mesh: vertex 2 splits edge (0, 1)"),
])
def test_conformity_errors_name_the_later_line(text, message):
    assert _outcome(loads_mesh, text).startswith(f"MeshError: {message}")


@settings(PROPERTY, max_examples=1000)
@given(_mutated())
def test_mutated_files_fail_like_the_line_parser(text):
    with np.errstate(invalid="ignore", over="ignore"):
        assert _outcome(loads_mesh, text) == _outcome(oracles.loads_mesh, text)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(PROPERTY)
@given(st.lists(st.tuples(_FLOATS, _FLOATS), min_size=3, max_size=3),
       st.integers(0, 2), st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1),
       st.booleans())
@example([(5e-324, -0.0), (1.7976931348623157e308, 0.0), (0.0, 1.0)], 1, 0, 0, True)
@example([(-0.0, 0.0), (1.0, 5e-324), (-1.7976931348623157e308, 2.0)], 2, 2**63 - 1,
         2**63 - 1, False)
def test_write_read_is_identity_on_finite_floats(points, rot, gen, ancestor, red):
    triple = np.roll([0, 1, 2], rot)
    with np.errstate(invalid="ignore", over="ignore"):
        if Mesh(points, [triple], validate=False).areas[0] < 0:
            triple = triple[::-1]
        try:
            mesh = Mesh(points, [triple], gen=[gen], ancestor=[ancestor if gen else 0],
                        red_son=[red])
        except MeshError:
            assume(False)
        assume(validate_mesh(mesh).ok)
        text = dumps_mesh(mesh)
        back = loads_mesh(text)
    for name in ("vertices", "elements", "gen", "ancestor", "red_son"):
        assert getattr(back, name).tobytes() == getattr(mesh, name).tobytes()
    assert dumps_mesh(back) == text


_EDGE_FLOATS = _FLOATS | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
     2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308])
_INT64_FIELDS = st.integers(0, 2**63 - 1)


@st.composite
def _mesh_pair(draw) -> tuple[Mesh, Mesh]:
    """A mesh of arbitrary finite vertices and int64 fields (not validated),
    and a mesh written before it: a prefix of its vertices, possibly with one
    coordinate changed by a sign or an ulp, possibly extended past its end."""
    n = draw(st.integers(1, 6))
    vertices = np.array(draw(st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS),
                                      min_size=n, max_size=n)))
    m = draw(st.integers(1, 4))
    fields = st.lists(st.tuples(*[st.integers(0, n - 1)] * 3, _INT64_FIELDS,
                                _INT64_FIELDS, st.booleans()),
                      min_size=m, max_size=m)
    rows = draw(fields)
    mesh = Mesh(vertices, [r[:3] for r in rows], gen=[r[3] for r in rows],
                ancestor=[r[4] for r in rows], red_son=[r[5] for r in rows],
                validate=False)
    before = vertices[:draw(st.integers(1, n))].copy()
    i, c = draw(st.integers(0, len(before) - 1)), draw(st.integers(0, 1))
    change = draw(st.sampled_from(["none", "sign", "ulp"]))
    if change == "sign":
        before[i, c] = -before[i, c]
    elif change == "ulp":
        before[i, c] = np.nextafter(before[i, c], 0.0)
    extra = draw(st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), max_size=3))
    if extra:
        before = np.concatenate([before, extra])
    return mesh, Mesh(before, [(0, 0, 0)], validate=False)


@settings(PROPERTY)
@given(_mesh_pair())
def test_writer_matches_the_line_oracle(pair):
    mesh, before = pair
    assert dumps_mesh(before) == oracles.dumps_mesh(before)
    assert dumps_mesh(mesh) == oracles.dumps_mesh(mesh)


# the int64 ends and every digit-count boundary, 13 rows of 6
_EDGE_INTS = np.array([-2**63, 2**63 - 1] + [v for k in range(19) for v in (
    10**k, 10**k - 1, -10**k, 1 - 10**k)], dtype=np.int64).reshape(-1, 6)


@st.composite
def _int_rows(draw) -> np.ndarray:
    """An (m, 6) int64 array, m = 0..5: fields in 0..6m-1, the range the
    writer formats once as a table, or anywhere in int64."""
    m = draw(st.integers(0, 5))
    fields = (st.integers(0, max(6 * m - 1, 0)) if draw(st.booleans())
              else st.integers(-2**63, 2**63 - 1) | st.sampled_from(
                  _EDGE_INTS.ravel().tolist()))
    rows = draw(st.lists(st.lists(fields, min_size=6, max_size=6),
                         min_size=m, max_size=m))
    return np.array(rows, dtype=np.int64).reshape(m, 6)


@settings(PROPERTY, max_examples=500)
@given(_int_rows())
@example(np.zeros((0, 6), dtype=np.int64))
@example(_EDGE_INTS)
@example(np.arange(60, dtype=np.int64).reshape(10, 6))  # table: max = size - 1
@example(np.full((1, 6), 6, dtype=np.int64))            # max = size: no table
def test_element_block_matches_percent_d(rows):
    expected = ("%d %d %d %d %d %d\n" * len(rows)) % tuple(rows.ravel().tolist())
    assert meshio._element_lines(rows) == expected


def _changed(mesh: Mesh, node: int, coord: int, value: float) -> Mesh:
    vertices = mesh.vertices.copy()
    vertices[node, coord] = value
    return Mesh(vertices, mesh.elements, validate=False)


_FINE = random_trace(square2(), seed=2, steps=3, dialect="refineNVB")[0][-1]


@pytest.mark.parametrize("first,second", [
    (square2(), _FINE),                                   # prefix: reused
    (_FINE, square2()),                                   # shorter after longer
    (square2(), _changed(square2(), 0, 1, -0.0)),         # -0.0 == 0.0
    (_FINE, _changed(_FINE, 4, 0, np.nextafter(_FINE.vertices[4, 0], 1.0))),
    (_changed(_FINE, 0, 0, -0.0), _FINE),
])
def test_writer_reuses_only_a_bit_identical_vertex_prefix(tmp_path, first,
                                                           second):
    write_mesh(first, tmp_path / "a.nvbm")
    write_mesh(second, tmp_path / "b.nvbm")
    assert (tmp_path / "a.nvbm").read_text() == oracles.dumps_mesh(first)
    assert (tmp_path / "b.nvbm").read_text() == oracles.dumps_mesh(second)


def test_csv_fields():
    # a float is its shortest round-trip repr, None an empty field and a
    # bool 0 or 1; every line ends in a newline
    rows = [(1, 0.1, None, True, "a"), (-2, 1e-300, 2.0, False, ""),
            (0, -0.0, float("inf"), 3, "b")]
    assert _csv("n,x,y,flag,s", rows) == ("n,x,y,flag,s\n1,0.1,,1,a\n"
                                          "-2,1e-300,2.0,0,\n0,-0.0,inf,3,b\n")
    assert _csv("n,x", []) == "n,x\n"
