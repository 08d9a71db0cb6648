"""The .nvbm text format: round trips and line-numbered diagnostics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import random_trace
from nvbmesh.mesh import MeshError, lshape6, same_mesh, square2
from nvbmesh.meshio import dumps_mesh, loads_mesh, read_mesh, write_mesh


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

    # refinement and uniform passes work without the initial mesh object
    again, refined = refine_step(loaded, MarkingInput.of([0]), "refineNVB")
    assert refined
    assert validate_mesh(again).ok
    assert validate_mesh(uniform(loaded, "bisec3")).ok

    # operations that need initial geometry refuse cleanly
    with pytest.raises(MeshError, match="initial mesh unknown"):
        restrict(loaded, [0])
    with pytest.raises(MeshError, match="initial mesh unknown"):
        loaded.initial_mesh
