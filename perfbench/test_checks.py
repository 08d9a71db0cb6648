"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys

import pytest

from nvbmesh import marking, meshio, refine, stability
from nvbmesh.mesh import Mesh, lshape6

from checks import h1_exact, h1_run_config, load_json, sha256
from tracing import Tracer, _targets
from workloads import Ops, check_h1


@pytest.fixture(scope="module")
def corner_meshes():
    return marking.run_refinement(h1_run_config()).meshes


def fine_of(coarse):
    return refine.uniform(refine.uniform(coarse, "bisec1"), "bisec1")


def test_reduction_reproduces_dense_oracle(corner_meshes):
    top16, _ = h1_exact(corner_meshes[16], fine_of(corner_meshes[16]))
    top20, second20 = h1_exact(corner_meshes[20], fine_of(corner_meshes[20]))
    assert top16 == pytest.approx(1.4559666473, abs=1e-10)
    assert top20 == pytest.approx(1.3858683432, abs=1e-10)
    assert second20 == pytest.approx(1.3856833903, abs=1e-10)
    stored = load_json("h1_reference.json")["pairs"]
    assert stored[16]["top"] == pytest.approx(top16, rel=1e-12)
    assert stored[20]["second"] == pytest.approx(second20, rel=1e-12)


def test_h1_check_counts_the_second_eigenvalue_as_one_failure():
    exact = [p["top"] for p in load_json("h1_reference.json")["pairs"]]
    values = list(exact)
    ops = Ops(len(values))
    check_h1(ops, values, exact)
    assert ops.passed == len(values)

    values[20] = 1.3856833903
    ops = Ops(len(values))
    error = check_h1(ops, values, exact)
    assert ops.expected - ops.passed == 1
    assert ops.failures[0].startswith("H1 pair 20:")
    assert error == pytest.approx(1.334e-4, rel=1e-2)


def test_h1_check_rejects_values_above_the_exact_top():
    exact = [p["top"] for p in load_json("h1_reference.json")["pairs"]]
    ops = Ops(len(exact))
    check_h1(ops, [e * (1.0 + 1e-7) for e in exact], exact)
    assert ops.passed == 0


def test_digest_check_detects_one_changed_element():
    mesh = lshape6()
    tris = mesh.elements.copy()
    v0, v1, v2 = tris[3]
    tris[3] = (v1, v2, v0)          # same triangle, another reference edge
    changed = Mesh(mesh.vertices, tris)
    reference = {"mesh": sha256(meshio.dumps_mesh(mesh))}
    ops = Ops(1)
    ops.digests({"mesh": sha256(meshio.dumps_mesh(changed))}, reference)
    assert ops.failures == ["digest mesh"]
    ops = Ops(1)
    ops.digests({"mesh": sha256(meshio.dumps_mesh(mesh))}, reference)
    assert ops.passed == 1


def test_tracer_records_spans_and_restores_every_attribute():
    modules = [m for n, m in sys.modules.items() if n.startswith("nvbmesh")]
    before = [(m, k, v) for m in modules for k, v in vars(m).items()]
    owners = [o for o, _, _, _ in _targets() if isinstance(o, type)]
    methods = [(o, k, v) for o in owners for k, v in vars(o).items()]

    tracer = Tracer()
    tracer.install()
    try:
        coarse = refine.uniform(lshape6(), "bisec3")
        stability.measure_h1_stability(coarse, fine_of(coarse))
    finally:
        tracer.restore()
    assert tracer.restored()
    assert all(getattr(m, k) is v for m, k, v in before)
    assert all(vars(o)[k] is v for o, k, v in methods)

    layers = tracer.pass_metrics(0)
    assert layers["refine.uniform.calls"] == 3
    assert layers["stability.measure_h1_stability.calls"] == 1
    assert layers["stability.mass_solve.calls"] >= 2
    assert layers["mesh.build_edge_table.calls"] == layers["mesh.Mesh.calls"]
    assert all(v >= -1e-9 for k, v in layers.items() if k.endswith("self_s"))
