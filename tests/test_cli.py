"""CLI subcommands: outputs, exit codes, determinism, fault injection."""

from __future__ import annotations

import argparse
import json
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from conftest import random_trace
from oracles import brute_force_weight_exponents, conditions
from nvbmesh import cli, meshio
from nvbmesh.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, build_parser, main
from nvbmesh.marking import (REF_EDGE_POLICIES, STRATEGIES, RunConfig,
                             make_policy, run_refinement)
from nvbmesh.mesh import Mesh, PrecisionExhausted, lshape6, square2
from nvbmesh.refine import DIALECTS, MarkingInput, refine_step, uniform
from nvbmesh.meshio import read_mesh, write_mesh
from nvbmesh.stability import NodeWeights


def run(*argv):
    return main(list(argv))


def load_json(path):
    """A JSON file the CLI wrote, refusing Infinity, -Infinity and NaN,
    which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_generate_square2(tmp_path):
    out = tmp_path / "sq.nvbm"
    assert run("generate", "square2", "--out", str(out)) == EXIT_OK
    mesh = read_mesh(out)
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert (mesh.gen == 0).all()


def test_generate_lshape6(tmp_path):
    out = tmp_path / "l.nvbm"
    assert run("generate", "lshape6", "--out", str(out)) == EXIT_OK
    mesh = read_mesh(out)
    assert mesh.n_vertices == 8
    assert mesh.n_elements == 6
    assert mesh.total_area() == 3.0


def test_generate_random_ref_edges_deterministic(tmp_path):
    a = tmp_path / "a.nvbm"
    b = tmp_path / "b.nvbm"
    assert run("generate", "square2", "--ref-edges", "random", "--seed", "7",
               "--out", str(a)) == EXIT_OK
    assert run("generate", "square2", "--ref-edges", "random", "--seed", "7",
               "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_into_a_directory_names_the_file_after_the_spec(tmp_path,
                                                                capsys,
                                                                monkeypatch):
    monkeypatch.chdir(tmp_path)           # the default --out is "."
    assert run("generate", "lshape6") == EXIT_OK
    assert capsys.readouterr().out == \
        "wrote lshape6.nvbm: 8 vertices, 6 elements\n"
    assert (tmp_path / "lshape6.nvbm").read_text() == \
        meshio.dumps_mesh(lshape6())


def test_generate_unknown_spec_exits_2(tmp_path):
    assert run("generate", "no-such-mesh", "--out", str(tmp_path)) == EXIT_USAGE


def test_refine_all_strategy_counts(tmp_path):
    out = tmp_path / "run"
    assert run("refine", "square2", "--strategy", "all", "--steps", "2",
               "--out", str(out)) == EXIT_OK
    counts = [read_mesh(out / f"step_{i:03d}.nvbm").n_elements
              for i in range(3)]
    assert counts == [2, 4, 8]
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "step,marked,elements,closure_iters,rho"
    assert len(trace) == 3


def test_refine_zero_steps_echoes_initial(tmp_path):
    out = tmp_path / "run0"
    assert run("refine", "square2", "--steps", "0", "--out", str(out)) == EXIT_OK
    assert (out / "step_000.nvbm").exists()
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace) == 1  # header only


def _written_files(meshes, directory) -> dict[str, bytes]:
    directory.mkdir()
    for i, mesh in enumerate(meshes):
        write_mesh(mesh, directory / f"step_{i:03d}.nvbm")
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# a pattern policy each dialect admits, the default where it admits only one
_POLICY_OF = {"refineNVB": "bisec3", "refineNVB3": "bisec3",
              "refineNVBred": "red", "refine": "interior-node"}


@pytest.mark.parametrize("dialect,policy", [(d, _POLICY_OF[d]) for d in DIALECTS])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("ref_edges", REF_EDGE_POLICIES)
def test_refine_streams_the_files_of_the_batch_run(tmp_path, dialect, policy,
                                                   strategy, ref_edges):
    config = RunConfig(initial="lshape6", ref_edges=ref_edges, dialect=dialect,
                       policy=policy, strategy=strategy, corner=(0.0, 0.0),
                       radius=0.5, steps=3, seed=4)
    out = tmp_path / "run"
    assert run("refine", "lshape6", "--ref-edges", ref_edges, "--dialect",
               dialect, "--policy", policy, "--strategy", strategy,
               "--radius", "0.5", "--steps", "3", "--seed", "4",
               "--out", str(out)) == EXIT_OK
    streamed = {p.name: p.read_bytes() for p in out.iterdir()}
    assert streamed.pop("trace.csv")
    assert streamed == _written_files(run_refinement(config).meshes,
                                      tmp_path / "batch")


def test_refine_files_match_the_line_oracle(tmp_path):
    # four-digit vertex ids; the writer is checked against the line writer,
    # not against itself
    config = RunConfig(initial="square2", strategy="all", steps=12)
    out = tmp_path / "run"
    assert run("refine", "square2", "--strategy", "all", "--steps", "12",
               "--out", str(out)) == EXIT_OK
    meshes = run_refinement(config).meshes
    assert meshes[-1].n_vertices > 1000
    for i, mesh in enumerate(meshes):
        text = (out / f"step_{i:03d}.nvbm").read_text(encoding="ascii")
        assert text == oracles.dumps_mesh(mesh)


def test_refine_holds_one_mesh_at_a_time(tmp_path, monkeypatch):
    alive = []
    init, write = Mesh.__init__, meshio.write_mesh

    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.append(weakref.ref(self))

    counts = []

    def counting_write(mesh, path):
        # the mesh being written, and the initial mesh it refers to
        counts.append(sum(ref() is not None for ref in alive))
        write(mesh, path)

    monkeypatch.setattr(Mesh, "__init__", registering_init)
    monkeypatch.setattr(meshio, "write_mesh", counting_write)
    assert run("refine", "square2", "--strategy", "all", "--steps", "6",
               "--out", str(tmp_path / "run")) == EXIT_OK
    assert len(counts) == 7
    assert max(counts) <= 2


def test_refine_corner_run_monotone(tmp_path):
    out = tmp_path / "corner"
    assert run("refine", "lshape6", "--strategy", "corner", "--corner", "0,0",
               "--steps", "25", "--out", str(out)) == EXIT_OK
    counts = [read_mesh(out / f"step_{i:03d}.nvbm").n_elements
              for i in range(26)]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    for line in (out / "trace.csv").read_text().strip().splitlines()[1:]:
        rho = line.split(",")[4]
        assert rho != "" and float(rho) > 0


def test_refine_determinism(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run("refine", "lshape6", "--strategy", "random", "--fraction",
                   "0.4", "--seed", "3", "--steps", "5", "--out",
                   str(out)) == EXIT_OK
        outs.append(out)
    for f in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


def test_analyze_clean_run_exits_0(tmp_path):
    out = tmp_path / "run"
    run("refine", "lshape6", "--strategy", "corner", "--steps", "6",
        "--out", str(out))
    files = [str(out / f"step_{i:03d}.nvbm") for i in range(7)]
    code = run("analyze", *files, "--nvb", "--trace", str(out / "trace.csv"),
               "--out", str(tmp_path / "rep"))
    assert code == EXIT_OK
    report = load_json(tmp_path / "rep" / "analysis.json")
    assert report["ok"]
    assert report["max_level_jump"] <= 1  # BDD initial mesh + refineNVB
    # the neighbor-rule verifier measures no level constants
    assert all(sorted(entry["neighbor_rules"]) == ["checks", "ok"]
               for entry in report["meshes"])
    assert (tmp_path / "rep" / "ledger.csv").exists()


def test_analyze_tampered_gen_exits_3(tmp_path):
    out = tmp_path / "run"
    run("refine", "square2", "--strategy", "all", "--steps", "2",
        "--out", str(out))
    victim = out / "step_002.nvbm"
    lines = victim.read_text().splitlines()
    # element lines start after 2 header lines + nv vertex lines
    nv = int(lines[1].split()[0])
    parts = lines[2 + nv].split()
    parts[3] = str(int(parts[3]) + 3)  # corrupt gen
    lines[2 + nv] = " ".join(parts)
    victim.write_text("\n".join(lines) + "\n")
    code = run("analyze", str(out / "step_000.nvbm"), str(victim),
               "--out", str(tmp_path / "rep"))
    assert code == EXIT_VIOLATION
    report = load_json(tmp_path / "rep" / "analysis.json")
    assert not report["ok"]


@pytest.mark.parametrize("row", ["1,2", "1,2,x,0,", ""])
def test_analyze_malformed_trace_row_exits_2(tmp_path, capsys, row):
    mesh = tmp_path / "sq.nvbm"
    write_mesh(square2(), mesh)
    trace = tmp_path / "t.csv"
    trace.write_text(f"step,marked,elements,closure_iters,rho\n0,2,2,0,\n{row}\n"
                     "2,2,8,0,\n")
    code = run("analyze", str(mesh), "--trace", str(trace),
               "--out", str(tmp_path / "rep"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"error: {trace}:3: expected integer step" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    "step,marked,marked_edges,closure_iters,refined,elements\n1,1,0,1,2,4\n", ""],
    ids=["refine_trace", "empty"])
def test_analyze_trace_without_its_header_exits_2(tmp_path, capsys, text):
    # a refine.trace_to_csv file would read marked_edges as elements
    mesh, trace = tmp_path / "sq.nvbm", tmp_path / "t.csv"
    write_mesh(square2(), mesh)
    trace.write_text(text)
    code = run("analyze", str(mesh), "--trace", str(trace),
               "--out", str(tmp_path / "rep"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {trace}:1: expected the header "
        "'step,marked,elements,closure_iters,rho'\n")


def test_analyze_deep_generation_exits_3(tmp_path, capsys):
    # 2**(3000/2) is past the float range: the diameter scales are null
    initial, deep = tmp_path / "sq.nvbm", tmp_path / "deep.nvbm"
    write_mesh(square2(), initial)
    write_mesh(Mesh(square2().vertices, square2().elements, gen=[3000, 0],
                    validate=False), deep)
    code = run("analyze", str(initial), str(deep), "--out", str(tmp_path))
    assert code == EXIT_VIOLATION
    assert "Traceback" not in capsys.readouterr().err
    entry = load_json(tmp_path / "analysis.json")["meshes"][1]
    assert entry["diam_scale_lower"] == 0.5 ** 0.5   # element 1, generation 0
    assert entry["diam_scale_upper"] is None
    assert entry["max_level_jump"] == 3000


def test_analyze_foreign_initial_mesh_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    run("refine", "lshape6", "--steps", "2", "--out", str(out))
    initial = tmp_path / "sq.nvbm"
    write_mesh(square2(), initial)
    code = run("analyze", str(initial), str(out / "step_002.nvbm"),
               "--out", str(tmp_path / "rep"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: element 8 has ancestor id 2, but the initial mesh has 2 "
        "elements\n")


def test_analyze_refined_initial_mesh_exits_2(tmp_path, capsys):
    # the first file must be an initial mesh, not one step of a run
    out = tmp_path / "run"
    run("refine", "square2", "--strategy", "all", "--steps", "3",
        "--out", str(out))
    capsys.readouterr()
    rep = tmp_path / "rep"
    code = run("analyze", str(out / "step_002.nvbm"), str(out / "step_003.nvbm"),
               "--out", str(rep))
    assert code == EXIT_USAGE
    assert capsys.readouterr() == ("", (
        "error: the initial mesh has element 0 of generation 2, but an "
        "initial mesh has generation 0 only\n"))
    assert not rep.exists()


def test_analyze_trace_with_more_marks_than_new_elements_exits_3(tmp_path):
    mesh, trace = tmp_path / "sq.nvbm", tmp_path / "t.csv"
    write_mesh(square2(), mesh)
    trace.write_text("step,marked,elements,closure_iters,rho\n1,5,4,0,\n")
    code = run("analyze", str(mesh), "--trace", str(trace),
               "--out", str(tmp_path))
    assert code == EXIT_VIOLATION
    report = load_json(tmp_path / "analysis.json")
    assert not report["ok"] and not report["closure_sum_bound_ok"]
    assert report["meshes"][0]["ok"]


def test_analyze_nvb_reports_failed_neighbor_rules(tmp_path):
    fine = uniform(uniform(lshape6(), "bisec1"), "bisec1")
    gen = fine.gen.copy()
    gen[5] += 2
    initial, bad = tmp_path / "l.nvbm", tmp_path / "bad.nvbm"
    write_mesh(lshape6(), initial)
    write_mesh(Mesh(fine.vertices, fine.elements, gen=gen,
                    ancestor=fine.ancestor), bad)
    code = run("analyze", str(initial), str(bad), "--nvb",
               "--out", str(tmp_path))
    assert code == EXIT_VIOLATION
    report = load_json(tmp_path / "analysis.json")
    rules = report["meshes"][1]["neighbor_rules"]
    assert not rules["ok"]
    assert [c["name"] for c in rules["checks"] if not c["passed"]] == [
        "deeper_reference_neighbor"]


def test_analyze_parse_failure_exits_2(tmp_path):
    bad = tmp_path / "bad.nvbm"
    bad.write_text("not a mesh\n")
    assert run("analyze", str(bad), "--out", str(tmp_path)) == EXIT_USAGE


def test_analyze_folded_mesh_exits_2(tmp_path, capsys):
    # elements 0 and 1 both lie above their shared edge (0, 1)
    folded = tmp_path / "folded.nvbm"
    folded.write_text("nvbm 1\n4 2\n0.0 0.0\n1.0 0.0\n0.5 1.0\n0.5 0.5\n"
                      "0 1 2 0 0 0\n0 1 3 0 1 0\n")
    assert run("analyze", str(folded), "--out", str(tmp_path / "rep")) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {folded}:8: non-conforming mesh: elements 0 and 1 lie on one "
        "side of their shared edge (0, 1) (1 violation(s) total)\n")
    assert not (tmp_path / "rep").exists()


def test_analyze_holds_one_mesh_besides_the_initial(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run("refine", "square2", "--strategy", "all", "--steps", "5",
               "--out", str(out)) == EXIT_OK
    files = [str(out / f"step_{i:03d}.nvbm") for i in range(6)]
    alive = []
    init, verify = Mesh.__init__, cli.analysis.verify_levels

    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.append(weakref.ref(self))

    counts = []

    def counting_verify(mesh, *args, **kwargs):
        counts.append(sum(ref() is not None for ref in alive))
        return verify(mesh, *args, **kwargs)

    monkeypatch.setattr(Mesh, "__init__", registering_init)
    monkeypatch.setattr(cli.analysis, "verify_levels", counting_verify)
    assert run("analyze", *files, "--out", str(tmp_path / "rep")) == EXIT_OK
    assert len(counts) == 6
    assert max(counts) <= 2
    # a malformed last file fails the run before anything is written
    (out / "step_005.nvbm").write_text("not a mesh\n")
    assert run("analyze", *files, "--out", str(tmp_path / "rep2")) == EXIT_USAGE
    assert not (tmp_path / "rep2").exists()


def test_analyze_out_of_int64_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "big.nvbm"
    bad.write_text("nvbm 1\n3 1\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                   "0 1 2 0 99999999999999999999999 0\n")
    assert run("analyze", str(bad), "--out", str(tmp_path)) == EXIT_USAGE
    assert "big.nvbm:6: integer field out of the int64 range" in \
        capsys.readouterr().err


def test_analyze_reports_maximal_level_jump_two(tmp_path):
    # a randomized-reference-edge run where the general jump bound 2 is
    # attained (and never exceeded)
    out = tmp_path / "run"
    assert run("refine", "lshape6", "--ref-edges", "random", "--dialect",
               "refineNVB3", "--strategy", "random", "--fraction", "0.25",
               "--steps", "6", "--seed", "2", "--out", str(out)) == EXIT_OK
    files = [str(out / f"step_{i:03d}.nvbm") for i in range(7)]
    code = run("analyze", *files, "--out", str(tmp_path / "rep"))
    assert code == EXIT_OK
    report = load_json(tmp_path / "rep" / "analysis.json")
    assert report["ok"]
    assert report["max_level_jump"] == 2


def test_stability_square2_initial(tmp_path):
    code = run("stability", "square2", "--skip-measure",
               "--out", str(tmp_path / "s"))
    assert code == EXIT_OK
    report = load_json(tmp_path / "s" / "stability.json")
    assert report["all_pass"]
    assert report["min_lam"] == 2.0  # equal weights on the initial mesh
    weights = (tmp_path / "s" / "weights.csv").read_text().strip().splitlines()
    assert all(line.endswith(",0") for line in weights[1:])


def test_stability_deep_corner_run(tmp_path):
    out = tmp_path / "run"
    run("refine", "lshape6", "--strategy", "corner", "--steps", "25",
        "--out", str(out))
    code = run("stability", str(out / "step_025.nvbm"), "--levels", "2",
               "--out", str(tmp_path / "s"))
    assert code == EXIT_OK
    report = load_json(tmp_path / "s" / "stability.json")
    assert report["all_pass"]
    assert report["measured_h1_constant"] is not None
    assert report["max_ratio"] <= 2.0


@pytest.mark.parametrize("tamper", [None, "5:3"])
def test_stability_csv_matches_oracles(tmp_path, tamper):
    meshes, _ = random_trace(lshape6(), seed=3, steps=5, dialect="refineNVB")
    path = tmp_path / "m.nvbm"
    write_mesh(meshes[-1], path)
    argv = ["stability", str(path), "--skip-measure", "--format", "csv",
            "--out", str(tmp_path / "s")]
    if tamper:
        argv += ["--debug-tamper", tamper]
    assert run(*argv) == (EXIT_VIOLATION if tamper else EXIT_OK)

    mesh = read_mesh(path)
    exps = brute_force_weight_exponents(mesh)
    if tamper:
        exps[5] += 3
    weights = ["node,x,y,exponent"] + [
        f"{j},{x!r},{y!r},{e}"
        for j, ((x, y), e) in enumerate(zip(mesh.vertices.tolist(),
                                            exps.tolist()))]
    conds, _ = conditions(mesh, NodeWeights(exponents=exps), with_c78=False)
    rows = ["elem,exponent_spread,ratio,s_sum,lam_min,passes"] + [
        f"{c.elem},{c.exponent_spread},{c.ratio!r},{c.s_sum!r},"
        f"{c.lam_min_closed!r},{int(c.passes)}" for c in conds]
    failing = [c.elem for c in conds if not c.passes]
    assert bool(failing) == (tamper is not None)
    out = tmp_path / "s"
    assert (out / "weights.csv").read_text() == "\n".join(weights) + "\n"
    assert (out / "conditions.csv").read_text() == "\n".join(rows) + "\n"
    report = load_json(out / "stability.json")
    assert report["all_pass"] == (tamper is None)
    assert report["n_elements"] == len(conds) == mesh.n_elements
    assert report["failing_elements"] == failing


@pytest.mark.parametrize("skip", [[], ["--skip-measure"]])
def test_stability_overflow_exits_3(tmp_path, capsys, skip):
    path, out = tmp_path / "deep.nvbm", tmp_path / "s"
    write_mesh(Mesh(square2().vertices, square2().elements, gen=[600, 0]), path)
    code = run("stability", str(path), *skip, "--out", str(out))
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().err == (
        "numeric failure: the scaled quartic matrix of element 0 "
        "(generation 600) overflows float64\n")


def test_stability_tampered_weights_exit_3(tmp_path):
    code = run("stability", "lshape6", "--skip-measure",
               "--debug-tamper", "2:5", "--out", str(tmp_path / "s"))
    assert code == EXIT_VIOLATION


def test_stability_disconnected_mesh_exits_2(tmp_path, capsys):
    path, out = tmp_path / "islands.nvbm", tmp_path / "s"
    path.write_text("nvbm 1\n6 2\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
                    "5.0 5.0\n6.0 5.0\n5.0 6.0\n0 1 2 0 0 0\n3 4 5 0 1 0\n")
    code = run("stability", str(path), "--skip-measure", "--out", str(out))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: mesh is not connected\n"
    assert not out.exists()


@pytest.mark.parametrize("tamper", ["4:1", "99:1", "-1:5"])
def test_stability_tamper_node_out_of_range_exits_2(tmp_path, capsys, tamper):
    # square2 has nodes 0..3
    code = run("stability", "square2", "--skip-measure",
               f"--debug-tamper={tamper}", "--out", str(tmp_path / "s"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    node = tamper.split(":")[0]
    assert f"error: --debug-tamper node {node} is not in 0..3" in err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("tamper", ["1", "abc:1", "1:2:3", ":"])
def test_stability_tamper_malformed_exits_2(tmp_path, capsys, tamper):
    out = tmp_path / "s"
    code = run("stability", "square2", "--skip-measure",
               f"--debug-tamper={tamper}", "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "--debug-tamper" in err.splitlines()[-1]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["square2", "lshape6"])
@pytest.mark.parametrize("delta,code", [("3000", EXIT_USAGE),
                                        ("99999999999999999999", EXIT_USAGE),
                                        ("-257", EXIT_USAGE),
                                        ("256", EXIT_VIOLATION),
                                        ("-256", EXIT_VIOLATION)])
def test_stability_tamper_delta_range(tmp_path, capsys, spec, delta, code):
    # beyond |DELTA| 256 the conditions' powers of two leave float64, where
    # they raised OverflowError or warned; within it they run (warnings are
    # errors under the test settings) and fail the ratio bound
    out = tmp_path / "s"
    assert run("stability", spec, "--skip-measure",
               f"--debug-tamper=0:{delta}", "--out", str(out)) == code
    err = capsys.readouterr().err
    if code == EXIT_USAGE:
        assert err == (f"error: --debug-tamper delta {delta} is not in "
                       "-256..256\n")
        assert not out.exists()
    else:
        assert not load_json(out / "stability.json")["all_pass"]


def test_corr_check_ok(tmp_path):
    code = run("corr-check", "--initial", "square2", "--steps", "4",
               "--seed", "2", "--out", str(tmp_path / "c"))
    assert code == EXIT_OK
    report = load_json(tmp_path / "c" / "corr_check.json")
    assert report["ok"]
    assert len(report["steps"]) == 5
    assert load_json(tmp_path / "c" / "corr_map_final.json")


def test_corr_check_writes_the_oracle_files(tmp_path):
    out = tmp_path / "c"
    assert run("corr-check", "--initial", "square2", "--steps", "4",
               "--seed", "3", "--out", str(out)) == EXIT_OK
    # the same trace (policy red, fraction 0.3), mirrored and checked by the
    # dict oracles
    rng = np.random.default_rng(3)
    red, tilde = [square2()], [square2()]
    pairs, markings, tilde_markings = [oracles.build_corr(red[0], red[0])], [], []
    for _ in range(4):
        mesh = red[-1]
        draws = rng.random(mesh.n_elements)
        marked = [t for t in range(mesh.n_elements) if draws[t] < 0.3]
        if not marked:
            marked = [int(rng.integers(mesh.n_elements))]
        markings.append(MarkingInput.all_edges(mesh, marked))
        tilde_markings.append(oracles.transfer_marking(pairs[-1], mesh, tilde[-1],
                                                       markings[-1]))
        red.append(refine_step(mesh, markings[-1], "refineNVBred",
                               make_policy("red"))[0])
        tilde.append(refine_step(tilde[-1], tilde_markings[-1], "refineNVB3")[0])
        pairs.append(oracles.build_corr(red[-1], tilde[-1]))
    ok, rows = True, []
    for i, (p, a, b) in enumerate(zip(pairs, red, tilde)):
        rep = oracles.verify_corr(p, a, b)
        spread = max(len({p[(t, e)][0] for e in oracles.edges_of(a, t)})
                     for t in range(a.n_elements))
        rows.append({"step": i, "elements": a.n_elements,
                     "tilde_elements": b.n_elements, "verified": rep.ok,
                     "max_image_spread": spread,
                     "violations": [list(map(str, v)) for v in rep.violations]})
        ok = ok and rep.ok and a.n_elements == b.n_elements
    for i, m in enumerate(markings):
        if len(tilde_markings[i].elements) > 2 * len(m.elements):
            ok = False
            rows[i + 1]["marked_inflation_ok"] = False
    assert (out / "corr_check.json").read_text() == json.dumps(
        {"ok": ok, "steps": rows}, indent=1) + "\n"
    assert (out / "corr_map_final.json").read_text() == \
        oracles.corr_to_json(pairs[-1]) + "\n"
    assert max(row["max_image_spread"] for row in rows) == 2


def test_corr_check_correspondence_error_exits_3(tmp_path, capsys, monkeypatch):
    def refuse(left, right):
        raise cli.correspondence.CorrespondenceError("no diamond fits")

    monkeypatch.setattr(cli.correspondence, "build_corr", refuse)
    code = run("corr-check", "--initial", "square2", "--steps", "2",
               "--out", str(tmp_path / "c"))
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().err == "correspondence violation: no diamond fits\n"
    assert not (tmp_path / "c").exists()


def test_corr_check_mixed_policy(tmp_path):
    code = run("corr-check", "--initial", "lshape6", "--steps", "3",
               "--policy", "mixed", "--seed", "5", "--out", str(tmp_path / "c"))
    assert code == EXIT_OK


def test_unknown_subcommand_exits_2():
    assert run("frobnicate") == EXIT_USAGE


@pytest.mark.parametrize("argv,expected", [
    (("refine", "square2", "--steps", "-3"), "--steps: expected an integer >= 0"),
    (("refine", "square2", "--steps", "2.5"), "--steps: expected an integer >= 0"),
    (("corr-check", "--steps", "-2"), "--steps: expected an integer >= 0"),
    (("stability", "square2", "--levels", "-1"),
     "--levels: expected an integer >= 0"),
    (("refine", "square2", "--fraction", "-1"),
     "--fraction: expected a number in [0, 1]"),
    (("refine", "square2", "--fraction", "1.5"),
     "--fraction: expected a number in [0, 1]"),
    (("refine", "square2", "--fraction", "nan"),
     "--fraction: expected a number in [0, 1]"),
    (("corr-check", "--fraction", "inf"),
     "--fraction: expected a number in [0, 1]"),
    (("refine", "square2", "--corner", "a,b"),
     "--corner: expected X,Y, two numbers, got 'a,b'"),
    (("refine", "square2", "--corner", "1"),
     "--corner: expected X,Y, two numbers, got '1'"),
    (("refine", "square2", "--corner", "nan,0"),
     "--corner: expected X,Y, two numbers, got 'nan,0'"),
    (("refine", "square2", "--corner", "0,inf"),
     "--corner: expected X,Y, two numbers, got '0,inf'"),
    (("refine", "square2", "--theta", "2"),
     "--theta: expected a number in [0, 1], got '2'"),
    (("refine", "square2", "--theta", "nan"),
     "--theta: expected a number in [0, 1], got 'nan'"),
    (("refine", "square2", "--radius", "nan"),
     "--radius: expected a number >= 0, got 'nan'"),
    (("refine", "square2", "--radius", "-1"),
     "--radius: expected a number >= 0, got '-1'"),
    (("refine", "square2", "--alpha", "inf"),
     "--alpha: expected a finite number, got 'inf'"),
    (("refine", "square2", "--alpha", "nan"),
     "--alpha: expected a finite number, got 'nan'"),
    (("refine", "square2", "--seed", "-1"), "--seed: expected an integer >= 0"),
    (("generate", "square2", "--seed", "-1"), "--seed: expected an integer >= 0"),
    (("corr-check", "--seed", "-1"), "--seed: expected an integer >= 0"),
    (("analyze", "m.nvbm", "--rho-bound", "nan"),
     "--rho-bound: expected a number >= 0, got 'nan'"),
    (("analyze", "m.nvbm", "--rho-bound", "-1"),
     "--rho-bound: expected a number >= 0, got '-1'"),
])
def test_out_of_range_arguments_exit_2_naming_the_option(tmp_path, capsys, argv,
                                                         expected):
    out = tmp_path / "run"
    assert run(*argv, "--out", str(out)) == EXIT_USAGE
    assert f"error: argument {expected}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("analyze", "m.nvbm", "--seed", "1"),
    ("stability", "square2", "--seed", "1"),
    ("generate", "square2", "--format", "json"),
    ("refine", "square2", "--format", "json"),
    ("corr-check", "--format", "json"),
])
def test_removed_no_op_options_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run(*argv, "--out", str(out)) == EXIT_USAGE
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in \
        capsys.readouterr().err
    assert not out.exists()


class ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it
    once ``reads`` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name != "reads":
            reads.add(name)
        return object.__getattribute__(self, name)


def test_every_declared_option_is_read_by_its_handler(tmp_path):
    mesh = tmp_path / "m.nvbm"
    run_dir = tmp_path / "run"
    assert run("refine", "square2", "--steps", "1", "--out", str(run_dir)) == EXIT_OK
    # every option given, except --skip-measure: a flag is read whether or
    # not it is given, and giving it leaves --levels unread
    argvs = [
        ["generate", "square2", "--ref-edges", "random", "--seed", "1",
         "--out", str(mesh)],
        ["refine", "lshape6", "--ref-edges", "longest-edge", "--dialect",
         "refineNVB3", "--policy", "bisec3", "--strategy", "dorfler",
         "--fraction", "0.5", "--corner", "0.5,0.5", "--radius", "0.5",
         "--theta", "0.4", "--alpha", "2", "--steps", "1", "--seed", "1",
         "--out", str(tmp_path / "r")],
        ["analyze", str(run_dir / "step_000.nvbm"), str(run_dir / "step_001.nvbm"),
         "--trace", str(run_dir / "trace.csv"), "--nvb", "--rho-bound", "0.5",
         "--format", "json", "--out", str(tmp_path / "a")],
        ["stability", "square2", "--levels", "1", "--debug-tamper", "0:1",
         "--format", "json", "--out", str(tmp_path / "s")],
        ["corr-check", "--initial", "lshape6", "--steps", "1", "--policy",
         "mixed", "--fraction", "0.5", "--seed", "1", "--out", str(tmp_path / "c")],
    ]
    parser = build_parser()
    for argv in argvs:
        args = parser.parse_args(argv, namespace=ReadRecorder())
        declared = set(vars(args)) - {"command"}
        args.reads = set()
        handler = getattr(cli, "cmd_" + args.command.replace("-", "_"))
        assert handler(args) in (EXIT_OK, EXIT_VIOLATION)
        assert declared <= args.reads, (argv[0], declared - args.reads)


def test_refine_defaults_are_the_run_config_defaults():
    args = build_parser().parse_args(["refine", "square2"])
    names = [f.name for f in fields(RunConfig)]
    assert sorted(set(vars(args)) - {"command", "out"}) == sorted(names)
    assert RunConfig(**{name: getattr(args, name) for name in names}) == RunConfig()


def test_refine_precision_exhaustion_exits_3(tmp_path, capsys):
    # corner refinement toward (0.3, 0.7) runs out of double-precision
    # mantissa bits near generation 105
    out = tmp_path / "run"
    code = run("refine", "square2", "--strategy", "corner", "--corner",
               "0.3,0.7", "--steps", "120", "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_VIOLATION
    assert "not exact in double precision" in err
    assert "Traceback" not in err
    # the steps completed before the failure stay on disk; no trace.csv
    streamed = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "trace.csv" not in streamed
    config = RunConfig(initial="square2", strategy="corner",
                       corner=(0.3, 0.7), steps=len(streamed) - 1)
    assert streamed == _written_files(run_refinement(config).meshes,
                                      tmp_path / "batch")
    with pytest.raises(PrecisionExhausted):
        run_refinement(replace(config, steps=config.steps + 1))


@pytest.mark.parametrize("corner,alpha", [
    ("0.6666666666666666,0.3333333333333333", "1"),   # the centroid of 0
    ("0.6666666666666667,0.3333333333333333", "40"),  # one ulp off: overflow
])
def test_refine_dorfler_indicator_not_finite_exits_2(tmp_path, capsys, corner,
                                                     alpha):
    code = run("refine", "square2", "--strategy", "dorfler", "--corner", corner,
               "--alpha", alpha, "--steps", "2", "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "dorfler indicator is not finite" in err
    assert "centroid of element 0" in err
    assert "Traceback" not in err
