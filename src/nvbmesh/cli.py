"""Command-line front end.

Subcommands: generate, refine, analyze, stability, corr-check.  Exit codes
follow the CI contract: 0 on success, 2 on usage/IO/parse errors, 3 on a
violated structural invariant, NumericFailure or PrecisionExhausted (a
midpoint no longer exact in double precision).  All runs are deterministic;
repeated invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, correspondence, marking, meshio, stability
from .mesh import Mesh, PrecisionExhausted, structure_flags
from .refine import (BISEC3, DIALECTS, POLICIES, RED, MarkingInput,
                     PatternPolicy, StepRecord, refine_step, uniform)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3
_TRACE_HEADER = "step,marked,elements,closure_iters,rho"


def _checked(convert, domain: str, accept):
    """An argparse type: ``convert(text)`` where ``accept`` holds for it,
    else an error naming the domain."""
    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {domain}, got {text!r}")
    return parse


# nan fails every comparison, so the bounds below refuse it
_COUNT = _checked(int, "an integer >= 0", lambda v: v >= 0)
_FRACTION = _checked(float, "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_NONNEGATIVE = _checked(float, "a number >= 0", lambda v: v >= 0.0)
_FINITE = _checked(float, "a finite number", math.isfinite)
_POINT = _checked(lambda text: tuple(map(float, text.split(","))),
                  "X,Y, two numbers",
                  lambda p: len(p) == 2 and all(map(math.isfinite, p)))
_TAMPER = _checked(lambda text: tuple(map(int, text.split(":"))),
                   "NODE:DELTA, two integers", lambda p: len(p) == 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvbmesh",
        description="newest-vertex-bisection mesh refinement toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = marking.RunConfig()

    g = sub.add_parser("generate", help="write a built-in or re-labeled mesh")
    g.add_argument("spec", help="square2 | lshape6 | path to .nvbm")
    g.add_argument("--ref-edges", choices=marking.REF_EDGE_POLICIES,
                   default=defaults.ref_edges)

    r = sub.add_parser(
        "refine", help="run a refinement sequence",
        description="Run a refinement sequence.  Each step_NNN.nvbm is "
                    "written as soon as its step completes, and trace.csv "
                    "after the last step.  A run that fails (exit 2 or 3) "
                    "leaves the files of the steps it completed and no "
                    "trace.csv.")
    # one option per RunConfig field, each defaulting to the field's value
    r.set_defaults(**vars(defaults))
    r.add_argument("initial", metavar="spec",
                   help="square2 | lshape6 | path to .nvbm")
    r.add_argument("--ref-edges", choices=marking.REF_EDGE_POLICIES)
    r.add_argument("--dialect", choices=DIALECTS)
    r.add_argument("--policy", choices=marking.POLICY_NAMES)
    r.add_argument("--strategy", choices=marking.STRATEGIES)
    r.add_argument("--fraction", type=_FRACTION)
    r.add_argument("--corner", type=_POINT)
    r.add_argument("--radius", type=_NONNEGATIVE)
    r.add_argument("--theta", type=_FRACTION)
    r.add_argument("--alpha", type=_FINITE)
    r.add_argument("--steps", type=_COUNT)

    a = sub.add_parser("analyze", help="verify structural invariants of mesh files")
    a.add_argument("files", nargs="+", help="initial mesh first, then refinements")
    a.add_argument("--trace",
                   help="trace.csv from a refine run, for the closure ledger")
    a.add_argument("--nvb", action="store_true",
                   help="meshes come from refineNVB: check neighbor rules "
                        "and the sharper BDD level-jump bound")
    a.add_argument("--rho-bound", type=_NONNEGATIVE)

    s = sub.add_parser("stability", help="nodal weights and projection stability")
    s.add_argument("spec", help="square2 | lshape6 | path to .nvbm")
    s.add_argument("--levels", type=_COUNT, default=2,
                   help="uniform refinements defining the fine space")
    s.add_argument("--skip-measure", action="store_true",
                   help="only check the per-element weight conditions")
    s.add_argument("--debug-tamper", type=_TAMPER, metavar="NODE:DELTA",
                   help="debug: shift one weight exponent by DELTA in -256..256")

    c = sub.add_parser("corr-check",
                       help="build and verify a red/bisec3 correspondence")
    c.add_argument("--initial", default="square2")
    c.add_argument("--steps", type=_COUNT, default=5)
    c.add_argument("--policy", choices=("red", "mixed"), default="red")
    c.add_argument("--fraction", type=_FRACTION, default=0.3)

    for p in (g, r, c):
        p.add_argument("--seed", type=_COUNT, default=defaults.seed,
                       help="run seed")
    for p in (a, s):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="csv also writes the per-file or per-element rows as CSV")
    for p in (g, r, a, s, c):
        p.add_argument("--out", default=".", help="output file or directory")
    return parser


def _load_spec(spec: str, **config) -> Mesh:
    return marking.build_initial(marking.RunConfig(initial=spec, **config))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    mesh = _load_spec(args.spec, ref_edges=args.ref_edges, seed=args.seed)
    out = Path(args.out)
    if out.is_dir():
        out = out / f"{Path(args.spec).stem}.nvbm"
    meshio.write_mesh(mesh, out)
    print(f"wrote {out}: {mesh.n_vertices} vertices, {mesh.n_elements} elements")
    return EXIT_OK


def cmd_refine(args) -> int:
    config = marking.RunConfig(**{f.name: getattr(args, f.name)
                                  for f in fields(marking.RunConfig)})
    records = []
    for mesh, _, record in marking.iter_refinement(config):
        if record is None:
            out, n_initial = _outdir(args), mesh.n_elements
        else:
            records.append(record)
        meshio.write_mesh(mesh, out / f"step_{len(records):03d}.nvbm")
    ledger = analysis.closure_accounting(records, n_initial)
    (out / "trace.csv").write_text(meshio._csv(_TRACE_HEADER, (
        (rec.step, rec.n_marked, rec.n_elements, rec.closure_iterations, row.rho)
        for rec, row in zip(records, ledger.rows))))
    print(f"wrote {len(records) + 1} meshes and trace.csv to {out} "
          f"(final: {mesh.n_elements} elements)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    # one file read and checked at a time: a run holds the initial mesh and
    # one other.  --out is made once the last file has been read
    initial = meshio.read_mesh(args.files[0])
    ok = True
    reports = []
    for path in args.files:
        mesh = meshio.read_mesh(path) if reports else initial
        level = analysis.verify_levels(mesh, initial, nvb_dialect=args.nvb)
        # read_mesh has run validate_mesh and raised on any violation
        entry = {"file": str(path), "conforming": True,
                 "conformity_violations": [], **level.to_dict()}
        ok = ok and level.ok
        if args.nvb:
            rules = analysis.verify_neighbor_rules(mesh, initial)
            entry["neighbor_rules"] = rules.to_dict()
            ok = ok and rules.ok
        reports.append(entry)
        del mesh  # not held while the next file is read
    out = _outdir(args)
    summary = {
        "ok": ok,
        "initial_bdd": structure_flags(initial).is_bdd,
        "max_level_jump": max(r["max_level_jump"] for r in reports),
        "meshes": reports,
    }

    if args.trace:
        records = _read_trace(Path(args.trace))
        ledger = analysis.closure_accounting(records, initial.n_elements,
                                             rho_bound=args.rho_bound)
        (out / "ledger.csv").write_text(ledger.to_csv())
        summary["closure_sum_bound_ok"] = ledger.sum_bound_ok
        summary["max_rho"] = ledger.max_rho
        if not ledger.sum_bound_ok or not ledger.rho_bound_ok:
            ok = False
            summary["ok"] = False

    (out / "analysis.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.format == "csv":
        (out / "analysis.csv").write_text(meshio._csv(
            "file,conforming,ok,max_level_jump",
            ((r["file"], r["conforming"], r["ok"], r["max_level_jump"])
             for r in reports)))
    print(f"analyzed {len(reports)} meshes: "
          f"{'all invariants hold' if ok else 'VIOLATIONS FOUND'} "
          f"(max level jump {summary['max_level_jump']})")
    return EXIT_OK if ok else EXIT_VIOLATION


def _read_trace(path: Path):
    records = []
    lines = path.read_text().strip().splitlines()
    if lines[:1] != [_TRACE_HEADER]:
        raise ValueError(f"{path}:1: expected the header {_TRACE_HEADER!r}")
    for number, line in enumerate(lines[1:], start=2):
        try:
            step, marked, elements, iters = (int(x) for x in line.split(",")[:4])
        except ValueError:
            raise ValueError(f"{path}:{number}: expected integer step, marked, "
                             f"elements and closure_iters fields, got {line!r}"
                             ) from None
        records.append(StepRecord(step=step, n_marked=marked, n_marked_edges=0,
                                  closure_iterations=iters, n_refined=marked,
                                  n_elements=elements))
    return records


def cmd_stability(args) -> int:
    coarse = _load_spec(args.spec)
    weights = stability.compute_weights(coarse)
    if args.debug_tamper is not None:
        node, delta = args.debug_tamper
        if not 0 <= node < coarse.n_vertices:
            raise ValueError(f"--debug-tamper node {node} is not in "
                             f"0..{coarse.n_vertices - 1}")
        if abs(delta) > 256:  # 2**e_j of a larger shift leaves float64
            raise ValueError(f"--debug-tamper delta {delta} is not in -256..256")
        exps = weights.exponents.copy()
        exps[node] += delta
        weights = stability.NodeWeights(exponents=exps)
    out = _outdir(args)

    report = stability.check_conditions(coarse, weights)
    if not args.skip_measure:
        fine = coarse
        for _ in range(args.levels):
            fine = uniform(fine, "bisec1")
        report.measured_h1_constant = stability.measure_h1_stability(coarse, fine)

    (out / "weights.csv").write_text(stability.weights_to_csv(coarse, weights))
    (out / "stability.json").write_text(
        json.dumps(report.to_dict(), indent=1) + "\n")
    if args.format == "csv":
        columns = (report.exponent_spread, report.ratio, report.s_sum,
                   report.lam_min_closed, report.passes)
        (out / "conditions.csv").write_text(meshio._csv(
            "elem,exponent_spread,ratio,s_sum,lam_min,passes",
            zip(range(report.passes.size), *(c.tolist() for c in columns))))
    status = "pass" if report.all_pass else "FAIL"
    measured = report.measured_h1_constant
    print(f"stability {status}: max ratio {report.max_ratio:g}, "
          f"max S {report.max_s_sum:g}, min lambda {report.min_lam:g}"
          + (f", measured H1 constant {measured:.6g}" if measured else ""))
    return EXIT_OK if report.all_pass else EXIT_VIOLATION


def cmd_corr_check(args) -> int:
    initial = _load_spec(args.initial)
    policy = (POLICIES[RED] if args.policy == "red" else PatternPolicy(
        "mixed", lambda elems, is_marked: np.where(elems % 2 == 0, RED, BISEC3)))
    rng = np.random.default_rng(args.seed)
    mesh = initial
    markings: list[MarkingInput] = []
    config = marking.RunConfig(strategy="random", fraction=args.fraction)
    for _ in range(args.steps):
        marked = marking.select_marked(mesh, config, rng)
        markings.append(MarkingInput.all_edges(mesh, marked))
        mesh, _ = refine_step(mesh, markings[-1], "refineNVBred", policy)

    seq = correspondence.corresponding_sequence(initial, markings, policy)
    ok = True
    rows = []
    for i, corr in enumerate(seq.maps):
        rep = correspondence.verify_corr(corr)
        images = np.sort(corr.image // 3, axis=1)
        spread = 1 + int((images[:, 1:] != images[:, :-1]).sum(1).max())
        rows.append({"step": i, "elements": corr.left.n_elements,
                     "tilde_elements": corr.right.n_elements,
                     "verified": rep.ok, "max_image_spread": spread,
                     "violations": [list(map(str, v)) for v in rep.violations]})
        ok = ok and rep.ok and corr.left.n_elements == corr.right.n_elements
    for i, m in enumerate(markings):
        if len(seq.tilde_markings[i].elements) > 2 * len(m.elements):
            ok = False
            rows[i + 1]["marked_inflation_ok"] = False

    out = _outdir(args)
    (out / "corr_check.json").write_text(json.dumps(
        {"ok": ok, "steps": rows}, indent=1) + "\n")
    (out / "corr_map_final.json").write_text(seq.maps[-1].to_json() + "\n")
    print(f"corr-check over {args.steps} steps: {'ok' if ok else 'FAILED'} "
          f"(final {seq.red[-1].n_elements} elements)")
    return EXIT_OK if ok else EXIT_VIOLATION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "generate": cmd_generate,
        "refine": cmd_refine,
        "analyze": cmd_analyze,
        "stability": cmd_stability,
        "corr-check": cmd_corr_check,
    }
    try:
        return handlers[args.command](args)
    except correspondence.CorrespondenceError as exc:
        print(f"correspondence violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (stability.NumericFailure, PrecisionExhausted) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
