"""The benchmark's workloads, driven through nvbmesh's public API.

Each workload is a closed loop: one caller in one process, each call made
after the previous one returns.  The constructor is the set-up (input
generation); ``run_pass`` runs one timed pass and then checks its outputs.
Every pass of a run uses the same inputs, so every pass must reproduce the
same outputs.

An operation is one refinement step, verifier call, H1 pair, correspondence
map or output digest.  It fails on an exception or on an output that misses
its reference.  Digests are recorded for a few seeds in data/digests.json
(uniform-cli does not depend on the seed); on other seeds only the
invariants are checked.
"""

from __future__ import annotations

import math
import shutil
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from nvbmesh import (analysis, cli, correspondence, marking, mesh, meshio,
                     refine, stability)

from checks import DATA, h1_pair_ok, h1_run_config, load_json, sha256


class Ops:
    """Operations of one pass: how many were expected, which passed."""

    def __init__(self, expected: int):
        self.expected = expected
        self.passed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(name)

    def digests(self, outputs: dict[str, str], reference: dict | None) -> None:
        for name, digest in sorted((reference or {}).items()):
            self.check(f"digest {name}", outputs.get(name) == digest)


@contextmanager
def timed(phases: dict[str, float], key: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        phases[key] = phases.get(key, 0.0) + time.perf_counter() - start


def bisected_lshape(levels: int) -> mesh.Mesh:
    """lshape6 bisected uniformly ``levels`` times, as a generation-0 mesh."""
    fine = mesh.lshape6()
    for _ in range(levels):
        fine = refine.uniform(fine, "bisec1")
    return mesh.Mesh(fine.vertices, fine.elements)


class Workload:
    """Base class: set-up in the constructor, one pass per ``run_pass``."""

    name = ""
    digest_key = None       # key of the recorded digests; None: the seed

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        recorded = (load_json("digests.json")
                    if (DATA / "digests.json").exists() else {})
        self.reference = recorded.get(self.name, {}).get(
            self.digest_key or str(seed))

    def expected_ops(self) -> int:
        raise NotImplementedError

    def _pass(self, ops: Ops, phases: dict[str, float], out: dict) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict:
        """Run one pass; phases are timed, checks run after them."""
        ops = Ops(self.expected_ops())
        phases: dict[str, float] = {}
        out: dict = {"step_ms": []}
        try:
            self._pass(ops, phases, out)
        except Exception:
            # a pass that raises fails every operation it did not complete
            ops.failures.append(traceback.format_exc(limit=3))
        out.update(phases)
        out["wall_s"] = sum(phases.values())
        out["attempted"] = ops.expected
        out["failed"] = ops.expected - ops.passed
        out["failures"] = ops.failures
        return out


class UniformCli(Workload):
    """``nvbmesh refine square2 --strategy all --steps 16`` in-process."""

    name = "uniform-cli"
    digest_key = "any"      # the seed does not reach this workload
    steps = 16

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.out = workdir / "uniform"

    def expected_ops(self) -> int:
        return 1 + len(self.reference or {})

    def _pass(self, ops, phases, out):
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["refine", "square2", "--strategy", "all",
                "--steps", str(self.steps), "--out", str(self.out)]
        with timed(phases, "refine_s"):
            code = cli.main(argv)
        ops.check("cli exit code", code == cli.EXIT_OK)
        out["new_elements"] = 2 * 2 ** self.steps - 2
        out["outputs"] = {p.name: sha256(p.read_bytes())
                          for p in sorted(self.out.iterdir())}
        ops.digests(out["outputs"], self.reference)


class AdaptiveRandom(Workload):
    """refineNVB with random reference edges and 1% random marking on a
    12,288-element generation-0 mesh read from file, then every verifier."""

    name = "adaptive-random"
    steps = 20
    n_verifiers = 6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        path = workdir / "adaptive_g0.nvbm"
        meshio.write_mesh(bisected_lshape(11), path)
        self.config = marking.RunConfig(
            initial=str(path), ref_edges="random", dialect="refineNVB",
            strategy="random", fraction=0.01, steps=self.steps, seed=seed)

    def expected_ops(self) -> int:
        return self.steps + self.n_verifiers + len(self.reference or {})

    def _pass(self, ops, phases, out):
        config = self.config
        with timed(phases, "read_s"):
            initial = marking.build_initial(config)
        rng = np.random.default_rng(config.seed)
        policy = marking.make_policy(config.policy)
        cur = initial
        records, steps = [], []
        with timed(phases, "refine_s"):
            for step in range(1, config.steps + 1):
                start = time.perf_counter()
                marked = marking.select_marked(cur, config, rng)
                marking_input = marking.marking_for(cur, config.dialect, marked)
                cur, refined, plan = marking.step_with_plan(
                    cur, marking_input, config.dialect, policy)
                out["step_ms"].append(1e3 * (time.perf_counter() - start))
                steps.append((marking_input.elements, refined))
                records.append(refine.StepRecord(
                    step=step, n_marked=len(marking_input.elements),
                    n_marked_edges=len(plan.seed_edges),
                    closure_iterations=plan.iterations,
                    n_refined=len(refined), n_elements=cur.n_elements))
        for step, (marked, refined) in enumerate(steps, start=1):
            ops.check(f"step {step}: every marked element refined",
                      marked <= refined)
        out["new_elements"] = cur.n_elements - initial.n_elements

        with timed(phases, "verify_s"):
            conformity = mesh.validate_mesh(cur)
            levels = analysis.verify_levels(cur, initial, nvb_dialect=True)
            neighbors = analysis.verify_neighbor_rules(cur, initial)
            ledger = analysis.closure_accounting(records, initial.n_elements)
            weights = stability.compute_weights(cur)
            report = stability.check_conditions(cur, weights)
        ops.check("validate_mesh", conformity.ok)
        ops.check("verify_levels", levels.ok)
        ops.check("verify_neighbor_rules", neighbors.ok)
        ops.check("closure_accounting", ledger.sum_bound_ok)
        ops.check("compute_weights", len(weights.exponents) == cur.n_vertices)
        ops.check("check_conditions",
                  report.all_pass and report.max_ratio <= 2.0)
        out["outputs"] = {
            "mesh": sha256(meshio.dumps_mesh(cur)),
            "trace": sha256(refine.trace_to_csv(records)),
            "weights": sha256(np.asarray(weights.exponents,
                                         dtype="<i8").tobytes())}
        ops.digests(out["outputs"], self.reference)


class RedCorr(Workload):
    """A seeded random refineNVBred trace with the ``mixed`` policy, its
    corresponding bisection sequence and ``verify_corr`` on every map.

    The trace starts from a 768-element generation-0 mesh and marks
    ceil(15%) of the elements at each step, drawn without replacement, so
    the mesh sizes hardly depend on the seed (about 21k elements at the
    end, 1.6% spread over seeds 0-9)."""

    name = "red-corr"
    levels = 7
    steps = 4
    fraction = 0.15

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.initial = bisected_lshape(self.levels)
        # the rule of ``nvbmesh corr-check --policy mixed``
        self.policy = refine.PatternPolicy.custom(
            lambda t, m: "red" if t % 2 == 0 else "bisec3", name="mixed")

    def expected_ops(self) -> int:
        return 2 * self.steps + 1 + len(self.reference or {})

    def _pass(self, ops, phases, out):
        rng = np.random.default_rng(self.seed)
        cur = self.initial
        markings, sizes = [], [cur.n_elements]
        with timed(phases, "refine_s"):
            for _ in range(self.steps):
                start = time.perf_counter()
                count = math.ceil(self.fraction * cur.n_elements)
                marked = np.sort(rng.choice(cur.n_elements, size=count,
                                            replace=False)).tolist()
                markings.append(refine.MarkingInput.all_edges(cur, marked))
                cur, _ = refine.refine_step(cur, markings[-1], "refineNVBred",
                                            self.policy)
                out["step_ms"].append(1e3 * (time.perf_counter() - start))
                sizes.append(cur.n_elements)
            seq = correspondence.corresponding_sequence(self.initial, markings,
                                                        self.policy)
        with timed(phases, "verify_s"):
            reports = [correspondence.verify_corr(c) for c in seq.maps]
        for step in range(1, self.steps + 1):
            ops.check(f"step {step}: mesh grew", sizes[step] > sizes[step - 1])
        n0 = self.initial.n_elements
        out["new_elements"] = (cur.n_elements - n0 + seq.red[-1].n_elements
                               + seq.tilde[-1].n_elements - 2 * n0)
        for i, (corr, rep) in enumerate(zip(seq.maps, reports)):
            ok = rep.ok and corr.left.n_elements == corr.right.n_elements
            if i > 0:
                ok = ok and (len(seq.tilde_markings[i - 1].elements)
                             <= 2 * len(markings[i - 1].elements))
            ops.check(f"correspondence map {i}", ok)
        out["outputs"] = {"corr_map": sha256(seq.maps[-1].to_json())}
        ops.digests(out["outputs"], self.reference)


class H1Sequence(Workload):
    """``measure_h1_stability`` on the 26 pairs of the criterion-11 corner
    run, each checked against its exact top constant."""

    name = "h1-sequence"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        ref = load_json("h1_reference.json")
        self.coarse = marking.run_refinement(h1_run_config()).meshes
        self.exact = [p["top"] for p in ref["pairs"]]
        if [p["n_coarse"] for p in ref["pairs"]] != [
                m.n_vertices for m in self.coarse]:
            raise RuntimeError("corner run does not match h1_reference.json")

    def expected_ops(self) -> int:
        return len(self.coarse)

    def _pass(self, ops, phases, out):
        values = []
        out["new_elements"] = 0
        for coarse in self.coarse:
            with timed(phases, "refine_s"):
                fine = refine.uniform(refine.uniform(coarse, "bisec1"),
                                      "bisec1")
            out["new_elements"] += fine.n_elements - coarse.n_elements
            with timed(phases, "measure_s"):
                values.append(stability.measure_h1_stability(
                    coarse, fine, seed=self.seed))
        out["h1_values"] = values
        out["h1_max_rel_error"] = check_h1(ops, values, self.exact)


def check_h1(ops: Ops, values: list[float], exact: list[float]) -> float:
    """One operation per pair; returns the largest relative error."""
    for i, (v, e) in enumerate(zip(values, exact)):
        ops.check(f"H1 pair {i}: {v!r} against exact {e!r}", h1_pair_ok(v, e))
    return max(abs(v - e) / e for v, e in zip(values, exact))


WORKLOADS = {w.name: w for w in (UniformCli, AdaptiveRandom, RedCorr,
                                 H1Sequence)}
