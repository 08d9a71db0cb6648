"""Marking strategies and the deterministic refinement-run driver.

A run is fully specified by a ``RunConfig``: initial mesh, reference-edge
assignment, dialect, pattern policy, marking strategy, step count, and
seed.  Identical configs produce byte-identical outputs; all randomness
flows through one seeded generator and all iteration orders are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _geom
from .mesh import Mesh, lshape6, square2
from .meshio import read_mesh
from .refine import (MarkingInput, PatternPolicy, StepRecord, step_with_plan)

STRATEGIES = ("all", "random", "corner", "dorfler")
REF_EDGE_POLICIES = ("as-given", "longest-edge", "random")
POLICY_NAMES = ("bisec3", "red", "interior-node")


@dataclass(frozen=True)
class RunConfig:
    initial: str = "square2"            # built-in name or .nvbm path
    ref_edges: str = "as-given"
    dialect: str = "refineNVB"
    policy: str = "bisec3"
    strategy: str = "all"
    fraction: float = 0.25              # random strategy
    corner: tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    theta: float = 0.5                  # dorfler bulk fraction
    alpha: float = 1.0                  # dorfler indicator exponent
    steps: int = 5
    seed: int = 0


@dataclass
class RunResult:
    config: RunConfig
    meshes: list[Mesh]                  # initial state plus one per step
    markings: list[MarkingInput]
    records: list[StepRecord] = field(default_factory=list)

    @property
    def initial(self) -> Mesh:
        return self.meshes[0]

    @property
    def final(self) -> Mesh:
        return self.meshes[-1]


def make_policy(name: str) -> PatternPolicy:
    if name == "bisec3":
        return PatternPolicy.always_bisec3()
    if name == "red":
        return PatternPolicy.always_red()
    if name == "interior-node":
        return PatternPolicy.interior_node()
    raise ValueError(f"unknown pattern policy {name!r}; one of {POLICY_NAMES}")


def assign_reference_edges(mesh: Mesh, policy: str, seed: int = 0) -> Mesh:
    """Rotate initial-element triples to realize a reference-edge policy.

    All three rotations of a CCW triple are CCW; rotation selects which
    edge plays the reference role.  Only meaningful on initial meshes.
    """
    if policy == "as-given":
        return mesh
    if not mesh.is_initial:
        raise ValueError("reference-edge assignment applies to initial meshes")
    if policy == "random":
        rot = np.random.default_rng(seed).integers(3, size=mesh.n_elements)
        tris = np.take_along_axis(mesh.elements, (rot[:, None] + np.arange(3)) % 3,
                                  axis=1)
        return Mesh(mesh.vertices.copy(), tris)
    if policy != "longest-edge":
        raise ValueError(f"unknown reference-edge policy {policy!r}")
    tris = mesh.elements.copy()
    for t in range(mesh.n_elements):
        v = [int(x) for x in tris[t]]
        pts = [mesh.point(i) for i in v]
        # rotation r puts edge (v[r], v[r+1]) first; tie-break by the
        # smallest opposite-vertex id
        def key(r):
            length = math.dist(pts[r], pts[(r + 1) % 3])
            return (-length, v[(r + 2) % 3])
        rot = min(range(3), key=key)
        tris[t] = [v[rot], v[(rot + 1) % 3], v[(rot + 2) % 3]]
    return Mesh(mesh.vertices.copy(), tris)


def build_initial(config: RunConfig) -> Mesh:
    if config.initial == "square2":
        mesh = square2()
    elif config.initial == "lshape6":
        mesh = lshape6()
    elif Path(config.initial).exists():
        mesh = read_mesh(config.initial)
    else:
        raise ValueError(f"unknown initial mesh {config.initial!r} "
                         "(expected square2, lshape6, or a readable file)")
    return assign_reference_edges(mesh, config.ref_edges, config.seed)


# -- strategies -----------------------------------------------------------------


def _element_point_distance(mesh: Mesh, t: int, p) -> float:
    tri = mesh.coords(t)
    if _geom.point_in_triangle(p, *tri):
        return 0.0
    return min(_geom.point_segment_distance(p, tri[0], tri[1]),
               _geom.point_segment_distance(p, tri[1], tri[2]),
               _geom.point_segment_distance(p, tri[2], tri[0]))


def select_marked(mesh: Mesh, config: RunConfig,
                  rng: np.random.Generator) -> list[int]:
    """Pick the elements to mark for one step, per the configured strategy."""
    n = mesh.n_elements
    if config.strategy == "all":
        return list(range(n))
    if config.strategy == "random":
        marked = np.flatnonzero(rng.random(n) < config.fraction).tolist()
        if not marked:
            marked = [int(rng.integers(n))]
        return marked
    if config.strategy == "corner":
        p = config.corner
        return [t for t in range(n)
                if _element_point_distance(mesh, t, p) <= config.radius]
    if config.strategy == "dorfler":
        # synthetic corner-singularity indicator with greedy bulk selection
        x0 = config.corner
        etas = np.empty(n)
        for t in range(n):
            cx = float(mesh.vertices[mesh.elements[t], 0].mean())
            cy = float(mesh.vertices[mesh.elements[t], 1].mean())
            dist = math.dist((cx, cy), x0)
            etas[t] = math.sqrt(mesh.area(t)) * dist ** (-config.alpha)
        order = sorted(range(n), key=lambda t: (-etas[t], t))
        total = float(etas.sum())
        marked, acc = [], 0.0
        for t in order:
            marked.append(t)
            acc += float(etas[t])
            if acc >= config.theta * total:
                break
        return sorted(marked)
    raise ValueError(f"unknown strategy {config.strategy!r}; one of {STRATEGIES}")


def marking_for(mesh: Mesh, dialect: str, marked: list[int]) -> MarkingInput:
    """refineNVB seeds reference edges itself; the modified dialects mark
    all edges of the marked elements."""
    if dialect == "refineNVB":
        return MarkingInput.of(marked)
    return MarkingInput.all_edges(mesh, marked)


def run_refinement(config: RunConfig) -> RunResult:
    """Execute the configured run; deterministic for a fixed config."""
    mesh = build_initial(config)
    rng = np.random.default_rng(config.seed)
    policy = make_policy(config.policy)
    result = RunResult(config=config, meshes=[mesh], markings=[])
    for step in range(config.steps):
        marked = select_marked(mesh, config, rng)
        marking = marking_for(mesh, config.dialect, marked)
        mesh, refined, plan = step_with_plan(mesh, marking, config.dialect, policy)
        result.meshes.append(mesh)
        result.markings.append(marking)
        result.records.append(StepRecord(
            step=step + 1,
            n_marked=len(marking.elements),
            n_marked_edges=len(plan.seed_edges),
            closure_iterations=plan.iterations,
            n_refined=len(refined),
            n_elements=mesh.n_elements))
    return result


def corner_run(initial: str = "lshape6", steps: int = 25,
               dialect: str = "refineNVB", seed: int = 0) -> RunConfig:
    """The fixed corner-singularity run used for regression data."""
    return RunConfig(initial=initial, dialect=dialect, strategy="corner",
                     corner=(0.0, 0.0), radius=0.0, steps=steps, seed=seed)
