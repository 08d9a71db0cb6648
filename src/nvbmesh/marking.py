"""Marking strategies and the deterministic refinement-run driver.

A run is fully specified by a ``RunConfig``: initial mesh, reference-edge
assignment, dialect, pattern policy, marking strategy, step count, and
seed.  Identical configs produce byte-identical outputs; all randomness
flows through one seeded generator and all iteration orders are fixed.
``iter_refinement`` yields the states of a run one at a time, and
``run_refinement`` collects them.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    if mesh.gen.any():
        raise ValueError("reference-edge assignment applies to initial meshes")
    if policy == "random":
        rot = np.random.default_rng(seed).integers(3, size=mesh.n_elements)
    elif policy == "longest-edge":
        # rotation r puts edge (v[r], v[r+1]) first: the longest edge, ties
        # broken by the smallest opposite-vertex id
        d = np.take(mesh.vertices, mesh.elements, axis=0)
        d = d - d[:, [1, 2, 0]]
        length = _geom.lengths(d[..., 0], d[..., 1])
        rot = np.lexsort((mesh.elements[:, [2, 0, 1]], -length))[:, 0]
    else:
        raise ValueError(f"unknown reference-edge policy {policy!r}")
    tris = np.take_along_axis(mesh.elements, (rot[:, None] + np.arange(3)) % 3,
                              axis=1)
    return Mesh(mesh.vertices, tris)


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
    p = np.take(mesh.vertices, mesh.elements, axis=0)
    corner = np.asarray(config.corner, dtype=np.float64)
    if config.strategy == "corner":
        dist = _geom.point_triangle_distances(corner, p)
        return np.flatnonzero(dist <= config.radius).tolist()
    if config.strategy == "dorfler":
        # synthetic corner-singularity indicator with greedy bulk selection
        centroid = p.mean(axis=1)
        dist = _geom.lengths(centroid[:, 0] - corner[0], centroid[:, 1] - corner[1])
        # Python's float power, as the indicator is defined; np.power may
        # take a SIMD path that rounds differently
        try:
            weight = np.fromiter(map(pow, dist.tolist(), [-config.alpha] * n),
                                 np.float64, count=n)
        except (ZeroDivisionError, OverflowError):
            t = int(dist.argmin() if config.alpha > 0 else dist.argmax())
            raise ValueError(
                f"dorfler indicator is not finite: corner {tuple(config.corner)} "
                f"lies {float(dist[t])!r} from the centroid of element {t}, "
                f"raised to the power {-config.alpha!r}") from None
        etas = np.sqrt(mesh.areas) * weight
        # largest first, ties by id; np.cumsum adds in this order one by
        # one, so the cut is where a running sum first reaches the bulk
        order = np.argsort(-etas, kind="stable")
        cut = np.searchsorted(np.cumsum(etas[order]),
                              config.theta * float(etas.sum())) + 1
        return np.sort(order[:cut]).tolist()
    raise ValueError(f"unknown strategy {config.strategy!r}; one of {STRATEGIES}")


def marking_for(mesh: Mesh, dialect: str, marked: list[int]) -> MarkingInput:
    """refineNVB seeds reference edges itself; the modified dialects mark
    all edges of the marked elements."""
    if dialect == "refineNVB":
        return MarkingInput.of(marked)
    return MarkingInput.all_edges(mesh, marked)


def iter_refinement(config: RunConfig
                    ) -> Iterator[tuple[Mesh, MarkingInput | None,
                                        StepRecord | None]]:
    """Execute the configured run one state at a time.

    Yields ``(initial, None, None)``, then ``(mesh, marking, record)`` after
    each step.  The generator holds no earlier mesh than the latest, so a
    caller that keeps none holds one mesh at a time.  Deterministic for a
    fixed config.
    """
    mesh = build_initial(config)
    rng = np.random.default_rng(config.seed)
    policy = make_policy(config.policy)
    yield mesh, None, None
    for step in range(1, config.steps + 1):
        marking = marking_for(mesh, config.dialect,
                              select_marked(mesh, config, rng))
        mesh, refined, plan = step_with_plan(mesh, marking, config.dialect, policy)
        record = StepRecord(
            step=step,
            n_marked=len(marking.elements),
            n_marked_edges=len(plan.seed_edges),
            closure_iterations=plan.iterations,
            n_refined=len(refined),
            n_elements=mesh.n_elements)
        del refined, plan   # not held while the caller writes the mesh
        yield mesh, marking, record


def run_refinement(config: RunConfig) -> RunResult:
    """Execute the configured run and keep every state of it."""
    result = RunResult(config=config, meshes=[], markings=[])
    for mesh, marking, record in iter_refinement(config):
        result.meshes.append(mesh)
        if record is not None:
            result.markings.append(marking)
            result.records.append(record)
    return result

