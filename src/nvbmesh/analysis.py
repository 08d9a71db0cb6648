"""Executable verification of the structural refinement laws.

Turns the theory into checks that run on concrete meshes and traces:
generation/area identities, level-jump bounds across shared edges,
reference-neighbor rules, per-marked-element creation bounds for single
markings, closure accounting ledgers, and the scalar three-term inequality
used by the stability analysis.

All verifiers are read-only and report violations with element witnesses
instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import _geom
from .mesh import Mesh, _check_initial, structure_flags
from .meshio import _csv
from .refine import MarkingInput, StepRecord, refine_step


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witnesses: tuple = ()


@dataclass
class CheckReport:
    """Outcome of a list of named checks."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                        "witnesses": list(c.witnesses)} for c in self.checks],
        }


@dataclass
class StructureReport(CheckReport):
    """Outcome of the level checks, with realized constants."""

    max_level_jump: int = 0
    diam_scale_lower: float = math.inf   # min |T|^(1/2) * 2^(gen/2)
    diam_scale_upper: float = 0.0        # max diam(T) * 2^(gen/2)
    max_equal_gen_chain: int = 0
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        # "ok" first; the base's entries then update it in place and add
        # "checks"; a scale past the float range (2**(gen/2) overflows from
        # generation 2048 on) is None, as JSON has no infinity
        return {
            "ok": self.ok,
            "max_level_jump": self.max_level_jump,
            **{name: value if math.isfinite(value) else None
               for name, value in (("diam_scale_lower", self.diam_scale_lower),
                                   ("diam_scale_upper", self.diam_scale_upper))},
            "max_equal_gen_chain": self.max_equal_gen_chain,
            "notes": list(self.notes),
            **super().to_dict(),
        }


def max_equal_gen_chain(mesh: Mesh) -> int:
    """Longest reference-neighbor run of elements sharing one generation.

    The runs follow t -> N(t) while the generation stays: a functional
    graph, so each run is a tail that ends at a sink (no N(T) of T's
    generation) or enters a cycle, which it then goes round once.  The
    cycles are the strong components of more than one element.  Pointer
    doubling gives each element its distance to the sink or cycle ahead of
    it in log2(longest tail) array rounds, and a run's length is that
    distance plus 1 at a sink or the cycle's length.
    """
    n1 = mesh.edge_table.neighbors(0)
    m = n1.size
    # -1 ends a run
    n1 = np.where((n1 >= 0) & (mesh.gen[n1] == mesh.gen), n1, -1)
    t = np.flatnonzero(n1 >= 0)
    graph = sp.csr_matrix((np.ones(t.size), (t, n1[t])), shape=(m, m))
    _, labels = csgraph.connected_components(graph, directed=True,
                                             connection="strong")
    size = np.bincount(labels)[labels]  # a cycle's length on it, else 1
    end = (n1 < 0) | (size > 1)  # a sink or on a cycle
    up = np.where(end, np.arange(m), n1)
    steps = (~end).astype(np.int64)  # up[t] lies steps[t] ahead of t
    while not end[up].all():
        steps += steps[up]
        up = up[up]
    return int((steps + size[up]).max(initial=0))


def verify_levels(mesh: Mesh, initial: Mesh, nvb_dialect: bool = False) -> StructureReport:
    """Area-generation identity, diameter scaling, level-jump bounds.

    The jump bound over shared edges is 2 in general; if ``nvb_dialect``
    is set and the initial mesh is BDD, the sharper bound 1 is checked.
    Applying the sharper check to a non-BDD initial mesh is reported as
    misuse in the notes, not as a failure.  Raises ValueError if
    ``initial`` has an element of a generation above 0, or an element's
    ancestor id is not below ``initial.n_elements``.
    """
    _check_initial(mesh, initial)
    report = StructureReport()
    areas = mesh.areas
    expect = initial.areas[mesh.ancestor] * np.ldexp(1.0, -mesh.gen)
    bad_area = np.flatnonzero(areas != expect)[:10].tolist()
    report.checks.append(CheckResult(
        "area_generation_identity", not bad_area,
        "area == |ancestor| * 2**(-gen) exactly", tuple(bad_area)))

    scale = _geom.pow2_half(mesh.gen)
    report.diam_scale_lower = float((np.sqrt(areas) * scale).min())
    report.diam_scale_upper = float((mesh.diameters * scale).max())

    jump_bound = 2
    sharp = False
    if nvb_dialect:
        if structure_flags(initial).is_bdd:
            jump_bound = 1
            sharp = True
        else:
            report.notes.append(
                "level-jump bound 1 requested but initial mesh is not BDD; "
                "checking the general bound 2")

    _, t1, t2, _ = mesh.edge_table.shared_edges()
    jump = np.abs(mesh.gen[t1] - mesh.gen[t2])
    over = jump > jump_bound
    bad_jump = list(zip(t1[over].tolist(), t2[over].tolist(), jump[over].tolist()))
    report.max_level_jump = int(jump.max(initial=0))
    name = "level_jump_le_1" if sharp else "level_jump_le_2"
    report.checks.append(CheckResult(
        name, not bad_jump,
        f"|gen difference| <= {jump_bound} across every shared edge",
        tuple(bad_jump[:10])))

    report.max_equal_gen_chain = max_equal_gen_chain(mesh)
    return report


def verify_neighbor_rules(mesh: Mesh, initial: Mesh) -> CheckReport:
    """Reference-neighbor structure of bisection meshes.

    Checks, over all shared edges: a reference neighbor of strictly larger
    generation is compatibly divisible with gap exactly 1; equal-generation
    neighbors under a common ancestor (or under compatibly divisible
    ancestors) are compatibly divisible; an equal-generation incompatible
    pair shares an edge lying inside an edge of the initial mesh.  Raises
    ValueError as ``verify_levels`` does.
    """
    _check_initial(mesh, initial)
    table, gen, t = mesh.edge_table, mesh.gen, np.arange(mesh.n_elements)
    ref = table.element2edges[:, 0]

    # N(T) is compatibly divisible with T iff T's reference edge is its own too
    n1 = table.neighbors(0)
    gap = np.where(n1 >= 0, gen[n1] - gen, 0)
    deeper = (gap > 0) & ((gap != 1) | (ref[n1] != ref))

    # equal-generation pairs across shared edges, in edge-id order
    e, t1, t2, compatible = table.shared_edges()
    keep = gen[t1] == gen[t2]
    e, t1, t2, incompatible = e[keep], t1[keep], t2[keep], ~compatible[keep]
    a1, a2 = mesh.ancestor[t1], mesh.ancestor[t2]

    # compatibly divisible neighbor pairs p < q of the initial mesh, as codes
    itable, n = initial.edge_table, initial.n_elements
    _, p, q, icompatible = itable.shared_edges()
    codes = (p * n + q)[icompatible]
    anc_compatible = np.isin(np.minimum(a1, a2) * n + np.maximum(a1, a2), codes)

    # the shared edge lies inside one of the six edges of the two ancestors
    rows = np.flatnonzero(incompatible)
    ends = mesh.vertices[table.edge2nodes[e[rows]]][:, :, None]
    segs = initial.vertices[itable.edge2nodes[itable.element2edges[
        np.stack([a1[rows], a2[rows]], axis=1)]]].reshape(-1, 6, 2, 2)
    on = _geom.point_on_segment(ends, segs[:, None, :, 0], segs[:, None, :, 1])
    outside = np.zeros(e.size, dtype=bool)
    outside[rows] = ~on.all(axis=1).any(axis=1)

    report = CheckReport()
    for name, detail, bad, columns in [
            ("deeper_reference_neighbor",
             "gen(N(T)) > gen(T) implies compatibly divisible with gap 1",
             deeper, (t, n1, gap)),
            ("same_ancestor_equal_gen_compatible",
             "equal-generation neighbors under one ancestor are compatibly divisible",
             incompatible & (a1 == a2), (t1, t2)),
            ("compatible_ancestors_equal_gen_compatible",
             "equal-generation neighbors under compatibly divisible ancestors "
             "are compatibly divisible",
             incompatible & (a1 != a2) & anc_compatible, (t1, t2)),
            ("incompatible_pairs_on_initial_edges",
             "equal-generation incompatible pairs share an edge inside an "
             "initial edge", outside, (t1, t2))]:
        witnesses = tuple(zip(*(c[bad][:10].tolist() for c in columns)))
        report.checks.append(CheckResult(name, not witnesses, detail, witnesses))
    return report


@dataclass
class ChainBoundsReport:
    """Per-marked-element creation bounds for single-element markings."""

    max_gen_overshoot: int = 0
    max_dist_scaled: float = 0.0
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_chain_bounds(mesh_seq: list[Mesh],
                        markings: list[MarkingInput]) -> ChainBoundsReport:
    """Re-run each recorded marking element-by-element and bound creations.

    For every step and every marked element T, refining {T} alone must
    create only elements T' with gen(T') <= gen(T) + 2; the scaled distance
    dist(T, T') * 2**(gen(T')/2) is recorded and its maximum reported.
    """
    report = ChainBoundsReport()
    marked_tris, son_tris, son_gens = [], [], []
    for mesh, marking in zip(mesh_seq, markings):
        for t in sorted(marking.elements):
            single, _ = refine_step(mesh, MarkingInput.of([t]), "refineNVB")
            if single is mesh:
                continue
            # every son holds a new node, and no element kept as it was does
            sons = np.flatnonzero((single.elements >= mesh.n_vertices).any(axis=1))
            gen = single.gen[sons]
            g_t = int(mesh.gen[t])
            report.max_gen_overshoot = max(report.max_gen_overshoot,
                                           int(gen.max()) - g_t)
            report.violations.extend((t, s, g, g_t) for s, g in zip(
                sons.tolist(), gen.tolist()) if g > g_t + 2)
            marked_tris.append(np.broadcast_to(mesh.vertices[mesh.elements[t]],
                                               (len(sons), 3, 2)))
            son_tris.append(single.vertices[single.elements[sons]])
            son_gens.append(gen)
    if son_tris:
        d = _geom.triangle_distances(np.concatenate(marked_tris),
                                     np.concatenate(son_tris))
        report.max_dist_scaled = float(
            (d * _geom.pow2_half(np.concatenate(son_gens))).max(initial=0.0))
    return report


# -- closure accounting --------------------------------------------------------


@dataclass(frozen=True)
class LedgerRow:
    step: int
    n_marked: int
    n_elements: int
    cum_marked: int
    rho: float | None


@dataclass
class ClosureLedger:
    n_initial: int
    rows: list[LedgerRow] = field(default_factory=list)
    sum_bound_ok: bool = True
    rho_bound_ok: bool = True
    max_rho: float = 0.0

    def to_csv(self) -> str:
        return _csv("step,marked,elements,cum_marked,rho",
                    ((r.step, r.n_marked, r.n_elements, r.cum_marked, r.rho)
                     for r in self.rows))


def closure_accounting(records: list[StepRecord], n_initial: int,
                       rho_bound: float | None = None) -> ClosureLedger:
    """Ledger of marked-vs-created element counts along a trace.

    rho_l = (#T_l - #T_0) / sum_{j<l} #M_j; the lower bound
    sum #M_j <= #T_l - #T_0 holds whenever every marked element is refined,
    and rho may be compared against a recorded regression bound.
    """
    ledger = ClosureLedger(n_initial=n_initial)
    cum = 0
    every_marked_refined = True
    for i, rec in enumerate(records, start=1):
        cum += rec.n_marked
        if rec.n_refined < rec.n_marked:
            every_marked_refined = False
        growth = rec.n_elements - n_initial
        rho = (growth / cum) if cum > 0 else None
        if every_marked_refined and cum > growth:
            ledger.sum_bound_ok = False
        if rho is not None:
            ledger.max_rho = max(ledger.max_rho, rho)
        ledger.rows.append(LedgerRow(step=i, n_marked=rec.n_marked,
                                     n_elements=rec.n_elements,
                                     cum_marked=cum, rho=rho))
    if rho_bound is not None:
        ledger.rho_bound_ok = ledger.max_rho <= rho_bound
    return ledger


# -- scalar inequality ---------------------------------------------------------


@dataclass(frozen=True)
class ReciprocalSumResult:
    lhs: float
    bound: float
    holds: bool


def reciprocal_sum_bound(a: float, b: float, big_m: float) -> ReciprocalSumResult:
    """Three-term reciprocal-sum bound with c = a*b.

    Requires big_m >= 1 and 1/big_m <= a, b, a*b <= big_m; then
    a + b + c + 1/a + 1/b + 1/c <= 2*(1 + big_m + 1/big_m), sharp at
    a = big_m, b = 1.
    """
    if not (big_m >= 1.0):
        raise ValueError("big_m must be >= 1")
    c = a * b
    eps = 1e-12 * big_m
    for name, val in (("a", a), ("b", b), ("a*b", c)):
        if not (1.0 / big_m - eps <= val <= big_m + eps):
            raise ValueError(f"{name} = {val} outside [1/M, M] with M = {big_m}")
    lhs = a + b + c + 1.0 / a + 1.0 / b + 1.0 / c
    bound = 2.0 * (1.0 + big_m + 1.0 / big_m)
    return ReciprocalSumResult(lhs=lhs, bound=bound, holds=lhs <= bound + 1e-12)
