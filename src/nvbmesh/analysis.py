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

from . import _geom
from .mesh import (COMPATIBLY_DIVISIBLE, Mesh, classify_pair, reference_neighbor,
                   structure_flags)
from .refine import MarkingInput, StepRecord, chain, refine_step


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witnesses: tuple = ()


@dataclass
class StructureReport:
    """Outcome of the structural checks, with realized constants."""

    checks: list[CheckResult] = field(default_factory=list)
    max_level_jump: int = 0
    diam_scale_lower: float = math.inf   # min |T|^(1/2) * 2^(gen/2)
    diam_scale_upper: float = 0.0        # max diam(T) * 2^(gen/2)
    max_equal_gen_chain: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "max_level_jump": self.max_level_jump,
            "diam_scale_lower": self.diam_scale_lower,
            "diam_scale_upper": self.diam_scale_upper,
            "max_equal_gen_chain": self.max_equal_gen_chain,
            "notes": list(self.notes),
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail,
                        "witnesses": list(c.witnesses)} for c in self.checks],
        }


def max_equal_gen_chain(mesh: Mesh) -> int:
    """Longest reference-neighbor run of elements sharing one generation."""
    best = 0
    for t in range(mesh.n_elements):
        g = int(mesh.gen[t])
        n = 0
        for e in chain(mesh, t):
            if int(mesh.gen[e]) != g:
                break
            n += 1
        best = max(best, n)
    return best


def verify_levels(mesh: Mesh, initial: Mesh, nvb_dialect: bool = False) -> StructureReport:
    """Area-generation identity, diameter scaling, level-jump bounds.

    The jump bound over shared edges is 2 in general; if ``nvb_dialect``
    is set and the initial mesh is BDD, the sharper bound 1 is checked.
    Applying the sharper check to a non-BDD initial mesh is reported as
    misuse in the notes, not as a failure.
    """
    report = StructureReport()
    areas = mesh.areas()
    expect = initial.areas()[mesh.ancestor] * np.ldexp(1.0, -mesh.gen)
    bad_area = np.flatnonzero(areas != expect)[:10].tolist()
    report.checks.append(CheckResult(
        "area_generation_identity", not bad_area,
        "area == |ancestor| * 2**(-gen) exactly", tuple(bad_area)))

    scale = _geom.pow2_half(mesh.gen)
    diam = _geom.diameters(mesh.vertices, mesh.elements)
    report.diam_scale_lower = float((np.sqrt(areas) * scale).min())
    report.diam_scale_upper = float((diam * scale).max())

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

    inner = mesh.edge_table.edge2elements
    inner = inner[inner[:, 1] >= 0]
    jump = np.abs(mesh.gen[inner[:, 0]] - mesh.gen[inner[:, 1]])
    bad_jump = [(t1, t2, d) for (t1, t2), d in zip(
        inner[jump > jump_bound].tolist(), jump[jump > jump_bound].tolist())]
    report.max_level_jump = int(jump.max(initial=0))
    name = "level_jump_le_1" if sharp else "level_jump_le_2"
    report.checks.append(CheckResult(
        name, not bad_jump,
        f"|gen difference| <= {jump_bound} across every shared edge",
        tuple(bad_jump[:10])))

    report.max_equal_gen_chain = max_equal_gen_chain(mesh)
    return report


def verify_neighbor_rules(mesh: Mesh, initial: Mesh | None = None) -> StructureReport:
    """Reference-neighbor structure of bisection meshes.

    Checks, over all shared edges: a reference neighbor of strictly larger
    generation is compatibly divisible with gap exactly 1; equal-generation
    neighbors under a common ancestor (or under compatibly divisible
    ancestors) are compatibly divisible; an equal-generation incompatible
    pair shares an edge lying inside an edge of the initial mesh.
    """
    if initial is None:
        initial = mesh.initial_mesh
    report = StructureReport()

    bad_iii = []
    for t in range(mesh.n_elements):
        n1 = reference_neighbor(mesh, t)
        if n1 is None:
            continue
        if int(mesh.gen[n1]) > int(mesh.gen[t]):
            gap = int(mesh.gen[n1]) - int(mesh.gen[t])
            if gap != 1 or classify_pair(mesh, t, n1) != COMPATIBLY_DIVISIBLE:
                bad_iii.append((t, n1, gap))
    report.checks.append(CheckResult(
        "deeper_reference_neighbor", not bad_iii,
        "gen(N(T)) > gen(T) implies compatibly divisible with gap 1",
        tuple(bad_iii[:10])))

    # segments of the initial mesh, indexed by ancestor element
    init_segments = [[(initial.point(a), initial.point(b))
                      for a, b in initial.edges_of(t)]
                     for t in range(initial.n_elements)]

    def inside_initial_edge(t1: int, t2: int, e) -> bool:
        pa, pb = mesh.point(e[0]), mesh.point(e[1])
        cand = (init_segments[int(mesh.ancestor[t1])]
                + init_segments[int(mesh.ancestor[t2])])
        for a, b in cand:
            if _geom.point_on_segment(pa, a, b) and _geom.point_on_segment(pb, a, b):
                return True
        return False

    bad_iv, bad_v, bad_vi = [], [], []
    for e, inc in mesh.edge_table.items():
        if len(inc) != 2:
            continue
        t1, t2 = inc
        if int(mesh.gen[t1]) != int(mesh.gen[t2]):
            continue
        compat = classify_pair(mesh, t1, t2) == COMPATIBLY_DIVISIBLE
        a1, a2 = int(mesh.ancestor[t1]), int(mesh.ancestor[t2])
        if a1 == a2 and not compat:
            bad_iv.append((t1, t2))
        if a1 != a2 and not compat:
            anc_shared = (set(initial.edges_of(a1)) & set(initial.edges_of(a2)))
            if anc_shared and classify_pair(initial, a1, a2) == COMPATIBLY_DIVISIBLE:
                bad_v.append((t1, t2))
        if not compat and not inside_initial_edge(t1, t2, e):
            bad_vi.append((t1, t2))
    report.checks.append(CheckResult(
        "same_ancestor_equal_gen_compatible", not bad_iv,
        "equal-generation neighbors under one ancestor are compatibly divisible",
        tuple(bad_iv[:10])))
    report.checks.append(CheckResult(
        "compatible_ancestors_equal_gen_compatible", not bad_v,
        "equal-generation neighbors under compatibly divisible ancestors "
        "are compatibly divisible", tuple(bad_v[:10])))
    report.checks.append(CheckResult(
        "incompatible_pairs_on_initial_edges", not bad_vi,
        "equal-generation incompatible pairs share an edge inside an "
        "initial edge", tuple(bad_vi[:10])))
    return report


@dataclass
class ChainBoundsReport:
    """Per-marked-element creation bounds for single-element markings."""

    max_gen_overshoot: int = 0
    max_dist_scaled: float = 0.0
    max_equal_gen_chain: int = 0
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
    for mesh, marking in zip(mesh_seq, markings):
        report.max_equal_gen_chain = max(report.max_equal_gen_chain,
                                         max_equal_gen_chain(mesh))
        for t in sorted(marking.elements):
            single, refined = refine_step(mesh, MarkingInput.of([t]), "refineNVB")
            if single is mesh:
                continue
            tri_t = mesh.coords(t)
            g_t = int(mesh.gen[t])
            for s in range(single.n_elements):
                parent = int(single.parent_elems[s])
                if parent not in refined:
                    continue
                overshoot = int(single.gen[s]) - g_t
                report.max_gen_overshoot = max(report.max_gen_overshoot, overshoot)
                if int(single.gen[s]) > g_t + 2:
                    report.violations.append((t, s, int(single.gen[s]), g_t))
                d = _geom.triangle_distance(tri_t, single.coords(s))
                report.max_dist_scaled = max(
                    report.max_dist_scaled,
                    d * 2.0 ** (int(single.gen[s]) / 2.0))
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
        lines = ["step,marked,elements,cum_marked,rho"]
        for r in self.rows:
            rho = "" if r.rho is None else repr(r.rho)
            lines.append(f"{r.step},{r.n_marked},{r.n_elements},{r.cum_marked},{rho}")
        return "\n".join(lines) + "\n"


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
