"""Loop-based reference implementations the package is tested against.

``edge_table``, ``closure`` and ``split`` are the straightforward dict/loop
versions of ``nvbmesh.mesh.build_edge_table``, the fixpoint of
``nvbmesh.refine.close_marks`` and ``nvbmesh.refine.split``;
``brute_force_closure`` finds the closure fixpoint by exhaustive search.
``area_identity_and_diameter_scale`` and ``max_equal_gen_chain`` are the
per-element loops of ``nvbmesh.analysis.verify_levels``.  ``DeltaDistance``
evaluates the element-path distance of the nodal weights by breadth-first
search, ``brute_force_weight_exponents`` evaluates the weight definition
directly from all-pairs node-to-element distances, and ``conditions`` is
the per-element loop of ``nvbmesh.stability.check_conditions``.
``build_corr``, ``corr_to_json``, ``transfer_marking`` and ``verify_corr``
are the dict versions of the red/bisec3 correspondence: maps are dicts
{(element, edge key): (element, edge key)}.  ``verify_neighbor_rules`` is
the per-element and per-edge loop of ``nvbmesh.analysis.verify_neighbor_rules``
over ``reference_neighbor``/``classify_pair``; ``validate_mesh`` is the
dict-and-loop ``nvbmesh.mesh.validate_mesh``; ``loads_mesh`` is the
line-by-line ``.nvbm`` parser, whose line loops ``nvbmesh.meshio.loads_mesh``
still runs on a block its array path does not take.  ``point_on_segment``
and ``point_strictly_inside_segment`` are the scalar forms of the
``nvbmesh._geom`` array kernels.  ``random_reference_edges`` and
``random_marked`` are the per-element loops of ``assign_reference_edges(...,
"random")`` and ``select_marked``'s ``random`` strategy.
``prolongation`` is the row-by-row ``nvbmesh.stability.prolongation``, and
``h1_exact`` computes the top H1 constants of a nested pair exactly by a
reduction to the coarse space (a copy of the benchmark's own).
``incidence_pairs`` and ``point_strictly_inside_triangle`` are small
helpers that only the tests use.
"""

from __future__ import annotations

import json
import math
from collections import deque

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from nvbmesh import _geom
from nvbmesh.analysis import CheckResult, StructureReport
from nvbmesh.correspondence import CorrespondenceError, CorrReport
from nvbmesh.mesh import (_EXHAUSTIVE_LIMIT, COMPATIBLY_DIVISIBLE, ConformityReport,
                          EdgeKey, Mesh, MeshError, Violation, _overshared,
                          build_edge_table, classify_pair, edge_key,
                          reference_neighbor)
from nvbmesh.meshio import _INT64, FORMAT_TAG, FORMAT_VERSION
from nvbmesh.refine import (BISEC1, BISEC2_LEFT, BISEC2_RIGHT, BISEC3, BISEC5,
                            FULL_PATTERNS, PATTERN_NONE, RED, MarkingInput,
                            PatternPolicy, RefinementPlan, chain)
from nvbmesh.stability import (ElementCondition, NodeWeights, StabilityReport,
                               _bhat, assemble_nested)

Pair = tuple[int, EdgeKey]


def edge_table(elements: np.ndarray) -> dict[EdgeKey, tuple[int, ...]]:
    """Map each unordered edge to the ids of its incident elements, in
    first-touch order."""
    table: dict[EdgeKey, list[int]] = {}
    for t in range(elements.shape[0]):
        v0, v1, v2 = (int(v) for v in elements[t])
        for e in (edge_key(v0, v1), edge_key(v1, v2), edge_key(v2, v0)):
            table.setdefault(e, []).append(t)
    return {e: tuple(inc) for e, inc in table.items()}


def closure(mesh: Mesh, seed: frozenset[EdgeKey]
            ) -> tuple[frozenset[EdgeKey], int, tuple[str, ...]]:
    """Closed edge set, iteration count and per-element patterns of the
    frontier fixpoint started from the seed."""
    table = edge_table(mesh.elements)
    marked = set(seed)
    frontier = list(seed)
    iterations = 0
    while frontier:
        new_refs = set()
        for e in frontier:
            for t in table[e]:
                if mesh.ref_edge(t) not in marked:
                    new_refs.add(mesh.ref_edge(t))
        if not new_refs:
            break
        marked |= new_refs
        frontier = sorted(new_refs)
        iterations += 1
    by_marks = {(False, False, False): PATTERN_NONE,
                (True, False, False): BISEC1,
                (True, True, False): BISEC2_LEFT,
                (True, False, True): BISEC2_RIGHT,
                (True, True, True): BISEC3}
    patterns = tuple(by_marks[tuple(e in marked for e in mesh.edges_of(t))]
                     for t in range(mesh.n_elements))
    return frozenset(marked), iterations, patterns


def brute_force_closure(mesh: Mesh, seed: frozenset[EdgeKey]) -> frozenset[EdgeKey]:
    """Smallest superset of the seed closed under the reference-edge rule,
    found by exhaustive subset enumeration; exponential in the number of
    edges."""
    all_edges = sorted(edge_table(mesh.elements))
    free = [e for e in all_edges if e not in seed]
    if len(free) > 20:
        raise ValueError("brute_force_closure is only for tiny meshes")

    def closed(edges: frozenset[EdgeKey]) -> bool:
        for t in range(mesh.n_elements):
            es = mesh.edges_of(t)
            if any(e in edges for e in es) and es[0] not in edges:
                return False
        return True

    best = None
    for bits in range(1 << len(free)):
        cand = set(seed)
        for i, e in enumerate(free):
            if bits >> i & 1:
                cand.add(e)
        if closed(frozenset(cand)):
            if best is None or len(cand) < len(best):
                best = frozenset(cand)
    assert best is not None  # the full edge set is always closed
    return best


def split(mesh: Mesh, plan: RefinementPlan, policy: PatternPolicy | None = None) -> Mesh:
    """Element-by-element splitter with a midpoint dict."""
    if policy is None:
        policy = PatternPolicy.always_bisec3()
    patterns = list(plan.pattern)
    for t, p in enumerate(patterns):
        if p in FULL_PATTERNS:
            patterns[t] = policy.choose(t, t in plan.marked_elements)

    n_old = mesh.n_vertices
    new_coords: list[tuple[float, float]] = []
    new_parents: list[tuple[int, int]] = []
    midpoint_of: dict[EdgeKey, int] = {}

    def midpoint(a: int, b: int) -> int:
        key = edge_key(a, b)
        node = midpoint_of.get(key)
        if node is None:
            node = n_old + len(new_coords)
            midpoint_of[key] = node
            pa = (mesh.vertices[a, 0], mesh.vertices[a, 1]) if a < n_old \
                else new_coords[a - n_old]
            pb = (mesh.vertices[b, 0], mesh.vertices[b, 1]) if b < n_old \
                else new_coords[b - n_old]
            new_coords.append(_geom.midpoint(pa, pb))
            new_parents.append(key)
        return node

    tris, gens, ancs, reds, parents = [], [], [], [], []
    any_red = any_b5 = False

    def emit(t, triple, gen, red=False):
        tris.append(triple)
        gens.append(gen)
        ancs.append(int(mesh.ancestor[t]))
        reds.append(red)
        parents.append(t)

    for t in range(mesh.n_elements):
        p = patterns[t]
        v0, v1, v2 = (int(v) for v in mesh.elements[t])
        g = int(mesh.gen[t])
        if p == PATTERN_NONE:
            emit(t, (v0, v1, v2), g, bool(mesh.red_son[t]))
            continue
        m01 = midpoint(v0, v1)
        if p == BISEC1:
            emit(t, (v2, v0, m01), g + 1)
            emit(t, (v1, v2, m01), g + 1)
        elif p == BISEC2_LEFT:
            m12 = midpoint(v1, v2)
            emit(t, (v2, v0, m01), g + 1)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (v2, m01, m12), g + 2)
        elif p == BISEC2_RIGHT:
            m20 = midpoint(v2, v0)
            emit(t, (m01, v2, m20), g + 2)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (v1, v2, m01), g + 1)
        elif p == BISEC3:
            m12 = midpoint(v1, v2)
            m20 = midpoint(v2, v0)
            emit(t, (m01, v2, m20), g + 2)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (v2, m01, m12), g + 2)
        elif p == BISEC5:
            any_b5 = True
            m12 = midpoint(v1, v2)
            m20 = midpoint(v2, v0)
            mi = midpoint(m01, v2)  # interior node of T
            emit(t, (m20, m01, mi), g + 3)
            emit(t, (v2, m20, mi), g + 3)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (m12, v2, mi), g + 3)
            emit(t, (m01, m12, mi), g + 3)
        elif p == RED:
            any_red = True
            m12 = midpoint(v1, v2)
            m20 = midpoint(v2, v0)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (m20, m12, v2), g + 2, red=True)
            emit(t, (m12, m20, m01), g + 2, red=True)
        else:
            raise ValueError(f"unknown pattern {p!r}")

    verts = (np.vstack([mesh.vertices, np.array(new_coords, dtype=np.float64)])
             if new_coords else mesh.vertices.copy())
    vparents = (np.vstack([mesh.vertex_parents,
                           np.array(new_parents, dtype=np.int64)])
                if new_parents else mesh.vertex_parents.copy())
    root = mesh if mesh.initial is None and mesh.is_initial else mesh.initial
    return Mesh(verts, np.array(tris, dtype=np.int64),
                gen=gens, ancestor=ancs, red_son=reds,
                initial=root, parent_elems=parents, vertex_parents=vparents,
                has_red_history=mesh.has_red_history or any_red,
                has_bisec5_history=mesh.has_bisec5_history or any_b5)


def incidence_pairs(mesh: Mesh) -> list[tuple[int, EdgeKey]]:
    """All (element, edge) pairs; exactly 3 per element."""
    return [(t, e) for t in range(mesh.n_elements) for e in mesh.edges_of(t)]


def point_strictly_inside_triangle(p, p0, p1, p2) -> bool:
    """True iff p is interior to the CCW triangle (all barycentrics > 0)."""
    return (_geom.signed_area(p0, p1, p) > 0.0
            and _geom.signed_area(p1, p2, p) > 0.0
            and _geom.signed_area(p2, p0, p) > 0.0)


# -- verify_levels ----------------------------------------------------------


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


def area_identity_and_diameter_scale(mesh: Mesh, initial: Mesh
                                     ) -> tuple[list[int], float, float]:
    """Elements violating |T| == |ancestor| * 2**(-gen), and the extremes
    min sqrt(|T|) * 2**(gen/2) and max diam(T) * 2**(gen/2)."""
    anc_areas = initial.areas()
    bad_area = []
    for t in range(mesh.n_elements):
        expect = float(anc_areas[int(mesh.ancestor[t])]) * 2.0 ** (-int(mesh.gen[t]))
        if mesh.area(t) != expect:
            bad_area.append(t)
    lo, hi = math.inf, 0.0
    for t in range(mesh.n_elements):
        scale = 2.0 ** (int(mesh.gen[t]) / 2.0)
        p0, p1, p2 = mesh.coords(t)
        lo = min(lo, math.sqrt(mesh.area(t)) * scale)
        hi = max(hi, _geom.diameter(p0, p1, p2) * scale)
    return bad_area, lo, hi


def point_on_segment(p, a, b) -> bool:
    """True iff p lies on the closed segment [a, b] (exact arithmetic)."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    if _geom.cross2(abx, aby, apx, apy) != 0.0:
        return False
    dot = apx * abx + apy * aby
    return 0.0 <= dot <= abx * abx + aby * aby


def point_strictly_inside_segment(p, a, b) -> bool:
    """True iff p lies on segment [a, b] excluding the endpoints."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    if _geom.cross2(abx, aby, apx, apy) != 0.0:
        return False
    dot = apx * abx + apy * aby
    return 0.0 < dot < abx * abx + aby * aby


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
            if point_on_segment(pa, a, b) and point_on_segment(pb, a, b):
                return True
        return False

    bad_iv, bad_v, bad_vi = [], [], []
    for e, inc in edge_table(mesh.elements).items():
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


# -- validate_mesh and the .nvbm parser -------------------------------------


def validate_mesh(mesh: Mesh, exhaustive: bool | None = None) -> ConformityReport:
    """Diagnostic conformity check; returns violations, never raises.

    Hanging nodes are detected by the exact midpoint test on every edge
    (complete for meshes produced by bisection/red refinement) and, for
    meshes below ``_EXHAUSTIVE_LIMIT`` elements or with ``exhaustive=True``,
    additionally by a full vertex-against-edge betweenness scan.
    """
    violations: list[Violation] = []
    nv, ne = mesh.n_vertices, mesh.n_elements

    # duplicate vertices (exact coordinate equality)
    seen: dict[tuple[float, float], int] = {}
    for i in range(nv):
        p = (float(mesh.vertices[i, 0]), float(mesh.vertices[i, 1]))
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            violations.append(Violation("bad_coordinate",
                                        f"vertex {i} has non-finite coordinates",
                                        (i,)))
        if p in seen:
            violations.append(Violation("duplicate_vertex",
                                        f"vertices {seen[p]} and {i} coincide at {p}",
                                        (seen[p], i)))
        else:
            seen[p] = i

    bad_index = (mesh.elements.min() < 0 or mesh.elements.max() >= nv)
    if bad_index:
        violations.append(Violation("bad_index", "element vertex index out of range"))
        return ConformityReport(violations)

    areas = mesh.areas()
    for t in np.nonzero(areas <= 0.0)[0]:
        violations.append(Violation("inverted_element",
                                    f"element {int(t)} has signed area {areas[t]:g}",
                                    (int(t),)))

    rebuilt = build_edge_table(mesh.elements)
    if not all(np.array_equal(getattr(rebuilt, a), getattr(mesh.edge_table, a))
               for a in ("element2edges", "edge2nodes", "edge2elements")):
        violations.append(Violation("edge_table_mismatch",
                                    "stored edge table differs from rebuild"))
    for e, inc in _overshared(rebuilt):
        violations.append(Violation("overshared_edge",
                                    f"edge {e} shared by elements {inc}",
                                    inc))

    # an element meeting the same neighbour across two of its edges; the
    # table lists the first two incident elements of an edge, as the
    # package's edge table does
    table = {e: inc[:2] for e, inc in edge_table(mesh.elements).items()}
    for t in range(ne):
        across = [next((u for u in table[e] if u != t), -1)
                  for e in mesh.edges_of(t)]
        for s in sorted(set(across)):
            if 0 <= s < t and across.count(s) > 1:
                violations.append(Violation(
                    "duplicate_element",
                    f"elements {s} and {t} cover the same triangle", (s, t)))

    used = np.zeros(nv, dtype=bool)
    used[mesh.elements.ravel()] = True
    for i in np.nonzero(~used)[0]:
        violations.append(Violation("orphan_vertex",
                                    f"vertex {int(i)} belongs to no element",
                                    (int(i),)))

    # hanging nodes: midpoint of an existing edge present as a vertex
    coord_to_node = seen
    for (a, b), inc in table.items():
        mid = _geom.midpoint(mesh.point(a), mesh.point(b))
        j = coord_to_node.get(mid)
        if j is not None and j not in (a, b):
            violations.append(Violation(
                "hanging_node",
                f"vertex {j} splits edge {(a, b)} of elements {inc}",
                (j, a, b)))

    if exhaustive is None:
        exhaustive = ne < _EXHAUSTIVE_LIMIT
    if exhaustive:
        reported = {v.ids for v in violations if v.kind == "hanging_node"}
        for (a, b), inc in table.items():
            pa, pb = mesh.point(a), mesh.point(b)
            for j in range(nv):
                if j in (a, b):
                    continue
                if point_strictly_inside_segment(mesh.point(j), pa, pb):
                    ids = (j, a, b)
                    if ids not in reported:
                        reported.add(ids)
                        violations.append(Violation(
                            "hanging_node",
                            f"vertex {j} lies inside edge {(a, b)} of elements {inc}",
                            ids))

    return ConformityReport(violations)


def loads_mesh(text: str, source: str = "<string>") -> Mesh:
    lines = text.splitlines()

    def fail(lineno: int, msg: str):
        raise MeshError(f"{source}:{lineno}: {msg}")

    if not lines:
        fail(1, "empty file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_TAG:
        fail(1, f"expected header '{FORMAT_TAG} {FORMAT_VERSION}'")
    if header[1] != str(FORMAT_VERSION):
        fail(1, f"unsupported format version {header[1]!r}")
    if len(lines) < 2:
        fail(2, "missing count line")
    counts = lines[1].split()
    if len(counts) != 2:
        fail(2, "expected '<nv> <ne>'")
    try:
        nv, ne = int(counts[0]), int(counts[1])
    except ValueError:
        fail(2, "vertex/element counts must be integers")
    if nv <= 0 or ne <= 0:
        fail(2, "vertex and element counts must be positive")
    if len(lines) < 2 + nv + ne:
        fail(len(lines) + 1, f"expected {2 + nv + ne} lines, found {len(lines)}")

    vertices = []
    for i in range(nv):
        lineno = 3 + i
        parts = lines[2 + i].split()
        if len(parts) != 2:
            fail(lineno, "expected 'x y'")
        try:
            vertices.append((float(parts[0]), float(parts[1])))
        except ValueError:
            fail(lineno, f"bad coordinate {lines[2 + i]!r}")
    finite = np.isfinite(np.array(vertices)).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        fail(3 + i, f"non-finite coordinate {lines[2 + i]!r}")

    elements, gens, ancestors, reds = [], [], [], []
    for i in range(ne):
        lineno = 3 + nv + i
        parts = lines[2 + nv + i].split()
        if len(parts) != 6:
            fail(lineno, "expected 'v0 v1 v2 gen ancestor red_son'")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            fail(lineno, f"bad element line {lines[2 + nv + i]!r}")
        if min(vals) < _INT64.min or max(vals) > _INT64.max:
            fail(lineno, "integer field out of the int64 range")
        v0, v1, v2, g, anc, red = vals
        for v in (v0, v1, v2):
            if not 0 <= v < nv:
                fail(lineno, f"vertex index {v} out of range 0..{nv - 1}")
        if g < 0:
            fail(lineno, f"negative generation {g}")
        if red not in (0, 1):
            fail(lineno, f"red_son must be 0 or 1, got {red}")
        elements.append((v0, v1, v2))
        gens.append(g)
        ancestors.append(anc)
        reds.append(bool(red))

    for i, anc in enumerate(ancestors):
        if anc < 0:
            fail(3 + nv + i, f"ancestor id {anc} is negative")

    try:
        mesh = Mesh(vertices, elements, gen=gens,
                    ancestor=ancestors, red_son=reds, validate=True)
    except MeshError as exc:
        raise MeshError(f"{source}: non-conforming mesh: {exc}") from exc

    report = validate_mesh(mesh)
    if not report.ok:
        v = report.violations[0]
        lineno = None
        if v.kind in ("inverted_element", "duplicate_element"):
            lineno = 3 + nv + v.ids[-1]
        elif v.kind in ("duplicate_vertex", "orphan_vertex", "bad_coordinate"):
            lineno = 3 + v.ids[-1]
        where = f"{source}:{lineno}: " if lineno else f"{source}: "
        raise MeshError(f"{where}non-conforming mesh: {v.detail} "
                        f"({len(report.violations)} violation(s) total)")
    return mesh


# -- marking ------------------------------------------------------------------


def random_reference_edges(mesh: Mesh, seed: int) -> np.ndarray:
    """The rotated triples of ``assign_reference_edges(mesh, "random", seed)``."""
    tris = mesh.elements.copy()
    rng = np.random.default_rng(seed)
    for t in range(mesh.n_elements):
        v = [int(x) for x in tris[t]]
        rot = int(rng.integers(3))
        tris[t] = [v[rot], v[(rot + 1) % 3], v[(rot + 2) % 3]]
    return tris


def random_marked(n: int, fraction: float, rng: np.random.Generator) -> list[int]:
    """``select_marked``'s ``random`` strategy on an n-element mesh."""
    draws = rng.random(n)
    marked = [t for t in range(n) if draws[t] < fraction]
    if not marked:
        marked = [int(rng.integers(n))]
    return marked


# -- nodal weights and element conditions -----------------------------------


def _node_stars(mesh: Mesh) -> list[list[int]]:
    stars: list[list[int]] = [[] for _ in range(mesh.n_vertices)]
    for t in range(mesh.n_elements):
        for v in mesh.elements[t]:
            stars[int(v)].append(t)
    return stars


def _touching_adjacency(mesh: Mesh, stars: list[list[int]]) -> list[list[int]]:
    """Element adjacency through shared nodes (edge-sharers included)."""
    neighbor_sets: list[set[int]] = [set() for _ in range(mesh.n_elements)]
    for star in stars:
        for t in star:
            neighbor_sets[t].update(star)
    return [sorted(s - {t}) for t, s in enumerate(neighbor_sets)]


class DeltaDistance:
    """Element-path distance between nodes, computed lazily per source.

    delta(j, j) = 0; delta(j, k) = 1 if the nodes share an element; else
    the minimal number of elements in a chain of pairwise touching
    elements (consecutive ones share at least a node) whose first element
    contains z_j and whose last contains z_k.  Nodes in different
    components report infinity.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.stars = _node_stars(mesh)
        self.adj = _touching_adjacency(mesh, self.stars)
        self._levels: dict[int, np.ndarray] = {}

    def element_levels(self, j: int) -> np.ndarray:
        """BFS level of each element: 1 on the star of z_j, +1 per hop."""
        lv = self._levels.get(j)
        if lv is not None:
            return lv
        lv = np.full(self.mesh.n_elements, -1, dtype=np.int64)
        queue = deque()
        for t in self.stars[j]:
            lv[t] = 1
            queue.append(t)
        while queue:
            t = queue.popleft()
            for s in self.adj[t]:
                if lv[s] < 0:
                    lv[s] = lv[t] + 1
                    queue.append(s)
        self._levels[j] = lv
        return lv

    def dist(self, j: int, k: int) -> float:
        if j == k:
            return 0
        lv = self.element_levels(j)
        best = math.inf
        for t in self.stars[k]:
            if lv[t] > 0:
                best = min(best, int(lv[t]))
        return best


def delta_distance(mesh: Mesh) -> DeltaDistance:
    return DeltaDistance(mesh)


def brute_force_weight_exponents(mesh: Mesh) -> np.ndarray:
    """Direct evaluation of min over T of (2*delta(z_j,T) - gen(T)).

    Breadth-first distances from every node on the element-node incidence
    graph: a chain of L touching elements from z_j to a corner of T is a
    path of length 2L + 1 from z_j to T, so d(j, T) = 2*delta(z_j, T) + 1.
    O(#nodes * #elements) time and memory."""
    m, n = mesh.n_elements, mesh.n_vertices
    graph = sp.coo_matrix(
        (np.ones(3 * m), (np.repeat(np.arange(m), 3), m + mesh.elements.ravel())),
        shape=(m + n, m + n)).tocsr()
    d = csgraph.shortest_path(graph, directed=False, unweighted=True,
                              indices=np.arange(m, m + n))[:, :m]
    best = (d - 1 - mesh.gen[None, :]).min(axis=1)
    assert np.isfinite(best).all()
    return best.astype(np.int64)


def conditions(mesh: Mesh, weights: NodeWeights,
               with_c78: bool = True) -> StabilityReport:
    """Element-by-element evaluation of the stability conditions, with one
    symmetric eigensolve and two generalized ones per element."""
    report = StabilityReport()
    exps = weights.exponents
    max_spread = 0
    for t in range(mesh.n_elements):
        e = [int(exps[int(v)]) for v in mesh.elements[t]]
        spread = max(e) - min(e)
        max_spread = max(max_spread, spread)
        ratio = 2.0 ** (spread / 2.0)
        s_sum = float(sum(2.0 ** (a - b) for a in e for b in e))
        lam_closed = 5.0 - math.sqrt(s_sum)
        lam_eig = float(np.linalg.eigvalsh(_bhat(e))[0])
        passes = (spread <= 2) and (s_sum < 25.0) and (lam_closed > 0.0)
        report.elements.append(ElementCondition(
            elem=t, exponent_spread=spread, ratio=ratio, s_sum=s_sum,
            lam_min_closed=lam_closed, lam_min_eig=lam_eig, passes=passes))
        report.max_s_sum = max(report.max_s_sum, s_sum)
        report.min_lam = min(report.min_lam, lam_closed)

    report.max_ratio = 2.0 ** (max_spread / 2.0)
    r = max(report.max_ratio, 1.0)
    report.relaxed_ratio_value = 1.0 + r * r + 1.0 / (r * r)

    c6 = 0.0
    d = weights.values
    for t in range(mesh.n_elements):
        p0, p1, p2 = mesh.coords(t)
        h = max(math.dist(p0, p1), math.dist(p1, p2), math.dist(p2, p0))
        for v in mesh.elements[t]:
            val = d[int(v)] / h
            c6 = max(c6, val, 1.0 / val)
    report.weight_size_ratio = c6

    if with_c78:
        c7 = c8 = 0.0
        mass_hat = np.ones((3, 3)) + np.eye(3)
        for cond in report.elements:
            t = cond.elem
            e = [int(exps[int(v)]) for v in mesh.elements[t]]
            p0, p1, p2 = mesh.coords(t)
            h = max(math.dist(p0, p1), math.dist(p1, p2), math.dist(p2, p0))
            lam2 = np.diag([h * h * 2.0 ** (-a) for a in e])  # (h/d_i)^2
            quartic = lam2 @ mass_hat @ lam2
            c7 = max(c7, float(scipy.linalg.eigh(
                quartic, mass_hat, eigvals_only=True)[-1]))
            if cond.lam_min_closed > 0.0:
                # the symmetrized pencil is positive definite exactly when
                # the scaled matrix is; skip failing elements
                sym = 0.5 * (lam2 @ mass_hat + mass_hat @ lam2)
                c8 = max(c8, float(scipy.linalg.eigh(
                    mass_hat, sym, eigvals_only=True)[-1]))
        report.scaled_quartic_bound = c7
        report.scaled_mass_bound = c8
    return report


# -- prolongation and the exact H1 constant ---------------------------------


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """Row-by-row ``nvbmesh.stability.prolongation``: each later fine node
    averages the rows of its two bisection parents."""
    nc, nf = coarse.n_vertices, fine.n_vertices
    if nf < nc or not np.array_equal(fine.vertices[:nc], coarse.vertices):
        raise ValueError("meshes are not nested (coarse vertices must be a "
                         "prefix of the fine ones)")
    rows: list[dict[int, float]] = [{j: 1.0} for j in range(nc)]
    for j in range(nc, nf):
        a, b = (int(p) for p in fine.vertex_parents[j])
        if a < 0 or b < 0 or a >= j or b >= j:
            raise ValueError(f"fine vertex {j} has no recorded bisection "
                             "parents; meshes are not a refinement chain")
        row: dict[int, float] = {}
        for k, w in rows[a].items():
            row[k] = row.get(k, 0.0) + 0.5 * w
        for k, w in rows[b].items():
            row[k] = row.get(k, 0.0) + 0.5 * w
        rows.append(row)
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for row in rows:
        for k in sorted(row):
            indices.append(k)
            data.append(row[k])
        indptr.append(len(indices))
    return sp.csr_matrix((data, indices, indptr), shape=(nf, nc))


def h1_exact(coarse: Mesh, fine: Mesh, count: int = 2,
             block: int = 256) -> list[float]:
    """The ``count`` largest H1 constants of the pair, largest first, by
    dense linear algebra on the coarse space.

    With C = M_c^-1 B the L2-projection (B the cross mass), C1 = C without
    column 0 and K1 the fine stiffness pinned at node 0, A = C^T K_c C has
    rank at most n_c, so the pencil (A1, K1) has the same nonzero
    eigenvalues as L^T K_c L, where L L^T = G = C1 K1^-1 C1^T.
    """
    system = assemble_nested(coarse, fine)
    b1 = system.cross_mass.tocsr()[:, 1:]
    k1 = spla.splu(system.stiffness[1:, :][:, 1:].tocsc())
    nc = coarse.n_vertices
    h = np.empty((nc, nc))                    # B1 K1^-1 B1^T, in column blocks
    for j in range(0, nc, block):
        rhs = b1[j:j + block].T.toarray()
        h[:, j:j + block] = b1 @ k1.solve(rhs)
    mass_c = system.coarse.mass.toarray()
    g = scipy.linalg.solve(mass_c, scipy.linalg.solve(mass_c, h).T,
                           assume_a="pos")
    l_fac = scipy.linalg.cholesky(0.5 * (g + g.T), lower=True)
    s = l_fac.T @ system.coarse.stiffness.toarray() @ l_fac
    lam = scipy.linalg.eigvalsh(0.5 * (s + s.T),
                                subset_by_index=[nc - count, nc - 1])
    return [math.sqrt(max(float(x), 0.0)) for x in lam[::-1]]


# -- red/bisec3 correspondence ----------------------------------------------


def _geom_edge(mesh: Mesh, e: EdgeKey):
    a, b = mesh.point(e[0]), mesh.point(e[1])
    return (a, b) if a <= b else (b, a)


def build_corr(left: Mesh, right: Mesh) -> dict[Pair, Pair]:
    """Reconstruct the correspondence between two mesh states.

    Elements with identical coordinate triples are mapped identically;
    the remaining ones must pair up as red-vs-bisec3 diamond halves.
    """
    if left.n_elements != right.n_elements:
        raise CorrespondenceError(
            f"element counts differ: {left.n_elements} vs {right.n_elements}")

    right_by_triple = {right.coords(s): s for s in range(right.n_elements)}
    if len(right_by_triple) != right.n_elements:
        raise CorrespondenceError("right mesh has duplicate coordinate triples")

    pairs: dict[Pair, Pair] = {}
    deferred: list[int] = []
    matched_right: set[int] = set()
    for t in range(left.n_elements):
        s = right_by_triple.get(left.coords(t))
        if s is None:
            deferred.append(t)
            continue
        matched_right.add(s)
        le = left.edges_of(t)
        re = right.edges_of(s)
        for i in range(3):
            pairs[(t, le[i])] = (s, re[i])

    # group the unmatched elements of either side into diamonds: pairs of
    # triangles sharing their reference edge, keyed by the corner set of
    # the quadrilateral they cover
    def diamonds(mesh: Mesh, unmatched: set[int], label: str):
        out: dict[frozenset, tuple[int, int]] = {}
        used: set[int] = set()
        table = edge_table(mesh.elements)
        for t in sorted(unmatched):
            if t in used:
                continue
            ref = mesh.ref_edge(t)
            inc = table[ref]
            if len(inc) != 2:
                raise CorrespondenceError(
                    f"{label} element {t} has no diamond partner")
            other = inc[0] if inc[1] == t else inc[1]
            if other not in unmatched or mesh.ref_edge(other) != ref:
                raise CorrespondenceError(
                    f"{label} elements {t},{other} do not form a diamond")
            used |= {t, other}
            corners = frozenset(mesh.coords(t)) | frozenset(mesh.coords(other))
            if len(corners) != 4 or corners in out:
                raise CorrespondenceError(
                    f"{label} diamond at {sorted(corners)} is degenerate")
            out[corners] = (t, other)
        return out

    unmatched_right = set(range(right.n_elements)) - matched_right
    left_diamonds = diamonds(left, set(deferred), "left")
    right_diamonds = diamonds(right, unmatched_right, "right")
    if set(left_diamonds) != set(right_diamonds):
        raise CorrespondenceError("diamond corner sets do not match")

    for corners, (p, q) in left_diamonds.items():
        u, w = right_diamonds[corners]
        # outer edges of the right diamond halves are unique within the
        # diamond; the shared diagonal appears twice and is voided
        local: dict[tuple, Pair | None] = {}
        for s in (u, w):
            for f in right.edges_of(s):
                key = _geom_edge(right, f)
                local[key] = None if key in local else (s, f)
        for t in (p, q):
            e_ref, e1, e2 = left.edges_of(t)
            im1 = local.get(_geom_edge(left, e1))
            im2 = local.get(_geom_edge(left, e2))
            if im1 is None or im2 is None or im1[0] == im2[0]:
                raise CorrespondenceError(
                    f"element {t} does not fit the diamond template")
            pairs[(t, e1)] = im1
            pairs[(t, e2)] = im2
            s2 = im2[0]
            pairs[(t, e_ref)] = (s2, right.ref_edge(s2))

    # the checks of the map's constructor
    if len(pairs) != 3 * left.n_elements:
        raise CorrespondenceError("map does not cover all incidence pairs")
    if len(set(pairs.values())) != len(pairs):
        raise CorrespondenceError("map is not injective")
    return pairs


def corr_to_json(pairs: dict[Pair, Pair]) -> str:
    rows = [{"elem": t, "edge": list(e), "image_elem": s, "image_edge": list(f)}
            for (t, e), (s, f) in sorted(pairs.items())]
    return json.dumps(rows, indent=1)


def transfer_marking(pairs: dict[Pair, Pair], left: Mesh,
                     marking: MarkingInput) -> MarkingInput:
    """Push marked elements and edges through the correspondence."""
    src = [(t, e) for t in sorted(marking.elements)
           for e in left.edges_of(t) if e in marking.edges]
    images = [pairs[p] for p in src]
    return MarkingInput(frozenset(s for s, _ in images),
                        frozenset(f for _, f in images))


def verify_corr(pairs: dict[Pair, Pair], a: Mesh, b: Mesh) -> CorrReport:
    """Exhaustively check every correspondence property over the pair sets.

    Area comparability uses the fixed band 1/4 <= |T|/|T~| <= 4 (red and
    bisec3 sons of one father differ by at most one extra halving).
    """
    report = CorrReport()

    if len(pairs) != 3 * a.n_elements or a.n_elements != b.n_elements:
        report.add("cardinality", len(pairs), a.n_elements, b.n_elements)
        return report
    inv = {v: k for k, v in pairs.items()}

    # (i) generation equality and area comparability, per pair
    for (t, e), (s, f) in pairs.items():
        if int(a.gen[t]) != int(b.gen[s]):
            report.add("gen_preserved", t, s, int(a.gen[t]), int(b.gen[s]))
        ratio = a.area(t) / b.area(s)
        if not (0.25 <= ratio <= 4.0):
            report.add("area_band", t, s, ratio)
        # (iii) reference edges map to reference edges, both directions
        if (e == a.ref_edge(t)) != (f == b.ref_edge(s)):
            report.add("ref_edge_preserved", t, e, s, f)

    # (ii)/(iv)/(v)/(vi) over shared edges, forward
    def shared_relations(mesh: Mesh, mapping, src: Mesh, dst: Mesh, label: str):
        dst_table = edge_table(dst.elements)
        for e, inc in edge_table(mesh.elements).items():
            if len(inc) != 2:
                continue
            t1, t2 = inc
            s1, f1 = mapping[(t1, e)]
            s2, f2 = mapping[(t2, e)]
            if s1 == s2 or f1 != f2 or set(dst_table.get(f1, ())) != {s1, s2}:
                report.add(f"neighbors_preserved_{label}", t1, t2, e)
                continue
            # (iv): mutual reference neighbors map to mutual reference neighbors
            mutual_src = (e == src.ref_edge(t1) and e == src.ref_edge(t2))
            mutual_dst = (f1 == dst.ref_edge(s1) and f1 == dst.ref_edge(s2))
            one_src = (e == src.ref_edge(t1)) + (e == src.ref_edge(t2))
            one_dst = (f1 == dst.ref_edge(s1)) + (f1 == dst.ref_edge(s2))
            if mutual_src != mutual_dst:
                report.add(f"mutual_ref_neighbors_{label}", t1, t2, e)
            # (v): compatible divisibility preserved (ref-count 0 or 2 vs 1)
            if (one_src in (0, 2)) != (one_dst in (0, 2)):
                report.add(f"compatibility_preserved_{label}", t1, t2, e)
            # (vi): common-ancestor neighborship preserved
            if ((int(src.ancestor[t1]) == int(src.ancestor[t2]))
                    != (int(dst.ancestor[s1]) == int(dst.ancestor[s2]))):
                report.add(f"ancestor_neighbors_{label}", t1, t2, e)

    shared_relations(a, pairs, a, b, "fwd")
    shared_relations(b, inv, b, a, "bwd")

    # (vii): all image elements of T carry the image of T's reference pair
    # as their own reference edge, and conversely
    for t in range(a.n_elements):
        s_ref, f_ref = pairs[(t, a.ref_edge(t))]
        for e in a.edges_of(t):
            s, f = pairs[(t, e)]
            if b.ref_edge(s) != f_ref:
                report.add("ref_pair_dominates_fwd", t, e, s)
    for s in range(b.n_elements):
        t_ref, e_ref = inv[(s, b.ref_edge(s))]
        for f in b.edges_of(s):
            t, e = inv[(s, f)]
            if a.ref_edge(t) != e_ref:
                report.add("ref_pair_dominates_bwd", s, f, t)

    # no element spreads its incidence pairs over more than 2 images
    for t in range(a.n_elements):
        images = {pairs[(t, e)][0] for e in a.edges_of(t)}
        if len(images) > 2:
            report.add("image_spread", t, sorted(images))

    return report
