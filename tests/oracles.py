"""Loop-based reference implementations the package is tested against.

``edge_table``, ``closure`` and ``split`` are the straightforward dict/loop
versions of ``nvbmesh.mesh.build_edge_table``, the fixpoint of
``nvbmesh.refine.close_marks`` (with three bisections for every fully
marked element) and ``nvbmesh.refine.split``, the loop ``split`` also
returning each element's father, which no mesh records;
``brute_force_closure`` finds the closure fixpoint by exhaustive search.
``stable_edge_table`` is ``build_edge_table``'s array kernel with a stable
argsort of the edge codes in place of its sort of one combined key.
``area_identity_and_diameter_scale`` and ``max_equal_gen_chain`` are the
per-element loops of ``nvbmesh.analysis.verify_levels``, with areas and
diameters from the scalar ``area`` and ``diameter``, and
``verify_chain_bounds`` is the son-by-son loop of its namesake, which tells
the sons from the kept elements by their coordinate triples.  ``DeltaDistance``
evaluates the element-path distance of the nodal weights by breadth-first
search, ``brute_force_weight_exponents`` evaluates the weight definition
directly from all-pairs node-to-element distances, and ``conditions`` is
the per-element loop of ``nvbmesh.stability.check_conditions``: one
``ElementCondition`` per element where the package holds one column per
field.
``build_corr``, ``corr_to_json``, ``transfer_marking`` and ``verify_corr``
are the dict versions of the red/bisec3 correspondence: maps are dicts
{(element, edge key): (element, edge key)}.  ``verify_neighbor_rules`` is
the per-element and per-edge loop of ``nvbmesh.analysis.verify_neighbor_rules``
over ``reference_neighbors``/``classify_pair``; ``reference_neighbors``,
which it shares with ``max_equal_gen_chain``, reads N(T) from the
``edge_table`` dict, not from the package.  ``validate_mesh`` is the
dict-and-loop ``nvbmesh.mesh.validate_mesh``, whose over-shared edges are
the entries of ``edge_table`` with more than two elements, in place of the
package's sort of ``_overshared``; ``loads_mesh`` is the
line-by-line ``.nvbm`` parser, whose line loops ``nvbmesh.meshio.loads_mesh``
still runs on a block its array path does not take, and ``dumps_mesh`` the
line-by-line writer, one f-string per line, that ``nvbmesh.meshio``'s
one-call block formatting must reproduce byte for byte.  ``signed_area``,
``area``, ``diameter``, ``point_in_triangle``, ``point_on_segment``,
``point_strictly_inside_segment``, ``point_segment_distance``,
``segment_segment_distance`` and ``triangle_distance`` are the scalar forms
of the ``nvbmesh._geom`` array kernels, lengths by ``math.dist``.
``random_reference_edges``, ``longest_edge_references`` and
``random_marked`` are the per-element loops of ``assign_reference_edges``
(``"random"`` and ``"longest-edge"``) and ``select_marked``'s ``random``
strategy; ``select_marked`` holds the loops of its ``corner`` and
``dorfler`` strategies, over ``element_point_distance`` and
``dorfler_indicators``.
``prolongation`` is the row-by-row ``nvbmesh.stability.prolongation``, and
``h1_exact`` computes the top H1 constants of a nested pair exactly by a
reduction to the coarse space (a copy of the benchmark's own).
``overlay`` is the recursive descent of ``nvbmesh.refine.overlay`` over
sets of coordinate triples, and ``same_mesh`` compares the sorted tuple
lists of ``canonical_form``.  ``_bhat`` builds the scaled element mass
matrices whose smallest eigenvalue ``check_conditions`` evaluates in
closed form.
``edge_key``, ``edges_of`` and ``ref_edge`` name edges by sorted node
pairs, as the loops do; ``edge_keys`` and ``edge_ids`` translate between
those pairs and the package's ``edge_table`` ids.  ``coords`` and
``point`` give an element's or a node's coordinates as tuples of Python
floats, ``midpoint`` halves two points, and ``incidence_pairs`` and
``point_strictly_inside_triangle`` are small helpers that only the tests
use.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from nvbmesh import _geom
from nvbmesh.analysis import ChainBoundsReport, CheckReport, CheckResult
from nvbmesh.correspondence import CorrespondenceError, CorrReport
from nvbmesh.mesh import (_EXHAUSTIVE_LIMIT, COMPATIBLY_DIVISIBLE, ConformityReport,
                          EdgeTable, Mesh, MeshError, Violation, classify_pair)
from nvbmesh.meshio import _INT64, FORMAT_TAG, FORMAT_VERSION
from nvbmesh.refine import (BISEC1, BISEC2_LEFT, BISEC2_RIGHT, BISEC3, BISEC5,
                            PATTERN_NONE, RED, MarkingInput, RefinementPlan,
                            refine_step)
from nvbmesh.stability import NodeWeights, assemble_nested

EdgeKey = tuple[int, int]
Pair = tuple[int, EdgeKey]


def edge_key(a: int, b: int) -> EdgeKey:
    """Canonical (sorted) key for the unordered node pair {a, b}."""
    return (a, b) if a < b else (b, a)


def edges_of(mesh: Mesh, t: int) -> tuple[EdgeKey, EdgeKey, EdgeKey]:
    """The edge keys of element t, reference edge first."""
    v0, v1, v2 = (int(v) for v in mesh.elements[t])
    return (edge_key(v0, v1), edge_key(v1, v2), edge_key(v2, v0))


def ref_edge(mesh: Mesh, t: int) -> EdgeKey:
    return edge_key(int(mesh.elements[t, 0]), int(mesh.elements[t, 1]))


def edge_keys(mesh: Mesh, ids) -> frozenset[EdgeKey]:
    """The node pairs of the given edge ids of the mesh."""
    return frozenset((a, b) for a, b in mesh.edge_table.edge2nodes[ids].tolist())


def edge_ids(mesh: Mesh, keys) -> list[int]:
    """The edge ids of the given node pairs, numbered as ``edge_table``
    numbers them (first touch)."""
    index = {e: i for i, e in enumerate(edge_table(mesh.elements))}
    return [index[e] for e in keys]


def edge_table(elements: np.ndarray) -> dict[EdgeKey, tuple[int, ...]]:
    """Map each unordered edge to the ids of its incident elements, in
    first-touch order."""
    table: dict[EdgeKey, list[int]] = {}
    for t in range(elements.shape[0]):
        v0, v1, v2 = (int(v) for v in elements[t])
        for e in (edge_key(v0, v1), edge_key(v1, v2), edge_key(v2, v0)):
            table.setdefault(e, []).append(t)
    return {e: tuple(inc) for e, inc in table.items()}


def stable_edge_table(elements: np.ndarray) -> EdgeTable:
    """``nvbmesh.mesh.build_edge_table`` by one stable argsort of the edge
    codes, without the combined key that the package sorts unstably."""
    elements = np.asarray(elements, dtype=np.int64)
    m = elements.shape[0]
    n = 3 * m
    tails = elements[:, [1, 2, 0]]
    pairs = np.stack([np.minimum(elements, tails), np.maximum(elements, tails)],
                     axis=2).reshape(n, 2)
    codes = pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1]
    order = np.argsort(codes, kind="stable")
    runs = np.flatnonzero(np.diff(codes[order], prepend=-1, append=-1))
    size = np.diff(runs)
    first = order[runs[:-1]]
    touched = np.zeros(n, dtype=bool)
    touched[first] = True
    edge = (np.cumsum(touched) - 1)[first]
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.repeat(edge, size)
    second = np.where(size > 1, order[np.minimum(runs[:-1] + 1, n - 1)], -3)
    ends = np.empty((edge.size, 2), dtype=np.int64)
    ends[edge] = np.stack([first, second], axis=1)
    return EdgeTable(ids.reshape(m, 3), pairs[ends[:, 0]], ends // 3)


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
                if ref_edge(mesh, t) not in marked:
                    new_refs.add(ref_edge(mesh, t))
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
    patterns = tuple(by_marks[tuple(e in marked for e in edges_of(mesh, t))]
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
            es = edges_of(mesh, t)
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


def split(mesh: Mesh, plan: RefinementPlan) -> tuple[Mesh, list[int]]:
    """Element-by-element splitter with a midpoint dict; refines each
    element by the pattern name its plan gives.  Also returns the id of
    each element's father in ``mesh``."""
    patterns = plan.pattern.tolist()

    n_old = mesh.n_vertices
    new_coords: list[tuple[float, float]] = []
    new_parents: list[tuple[int, int]] = []
    midpoint_of: dict[EdgeKey, int] = {}

    def mid_node(a: int, b: int) -> int:
        key = edge_key(a, b)
        node = midpoint_of.get(key)
        if node is None:
            node = n_old + len(new_coords)
            midpoint_of[key] = node
            pa = (mesh.vertices[a, 0], mesh.vertices[a, 1]) if a < n_old \
                else new_coords[a - n_old]
            pb = (mesh.vertices[b, 0], mesh.vertices[b, 1]) if b < n_old \
                else new_coords[b - n_old]
            new_coords.append(midpoint(pa, pb))
            new_parents.append(key)
        return node

    tris, gens, ancs, reds, parents = [], [], [], [], []

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
        m01 = mid_node(v0, v1)
        if p == BISEC1:
            emit(t, (v2, v0, m01), g + 1)
            emit(t, (v1, v2, m01), g + 1)
        elif p == BISEC2_LEFT:
            m12 = mid_node(v1, v2)
            emit(t, (v2, v0, m01), g + 1)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (v2, m01, m12), g + 2)
        elif p == BISEC2_RIGHT:
            m20 = mid_node(v2, v0)
            emit(t, (m01, v2, m20), g + 2)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (v1, v2, m01), g + 1)
        elif p == BISEC3:
            m12 = mid_node(v1, v2)
            m20 = mid_node(v2, v0)
            emit(t, (m01, v2, m20), g + 2)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (v2, m01, m12), g + 2)
        elif p == BISEC5:
            m12 = mid_node(v1, v2)
            m20 = mid_node(v2, v0)
            mi = mid_node(m01, v2)  # interior node of T
            emit(t, (m20, m01, mi), g + 3)
            emit(t, (v2, m20, mi), g + 3)
            emit(t, (v0, m01, m20), g + 2)
            emit(t, (m01, v1, m12), g + 2)
            emit(t, (m12, v2, mi), g + 3)
            emit(t, (m01, m12, mi), g + 3)
        elif p == RED:
            m12 = mid_node(v1, v2)
            m20 = mid_node(v2, v0)
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
    return Mesh(verts, np.array(tris, dtype=np.int64), gen=gens, ancestor=ancs,
                red_son=reds, vertex_parents=vparents), parents


# -- scalar geometry ----------------------------------------------------------


def coords(mesh: Mesh, t: int) -> tuple[tuple[float, float], ...]:
    """The three vertex coordinate pairs of element t (convention order)."""
    return tuple(map(tuple, mesh.vertices[mesh.elements[t]].tolist()))


def point(mesh: Mesh, node: int) -> tuple[float, float]:
    return tuple(mesh.vertices[node].tolist())


def midpoint(p, q) -> tuple[float, float]:
    """Exact midpoint of two dyadic points."""
    return ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)


def signed_area(p0, p1, p2) -> float:
    """Signed area of the triangle (p0, p1, p2); positive iff CCW."""
    return 0.5 * _geom.cross2(p1[0] - p0[0], p1[1] - p0[1],
                              p2[0] - p0[0], p2[1] - p0[1])


def area(mesh: Mesh, t: int) -> float:
    """Signed area of element t."""
    return signed_area(*coords(mesh, t))


def diameter(p0, p1, p2) -> float:
    """Longest edge length of the triangle."""
    return max(math.dist(p0, p1), math.dist(p1, p2), math.dist(p2, p0))


def point_in_triangle(p, p0, p1, p2) -> bool:
    """True iff p lies in the closed CCW triangle."""
    return (signed_area(p0, p1, p) >= 0.0
            and signed_area(p1, p2, p) >= 0.0
            and signed_area(p2, p0, p) >= 0.0)


def point_segment_distance(p, a, b) -> float:
    """Euclidean distance from point p to the closed segment [a, b]."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.dist(p, a)
    t = (apx * abx + apy * aby) / denom
    t = min(1.0, max(0.0, t))
    return math.dist(p, (a[0] + t * abx, a[1] + t * aby))


def segment_segment_distance(a, b, c, d) -> float:
    """Distance between closed segments [a,b] and [c,d]."""
    # Proper intersection means distance zero.
    d1 = _geom.cross2(b[0] - a[0], b[1] - a[1], c[0] - a[0], c[1] - a[1])
    d2 = _geom.cross2(b[0] - a[0], b[1] - a[1], d[0] - a[0], d[1] - a[1])
    d3 = _geom.cross2(d[0] - c[0], d[1] - c[1], a[0] - c[0], a[1] - c[1])
    d4 = _geom.cross2(d[0] - c[0], d[1] - c[1], b[0] - c[0], b[1] - c[1])
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(point_segment_distance(a, c, d),
               point_segment_distance(b, c, d),
               point_segment_distance(c, a, b),
               point_segment_distance(d, a, b))


def triangle_distance(t1, t2) -> float:
    """Distance between two closed triangles, each a tuple of 3 points.

    Segment-segment distance over the 3x3 edge pairs plus containment
    checks (one triangle inside the other).
    """
    if point_in_triangle(t1[0], *t2) or point_in_triangle(t2[0], *t1):
        return 0.0
    best = math.inf
    edges1 = [(t1[0], t1[1]), (t1[1], t1[2]), (t1[2], t1[0])]
    edges2 = [(t2[0], t2[1]), (t2[1], t2[2]), (t2[2], t2[0])]
    for a, b in edges1:
        for c, d in edges2:
            best = min(best, segment_segment_distance(a, b, c, d))
    return best


def incidence_pairs(mesh: Mesh) -> list[tuple[int, EdgeKey]]:
    """All (element, edge) pairs; exactly 3 per element."""
    return [(t, e) for t in range(mesh.n_elements) for e in edges_of(mesh, t)]


def point_strictly_inside_triangle(p, p0, p1, p2) -> bool:
    """True iff p is interior to the CCW triangle (all barycentrics > 0)."""
    return (signed_area(p0, p1, p) > 0.0
            and signed_area(p1, p2, p) > 0.0
            and signed_area(p2, p0, p) > 0.0)


# -- verify_levels ----------------------------------------------------------


def reference_neighbors(mesh: Mesh) -> list[int | None]:
    """N(T) of every element, read from the ``edge_table`` dict at its
    ``ref_edge``; None on the boundary."""
    table = edge_table(mesh.elements)
    return [next((s for s in table[ref_edge(mesh, t)] if s != t), None)
            for t in range(mesh.n_elements)]


def max_equal_gen_chain(mesh: Mesh) -> int:
    """Longest reference-neighbor run of elements sharing one generation:
    from each element, follow N(T) until the boundary, a generation change
    or an element already in the run."""
    n1 = reference_neighbors(mesh)
    best = 0
    for t in range(mesh.n_elements):
        run, cur = {t}, n1[t]
        while (cur is not None and cur not in run
               and int(mesh.gen[cur]) == int(mesh.gen[t])):
            run.add(cur)
            cur = n1[cur]
        best = max(best, len(run))
    return best


def area_identity_and_diameter_scale(mesh: Mesh, initial: Mesh
                                     ) -> tuple[list[int], float, float]:
    """Elements violating |T| == |ancestor| * 2**(-gen), and the extremes
    min sqrt(|T|) * 2**(gen/2) and max diam(T) * 2**(gen/2)."""
    bad_area = []
    for t in range(mesh.n_elements):
        expect = area(initial, int(mesh.ancestor[t])) * 2.0 ** (-int(mesh.gen[t]))
        if area(mesh, t) != expect:
            bad_area.append(t)
    lo, hi = math.inf, 0.0
    for t in range(mesh.n_elements):
        scale = 2.0 ** (int(mesh.gen[t]) / 2.0)
        p0, p1, p2 = coords(mesh, t)
        lo = min(lo, math.sqrt(area(mesh, t)) * scale)
        hi = max(hi, diameter(p0, p1, p2) * scale)
    return bad_area, lo, hi


def verify_chain_bounds(mesh_seq: list[Mesh],
                        markings: list[MarkingInput]) -> ChainBoundsReport:
    """The son-by-son loop of ``nvbmesh.analysis.verify_chain_bounds``."""
    report = ChainBoundsReport()
    for mesh, marking in zip(mesh_seq, markings):
        # the sons are the elements of ``single`` that no element of ``mesh``
        # equals: a son is smaller than its father and lies inside it
        kept = {coords(mesh, t) for t in range(mesh.n_elements)}
        for t in sorted(marking.elements):
            single, _ = refine_step(mesh, MarkingInput([t]), "refineNVB")
            if single is mesh:
                continue
            tri_t = coords(mesh, t)
            g_t = int(mesh.gen[t])
            for s in range(single.n_elements):
                if coords(single, s) in kept:
                    continue
                overshoot = int(single.gen[s]) - g_t
                report.max_gen_overshoot = max(report.max_gen_overshoot, overshoot)
                if int(single.gen[s]) > g_t + 2:
                    report.violations.append((t, s, int(single.gen[s]), g_t))
                d = triangle_distance(tri_t, coords(single, s))
                report.max_dist_scaled = max(
                    report.max_dist_scaled,
                    d * 2.0 ** (int(single.gen[s]) / 2.0))
    return report


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


def verify_neighbor_rules(mesh: Mesh, initial: Mesh) -> CheckReport:
    """Reference-neighbor structure of bisection meshes.

    Checks, over all shared edges: a reference neighbor of strictly larger
    generation is compatibly divisible with gap exactly 1; equal-generation
    neighbors under a common ancestor (or under compatibly divisible
    ancestors) are compatibly divisible; an equal-generation incompatible
    pair shares an edge lying inside an edge of the initial mesh.
    """
    report = CheckReport()

    bad_iii = []
    for t, n1 in enumerate(reference_neighbors(mesh)):
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
    init_segments = [[(point(initial, a), point(initial, b))
                      for a, b in edges_of(initial, t)]
                     for t in range(initial.n_elements)]

    def inside_initial_edge(t1: int, t2: int, e) -> bool:
        pa, pb = point(mesh, e[0]), point(mesh, e[1])
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
            anc_shared = (set(edges_of(initial, a1)) & set(edges_of(initial, a2)))
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
    and by a vertex-against-edge betweenness scan: of every vertex against
    every edge for meshes below ``_EXHAUSTIVE_LIMIT`` elements or with
    ``exhaustive=True``, else of the boundary edges against their ends.
    Element areas come from ``area``, not from the mesh's cached array.
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

    if ne == 0:
        violations.append(Violation("no_elements", "mesh has no elements"))
        return ConformityReport(violations)
    bad_index = (mesh.elements.min() < 0 or mesh.elements.max() >= nv)
    if bad_index:
        violations.append(Violation("bad_index", "element vertex index out of range"))
        return ConformityReport(violations)

    for t in range(ne):
        if area(mesh, t) <= 0.0:
            violations.append(Violation("inverted_element",
                                        f"element {t} has signed area {area(mesh, t):g}",
                                        (t,)))

    # edges in first-touch order, which is the order of their ids
    incident = edge_table(mesh.elements)
    for e, inc in incident.items():
        if len(inc) > 2:
            violations.append(Violation("overshared_edge",
                                        f"edge {e} shared by elements {inc}",
                                        inc))

    # doubly covered pairs, at the later element t: a neighbour s met across
    # two edges of t covers the same triangle; else, when s and t are CCW
    # and their one shared edge has no third element, they fold over it if
    # both run it in the same direction.  The table lists the first two
    # incident elements of an edge, as the package's edge table does
    table = {e: inc[:2] for e, inc in incident.items()}

    def runs(u: int) -> set[tuple[int, int]]:
        v0, v1, v2 = (int(v) for v in mesh.elements[u])
        return {(v0, v1), (v1, v2), (v2, v0)}

    for t in range(ne):
        keys = edges_of(mesh, t)
        across = [next((u for u in table[e] if u != t), -1) for e in keys]
        for s in sorted(set(across)):
            if not 0 <= s < t:
                continue
            if across.count(s) > 1:
                violations.append(Violation(
                    "duplicate_element",
                    f"elements {s} and {t} cover the same triangle", (s, t)))
            elif (area(mesh, s) > 0.0 and area(mesh, t) > 0.0
                  and len(incident[keys[across.index(s)]]) == 2
                  and runs(s) & runs(t)):
                violations.append(Violation(
                    "folded_edge", f"elements {s} and {t} lie on one side of "
                    f"their shared edge {keys[across.index(s)]}", (s, t)))

    used = np.zeros(nv, dtype=bool)
    used[mesh.elements.ravel()] = True
    for i in np.nonzero(~used)[0]:
        violations.append(Violation("orphan_vertex",
                                    f"vertex {int(i)} belongs to no element",
                                    (int(i),)))

    # hanging nodes: midpoint of an existing edge present as a vertex
    coord_to_node = seen
    for (a, b), inc in table.items():
        mid = midpoint(point(mesh, a), point(mesh, b))
        j = coord_to_node.get(mid)
        if j is not None and j not in (a, b):
            violations.append(Violation(
                "hanging_node",
                f"vertex {j} splits edge {(a, b)} of elements {inc}",
                (j, a, b)))

    # vertices inside edges: every vertex against every edge, or else the
    # boundary edges (one incident element) against their end vertices
    if exhaustive is None:
        exhaustive = ne < _EXHAUSTIVE_LIMIT
    scan = {e: inc for e, inc in table.items() if exhaustive or len(inc) == 1}
    ends = range(nv) if exhaustive else sorted({j for e in scan for j in e})
    reported = {v.ids for v in violations if v.kind == "hanging_node"}
    for (a, b), inc in scan.items():
        pa, pb = point(mesh, a), point(mesh, b)
        for j in ends:
            if j in (a, b):
                continue
            if point_strictly_inside_segment(point(mesh, j), pa, pb):
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
    if not any(gens):
        for i, anc in enumerate(ancestors):
            if anc != i:
                fail(3 + nv + i, f"element {i} of an initial mesh has ancestor "
                     f"id {anc}, not its own id")

    mesh = Mesh(vertices, elements, gen=gens,
                ancestor=ancestors, red_son=reds, validate=False)
    report = validate_mesh(mesh)
    if not report.ok:
        v = report.violations[0]
        lineno = None
        if v.kind in ("inverted_element", "duplicate_element", "folded_edge",
                      "overshared_edge"):
            lineno = 3 + nv + v.ids[-1]
        elif v.kind in ("duplicate_vertex", "orphan_vertex", "bad_coordinate"):
            lineno = 3 + v.ids[-1]
        elif v.kind == "hanging_node":  # ids (j, a, b): vertex j is at fault
            lineno = 3 + v.ids[0]
        where = f"{source}:{lineno}: " if lineno else f"{source}: "
        raise MeshError(f"{where}non-conforming mesh: {v.detail} "
                        f"({len(report.violations)} violation(s) total)")
    return mesh


# -- marking ------------------------------------------------------------------


def dumps_mesh(mesh: Mesh) -> str:
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}\n",
             f"{mesh.n_vertices} {mesh.n_elements}\n"]
    lines += [f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()]
    lines += [f"{v0} {v1} {v2} {g} {a} {r:d}\n"
              for (v0, v1, v2), g, a, r in zip(
                  mesh.elements.tolist(), mesh.gen.tolist(),
                  mesh.ancestor.tolist(), mesh.red_son.tolist())]
    return "".join(lines)


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


def longest_edge_references(mesh: Mesh) -> np.ndarray:
    """The rotated triples of ``assign_reference_edges(mesh, "longest-edge")``."""
    tris = mesh.elements.copy()
    for t in range(mesh.n_elements):
        v = [int(x) for x in tris[t]]
        pts = [point(mesh, i) for i in v]
        # rotation r puts edge (v[r], v[r+1]) first; tie-break by the
        # smallest opposite-vertex id
        def key(r):
            length = math.dist(pts[r], pts[(r + 1) % 3])
            return (-length, v[(r + 2) % 3])
        rot = min(range(3), key=key)
        tris[t] = [v[rot], v[(rot + 1) % 3], v[(rot + 2) % 3]]
    return tris


def element_point_distance(mesh: Mesh, t: int, p) -> float:
    tri = coords(mesh, t)
    if point_in_triangle(p, *tri):
        return 0.0
    return min(point_segment_distance(p, tri[0], tri[1]),
               point_segment_distance(p, tri[1], tri[2]),
               point_segment_distance(p, tri[2], tri[0]))


def dorfler_indicators(mesh: Mesh, x0, alpha: float) -> np.ndarray:
    """The ``dorfler`` indicators sqrt|T| * |centroid(T) - x0|**(-alpha)."""
    etas = np.empty(mesh.n_elements)
    for t in range(mesh.n_elements):
        cx = float(mesh.vertices[mesh.elements[t], 0].mean())
        cy = float(mesh.vertices[mesh.elements[t], 1].mean())
        dist = math.dist((cx, cy), x0)
        etas[t] = math.sqrt(area(mesh, t)) * dist ** (-alpha)
    return etas


def select_marked(mesh: Mesh, config) -> list[int]:
    """``select_marked``'s per-element loops (``corner`` and ``dorfler``)."""
    n = mesh.n_elements
    if config.strategy == "corner":
        p = config.corner
        return [t for t in range(n)
                if element_point_distance(mesh, t, p) <= config.radius]
    if config.strategy == "dorfler":
        # synthetic corner-singularity indicator with greedy bulk selection
        etas = dorfler_indicators(mesh, config.corner, config.alpha)
        order = sorted(range(n), key=lambda t: (-etas[t], t))
        total = float(etas.sum())
        marked, acc = [], 0.0
        for t in order:
            marked.append(t)
            acc += float(etas[t])
            if acc >= config.theta * total:
                break
        return sorted(marked)
    raise ValueError(f"no loop oracle for strategy {config.strategy!r}")


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


def _bhat(exps) -> np.ndarray:
    """Scaled element mass matrices (d_j/d_k + d_k/d_j) * (1 + delta_jk) for
    exponent triples of shape (..., 3); the smallest eigenvalue of each is
    the closed form 5 - sqrt(S_T) of ``check_conditions``."""
    e = np.asarray(exps, dtype=np.float64)
    r = 2.0 ** ((e[..., :, None] - e[..., None, :]) / 2.0)
    return (r + 1.0 / r) * (np.ones((3, 3)) + np.eye(3))


@dataclass
class ElementCondition:
    elem: int
    exponent_spread: int      # max_j e_j - min_j e_j within the element
    ratio: float              # 2**(spread/2)
    s_sum: float              # sum over j,k of d_j^2 / d_k^2
    lam_min_closed: float     # 5 - sqrt(s_sum)
    passes: bool


def conditions(mesh: Mesh, weights: NodeWeights, with_c78: bool = True
               ) -> tuple[list[ElementCondition], dict[str, float]]:
    """Element-by-element evaluation of the stability conditions, with two
    generalized eigensolves per element: the conditions, one per element,
    and the realized constants, keyed as ``StabilityReport`` names them
    (the two quadratic-form constants only ``with_c78``)."""
    elements: list[ElementCondition] = []
    exps = weights.exponents
    max_spread = 0
    max_s_sum, min_lam = 0.0, math.inf
    for t in range(mesh.n_elements):
        e = [int(exps[int(v)]) for v in mesh.elements[t]]
        spread = max(e) - min(e)
        max_spread = max(max_spread, spread)
        ratio = 2.0 ** (spread / 2.0)
        s_sum = float(sum(2.0 ** (a - b) for a in e for b in e))
        lam_closed = 5.0 - math.sqrt(s_sum)
        passes = (spread <= 2) and (s_sum < 25.0) and (lam_closed > 0.0)
        elements.append(ElementCondition(
            elem=t, exponent_spread=spread, ratio=ratio, s_sum=s_sum,
            lam_min_closed=lam_closed, passes=passes))
        max_s_sum = max(max_s_sum, s_sum)
        min_lam = min(min_lam, lam_closed)

    max_ratio = 2.0 ** (max_spread / 2.0)
    r = max(max_ratio, 1.0)
    constants = {"max_ratio": max_ratio,
                 "relaxed_ratio_value": 1.0 + r * r + 1.0 / (r * r),
                 "max_s_sum": max_s_sum, "min_lam": min_lam}

    c6 = 0.0
    d = weights.values
    for t in range(mesh.n_elements):
        p0, p1, p2 = coords(mesh, t)
        h = max(math.dist(p0, p1), math.dist(p1, p2), math.dist(p2, p0))
        for v in mesh.elements[t]:
            val = d[int(v)] / h
            c6 = max(c6, val, 1.0 / val)
    constants["weight_size_ratio"] = c6

    if with_c78:
        c7 = c8 = 0.0
        mass_hat = np.ones((3, 3)) + np.eye(3)
        for cond in elements:
            t = cond.elem
            e = [int(exps[int(v)]) for v in mesh.elements[t]]
            p0, p1, p2 = coords(mesh, t)
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
        constants["scaled_quartic_bound"] = c7
        constants["scaled_mass_bound"] = c8
    return elements, constants


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
                             "parents (a mesh read from a file records none); "
                             "meshes are not a refinement chain")
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
    a, b = point(mesh, e[0]), point(mesh, e[1])
    return (a, b) if a <= b else (b, a)


def build_corr(left: Mesh, right: Mesh) -> dict[Pair, Pair]:
    """Reconstruct the correspondence between two mesh states.

    Elements with identical coordinate triples are mapped identically;
    the remaining ones must pair up as red-vs-bisec3 diamond halves.
    """
    if left.n_elements != right.n_elements:
        raise CorrespondenceError(
            f"element counts differ: {left.n_elements} vs {right.n_elements}")

    right_by_triple = {coords(right, s): s for s in range(right.n_elements)}
    if len(right_by_triple) != right.n_elements:
        raise CorrespondenceError("right mesh has duplicate coordinate triples")

    pairs: dict[Pair, Pair] = {}
    deferred: list[int] = []
    matched_right: set[int] = set()
    for t in range(left.n_elements):
        s = right_by_triple.get(coords(left, t))
        if s is None:
            deferred.append(t)
            continue
        matched_right.add(s)
        le = edges_of(left, t)
        re = edges_of(right, s)
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
            ref = ref_edge(mesh, t)
            inc = table[ref]
            if len(inc) != 2:
                raise CorrespondenceError(
                    f"{label} element {t} has no diamond partner")
            other = inc[0] if inc[1] == t else inc[1]
            if other not in unmatched or ref_edge(mesh, other) != ref:
                raise CorrespondenceError(
                    f"{label} elements {t},{other} do not form a diamond")
            used |= {t, other}
            corners = frozenset(coords(mesh, t)) | frozenset(coords(mesh, other))
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
            for f in edges_of(right, s):
                key = _geom_edge(right, f)
                local[key] = None if key in local else (s, f)
        for t in (p, q):
            e_ref, e1, e2 = edges_of(left, t)
            im1 = local.get(_geom_edge(left, e1))
            im2 = local.get(_geom_edge(left, e2))
            if im1 is None or im2 is None or im1[0] == im2[0]:
                raise CorrespondenceError(
                    f"element {t} does not fit the diamond template")
            pairs[(t, e1)] = im1
            pairs[(t, e2)] = im2
            s2 = im2[0]
            pairs[(t, e_ref)] = (s2, ref_edge(right, s2))

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


def transfer_marking(pairs: dict[Pair, Pair], left: Mesh, right: Mesh,
                     marking: MarkingInput) -> MarkingInput:
    """Push marked elements and edges through the correspondence."""
    marked = edge_keys(left, marking.edges)
    src = [(t, e) for t in sorted(marking.elements)
           for e in edges_of(left, t) if e in marked]
    images = [pairs[p] for p in src]
    return MarkingInput((s for s, _ in images),
                           edge_ids(right, (f for _, f in images)))


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
        ratio = area(a, t) / area(b, s)
        if not (0.25 <= ratio <= 4.0):
            report.add("area_band", t, s, ratio)
        # (iii) reference edges map to reference edges, both directions
        if (e == ref_edge(a, t)) != (f == ref_edge(b, s)):
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
            mutual_src = (e == ref_edge(src, t1) and e == ref_edge(src, t2))
            mutual_dst = (f1 == ref_edge(dst, s1) and f1 == ref_edge(dst, s2))
            one_src = (e == ref_edge(src, t1)) + (e == ref_edge(src, t2))
            one_dst = (f1 == ref_edge(dst, s1)) + (f1 == ref_edge(dst, s2))
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
        s_ref, f_ref = pairs[(t, ref_edge(a, t))]
        for e in edges_of(a, t):
            s, f = pairs[(t, e)]
            if ref_edge(b, s) != f_ref:
                report.add("ref_pair_dominates_fwd", t, e, s)
    for s in range(b.n_elements):
        t_ref, e_ref = inv[(s, ref_edge(b, s))]
        for f in edges_of(b, s):
            t, e = inv[(s, f)]
            if ref_edge(a, t) != e_ref:
                report.add("ref_pair_dominates_bwd", s, f, t)

    # no element spreads its incidence pairs over more than 2 images
    for t in range(a.n_elements):
        images = {pairs[(t, e)][0] for e in edges_of(a, t)}
        if len(images) > 2:
            report.add("image_spread", t, sorted(images))

    return report


# -- overlay and mesh identity ---------------------------------------------------


def _bisect_triple(tri):
    p0, p1, p2 = tri
    m = midpoint(p0, p1)
    return (p2, p0, m), (p1, p2, m)


def overlay(a: Mesh, b: Mesh, initial: Mesh) -> Mesh:
    """The recursive ``nvbmesh.refine.overlay``: per initial element, a
    depth-first descent of the union of the two bisection trees over sets
    of coordinate triples; raises ValueError for an initial mesh with an
    element of a generation above 0 or without an input's ancestor ids, and
    where it descends past the deepest input generation, as it does below a
    red son or from a foreign initial mesh."""
    if any(int(g) != 0 for g in initial.gen):
        raise ValueError("the initial mesh has an element of a generation above 0")
    leaves_a: list[set] = [set() for _ in range(initial.n_elements)]
    leaves_b: list[set] = [set() for _ in range(initial.n_elements)]
    for mesh, leaves in ((a, leaves_a), (b, leaves_b)):
        for t in range(mesh.n_elements):
            anc = int(mesh.ancestor[t])
            if anc >= initial.n_elements:
                raise ValueError(f"element {t} has ancestor id {anc}, beyond "
                                 "the initial mesh")
            leaves[anc].add(coords(mesh, t))
    depth_cap = int(max(a.gen.max(), b.gen.max()))

    node_id: dict[tuple[float, float], int] = {}
    xy: list[tuple[float, float]] = []

    def nid(p: tuple[float, float]) -> int:
        i = node_id.get(p)
        if i is None:
            i = len(xy)
            node_id[p] = i
            xy.append(p)
        return i

    tris: list[tuple[int, int, int]] = []
    gens: list[int] = []
    ancs: list[int] = []

    for i in range(initial.n_elements):
        la, lb = leaves_a[i], leaves_b[i]
        stack = [(coords(initial, i), 0, True, True)]
        while stack:
            tri, g, in_a, in_b = stack.pop()
            leaf_a = in_a and tri in la
            leaf_b = in_b and tri in lb
            interior_a = in_a and not leaf_a
            interior_b = in_b and not leaf_b
            if interior_a or interior_b:
                if g >= depth_cap:
                    raise ValueError(
                        "overlay descent exceeded the maximum generation; "
                        "inputs are not refinements of the given initial mesh")
                left, right = _bisect_triple(tri)
                stack.append((right, g + 1, interior_a, interior_b))
                stack.append((left, g + 1, interior_a, interior_b))
            else:
                tris.append((nid(tri[0]), nid(tri[1]), nid(tri[2])))
                gens.append(g)
                ancs.append(i)

    return Mesh(np.array(xy, dtype=np.float64),
                np.array(tris, dtype=np.int64),
                gen=gens, ancestor=ancs)


def canonical_form(mesh: Mesh):
    """Renumbering-invariant description: sorted (coords triple, gen, red) list.

    The reference edge is implied by the triple's rotation; CCW triples that
    differ only by which vertex is listed first denote different reference
    edges and are kept distinct.
    """
    return sorted((*coords(mesh, t), int(mesh.gen[t]), bool(mesh.red_son[t]))
                  for t in range(mesh.n_elements))


def same_mesh(a: Mesh, b: Mesh) -> bool:
    """The sorted-tuple ``nvbmesh.mesh.same_mesh``."""
    return canonical_form(a) == canonical_form(b)
