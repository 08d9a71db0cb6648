"""Loop-based reference implementations the package is tested against.

``edge_table``, ``closure`` and ``split`` are the straightforward dict/loop
versions of ``nvbmesh.mesh.build_edge_table``, the fixpoint of
``nvbmesh.refine.close_marks`` and ``nvbmesh.refine.split``;
``brute_force_closure`` finds the closure fixpoint by exhaustive search.
``area_identity_and_diameter_scale`` is the per-element loop of
``nvbmesh.analysis.verify_levels``.  ``DeltaDistance`` evaluates the
element-path distance of the nodal weights by breadth-first search,
``brute_force_weight_exponents`` evaluates the weight definition directly
from all-pairs node-to-element distances, and ``conditions`` is the
per-element loop of ``nvbmesh.stability.check_conditions``.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse import csgraph

from nvbmesh import _geom
from nvbmesh.mesh import EdgeKey, Mesh, edge_key
from nvbmesh.refine import (BISEC1, BISEC2_LEFT, BISEC2_RIGHT, BISEC3, BISEC5,
                            FULL_PATTERNS, PATTERN_NONE, RED, PatternPolicy,
                            RefinementPlan)
from nvbmesh.stability import (ElementCondition, NodeWeights, StabilityReport,
                               _bhat)


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
    all_edges = sorted(mesh.edge_table)
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


# -- verify_levels ----------------------------------------------------------


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
