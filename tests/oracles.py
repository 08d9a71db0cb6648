"""Loop-based reference implementations the package is tested against.

``edge_table``, ``closure`` and ``split`` are the straightforward dict/loop
versions of ``nvbmesh.mesh.build_edge_table``, the fixpoint of
``nvbmesh.refine.close_marks`` and ``nvbmesh.refine.split``;
``brute_force_closure`` finds the closure fixpoint by exhaustive search.
"""

from __future__ import annotations

import numpy as np

from nvbmesh import _geom
from nvbmesh.mesh import EdgeKey, Mesh, edge_key
from nvbmesh.refine import (BISEC1, BISEC2_LEFT, BISEC2_RIGHT, BISEC3, BISEC5,
                            FULL_PATTERNS, PATTERN_NONE, RED, PatternPolicy,
                            RefinementPlan)


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
