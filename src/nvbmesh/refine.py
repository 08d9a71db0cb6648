"""Closure fixpoints and element splitting for the four refinement dialects.

The dialects are

* ``refineNVB``     -- marked elements seed their reference edges; fully
  marked elements are refined by three bisections,
* ``refineNVB3``    -- arbitrary marked-edge seeds, bisections only,
* ``refineNVBred``  -- fully marked elements may be red-refined,
* ``refine``        -- fully marked elements may use bisec(3), red, or
  bisec(5).

A closure pass extends the marked-edge set to the unique minimal fixpoint
with the property that whenever any edge of an element is marked, so is
its reference edge.  The splitter then refines every element according to
its marked edges in a single sweep; by the closure property the resulting
partition is conforming.

Son ordering and generation bookkeeping (T = (v0, v1, v2), reference edge
(v0, v1), m = midpoint(v0, v1)): bisecting T yields (v2, v0, m) and
(v1, v2, m), both at gen+1, with reference edges opposite the new vertex.
Deeper patterns iterate this rule; red refinement splits T via the three
edge midpoints into four similar sons at gen+2, the two sons not meeting
(v0, v1) in more than one point being flagged as red sons.

Everything here is a pure function from immutable meshes to new meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import _geom
from .mesh import EdgeKey, Mesh, PrecisionExhausted, reference_neighbor

PATTERN_NONE = "none"
BISEC1 = "bisec1"
BISEC2_LEFT = "bisec2_left"
BISEC2_RIGHT = "bisec2_right"
BISEC3 = "bisec3"
BISEC5 = "bisec5"
RED = "red"

FULL_PATTERNS = (BISEC3, RED, BISEC5)

# Split templates.  Local nodes: 0-2 the vertices v0, v1, v2 of T; 3-5 the
# midpoints m01, m12, m20 of its edges; 6 the bisec(5) interior node, the
# midpoint of (m01, v2).  A son is (local-node triple, gen increment, red
# flag), the flag -1 keeping the father's.
_SONS = {
    PATTERN_NONE: ((0, 1, 2, 0, -1),),
    BISEC1: ((2, 0, 3, 1, 0), (1, 2, 3, 1, 0)),
    BISEC2_LEFT: ((2, 0, 3, 1, 0), (3, 1, 4, 2, 0), (2, 3, 4, 2, 0)),
    BISEC2_RIGHT: ((3, 2, 5, 2, 0), (0, 3, 5, 2, 0), (1, 2, 3, 1, 0)),
    BISEC3: ((3, 2, 5, 2, 0), (0, 3, 5, 2, 0), (3, 1, 4, 2, 0),
             (2, 3, 4, 2, 0)),
    BISEC5: ((5, 3, 6, 3, 0), (2, 5, 6, 3, 0), (0, 3, 5, 2, 0),
             (3, 1, 4, 2, 0), (4, 2, 6, 3, 0), (3, 4, 6, 3, 0)),
    RED: ((0, 3, 5, 2, 0), (3, 1, 4, 2, 0), (5, 4, 2, 2, 1), (4, 5, 3, 2, 1)),
}
_PATTERN_ID = {p: i for i, p in enumerate(_SONS)}
_N_SONS = np.array([len(sons) for sons in _SONS.values()])
# new nodes each pattern needs: m01, m12, m20, interior
_NEEDS = np.array([[any(n in son[:3] for son in sons) for n in (3, 4, 5, 6)]
                   for sons in _SONS.values()])
# pattern by marked edges of an element, bit i for edge i
_BY_MARKS = (PATTERN_NONE, BISEC1, None, BISEC2_LEFT,
             None, BISEC2_RIGHT, None, BISEC3)

DIALECTS = ("refineNVB", "refineNVB3", "refineNVBred", "refine")


class UnsupportedRefinementError(ValueError):
    """Raised for operations outside a dialect's or overlay's scope."""


@dataclass(frozen=True)
class MarkingInput:
    """Marked elements plus, for the modified dialects, marked edges.

    Every marked edge must lie in at least one marked element.
    """

    elements: frozenset[int]
    edges: frozenset[EdgeKey] = frozenset()

    @staticmethod
    def of(elements: Iterable[int], edges: Iterable[EdgeKey] = ()) -> "MarkingInput":
        return MarkingInput(frozenset(int(t) for t in elements),
                            frozenset(edges))

    @staticmethod
    def all_edges(mesh: Mesh, elements: Iterable[int]) -> "MarkingInput":
        """Mark the given elements with all three of their edges."""
        elems = frozenset(int(t) for t in elements)
        ids = mesh.edge_table.element2edges[sorted(elems)].ravel()
        return MarkingInput(elems, frozenset(
            map(tuple, mesh.edge_table.edge2nodes[ids].tolist())))


@dataclass(frozen=True)
class PatternPolicy:
    """Chooses among bisec(3) / red / bisec(5) for fully marked elements."""

    name: str
    rule: Callable[[int, bool], str]

    def choose(self, elem: int, is_marked: bool) -> str:
        pattern = self.rule(elem, is_marked)
        if pattern not in FULL_PATTERNS:
            raise ValueError(f"policy {self.name!r} returned {pattern!r}")
        return pattern

    @staticmethod
    def always_bisec3() -> "PatternPolicy":
        return PatternPolicy("always_bisec3", lambda t, m: BISEC3)

    @staticmethod
    def always_red() -> "PatternPolicy":
        return PatternPolicy("always_red", lambda t, m: RED)

    @staticmethod
    def interior_node() -> "PatternPolicy":
        """bisec(5) on marked elements, bisec(3) on closure fill-ins."""
        return PatternPolicy("interior_node",
                             lambda t, m: BISEC5 if m else BISEC3)

    @staticmethod
    def custom(fn: Callable[[int, bool], str], name: str = "custom") -> "PatternPolicy":
        return PatternPolicy(name, fn)


@dataclass(frozen=True)
class RefinementPlan:
    """Closure fixpoint output: the marked-edge set and per-element patterns."""

    closed_edges: frozenset[EdgeKey]
    pattern: tuple[str, ...]
    iterations: int
    marked_elements: frozenset[int]
    seed_edges: frozenset[EdgeKey]
    mode: str

    def refined_elements(self) -> frozenset[int]:
        return frozenset(t for t, p in enumerate(self.pattern)
                         if p != PATTERN_NONE)


@dataclass(frozen=True)
class StepRecord:
    """One refinement step of a trace."""

    step: int
    n_marked: int
    n_marked_edges: int
    closure_iterations: int
    n_refined: int
    n_elements: int


def trace_to_csv(records: Iterable[StepRecord]) -> str:
    lines = ["step,marked,marked_edges,closure_iters,refined,elements"]
    for r in records:
        lines.append(f"{r.step},{r.n_marked},{r.n_marked_edges},"
                     f"{r.closure_iterations},{r.n_refined},{r.n_elements}")
    return "\n".join(lines) + "\n"


# -- closure ------------------------------------------------------------------


def close_marks(mesh: Mesh, marking: MarkingInput, mode: str = "mnvb") -> RefinementPlan:
    """Extend the marked-edge seed to the minimal conforming fixpoint.

    In ``nvb`` mode the seed is the set of reference edges of the marked
    elements and ``marking.edges`` is ignored; in ``mnvb`` mode the seed is
    ``marking.edges``.  The returned plan assigns ``bisec3`` to fully
    marked elements as a placeholder for the pattern policy.
    """
    if mode not in ("nvb", "mnvb"):
        raise ValueError(f"unknown closure mode {mode!r}")
    elems = np.fromiter(marking.elements, np.int64, len(marking.elements))
    bad = elems[(elems < 0) | (elems >= mesh.n_elements)]
    if bad.size:
        raise ValueError(f"marked element {bad[0]} out of range")

    table = mesh.edge_table
    e2e, e2el = table.element2edges, table.edge2elements
    if mode == "nvb":
        frontier = e2e[elems, 0]
        seed = frozenset(map(tuple, table.edge2nodes[frontier].tolist()))
    else:
        near = e2e[elems].ravel()
        near_id = dict(zip(map(tuple, table.edge2nodes[near].tolist()),
                           near.tolist()))
        for e in marking.edges:
            if e not in near_id:
                raise ValueError(f"marked edge {e} " + (
                    "lies in no marked element"
                    if e in map(tuple, table.edge2nodes.tolist())
                    else "is not an edge of the mesh"))
        frontier = np.array([near_id[e] for e in marking.edges],
                            dtype=np.int64)
        seed = frozenset(marking.edges)

    # frontier edges -> incident elements -> their reference edges
    marked = np.zeros(table.edge2nodes.shape[0], dtype=bool)
    marked[frontier] = True
    iterations = 0
    while frontier.size:
        inc = e2el[frontier].ravel()
        refs = e2e[inc[inc >= 0], 0]
        frontier = np.unique(refs[~marked[refs]])
        if not frontier.size:
            break
        marked[frontier] = True
        iterations += 1

    inside = marked[e2e]
    assert not (inside[:, 1:].any(axis=1) & ~inside[:, 0]).any(), \
        "closure fixpoint violated: marked edge without ref"
    bits = inside[:, 0] + 2 * inside[:, 1] + 4 * inside[:, 2]
    return RefinementPlan(
        closed_edges=frozenset(map(tuple, table.edge2nodes[marked].tolist())),
        pattern=tuple(map(_BY_MARKS.__getitem__, bits.tolist())),
        iterations=iterations,
        marked_elements=frozenset(marking.elements),
        seed_edges=seed,
        mode=mode)


# -- splitting ----------------------------------------------------------------


def split(mesh: Mesh, plan: RefinementPlan, policy: PatternPolicy | None = None) -> Mesh:
    """Refine every element according to the plan; returns a new mesh.

    Fully marked elements get their final pattern from the policy
    (default: three bisections).  Every closed edge is halved; the only
    other new nodes are bisec(5) interior nodes.  New nodes are numbered
    by first use in element order, within an element in the order m01,
    m12, m20, interior node.  Raises PrecisionExhausted on an inexact one.
    """
    m = mesh.n_elements
    if len(plan.pattern) != m:
        raise ValueError("plan does not match mesh (element count differs)")
    if not plan.closed_edges:
        return mesh
    pid = np.array([_PATTERN_ID.get(p, -1) for p in plan.pattern])
    if (pid < 0).any():
        raise ValueError(f"unknown pattern {plan.pattern[np.argmin(pid)]!r}")
    if policy is None:
        policy = PatternPolicy.always_bisec3()
    full = [t for t, p in enumerate(plan.pattern) if p in FULL_PATTERNS]
    pid[full] = [_PATTERN_ID[policy.choose(t, t in plan.marked_elements)]
                 for t in full]

    table = mesh.edge_table
    n_edges, n_old = table.edge2nodes.shape[0], mesh.n_vertices
    # new node keys: edge id for a midpoint, n_edges + t for T's interior node
    keys = np.concatenate([table.element2edges,
                           n_edges + np.arange(m)[:, None]], axis=1)
    needs = _NEEDS[pid]
    uniq, first = np.unique(keys[needs], return_index=True)
    if np.count_nonzero(uniq < n_edges) != len(plan.closed_edges):
        raise ValueError("plan does not match mesh (closed edges differ)")
    order = np.argsort(first)
    new_keys, first = uniq[order], first[order]
    node = np.full(n_edges + m, -1)
    node[new_keys] = np.arange(n_old, n_old + new_keys.size)
    local = np.concatenate([mesh.elements, node[keys]], axis=1)

    is_edge = new_keys < n_edges
    vparents = np.empty((new_keys.size, 2), dtype=np.int64)
    vparents[is_edge] = table.edge2nodes[new_keys[is_edge]]
    vparents[~is_edge] = local[new_keys[~is_edge] - n_edges][:, [2, 3]]
    verts = np.concatenate([mesh.vertices, np.empty((new_keys.size, 2))])
    # edge midpoints first: an interior node halves (v2, m01)
    for sel in (is_edge, ~is_edge):
        a, b = vparents[sel].T
        verts[n_old + np.flatnonzero(sel)] = (verts[a] + verts[b]) / 2.0
    a, b, mid = verts[vparents[:, 0]], verts[vparents[:, 1]], verts[n_old:]
    inexact = ((mid - a != b - mid).any(axis=1)
               | (mid == a).all(axis=1) | (mid == b).all(axis=1))
    if inexact.any():
        i = int(np.argmax(inexact))
        t = int(np.nonzero(needs)[0][first[i]])
        raise PrecisionExhausted(
            f"midpoint of nodes {tuple(vparents[i].tolist())} in element {t} "
            f"of generation {mesh.gen[t]} is not exact in double precision")

    n_sons = _N_SONS[pid]
    at = np.cumsum(n_sons) - n_sons
    parents = np.repeat(np.arange(m), n_sons)
    tris = np.empty((parents.size, 3), dtype=np.int64)
    gens, reds = mesh.gen[parents], mesh.red_son[parents]
    for p, sons in enumerate(_SONS.values()):
        ts = np.flatnonzero(pid == p)
        nodes = local[ts]
        for j, (*triple, dgen, red) in enumerate(sons):
            rows = at[ts] + j
            tris[rows] = nodes[:, triple]
            gens[rows] += dgen
            reds[rows] = reds[rows] if red < 0 else red
    root = mesh if mesh.initial is None and mesh.is_initial else mesh.initial
    return Mesh(verts, tris, gen=gens, ancestor=mesh.ancestor[parents],
                red_son=reds, initial=root, parent_elems=parents,
                vertex_parents=np.concatenate([mesh.vertex_parents, vparents]),
                has_red_history=mesh.has_red_history or _PATTERN_ID[RED] in pid,
                has_bisec5_history=(mesh.has_bisec5_history
                                    or _PATTERN_ID[BISEC5] in pid))


def refine_step(mesh: Mesh, marking: MarkingInput, dialect: str,
                policy: PatternPolicy | None = None) -> tuple[Mesh, frozenset[int]]:
    """One step of the chosen dialect: closure, policy override, split.

    Returns the refined mesh and the set of refined element ids
    (elements of the input mesh that were split).
    """
    new, refined, _ = step_with_plan(mesh, marking, dialect, policy)
    return new, refined


def step_with_plan(mesh: Mesh, marking: MarkingInput, dialect: str,
                   policy: PatternPolicy | None = None
                   ) -> tuple[Mesh, frozenset[int], RefinementPlan]:
    """refine_step variant that also hands back the closure plan."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}; one of {DIALECTS}")
    if dialect in ("refineNVB", "refineNVB3"):
        if policy is not None and policy.name != "always_bisec3":
            raise ValueError(f"{dialect} admits only three-bisection refinement")
        policy = PatternPolicy.always_bisec3()
    mode = "nvb" if dialect == "refineNVB" else "mnvb"
    plan = close_marks(mesh, marking, mode=mode)
    if dialect == "refineNVBred" and policy is not None:
        guarded = policy

        def no_bisec5(t, m, _inner=guarded):
            p = _inner.choose(t, m)
            if p == BISEC5:
                raise UnsupportedRefinementError(
                    "refineNVBred forbids bisec(5) refinement")
            return p

        policy = PatternPolicy.custom(no_bisec5, name=guarded.name)
    refined = plan.refined_elements()
    return split(mesh, plan, policy), refined, plan


def chain(mesh: Mesh, t: int) -> list[int]:
    """Sequence of distinct elements bisected when only t is marked.

    Follows reference neighbors until the boundary or an element already
    in the sequence is reached.
    """
    if not 0 <= t < mesh.n_elements:
        raise ValueError(f"element id {t} out of range")
    out = [t]
    seen = {t}
    cur = t
    while True:
        nxt = reference_neighbor(mesh, cur)
        if nxt is None or nxt in seen:
            return out
        out.append(nxt)
        seen.add(nxt)
        cur = nxt


def uniform(mesh: Mesh, kind: str) -> Mesh:
    """Uniform refinement: 'bisec1' marks everything under refineNVB,
    'bisec3' halves every edge (4 sons per element, no spillover)."""
    everything = range(mesh.n_elements)
    if kind == "bisec1":
        new, _ = refine_step(mesh, MarkingInput.of(everything), "refineNVB")
        return new
    if kind == "bisec3":
        marking = MarkingInput.all_edges(mesh, everything)
        plan = close_marks(mesh, marking, mode="mnvb")
        return split(mesh, plan, PatternPolicy.always_bisec3())
    raise ValueError(f"unknown uniform kind {kind!r}")


# -- bisection forest and overlay ---------------------------------------------

Triple = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


@dataclass
class TreeNode:
    """Node of a bisection tree: ordered coordinate triple plus level."""

    triple: Triple
    gen: int
    sons: tuple["TreeNode", "TreeNode"] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.sons is None


def _bisect_triple(tri: Triple) -> tuple[Triple, Triple]:
    p0, p1, p2 = tri
    m = _geom.midpoint(p0, p1)
    return (p2, p0, m), (p1, p2, m)


@dataclass
class BisectionForest:
    """Per initial element, the binary tree of bisections leading to a mesh.

    Reconstructed structurally: a tree node is a leaf iff its coordinate
    triple appears in the refined mesh.  Exact dyadic midpoint arithmetic
    makes the coordinate matching exact.
    """

    initial: Mesh
    roots: list[TreeNode] = field(default_factory=list)

    @staticmethod
    def from_mesh(mesh: Mesh, initial: Mesh | None = None) -> "BisectionForest":
        if mesh.has_red_history or mesh.has_bisec5_history:
            raise UnsupportedRefinementError(
                "bisection forest requires a pure-bisection refinement")
        root_mesh = initial if initial is not None else mesh.initial_mesh
        targets: list[dict[Triple, int]] = [dict() for _ in range(root_mesh.n_elements)]
        for t in range(mesh.n_elements):
            targets[int(mesh.ancestor[t])][mesh.coords(t)] = int(mesh.gen[t])
        max_gen = int(mesh.gen.max())
        forest = BisectionForest(initial=root_mesh)
        for i in range(root_mesh.n_elements):
            if not targets[i]:
                raise UnsupportedRefinementError(
                    f"initial element {i} has no descendant in the mesh")

            def grow(tri: Triple, g: int, leaves=targets[i]) -> TreeNode:
                got = leaves.get(tri)
                if got is not None:
                    if got != g:
                        raise UnsupportedRefinementError(
                            f"generation mismatch at {tri}: {got} != {g}")
                    return TreeNode(tri, g)
                if g > max_gen:
                    raise UnsupportedRefinementError(
                        "mesh is not a bisection refinement of the initial mesh")
                left, right = _bisect_triple(tri)
                return TreeNode(tri, g, (grow(left, g + 1), grow(right, g + 1)))

            forest.roots.append(grow(root_mesh.coords(i), int(root_mesh.gen[i])))
        return forest

    def leaf_count(self) -> int:
        def count(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return count(node.sons[0]) + count(node.sons[1])

        return sum(count(r) for r in self.roots)


def overlay(a: Mesh, b: Mesh) -> Mesh:
    """Coarsest common refinement of two pure-NVB meshes over one initial mesh.

    Per initial element the union of the two bisection trees is taken; the
    element count satisfies #overlay <= #a + #b - #initial.
    """
    for m in (a, b):
        if m.has_red_history or m.has_bisec5_history:
            raise UnsupportedRefinementError(
                "overlay is defined for pure-bisection meshes only")
    ra, rb = a.initial_mesh, b.initial_mesh
    if ra is not rb:
        same = (np.array_equal(ra.vertices, rb.vertices)
                and np.array_equal(ra.elements, rb.elements))
        if not same:
            raise ValueError("overlay requires refinements of the same initial mesh")

    leaves_a: list[set[Triple]] = [set() for _ in range(ra.n_elements)]
    leaves_b: list[set[Triple]] = [set() for _ in range(ra.n_elements)]
    for t in range(a.n_elements):
        leaves_a[int(a.ancestor[t])].add(a.coords(t))
    for t in range(b.n_elements):
        leaves_b[int(b.ancestor[t])].add(b.coords(t))
    depth_cap = int(max(a.gen.max(), b.gen.max()))

    node_id: dict[tuple[float, float], int] = {}
    coords: list[tuple[float, float]] = []

    def nid(p: tuple[float, float]) -> int:
        i = node_id.get(p)
        if i is None:
            i = len(coords)
            node_id[p] = i
            coords.append(p)
        return i

    tris: list[tuple[int, int, int]] = []
    gens: list[int] = []
    ancs: list[int] = []

    for i in range(ra.n_elements):
        la, lb = leaves_a[i], leaves_b[i]
        stack = [(ra.coords(i), int(ra.gen[i]), True, True)]
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

    return Mesh(np.array(coords, dtype=np.float64),
                np.array(tris, dtype=np.int64),
                gen=gens, ancestor=ancs,
                initial=ra)
