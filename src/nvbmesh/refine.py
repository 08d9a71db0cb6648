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
its reference edge, and names every element's pattern: bisec(1) or
bisec(2) from its marked edges, and for a fully marked element the pattern
policy's choice among bisec(3), red and bisec(5).  The splitter then
refines every element by the pattern its plan names in a single sweep; by
the closure property the resulting partition is conforming.

Son ordering and generation bookkeeping (T = (v0, v1, v2), reference edge
(v0, v1), m = midpoint(v0, v1)): bisecting T yields (v2, v0, m) and
(v1, v2, m), both at gen+1, with reference edges opposite the new vertex.
Deeper patterns iterate this rule; red refinement splits T via the three
edge midpoints into four similar sons at gen+2, the two sons not meeting
(v0, v1) in more than one point being flagged as red sons.

Everything here is a pure function from immutable meshes to new meshes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import _geom
from .mesh import Mesh, PrecisionExhausted, _check_initial, _frozen, _sorted_unique
from .meshio import _csv

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
# flag); ``split`` copies an element whose pattern is none, flag and all.
_SONS = {
    BISEC1: ((2, 0, 3, 1, 0), (1, 2, 3, 1, 0)),
    BISEC2_LEFT: ((2, 0, 3, 1, 0), (3, 1, 4, 2, 0), (2, 3, 4, 2, 0)),
    BISEC2_RIGHT: ((3, 2, 5, 2, 0), (0, 3, 5, 2, 0), (1, 2, 3, 1, 0)),
    BISEC3: ((3, 2, 5, 2, 0), (0, 3, 5, 2, 0), (3, 1, 4, 2, 0),
             (2, 3, 4, 2, 0)),
    BISEC5: ((5, 3, 6, 3, 0), (2, 5, 6, 3, 0), (0, 3, 5, 2, 0),
             (3, 1, 4, 2, 0), (4, 2, 6, 3, 0), (3, 4, 6, 3, 0)),
    RED: ((0, 3, 5, 2, 0), (3, 1, 4, 2, 0), (5, 4, 2, 2, 1), (4, 5, 3, 2, 1)),
}
_N_SONS = np.array([len(sons) for sons in _SONS.values()])
# new nodes each pattern needs: m01, m12, m20, interior
_NEEDS = np.array([[any(n in son[:3] for son in sons) for n in (3, 4, 5, 6)]
                   for sons in _SONS.values()])
# pattern by marked edges of an element, bit i for edge i ('' never occurs:
# a closed element with a marked edge has its reference edge marked)
_BY_MARKS = np.array([PATTERN_NONE, BISEC1, "", BISEC2_LEFT,
                      "", BISEC2_RIGHT, "", BISEC3], dtype="<U12")

DIALECTS = ("refineNVB", "refineNVB3", "refineNVBred", "refine")


class UnsupportedRefinementError(ValueError):
    """Raised for operations outside a dialect's or overlay's scope."""


@dataclass(frozen=True, eq=False)
class MarkingInput:
    """Marked elements plus, for the modified dialects, marked edges.

    ``elements`` is given as any iterable of integer element ids and held
    as a frozenset of ints.  ``edges`` names the marked edges by their ids
    in the mesh's ``edge_table``, as a read-only, sorted, unique int64
    array.  Every marked edge must lie in at least one marked element.
    """

    elements: frozenset[int]
    edges: np.ndarray = ()

    def __post_init__(self):
        elems, ids = np.asarray(self.elements), np.asarray(self.edges)
        if elems.ndim == 0 and elems.dtype == object:  # a set or a generator
            elems = np.asarray(list(self.elements))
        for name, x in (("element", elems), ("edge", ids)):
            if x.ndim != 1 or x.size and not np.issubdtype(x.dtype, np.integer):
                raise ValueError(f"marked {name}s must be a 1-D sequence of "
                                 f"{name} ids, got shape {x.shape} of {x.dtype}")
        ids = ids.astype(np.int64, copy=False)
        if (ids[1:] <= ids[:-1]).any():
            ids = _sorted_unique(ids)
        object.__setattr__(self, "elements", frozenset(elems.tolist()))
        object.__setattr__(self, "edges", _frozen(ids, np.int64))

    @staticmethod
    def all_edges(mesh: Mesh, elements: Iterable[int]) -> "MarkingInput":
        """Mark the given elements with all three of their edges; raises
        ValueError for an id that is no element of the mesh."""
        elems = MarkingInput(elements).elements
        edges = mesh.edge_table.element2edges[_element_ids(mesh, elems)]
        return MarkingInput(elems, edges.ravel())


def _element_ids(mesh: Mesh, elements: frozenset[int]) -> np.ndarray:
    """Marked element ids as an int64 array; ValueError for an id that is
    no element of the mesh."""
    ids = np.fromiter(elements, np.int64, len(elements))
    bad = ids[(ids < 0) | (ids >= mesh.n_elements)]
    if bad.size:
        raise ValueError(f"marked element {bad[0]} out of range")
    return ids


@dataclass(frozen=True)
class PatternPolicy:
    """Chooses among bisec(3) / red / bisec(5) for fully marked elements.

    ``rule(elems, is_marked)`` is asked once per closure, with the int64
    ids of all fully marked elements and, for each, whether it was marked
    itself; it returns one pattern name per element, or one name for all.
    """

    name: str
    rule: Callable[[np.ndarray, np.ndarray], object]

    def choose(self, elems: np.ndarray, is_marked: np.ndarray) -> np.ndarray:
        """The rule's name for each of ``elems``, checked against FULL_PATTERNS."""
        names = np.broadcast_to(self.rule(elems, is_marked), elems.shape)
        bad = ~np.isin(names, FULL_PATTERNS)
        if bad.any():
            raise ValueError(f"policy {self.name!r} returned "
                             f"{names[bad].tolist()[0]!r}")
        return names

    @staticmethod
    def custom(fn: Callable[[int, bool], str], name: str = "custom") -> "PatternPolicy":
        """The policy of a per-element rule: ``fn(t, is_marked)`` is called
        once per fully marked element t, in ascending id order, with a
        Python int and bool, before any name it returns is checked."""
        return PatternPolicy(name, np.frompyfunc(fn, 2, 1))


#: the named policies, by their ``--policy`` names
POLICIES = {p.name: p for p in (
    PatternPolicy(BISEC3, lambda elems, is_marked: BISEC3),
    PatternPolicy(RED, lambda elems, is_marked: RED),
    # bisec(5) on marked elements, bisec(3) on closure fill-ins
    PatternPolicy("interior-node",
                  lambda elems, is_marked: np.where(is_marked, BISEC5, BISEC3)))}


@dataclass(frozen=True, eq=False)
class RefinementPlan:
    """Closure fixpoint output.

    ``closed_edges`` and ``seed_edges`` are sorted, unique int64 arrays of
    ids in the mesh's ``edge_table``; ``pattern`` is a string array with
    the name of the pattern ``split`` applies to every element.  The plan
    holds read-only copies of the arrays it is given.
    """

    closed_edges: np.ndarray
    pattern: np.ndarray
    iterations: int
    seed_edges: np.ndarray

    def __post_init__(self):
        for name, dtype in (("closed_edges", np.int64), ("pattern", str),
                            ("seed_edges", np.int64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))


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
    return _csv("step,marked,marked_edges,closure_iters,refined,elements",
                ((r.step, r.n_marked, r.n_marked_edges, r.closure_iterations,
                  r.n_refined, r.n_elements) for r in records))


# -- closure ------------------------------------------------------------------


def close_marks(mesh: Mesh, marking: MarkingInput, mode: str = "mnvb",
                policy: PatternPolicy | None = None) -> RefinementPlan:
    """Extend the marked-edge seed to the minimal conforming fixpoint and
    name every element's pattern.

    In ``nvb`` mode the seed is the set of reference edges of the marked
    elements and ``marking.edges`` is ignored; in ``mnvb`` mode the seed is
    ``marking.edges``.  A fully marked element gets the policy's choice for
    it (default: three bisections), every other element the bisections
    its marked edges call for.
    """
    if mode not in ("nvb", "mnvb"):
        raise ValueError(f"unknown closure mode {mode!r}")
    elems = _element_ids(mesh, marking.elements)

    table = mesh.edge_table
    e2e, e2el, e2n = table.element2edges, table.edge2elements, table.edge2nodes
    if mode == "nvb":
        seed = _sorted_unique(e2e[elems, 0])
    else:
        seed = marking.edges
        bad = seed[(seed < 0) | (seed >= e2n.shape[0])]
        if bad.size:
            raise ValueError(f"marked edge {bad[0]} is not an edge of the mesh "
                             f"(it has {e2n.shape[0]} edges)")
        near = np.zeros(e2n.shape[0], dtype=bool)
        near[np.take(e2e, elems, axis=0)] = True
        lone = seed[~near[seed]]
        if lone.size:
            raise ValueError(f"marked edge {lone[0]} {tuple(e2n[lone[0]].tolist())}"
                             " lies in no marked element")
    marked = np.zeros(e2n.shape[0], dtype=bool)
    marked[seed] = True

    # frontier edges -> incident elements -> their reference edges
    frontier, iterations = seed, 0
    while frontier.size:
        inc = np.take(e2el, frontier, axis=0).ravel()
        refs = e2e[inc[inc >= 0], 0]
        frontier = _sorted_unique(refs[~marked[refs]])
        if not frontier.size:
            break
        marked[frontier] = True
        iterations += 1

    inside = marked[e2e]
    assert not (inside[:, 1:].any(axis=1) & ~inside[:, 0]).any(), \
        "closure fixpoint violated: marked edge without ref"
    closed = np.flatnonzero(marked)
    pattern = _BY_MARKS[inside[:, 0] + 2 * inside[:, 1] + 4 * inside[:, 2]]
    if policy is not None:
        full = np.flatnonzero(pattern == BISEC3)
        pattern[full] = policy.choose(full, np.isin(full, elems, kind="table"))
    return RefinementPlan(closed_edges=closed, pattern=pattern,
                          iterations=iterations, seed_edges=seed)


# -- splitting ----------------------------------------------------------------


def split(mesh: Mesh, plan: RefinementPlan) -> Mesh:
    """Refine every element by the pattern its plan names; returns a new mesh.

    Every closed edge is halved; the only other new nodes are bisec(5)
    interior nodes.  New nodes are numbered in closed-edge order, each
    interior node after its element's midpoints: by first use, as every
    element on a closed edge must halve it.  Only the refined elements are
    matched against the pattern names and cut; an element whose pattern is
    none is copied as it is.  Raises PrecisionExhausted on an inexact node.

    The helpers that build the new mesh's arrays free their temporaries
    when they return, and the node table of the refined elements is freed
    before the constructor runs: while it builds the edge table and copies
    the arrays, the only other whole-mesh arrays alive are those of the
    input mesh and the plan.
    """
    m, pattern = mesh.n_elements, plan.pattern
    if pattern.shape != (m,):
        raise ValueError("plan does not match mesh (element count differs)")
    if not plan.closed_edges.size:
        return mesh
    cut = np.flatnonzero(pattern != PATTERN_NONE)
    names = pattern[cut]
    cid = np.full(cut.size, -1)  # pattern index of each refined element
    for i, name in enumerate(_SONS):
        cid[names == name] = i
    if (cid < 0).any():
        raise ValueError(f"unknown pattern {str(names[np.argmin(cid)])!r}")
    local, verts, vparents = _new_nodes(mesh, plan, cut, cid)
    tris, gens, reds, ancestor = _sons(mesh, cut, cid, local)
    del cut, names, cid, local  # not held through the constructor
    return Mesh(verts, tris, gen=gens, ancestor=ancestor, red_son=reds,
                vertex_parents=vparents)


def _new_nodes(mesh: Mesh, plan: RefinementPlan, cut: np.ndarray,
               cid: np.ndarray) -> tuple[np.ndarray, ...]:
    """The local nodes of each refined element, as a (len(cut), 7) array of
    vertex ids in the order of ``_SONS``, and the new mesh's vertices and
    vertex parents, numbered in closed-edge order with each interior node
    merged in after its element's midpoints; raises PrecisionExhausted on
    an inexact node."""
    table = mesh.edge_table
    n_old, closed = mesh.n_vertices, plan.closed_edges
    edges = np.take(table.element2edges, cut, axis=0)
    needs = _NEEDS[cid]
    halving = np.bincount(edges[needs[:, :3]], minlength=table.edge2nodes.shape[0])
    if not np.array_equal(np.flatnonzero(halving), closed):
        raise ValueError("plan does not match mesh (closed edges differ)")
    inside = table.edge2elements[:, 1][closed] >= 0
    for e in closed[halving[closed] <= inside][:1].tolist():
        raise ValueError("plan does not match mesh (closed edge "
                         f"{tuple(table.edge2nodes[e].tolist())} halved on one side)")
    first = table.edge2elements[:, 0][closed]  # where each is first touched
    inner = np.flatnonzero(needs[:, 3])  # the rows of cut with an interior node
    at = np.arange(closed.size) + np.searchsorted(cut[inner], first)
    at5 = np.searchsorted(first, cut[inner], side="right") + np.arange(inner.size)
    node = np.full(halving.size, -1)
    node[closed] = n_old + at
    local = np.concatenate([np.take(mesh.elements, cut, axis=0), node[edges],
                            np.full((cut.size, 1), -1)], axis=1)
    local[inner, 6] = n_old + at5
    order = np.empty(at.size + at5.size, dtype=np.int64)  # source row of each node
    order[at], order[at5] = np.arange(at.size), at.size + np.arange(at5.size)

    vparents = np.take(np.concatenate([np.take(table.edge2nodes, closed, axis=0),
                                       local[inner, 2:4]]), order, axis=0)
    verts = np.concatenate([mesh.vertices, np.zeros((order.size, 2))])
    # an interior node halves (v2, m01): a second pass once m01 is in place
    for _ in range(1 + bool(inner.size)):
        a, b = (np.take(verts, vparents[:, k], axis=0) for k in (0, 1))
        verts[n_old:] = mid = (a + b) / 2.0
    inexact = ((mid - a != b - mid).any(axis=1)
               | (mid == a).all(axis=1) | (mid == b).all(axis=1))
    if inexact.any():
        i = int(np.argmax(inexact))
        t = int(np.concatenate([first, cut[inner]])[order[i]])  # of first use
        raise PrecisionExhausted(
            f"midpoint of nodes {tuple(vparents[i].tolist())} in element {t} "
            f"of generation {mesh.gen[t]} is not exact in double precision")
    return local, verts, np.concatenate([mesh.vertex_parents, vparents])


def _sons(mesh: Mesh, cut: np.ndarray, cid: np.ndarray,
          local: np.ndarray) -> tuple[np.ndarray, ...]:
    """The new mesh's elements, generations, red-son flags and ancestors:
    the sons of every element in id order, an unrefined element its own
    son."""
    m = mesh.n_elements
    n_sons = np.ones(m, dtype=np.int64)
    n_sons[cut] = _N_SONS[cid]
    at = np.cumsum(n_sons) - n_sons
    parents = np.repeat(np.arange(m), n_sons)
    tris = np.take(mesh.elements, parents, axis=0)  # refined rows overwritten
    gens, reds = mesh.gen[parents], mesh.red_son[parents]
    for p, sons in enumerate(_SONS.values()):
        ts = np.flatnonzero(cid == p)
        nodes, first_son = np.take(local, ts, axis=0), at[cut[ts]]
        for j, (*triple, dgen, red) in enumerate(sons):
            rows = first_son + j
            tris[rows] = nodes[:, triple]
            gens[rows] += dgen
            reds[rows] = red
    return tris, gens, reds, mesh.ancestor[parents]


def refine_step(mesh: Mesh, marking: MarkingInput, dialect: str,
                policy: PatternPolicy | None = None) -> tuple[Mesh, frozenset[int]]:
    """One step of the chosen dialect: closure and patterns, then split.

    Returns the refined mesh and the set of refined element ids
    (elements of the input mesh that were split).
    """
    new, refined, _ = step_with_plan(mesh, marking, dialect, policy)
    return new, refined


def step_with_plan(mesh: Mesh, marking: MarkingInput, dialect: str,
                   policy: PatternPolicy | None = None
                   ) -> tuple[Mesh, frozenset[int], RefinementPlan]:
    """refine_step variant that also hands back the closure plan; refuses a
    policy other than three bisections under refineNVB and refineNVB3, and
    a plan naming bisec(5) under refineNVBred."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect {dialect!r}; one of {DIALECTS}")
    if dialect in ("refineNVB", "refineNVB3"):
        if policy is not None and policy.name != BISEC3:
            raise ValueError(f"{dialect} admits only three-bisection refinement")
        policy = None  # close_marks' default: three bisections
    mode = "nvb" if dialect == "refineNVB" else "mnvb"
    plan = close_marks(mesh, marking, mode=mode, policy=policy)
    if dialect == "refineNVBred" and (plan.pattern == BISEC5).any():
        raise UnsupportedRefinementError("refineNVBred forbids bisec(5) refinement")
    new = split(mesh, plan)
    # after the split, so that the set of Python ints is not held through it
    refined = frozenset(np.flatnonzero(plan.pattern != PATTERN_NONE).tolist())
    return new, refined, plan


def chain(mesh: Mesh, t: int) -> list[int]:
    """Sequence of distinct elements bisected when only t is marked.

    Follows reference neighbors until the boundary or an element already
    in the sequence is reached.
    """
    t = operator.index(t)
    if not 0 <= t < mesh.n_elements:
        raise ValueError(f"element id {t} out of range")
    return _walk(mesh.edge_table.neighbors(0), t)


def _walk(n1: np.ndarray, t: int) -> list[int]:
    """``chain`` from element t, given every element's reference neighbour
    n1 (-1 on the boundary), so that many chains of a mesh share one n1."""
    seen = {}  # a dict keeps the order
    while t >= 0 and t not in seen:
        seen[t] = None
        t = int(n1[t])
    return list(seen)


def uniform(mesh: Mesh, kind: str) -> Mesh:
    """Uniform refinement: 'bisec1' marks everything under refineNVB,
    'bisec3' halves every edge (4 sons per element, no spillover)."""
    everything = np.arange(mesh.n_elements)
    if kind == "bisec1":
        new, _ = refine_step(mesh, MarkingInput(everything), "refineNVB")
        return new
    if kind == "bisec3":
        new, _ = refine_step(mesh, MarkingInput.all_edges(mesh, everything),
                             "refineNVB3")
        return new
    raise ValueError(f"unknown uniform kind {kind!r}")


# -- overlay --------------------------------------------------------------------


def _tree_keys(mesh: Mesh, initial: Mesh,
               width: int) -> tuple[np.ndarray, np.ndarray]:
    """Place every element of a mesh in the bisection tree of its ancestor
    in ``initial``, of generation 0; raises UnsupportedRefinementError for
    an element that is no node of it, such as a red son that was not
    bisected further.

    Row t of the (m, 1 + width) key array is t's ancestor id, then per
    level 1 for the son (v2, v0, m), 2 for the son (v1, v2, m) and 0 past
    t's depth, so a lexsort of the rows is the preorder of the trees.  The
    son holding t is the one holding its interior point ((v0+v1)/2 + v2)/2.
    Also returns the (m, 3, 2) coordinates of the descended triples.
    """
    anc, depth = mesh.ancestor, mesh.gen
    own = np.take(mesh.vertices, mesh.elements, axis=0)
    inner = ((own[:, 0] + own[:, 1]) / 2.0 + own[:, 2]) / 2.0
    tri = np.take(initial.vertices, initial.elements[anc], axis=0)
    keys = np.zeros((mesh.n_elements, 1 + width), dtype=np.int64)
    keys[:, 0] = anc
    for level in range(width):
        t = np.flatnonzero(depth > level)
        p0, p1, p2 = tri[t, 0], tri[t, 1], tri[t, 2]
        m = (p0 + p1) / 2.0
        right = _geom.signed_areas(p2, m, inner[t]) > 0.0
        tri[t] = np.where(right[:, None, None], np.stack([p1, p2, m], axis=1),
                          np.stack([p2, p0, m], axis=1))
        keys[t, 1 + level] = 1 + right
    bad = (depth < 0) | (tri != own).any(axis=(1, 2))
    if bad.any():
        t = int(np.argmax(bad))
        raise UnsupportedRefinementError(
            f"element {t} is no node of the bisection tree of initial "
            f"element {anc[t]}")
    return keys, tri


def _covers_next(keys: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """For preorder-sorted tree keys, whether each node but the last is the
    next node or one of its ancestors."""
    past = np.arange(keys.shape[1]) > depth[:-1, None]
    return ((keys[1:] == keys[:-1]) | past).all(axis=1)


def overlay(a: Mesh, b: Mesh, initial: Mesh) -> Mesh:
    """Coarsest common refinement of two meshes over the initial mesh
    ``initial``, each tiled by bisection-tree nodes (bisec(5) included, no
    surviving red son).

    Per initial element the union of the two bisection trees is taken; the
    element count satisfies #overlay <= #a + #b - #initial.  Elements are
    listed in the preorder of the trees, left son first, and vertices are
    numbered by first use.  Raises ValueError for an ``initial`` of a
    generation above 0 or without an input's ancestor ids, and
    UnsupportedRefinementError unless both inputs tile every initial
    element with nodes of its bisection tree.
    """
    _check_initial(a, initial)
    _check_initial(b, initial)
    width = int(max(a.gen.max(), b.gen.max()))
    (ka, ta), (kb, tb) = (_tree_keys(x, initial, width) for x in (a, b))
    keys, tri = np.concatenate([ka, kb]), np.concatenate([ta, tb])
    src = np.repeat([0, 1], [a.n_elements, b.n_elements])
    order = np.lexsort(keys.T[::-1])
    keys, tri, src = keys[order], tri[order], src[order]
    depth = np.count_nonzero(keys[:, 1:], axis=1)

    # each input tiles a root iff its nodes there are prefix-free and
    # sum 2**-depth = 1, summed exactly by carrying counts upwards
    for s in (0, 1):
        k, d = keys[src == s], depth[src == s]
        counts = np.zeros((initial.n_elements, width + 1), dtype=np.int64)
        np.add.at(counts, (k[:, 0], d), 1)
        bad = np.zeros(initial.n_elements, dtype=bool)
        bad[k[:-1, 0][_covers_next(k, d)]] = True
        for level in range(width, 0, -1):
            bad |= counts[:, level] % 2 == 1
            counts[:, level - 1] += counts[:, level] // 2
        bad |= counts[:, 0] != 1
        if bad.any():
            raise UnsupportedRefinementError(
                f"overlay input {'ab'[s]} does not tile initial element "
                f"{int(np.argmax(bad))}")

    # a node of both inputs or with a descendant covers the next node
    leaf = np.append(~_covers_next(keys, depth), True)
    xy = tri[leaf].reshape(-1, 2)
    _, first, inverse = np.unique(xy.view(np.complex128).ravel(),
                                  return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return Mesh(xy[np.sort(first)], rank[inverse].reshape(-1, 3),
                gen=depth[leaf], ancestor=keys[leaf, 0])
