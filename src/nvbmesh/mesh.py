"""Conforming triangle meshes with reference-edge encoding.

A mesh is an immutable collection of vertices and ordered vertex triples.
The reference edge of an element ``(v0, v1, v2)`` is, by convention, the
edge ``(v0, v1)``; the apex ``v2`` lies opposite it.  Triples are
counterclockwise.  Each element carries a generation counter ``gen`` (0 on
initial elements, +1 per bisection, +2 for red sons), the id of its ancestor
in the initial mesh, and a flag marking red sons.

All coordinates are expected to be dyadic rationals; midpoints computed
during refinement are exact, so the area identity
``|T| = |ancestor| * 2**(-gen)`` holds exactly and is tested exactly.

Topology is one integer ``EdgeTable`` per mesh, built by one stable sort of
the sorted edge node pairs: ``element2edges`` (m, 3) holds each element's
edge ids, column 0 the reference edge (v0, v1), then (v1, v2), (v2, v0);
``edge2nodes`` (E, 2) the sorted node pairs; ``edge2elements`` (E, 2) the
incident elements in ascending id, -1 in column 1 on the boundary.  Edges
are numbered in first-touch order: as a sweep over the elements and their
edges 0, 1, 2 first meets them.  Every reader of its adjacency goes
through one kernel per relation: ``_neighbors`` (the element across a
slot; ``_ReferenceNeighbors`` reads one row of slot 0), ``_shared_edges``
(interior edges, their element pairs and their compatible divisibility)
and ``_walk`` (a reference-neighbour run).

A mesh copies what it is given.  The constructor copies every input array,
another mesh's and its own defaults included, and marks each copy
read-only; a caller's array is never frozen in place, and nothing a caller
holds, nor any view of it, can change a mesh.  So the edge table built
once by the constructor stays the table of the mesh's elements, and
``validate_mesh`` checks that table.  Every operation in this module is
read-only and safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import _geom

NOT_ADJACENT = "not_adjacent"
COMPATIBLY_DIVISIBLE = "compatibly_divisible"
INCOMPATIBLE = "incompatible"

#: element count below which validate_mesh runs the exhaustive O(E*V)
#: hanging-node scan by default
_EXHAUSTIVE_LIMIT = 3000


def _readonly(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark the arrays read-only and return them."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _frozen(arr, dtype) -> np.ndarray:
    """A read-only C-ordered ``dtype`` copy of ``arr``, never ``arr`` itself."""
    arr = np.array(arr, dtype=dtype, order="C", ndmin=1)
    arr.setflags(write=False)
    return arr


class MeshError(ValueError):
    """Raised when mesh construction or parsing encounters invalid data."""


class PrecisionExhausted(MeshError):
    """Raised when a new midpoint is not exact in double precision."""


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    ids: tuple = ()


@dataclass(frozen=True)
class ConformityReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


@dataclass(frozen=True, eq=False)
class StructureFlags:
    """BDD / weak-BDD certificates and isolated elements.

    ``isolated`` and ``is_weak_bdd`` use the boundary-exempt reading (only
    elements with an existing reference neighbor can be isolated), under
    which BDD always implies weak BDD.  The literal reading, where a
    boundary reference edge makes the element isolated via N(N(T)) = empty,
    is reported alongside.
    """

    is_bdd: bool
    is_weak_bdd: bool
    isolated: np.ndarray             # read-only sorted int64 element ids
    isolated_literal: np.ndarray     # read-only sorted int64 element ids
    is_weak_bdd_literal: bool


class Mesh:
    """Immutable conforming triangulation.

    Every input array, defaults included, is copied and frozen.

    Parameters
    ----------
    vertices : (n, 2) array_like
        Vertex coordinates.
    elements : (m, 3) array_like of int
        Ordered CCW vertex triples; edge (v0, v1) is the reference edge.
    gen, ancestor, red_son : arrays, optional
        Per-element generation, initial-mesh ancestor id, red-son flag.
        Default to an initial mesh (gen 0, ancestor = element id).
    initial : Mesh, optional
        The generation-0 origin of this mesh; omit for initial meshes.
    parent_elems : (m,) array of int, optional
        For refined meshes, the id of each element's father in the mesh
        this one was produced from.
    vertex_parents : (n, 2) array of int, optional
        The node pair whose midpoint created each vertex, (-1, -1) for
        vertices that predate any recorded refinement (the default);
        ``prolongation`` interpolates along these pairs.
    validate : bool
        Enforce finite coordinates and the orientation/index/edge-sharing
        invariants at construction.
    """

    def __init__(self, vertices, elements, gen=None, ancestor=None,
                 red_son=None, initial=None, parent_elems=None,
                 vertex_parents=None, validate=True):
        vertices = np.asarray(vertices, dtype=np.float64)
        elements = np.asarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must be an (m, 3) array")
        m, n = elements.shape[0], vertices.shape[0]
        # the table is built from the inputs and the copies made after it:
        # copies made first are held through the sort's temporaries, which
        # raised the peak memory of 16 uniform bisections of square2 by 8 MB
        self.edge_table = build_edge_table(elements)
        self.vertices = _frozen(vertices, np.float64)
        self.elements = _frozen(elements, np.int64)
        self.gen = _frozen(np.zeros(m) if gen is None else gen, np.int64)
        self.ancestor = _frozen(np.arange(m) if ancestor is None else ancestor,
                                np.int64)
        self.red_son = _frozen(np.zeros(m) if red_son is None else red_son, bool)
        if not (len(self.gen) == len(self.ancestor) == len(self.red_son) == m):
            raise MeshError("per-element arrays must all have length m")
        self.initial = initial
        self.parent_elems = (None if parent_elems is None
                             else _frozen(parent_elems, np.int64))
        # (a, b) node pair whose midpoint created each vertex; (-1, -1) for
        # vertices that predate any recorded refinement
        self.vertex_parents = _frozen(np.full((n, 2), -1) if vertex_parents is None
                                      else vertex_parents, np.int64)
        if self.vertex_parents.shape != (n, 2):
            raise MeshError("vertex_parents must be an (n, 2) array")

        if validate:
            self._check_basic()

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def is_initial(self) -> bool:
        return self.initial is None and bool((self.gen == 0).all())

    @property
    def initial_mesh(self) -> "Mesh":
        """The generation-0 mesh this one descends from (itself if initial).

        Meshes loaded from files carry no initial-mesh object; operations
        that need initial geometry must be given one explicitly.
        """
        if self.initial is not None:
            return self.initial
        if self.is_initial:
            return self
        raise MeshError("initial mesh unknown for this (loaded) refined mesh")

    def areas(self) -> np.ndarray:
        p = np.take(self.vertices, self.elements, axis=0)
        return _geom.signed_areas(p[:, 0], p[:, 1], p[:, 2])

    def total_area(self) -> float:
        return float(self.areas().sum())

    def __repr__(self):
        return (f"Mesh({self.n_vertices} vertices, {self.n_elements} elements, "
                f"max gen {int(self.gen.max(initial=0))})")

    # -- internal ----------------------------------------------------------

    def _check_basic(self):
        m = self.n_elements
        if m == 0:
            raise MeshError("mesh has no elements")
        if self.elements.min() < 0 or self.elements.max() >= self.n_vertices:
            raise MeshError("element vertex index out of range")
        # checked first: a NaN area passes the orientation test below
        bad = ~np.isfinite(self.vertices).all(axis=1)
        if bad.any():
            raise MeshError(f"vertex {int(np.argmax(bad))} has non-finite coordinates")
        areas = self.areas()
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(f"element {int(bad[0])} is not CCW "
                            f"(signed area {areas[bad[0]]:g})")
        if self.gen.min() < 0:
            raise MeshError("negative generation")
        if self.ancestor.min() < 0:
            raise MeshError("negative ancestor id")
        if self.initial is not None:
            n_init = self.initial.n_elements
        elif (self.gen == 0).all():
            n_init = m
        else:
            n_init = None  # refined mesh without its initial mesh: count unknown
        if n_init is not None and self.ancestor.max() >= n_init:
            raise MeshError("ancestor id out of range of the initial mesh")
        count = np.bincount(self.edge_table.element2edges.ravel())
        for e in np.flatnonzero(count > 2)[:1].tolist():
            raise MeshError(f"edge {tuple(self.edge_table.edge2nodes[e].tolist())} "
                            f"shared by {count[e]} elements")


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Integer edge topology of a mesh (see the module docstring); an edge
    of more than two elements shows the first two in ``edge2elements``."""

    element2edges: np.ndarray
    edge2nodes: np.ndarray
    edge2elements: np.ndarray


def build_edge_table(elements: np.ndarray) -> EdgeTable:
    """Number the edges of an (m, 3) element array in first-touch order."""
    elements = np.asarray(elements, dtype=np.int64)
    m = elements.shape[0]
    n = 3 * m
    tails = elements[:, [1, 2, 0]]
    pairs = np.stack([np.minimum(elements, tails), np.maximum(elements, tails)],
                     axis=2).reshape(n, 2)
    codes = pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1]
    # one run per edge of its occurrences in ascending position
    order = np.argsort(codes, kind="stable")
    runs = np.flatnonzero(np.diff(codes[order], prepend=-1, append=-1))
    size = np.diff(runs)
    first = order[runs[:-1]]
    touched = np.zeros(n, dtype=bool)
    touched[first] = True
    edge = (np.cumsum(touched) - 1)[first]  # first-touch id of each run
    ids = np.empty(n, dtype=np.int64)
    ids[order] = np.repeat(edge, size)
    # the second occurrence of an edge is its second incident element; -3
    # (element -1) on the boundary
    second = np.where(size > 1, order[np.minimum(runs[:-1] + 1, n - 1)], -3)
    ends = np.empty((edge.size, 2), dtype=np.int64)
    ends[edge] = np.stack([first, second], axis=1)
    return EdgeTable(*_readonly(ids.reshape(m, 3), pairs[ends[:, 0]], ends // 3))


def _neighbors(table: EdgeTable, slot: int) -> np.ndarray:
    """The element across slot ``slot`` of each element, -1 on the
    boundary; slot 0 gives the reference neighbour N(T)."""
    e = table.element2edges[:, slot]
    t = np.arange(e.shape[0])
    a, b = table.edge2elements[e].T
    n = np.where(a != t, a, b)
    return np.where(n == t, -1, n)


class _ReferenceNeighbors:
    """N(t) as ``[t]``, -1 on the boundary: row t of ``_neighbors(table, 0)``
    read in O(1), so that a ``_walk`` over it costs its own length."""

    def __init__(self, table: EdgeTable):
        self.table = table

    def __getitem__(self, t: int) -> int:
        a, b = self.table.edge2elements[self.table.element2edges[t, 0]].tolist()
        return a if a != t else (-1 if b == t else b)


def _shared_edges(table: EdgeTable) -> tuple[np.ndarray, ...]:
    """Interior edge ids ``e``, their elements ``t1 < t2`` and whether each
    pair is compatibly divisible: ``e`` is the reference edge of both or of
    neither."""
    e = np.flatnonzero(table.edge2elements[:, 1] >= 0)
    t1, t2 = table.edge2elements[e].T
    ref = table.element2edges[:, 0]
    return e, t1, t2, (ref[t1] == e) == (ref[t2] == e)


def _walk(successor: Sequence[int], t: int) -> list[int]:
    """t, successor[t], successor[successor[t]], ... up to -1 or the first
    repeat; the seen-set keeps a long walk linear."""
    out, seen = [t], {t}
    t = successor[t]
    while t >= 0 and t not in seen:
        out.append(t)
        seen.add(t)
        t = successor[t]
    return out


def _overshared(table: EdgeTable) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ids of the edges with more than two incident elements, ascending,
    and each one's elements, ascending, one entry per slot."""
    flat = table.element2edges.ravel()
    count = np.bincount(flat)
    over = np.flatnonzero(count > 2)
    slots = np.flatnonzero(count[flat] > 2)
    slots = slots[np.argsort(flat[slots], kind="stable")]  # by edge, then slot
    return over, np.split(slots // 3, np.cumsum(count[over]))[:-1]


# -- structural operations --------------------------------------------------


def validate_mesh(mesh: Mesh, exhaustive: bool | None = None) -> ConformityReport:
    """Diagnostic conformity check; returns violations, never raises.

    Hanging nodes are detected by the exact midpoint test on every edge
    (complete for meshes produced by bisection/red refinement) and, for
    meshes below ``_EXHAUSTIVE_LIMIT`` elements or with ``exhaustive=True``,
    additionally by a full vertex-against-edge betweenness scan.  The edge
    checks read ``mesh.edge_table``, built once by the constructor.
    """
    table = mesh.edge_table
    violations: list[Violation] = []
    nv, ne = mesh.n_vertices, mesh.n_elements

    # duplicate vertices (exact coordinate equality), by the rows as complex
    # keys, which compare as floats do: -0.0 equals 0.0, a NaN equals nothing
    key = mesh.vertices.view(np.complex128).ravel()
    keys, firsts, inverse = np.unique(key, return_index=True, return_inverse=True,
                                      equal_nan=False)
    first = firsts[inverse]
    bad = ~np.isfinite(mesh.vertices).all(axis=1)
    for i in np.flatnonzero(bad | (first != np.arange(nv))).tolist():
        p = tuple(mesh.vertices[i].tolist())
        if bad[i]:
            violations.append(Violation("bad_coordinate",
                                        f"vertex {i} has non-finite coordinates",
                                        (i,)))
        if first[i] != i:
            j = int(first[i])
            violations.append(Violation("duplicate_vertex",
                                        f"vertices {j} and {i} coincide at {p}",
                                        (j, i)))

    bad_index = (mesh.elements.min() < 0 or mesh.elements.max() >= nv)
    if bad_index:
        violations.append(Violation("bad_index", "element vertex index out of range"))
        return ConformityReport(violations)

    areas = mesh.areas()
    for t in np.nonzero(areas <= 0.0)[0]:
        violations.append(Violation("inverted_element",
                                    f"element {int(t)} has signed area {areas[t]:g}",
                                    (int(t),)))

    for e, inc in zip(*_overshared(table)):
        e, inc = tuple(table.edge2nodes[e].tolist()), tuple(inc.tolist())
        violations.append(Violation("overshared_edge",
                                    f"edge {e} shared by elements {inc}", inc))
    # an element that meets one neighbour across two edges covers the same
    # triangle; each pair is reported once, at its later element
    t = np.arange(ne)
    n0, n1, n2 = (_neighbors(table, slot) for slot in range(3))
    twice = np.where((n0 == n1) | (n0 == n2), n0, np.where(n1 == n2, n1, -1))
    for i in np.flatnonzero((0 <= twice) & (twice < t)).tolist():
        s = int(twice[i])
        violations.append(Violation("duplicate_element", f"elements {s} and {i} "
                                    "cover the same triangle", (s, i)))

    used = np.zeros(nv, dtype=bool)
    used[mesh.elements.ravel()] = True
    for i in np.nonzero(~used)[0]:
        violations.append(Violation("orphan_vertex",
                                    f"vertex {int(i)} belongs to no element",
                                    (int(i),)))

    e2n, xy = table.edge2nodes, mesh.vertices

    def hanging(j: int, e: int, where: str) -> None:
        (a, b), (c, d) = e2n[e].tolist(), table.edge2elements[e].tolist()
        violations.append(Violation(
            "hanging_node", f"vertex {j} {where} edge {(a, b)} of elements "
            f"{(c,) if d < 0 else (c, d)}", (j, a, b)))

    # hanging nodes: the exact midpoint of an edge, looked up among the keys,
    # is a vertex other than the edge's ends
    with np.errstate(invalid="ignore", over="ignore"):
        mid = ((xy[e2n[:, 0]] + xy[e2n[:, 1]]) / 2.0).view(np.complex128).ravel()
        at = np.searchsorted(keys, mid).clip(max=keys.size - 1)
        hit = firsts[at]
        for e in np.flatnonzero((keys[at] == mid) & (hit != e2n[:, 0])
                                & (hit != e2n[:, 1])).tolist():
            hanging(int(hit[e]), e, "splits")

        if exhaustive is None:
            exhaustive = ne < _EXHAUSTIVE_LIMIT
        if exhaustive:
            reported = {v.ids for v in violations if v.kind == "hanging_node"}
            for e, (a, b) in enumerate(e2n.tolist()):
                inside = _geom.point_strictly_inside_segment(xy, xy[a], xy[b])
                for j in np.flatnonzero(inside).tolist():
                    if j not in (a, b) and (j, a, b) not in reported:
                        hanging(j, e, "lies inside")

    return ConformityReport(violations)


def reference_neighbor(mesh: Mesh, t: int) -> int | None:
    """The element sharing t's reference edge, or None on the boundary."""
    if not 0 <= t < mesh.n_elements:
        raise ValueError(f"element id {t} out of range")
    n = _ReferenceNeighbors(mesh.edge_table)[t]
    return None if n < 0 else n


def classify_pair(mesh: Mesh, t1: int, t2: int) -> str:
    """Classify two distinct elements by their shared-edge relation.

    ``compatibly_divisible`` iff the shared edge is the reference edge of
    both or of neither; ``incompatible`` iff of exactly one;
    ``not_adjacent`` iff no shared edge.
    """
    if t1 == t2:
        raise ValueError("classify_pair requires two distinct elements")
    for t in (t1, t2):
        if not 0 <= t < mesh.n_elements:
            raise ValueError(f"element id {t} out of range")
    a, b = mesh.edge_table.element2edges[[t1, t2]].tolist()
    shared = set(a) & set(b)
    if not shared:
        return NOT_ADJACENT
    e = shared.pop()
    on_ref = (a[0] == e) + (b[0] == e)
    return COMPATIBLY_DIVISIBLE if on_ref in (0, 2) else INCOMPATIBLE


def structure_flags(mesh: Mesh) -> StructureFlags:
    """BDD and weak-BDD certificates plus isolated elements."""
    _, t1, t2, compatible = _shared_edges(mesh.edge_table)
    is_bdd = bool(compatible.all())

    t, n1 = np.arange(mesh.n_elements), _neighbors(mesh.edge_table, 0)
    isolated_literal = ~((n1 >= 0) & (n1[n1] == t))  # N(N(T)) != T
    isolated = isolated_literal & (n1 >= 0)

    def weak(iso: np.ndarray) -> bool:
        return not (iso[t1] & iso[t2]).any()

    ids = _readonly(np.flatnonzero(isolated), np.flatnonzero(isolated_literal))
    return StructureFlags(is_bdd=is_bdd, is_weak_bdd=weak(isolated),
                          isolated=ids[0], isolated_literal=ids[1],
                          is_weak_bdd_literal=weak(isolated_literal))


def restrict(mesh: Mesh, initial_subset: Iterable[int]) -> Mesh:
    """Sub-mesh of all elements whose ancestor lies in the given subset.

    Vertices are renumbered densely; generations and reference edges are
    preserved; ancestor ids are remapped into the restricted initial mesh.
    """
    subset = sorted(set(int(i) for i in initial_subset))
    if not subset:
        raise ValueError("initial_subset must be nonempty")
    init = mesh.initial_mesh
    if subset[0] < 0 or subset[-1] >= init.n_elements:
        raise ValueError("initial_subset contains out-of-range element ids")

    def extract(src: Mesh, elems: np.ndarray, new_ancestor, new_initial):
        node_ids, tris = np.unique(src.elements[elems], return_inverse=True)
        remap = np.full(src.n_vertices, -1)
        remap[node_ids] = np.arange(node_ids.size)
        vparents = src.vertex_parents[node_ids]
        vparents = np.where(vparents >= 0, remap[vparents], -1)
        vparents[(vparents < 0).any(axis=1)] = -1
        return Mesh(src.vertices[node_ids], tris.reshape(-1, 3),
                    gen=src.gen[elems],
                    ancestor=new_ancestor,
                    red_son=src.red_son[elems],
                    initial=new_initial,
                    vertex_parents=vparents)

    if mesh.initial is None:
        return extract(mesh, subset, np.arange(len(subset)), None)
    keep = np.flatnonzero(np.isin(mesh.ancestor, subset))
    return extract(mesh, keep, np.searchsorted(subset, mesh.ancestor[keep]),
                   restrict(init, subset))


# -- builders ----------------------------------------------------------------


def square2() -> Mesh:
    """Unit square split along the (0,0)-(1,1) diagonal into 2 triangles.

    The diagonal is the reference edge of both elements, so the mesh has
    the BDD property.
    """
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    elements = [(2, 0, 1), (0, 2, 3)]
    return Mesh(vertices, elements)


def lshape6() -> Mesh:
    """L-shape (-1,1)^2 minus [0,1)x(-1,0], 6 triangles, 8 vertices.

    Each quadrant square is split by the diagonal through the reentrant
    corner (0,0); all diagonals are reference edges, so the mesh is BDD.
    """
    vertices = [(-1.0, -1.0), (0.0, -1.0), (0.0, 0.0), (1.0, 0.0),
                (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)]
    elements = [(0, 2, 7), (2, 0, 1), (2, 6, 7), (6, 2, 5), (2, 4, 5), (4, 2, 3)]
    return Mesh(vertices, elements)


def same_mesh(a: Mesh, b: Mesh) -> bool:
    """True iff the meshes are identical up to renumbering.

    Each element is compared as the row of its vertex coordinates in
    convention order, its generation and its red-son flag, so triples that
    differ only by which vertex is listed first (by their reference edge)
    are different elements.
    """
    def rows(mesh: Mesh) -> np.ndarray:
        r = np.column_stack([np.take(mesh.vertices, mesh.elements, axis=0)
                             .reshape(-1, 6), mesh.gen, mesh.red_son])
        return r[np.lexsort(r.T[::-1])]

    ra, rb = rows(a), rows(b)
    return ra.shape == rb.shape and bool((ra == rb).all())
