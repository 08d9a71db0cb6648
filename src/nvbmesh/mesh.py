"""Conforming triangle meshes with reference-edge encoding.

A mesh is an immutable collection of vertices and ordered vertex triples.
The reference edge of an element ``(v0, v1, v2)`` is, by convention, the
edge ``(v0, v1)``; the apex ``v2`` lies opposite it.  Triples are
counterclockwise.  Each element carries a generation counter ``gen`` (0 on
initial elements, +1 per bisection, +2 for red sons), the id of its ancestor
in the initial mesh, and a flag marking red sons.  A mesh is these arrays
and no more: it holds no link to its initial mesh, so the operations that
need the initial mesh take it as an argument and check it by
``_check_initial``, and ``restrict`` works from the ancestor ids alone.

All coordinates are expected to be dyadic rationals; midpoints computed
during refinement are exact, so the area identity
``|T| = |ancestor| * 2**(-gen)`` holds exactly and is tested exactly.

Topology is one integer ``EdgeTable`` per mesh, built by one sort of the
sorted edge node pairs: an unstable sort of the int64 key code * 3m + slot,
which orders each edge's slots as a stable sort would, or a stable argsort
of the codes where that key could overflow (nv**2 * 3m >= 2**63).  Node
ids count from the least of them or 0, so that the code of each edge
decodes to its node pair, and the sort's temporaries are freed once used.
``element2edges`` (m, 3) holds each element's edge ids, column 0 the
reference edge (v0, v1), then (v1, v2), (v2, v0); ``edge2nodes`` (E, 2) the
sorted node pairs; ``edge2elements`` (E, 2) the incident elements in
ascending id, -1 in column 1 on the boundary.  Edges are numbered in
first-touch order: as a sweep over the elements and their edges 0, 1, 2
first meets them.  Its methods derive the adjacency anew on each call,
each relation in one place: ``neighbors(slot)`` (the element across a
slot; slot 0 gives the reference neighbour N(T)) and ``shared_edges()``
(interior edges, their element pairs and their compatible divisibility).
``_row_ids`` numbers the rows of an integer array, equal rows alike, for
every caller that merges equal rows.

A mesh copies what it is given.  The constructor copies every input array,
another mesh's and its own defaults included, and marks each copy
read-only; a caller's array is never frozen in place, and nothing a caller
holds, nor any view of it, can change a mesh.  Nor can an attribute be set
or deleted once the constructor returns.  So the edge table built once by
the constructor stays the table of the mesh's elements, and
``validate_mesh`` checks that table.  A mesh owns its per-element geometry
too: the read-only ``areas`` (filled by the constructor's checks) and
``diameters`` (filled on first use) are computed once, and every verifier
reads them.  Every operation in this module is read-only and safe for
concurrent readers.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import _geom

NOT_ADJACENT = "not_adjacent"
COMPATIBLY_DIVISIBLE = "compatibly_divisible"
INCOMPATIBLE = "incompatible"

#: element count below which validate_mesh runs the exhaustive O(E*V)
#: hanging-node scan
_EXHAUSTIVE_LIMIT = 3000

#: rows per block of the passes that work through an array a block at a
#: time, so that their temporaries stay small beside the arrays they read
_BLOCK = 2**14


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
        Default to an initial mesh (gen 0, ancestor = element id).  A mesh
        of generation 0 only is an initial mesh, and its ancestor ids must
        be element ids; a refined mesh holds no link to its initial mesh,
        which the operations that need it take as an argument.
    vertex_parents : (n, 2) array of int, optional
        The node pair whose midpoint created each vertex, (-1, -1) for
        vertices that predate any recorded refinement (the default);
        ``prolongation`` interpolates along these pairs.  The .nvbm format
        does not hold them, so a mesh read from a file records none.
    validate : bool
        Enforce finite coordinates and the orientation/index/edge-sharing
        invariants at construction; an edge of two elements must be
        traversed once each way, so folded and duplicate elements fail.
    """

    def __init__(self, vertices, elements, gen=None, ancestor=None,
                 red_son=None, vertex_parents=None, validate=True):
        vertices = np.asarray(vertices, dtype=np.float64)
        elements = np.asarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise MeshError("elements must be an (m, 3) array")
        m, n = elements.shape[0], vertices.shape[0]
        # the table is built from the inputs and the copies made after it,
        # and the checks work a column or a block of rows at a time: while
        # a caller such as split holds the inputs, their copies, the table
        # and the areas are the only whole-mesh arrays this adds (copies
        # made first are held through the sort's temporaries, which raised
        # the peak memory of 16 uniform bisections of square2 by 8 MB)
        self.edge_table = build_edge_table(elements)
        self.vertices = _frozen(vertices, np.float64)
        self.elements = _frozen(elements, np.int64)
        self.gen = _frozen(np.zeros(m) if gen is None else gen, np.int64)
        self.ancestor = _frozen(np.arange(m) if ancestor is None else ancestor,
                                np.int64)
        self.red_son = _frozen(np.zeros(m) if red_son is None else red_son, bool)
        if not (len(self.gen) == len(self.ancestor) == len(self.red_son) == m):
            raise MeshError("per-element arrays must all have length m")
        # (a, b) node pair whose midpoint created each vertex; (-1, -1) for
        # vertices that predate any recorded refinement
        self.vertex_parents = _frozen(np.full((n, 2), -1) if vertex_parents is None
                                      else vertex_parents, np.int64)
        if self.vertex_parents.shape != (n, 2):
            raise MeshError("vertex_parents must be an (n, 2) array")

        if validate:
            self._check_basic()
        self._sealed = True

    # the cached areas and diameters fill through __dict__, past this guard
    _sealed = False

    def __setattr__(self, name, value):
        if self._sealed:
            raise AttributeError(f"a Mesh is immutable: cannot set {name!r}")
        super().__setattr__(name, value)

    def __delattr__(self, name):
        raise AttributeError(f"a Mesh is immutable: cannot delete {name!r}")

    # -- basic accessors ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @functools.cached_property
    def areas(self) -> np.ndarray:
        """Read-only signed area of each element, positive iff CCW."""
        areas = np.empty(self.n_elements)
        for lo in range(0, areas.size, _BLOCK):   # no (m, 3, 2) gather whole
            p = np.take(self.vertices, self.elements[lo:lo + _BLOCK], axis=0)
            areas[lo:lo + _BLOCK] = _geom.signed_areas(p[:, 0], p[:, 1], p[:, 2])
        return _readonly(areas)[0]

    @functools.cached_property
    def diameters(self) -> np.ndarray:
        """Read-only longest edge length of each element."""
        return _readonly(_geom.diameters(self.vertices, self.elements))[0]

    def total_area(self) -> float:
        return float(self.areas.sum())

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
        areas = self.areas
        bad = np.nonzero(areas <= 0.0)[0]
        if bad.size:
            raise MeshError(f"element {int(bad[0])} is not CCW "
                            f"(signed area {areas[bad[0]]:g})")
        if self.gen.min() < 0:
            raise MeshError("negative generation")
        if self.ancestor.min() < 0:
            raise MeshError("negative ancestor id")
        if not self.gen.any():
            for t in np.flatnonzero(self.ancestor != np.arange(m))[:1].tolist():
                raise MeshError(f"element {t} of an initial mesh has ancestor "
                                f"id {self.ancestor[t]}, not its own id")
        table = self.edge_table
        count, forward = _edge_census(self)
        for e in np.flatnonzero(count > 2)[:1].tolist():
            raise MeshError(f"edge {tuple(table.edge2nodes[e].tolist())} "
                            f"shared by {count[e]} elements")
        for e in np.flatnonzero((count == 2) & (forward != 1))[:1].tolist():
            a, b = table.edge2elements[e].tolist()
            raise MeshError(f"elements {a} and {b} lie on one side of their "
                            f"shared edge {tuple(table.edge2nodes[e].tolist())}")


def _check_initial(mesh: Mesh, initial: Mesh) -> None:
    """Raise ValueError unless ``initial`` is an initial mesh, of generation
    0 only, that holds the ancestor id of every element of ``mesh``."""
    deep = np.flatnonzero(initial.gen)
    if deep.size:
        t = int(deep[0])
        raise ValueError(f"the initial mesh has element {t} of generation "
                         f"{initial.gen[t]}, but an initial mesh has generation "
                         "0 only")
    over = np.flatnonzero(mesh.ancestor >= initial.n_elements)
    if over.size:
        t = int(over[0])
        raise ValueError(f"element {t} has ancestor id {mesh.ancestor[t]}, but "
                         f"the initial mesh has {initial.n_elements} elements")


@dataclass(frozen=True, eq=False)
class EdgeTable:
    """Integer edge topology of a mesh (see the module docstring); an edge
    of more than two elements shows the first two in ``edge2elements``."""

    element2edges: np.ndarray
    edge2nodes: np.ndarray
    edge2elements: np.ndarray

    def neighbors(self, slot: int) -> np.ndarray:
        """The element across slot ``slot`` of each element, -1 on the
        boundary; slot 0 gives the reference neighbour N(T)."""
        e = self.element2edges[:, slot]
        t = np.arange(e.shape[0])
        a, b = self.edge2elements[e].T
        n = np.where(a != t, a, b)
        return np.where(n == t, -1, n)

    def shared_edges(self) -> tuple[np.ndarray, ...]:
        """Interior edge ids ``e``, their elements ``t1 < t2`` and whether
        each pair is compatibly divisible: ``e`` is the reference edge of
        both or of neither."""
        e = np.flatnonzero(self.edge2elements[:, 1] >= 0)
        t1, t2 = self.edge2elements[e].T
        ref = self.element2edges[:, 0]
        return e, t1, t2, (ref[t1] == e) == (ref[t2] == e)


def build_edge_table(elements: np.ndarray) -> EdgeTable:
    """Number the edges of an (m, 3) element array in first-touch order."""
    elements = np.asarray(elements, dtype=np.int64)
    m = elements.shape[0]
    n = 3 * m
    # node ids from 0 up, so that each edge code below decodes to its nodes
    low = int(elements.min(initial=0))
    if low:
        elements = elements - low
    base = int(elements.max(initial=0)) + 1
    tails = elements[:, [1, 2, 0]]
    codes = np.minimum(elements, tails).ravel()
    codes *= base
    codes += np.maximum(elements, tails).ravel()
    del tails
    # the occurrences of each edge as one run in ascending slot: an unstable
    # sort of code * 3m + slot while that fits int64, else a stable argsort
    fits = (int(codes.min(initial=0)) * n >= -2**63
            and (int(codes.max(initial=0)) + 1) * n <= 2**63)
    if fits:
        key = codes
        key *= n
        key += np.arange(n)
        key.sort()
        codes = key // n
    else:
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
    starts = np.empty(n + 1, dtype=bool)
    starts[0] = starts[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=starts[1:-1])
    runs = np.flatnonzero(starts)
    del starts
    run_codes = codes[runs[:-1]]
    if fits:
        codes *= n
        key -= codes
        order = key  # the slots, in place of the key
    del codes
    # each temporary is freed once used: the table is built while the
    # constructor's caller holds the arrays of the mesh being built
    size = np.diff(runs)
    first = order[runs[:-1]]
    # the second occurrence of an edge is its second incident element, -1
    # on the boundary
    second = order[np.minimum(runs[:-1] + 1, n - 1)]
    del runs
    touched = np.zeros(n, dtype=bool)
    touched[first] = True
    edge = np.cumsum(touched)[first]  # first-touch id of each run, from 1
    edge -= 1
    del touched
    edge2nodes = np.empty((edge.size, 2), dtype=np.int64)
    nodes = run_codes // base  # the lower node of each run
    edge2nodes[edge, 0] = nodes
    run_codes -= nodes * base  # the higher node
    edge2nodes[edge, 1] = run_codes
    edge2nodes += low
    del run_codes, nodes
    edge2elements = np.empty((edge.size, 2), dtype=np.int64)
    first //= 3
    edge2elements[edge, 0] = first
    second //= 3
    second[size == 1] = -1
    edge2elements[edge, 1] = second
    del first, second
    slot_ids = np.repeat(edge, size)  # the edge id at each sorted slot
    del edge, size
    ids = np.empty(n, dtype=np.int64)
    ids[order] = slot_ids
    return EdgeTable(*_readonly(ids.reshape(m, 3), edge2nodes, edge2elements))


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """Ids of the rows of an integer (n, k) array, equal exactly for equal
    rows and ascending with the rows in lexicographic order.

    Columns are packed into one int64 key at a time; a column with a
    negative entry, or one whose packing would overflow, is first replaced
    by the ranks of its values.
    """
    ids = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        if (col.min(initial=0) < 0 or (int(ids.max(initial=0)) + 1)
                * (int(col.max(initial=0)) + 1) > 2**63):
            col = np.unique(col, return_inverse=True)[1].reshape(-1)
        ids = np.unique(ids * (col.max(initial=0) + 1) + col,
                        return_inverse=True)[1].reshape(-1)
    return ids


def _edge_census(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's slot count, and how many of those slots run it from its
    lower node up: two CCW elements on either side of an edge run it once
    each way, and a pair on one side of it (a duplicate too) is a fold."""
    slots = mesh.edge_table.element2edges.ravel()
    count = np.bincount(slots)
    ahead = np.empty((mesh.n_elements, 3), dtype=bool)
    for i in range(3):   # a column at a time: no (m, 3) int64 temporary
        np.less(mesh.elements[:, i], mesh.elements[:, (i + 1) % 3],
                out=ahead[:, i])
    return count, np.bincount(slots[ahead.ravel()], None, count.size)


def _overshared(table: EdgeTable, count) -> tuple[np.ndarray, list[np.ndarray]]:
    """Ids of the edges of slot ``count`` above 2, ascending, and each one's
    elements, ascending, one entry per slot."""
    flat = table.element2edges.ravel()
    over = np.flatnonzero(count > 2)
    slots = np.flatnonzero(count[flat] > 2)
    slots = slots[np.argsort(flat[slots], kind="stable")]  # by edge, then slot
    return over, np.split(slots // 3, np.cumsum(count[over]))[:-1]


# -- structural operations --------------------------------------------------


def validate_mesh(mesh: Mesh) -> ConformityReport:
    """Diagnostic conformity check; returns violations, never raises.

    Hanging nodes are detected by the exact midpoint test on every edge
    (complete for meshes produced by bisection/red refinement) and by a
    vertex-against-edge betweenness scan: of every vertex against every
    edge for meshes below ``_EXHAUSTIVE_LIMIT`` elements, else of the
    boundary edges against their ends (complete for meshes without
    overlapping elements).  The edge checks read ``mesh.edge_table``, built
    once by the constructor.
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

    if ne == 0:
        violations.append(Violation("no_elements", "mesh has no elements"))
        return ConformityReport(violations)
    if mesh.elements.min() < 0 or mesh.elements.max() >= nv:
        violations.append(Violation("bad_index", "element vertex index out of range"))
        return ConformityReport(violations)
    count, forward = _edge_census(mesh)

    with np.errstate(invalid="ignore", over="ignore"):  # non-finite vertices
        areas = mesh.areas
    for t in np.nonzero(areas <= 0.0)[0]:
        violations.append(Violation("inverted_element",
                                    f"element {int(t)} has signed area {areas[t]:g}",
                                    (int(t),)))

    for e, inc in zip(*_overshared(table, count)):
        e, inc = tuple(table.edge2nodes[e].tolist()), tuple(inc.tolist())
        violations.append(Violation("overshared_edge",
                                    f"edge {e} shared by elements {inc}", inc))
    # doubly covered pairs (s, i), s < i, each reported once at its later
    # element, in the order of (i, s): i meets s across two edges (the same
    # triangle), or else s and i are CCW and traverse an edge of theirs and
    # of no third element in the same direction (they lie on one side of it)
    e2n, xy = table.edge2nodes, mesh.vertices
    # each array is freed once used: held on, the census and the neighbour
    # arrays raised the peak memory at 524,288 elements by 4 and 21 MB
    e = np.flatnonzero((count == 2) & (forward != 1))
    del count, forward
    n0, n1, n2 = (table.neighbors(slot) for slot in range(3))
    twice = np.where((n0 == n1) | (n0 == n2), n0, np.where(n1 == n2, n1, -1))
    covered = [(i, int(twice[i]), -1) for i in np.flatnonzero(
        (0 <= twice) & (twice < np.arange(ne))).tolist()]
    a, b = table.edge2elements[e].T
    fold = (areas[a] > 0.0) & (areas[b] > 0.0) & (twice[b] != a)
    covered += zip(b[fold].tolist(), a[fold].tolist(), e[fold].tolist())
    del n0, n1, n2, twice
    for i, s, e in sorted(covered):
        violations.append(
            Violation("duplicate_element", f"elements {s} and {i} cover the same "
                      "triangle", (s, i)) if e < 0 else
            Violation("folded_edge", f"elements {s} and {i} lie on one side of "
                      f"their shared edge {tuple(e2n[e].tolist())}", (s, i)))

    used = np.zeros(nv, dtype=bool)
    used[mesh.elements.ravel()] = True
    for i in np.nonzero(~used)[0]:
        violations.append(Violation("orphan_vertex",
                                    f"vertex {int(i)} belongs to no element",
                                    (int(i),)))

    def hanging(j: int, e: int, where: str) -> None:
        (a, b), (c, d) = e2n[e].tolist(), table.edge2elements[e].tolist()
        violations.append(Violation(
            "hanging_node", f"vertex {j} {where} edge {(a, b)} of elements "
            f"{(c,) if d < 0 else (c, d)}", (j, a, b)))

    # hanging nodes: the exact midpoint of an edge, looked up among the keys,
    # is a vertex other than the edge's ends; a block of edges at a time
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, len(e2n), _BLOCK):
            a, b = e2n[lo:lo + _BLOCK].T
            mid = ((xy[a] + xy[b]) / 2.0).view(np.complex128).ravel()
            at = np.searchsorted(keys, mid).clip(max=keys.size - 1)
            hit = firsts[at]
            for e in np.flatnonzero((keys[at] == mid) & (hit != a) & (hit != b)).tolist():
                hanging(int(hit[e]), lo + e, "splits")

        # vertices strictly inside edges; without overlapping elements, a
        # hanging node lies inside a boundary edge and ends boundary edges
        exhaustive = ne < _EXHAUSTIVE_LIMIT
        edges = (np.arange(len(e2n)) if exhaustive
                 else np.flatnonzero(table.edge2elements[:, 1] < 0))
        ends = np.arange(nv) if exhaustive else np.unique(e2n[edges])
        pts = xy[ends]
        reported = {v.ids for v in violations if v.kind == "hanging_node"}
        step = max(1, 2**16 // max(len(ends), 1))  # edge-vertex pairs per block
        for lo in range(0, len(edges), step):
            e = edges[lo:lo + step]
            inside = _geom.point_strictly_inside_segment(
                pts, xy[e2n[e, 0]][:, None], xy[e2n[e, 1]][:, None])
            for k, j in zip(*np.nonzero(inside)):
                (a, b), j = e2n[e[k]].tolist(), int(ends[j])
                if j not in (a, b) and (j, a, b) not in reported:
                    hanging(j, int(e[k]), "lies inside")

    return ConformityReport(violations)


def reference_neighbor(mesh: Mesh, t: int) -> int | None:
    """The element sharing t's reference edge, or None on the boundary."""
    t = operator.index(t)
    if not 0 <= t < mesh.n_elements:
        raise ValueError(f"element id {t} out of range")
    n = int(mesh.edge_table.neighbors(0)[t])
    return None if n < 0 else n


def classify_pair(mesh: Mesh, t1: int, t2: int) -> str:
    """Classify two distinct elements by their shared-edge relation.

    ``compatibly_divisible`` iff the shared edge is the reference edge of
    both or of neither; ``incompatible`` iff of exactly one;
    ``not_adjacent`` iff no shared edge.
    """
    t1, t2 = operator.index(t1), operator.index(t2)
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
    _, t1, t2, compatible = mesh.edge_table.shared_edges()
    is_bdd = bool(compatible.all())

    t, n1 = np.arange(mesh.n_elements), mesh.edge_table.neighbors(0)
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
    preserved; ancestor ids are remapped into the restricted initial mesh,
    ``restrict(initial, initial_subset)``.  Raises ValueError for an id
    that is no ancestor of the mesh.
    """
    subset = np.unique([operator.index(i) for i in initial_subset])
    if not subset.size:
        raise ValueError("initial_subset must be nonempty")
    absent = subset[~np.isin(subset, mesh.ancestor)]
    if absent.size:
        raise ValueError(f"initial element {absent[0]} is no ancestor of the mesh")
    keep = np.flatnonzero(np.isin(mesh.ancestor, subset))
    node_ids, tris = np.unique(mesh.elements[keep], return_inverse=True)
    remap = np.full(mesh.n_vertices, -1)
    remap[node_ids] = np.arange(node_ids.size)
    vparents = mesh.vertex_parents[node_ids]
    vparents = np.where(vparents >= 0, remap[vparents], -1)
    vparents[(vparents < 0).any(axis=1)] = -1
    return Mesh(mesh.vertices[node_ids], tris.reshape(-1, 3),
                gen=mesh.gen[keep],
                ancestor=np.searchsorted(subset, mesh.ancestor[keep]),
                red_son=mesh.red_son[keep], vertex_parents=vparents)


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
