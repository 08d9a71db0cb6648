"""Constructive correspondence between red-refined and bisection-only meshes.

A red-refined mesh sequence is mirrored by a bisection-only sequence whose
elements agree outside "diamonds": wherever an element was red-refined, the
two meshes cover the same quadrilateral (midline corners plus apex) with
two triangles each, split along different diagonals.  The correspondence is
a bijection between incidence pairs (element, edge) that is the identity on
coordinate-identical elements and follows a fixed template on diamonds:

* each outer edge of a red son maps into the partner triangle containing
  the same geometric edge,
* the reference-edge pair of a red son maps to the reference-edge pair of
  the partner containing the red son's (v2, v0)-edge.

Both diamond halves share their reference edge on either side, which is
what makes the template satisfy all correspondence properties.

A map is one read-only (m, 3) int64 array ``CorrMap.image``: incidence
pair (t, i), the slot-i edge of left element t with slots ordered as in
``EdgeTable.element2edges`` (slot 0 the reference edge), has the id
3*t + i, and ``image[t, i] = 3*s + j`` sends it to the slot-j edge of right
element s.  ``CorrMap.pairs`` shows the same map as a read-only dict
{(t, edge key): (s, edge key)}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .mesh import Mesh, _frozen, _row_ids
from .refine import POLICIES, RED, MarkingInput, PatternPolicy, refine_step


class CorrespondenceError(ValueError):
    """Raised when two meshes do not admit the diamond-template bijection."""


def _pair_rows(mesh: Mesh, ids: np.ndarray) -> np.ndarray:
    """(element, edge node a, edge node b) rows of the incidence pairs with
    the given ids."""
    table = mesh.edge_table
    return np.column_stack([ids // 3, np.take(
        table.edge2nodes, table.element2edges.ravel()[ids], axis=0)])


def _pair_list(mesh: Mesh, ids: np.ndarray) -> list[tuple[int, tuple[int, int]]]:
    """(element, edge key) of the incidence pairs with the given ids."""
    return [(t, (a, b)) for t, a, b in _pair_rows(mesh, ids).tolist()]


@dataclass(frozen=True, eq=False)
class CorrMap:
    """Bijection between the incidence pairs of two meshes."""

    left: Mesh
    right: Mesh
    image: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "image", _frozen(self.image, np.int64))
        if self.image.shape != (self.left.n_elements, 3):
            raise CorrespondenceError("map does not cover all incidence pairs")
        flat = self.image.ravel()
        if flat.min() < 0 or flat.max() >= 3 * self.right.n_elements:
            raise CorrespondenceError("map leaves the right incidence pairs")
        if np.bincount(flat).max() > 1:
            raise CorrespondenceError("map is not injective")

    @property
    def pairs(self) -> MappingProxyType:
        """Read-only {(t, edge key): (s, edge key)} in (t, slot) order."""
        return MappingProxyType(dict(zip(
            _pair_list(self.left, np.arange(self.image.size)),
            _pair_list(self.right, self.image.ravel()))))

    def image_elements(self, t: int) -> set[int]:
        """corr(T): right elements receiving any incidence pair of T."""
        return set((self.image[t] // 3).tolist())

    def to_json(self) -> str:
        """Rows {elem, edge, image_elem, image_edge} in (elem, edge) order,
        with the bytes of ``json.dumps(rows, indent=1)``."""
        rows = np.hstack([_pair_rows(self.left, np.arange(self.image.size)),
                          _pair_rows(self.right, self.image.ravel())])
        rows = rows[np.lexsort(rows[:, 2::-1].T)]
        row = (' {\n  "elem": %d,\n  "edge": [\n   %d,\n   %d\n  ],\n'
               '  "image_elem": %d,\n  "image_edge": [\n   %d,\n   %d\n  ]\n }')
        # 4,096 rows a block, so that no tuple of every field is held
        body = ",\n".join([",\n".join([row] * len(b)) % tuple(b.ravel().tolist())
                           for b in np.split(rows, range(4096, len(rows), 4096))])
        return "[\n" + body + "\n]"


def _diamonds(mesh: Mesh, tri: np.ndarray, free: np.ndarray, label: str):
    """Pair the free elements into diamonds: two elements sharing their
    reference edge.  Returns both halves and the sorted corner ids of every
    diamond, in the order of their first halves, and the key sort order."""
    e2e = mesh.edge_table.element2edges
    t = np.flatnonzero(free)
    other = mesh.edge_table.neighbors(0)[t]
    lone = other < 0
    bad = lone | ~free[other] | (e2e[other, 0] != e2e[t, 0])
    first = np.flatnonzero(~bad & (other > t))
    halves = np.stack([t[first], other[first]], 1)
    corners = np.sort(np.take(tri, halves, axis=0).reshape(-1, 6), 1)
    new = np.diff(corners, axis=1, prepend=-1) != 0
    sound = new.sum(1) == 4
    key = corners[sound][new[sound]].reshape(-1, 4)
    order = np.lexsort(key.T[::-1])
    repeat = np.zeros(len(key), dtype=bool)
    repeat[order[1:]] = (key[order[1:]] == key[order[:-1]]).all(1)
    # the first element at which a sweep in ascending id order fails
    fail = bad.copy()
    fail[first[~sound]] = fail[first[sound][repeat]] = True
    if fail.any():
        i = int(np.argmax(fail))
        t0, t1 = int(t[i]), int(other[i])
        if lone[i]:
            raise CorrespondenceError(f"{label} element {t0} has no diamond partner")
        if bad[i]:
            raise CorrespondenceError(f"{label} elements {t0},{t1} do not form a diamond")
        xy = mesh.vertices[mesh.elements[[t0, t1]]].tolist()
        corners = frozenset(map(tuple, xy[0] + xy[1]))
        raise CorrespondenceError(f"{label} diamond at {sorted(corners)} is degenerate")
    return t[first], other[first], key, order


def build_corr(left: Mesh, right: Mesh) -> CorrMap:
    """Reconstruct the correspondence between two mesh states.

    Elements with identical coordinate triples are mapped identically;
    the remaining ones must pair up as red-vs-bisec3 diamond halves.
    """
    m = left.n_elements
    if m != right.n_elements:
        raise CorrespondenceError(
            f"element counts differ: {left.n_elements} vs {right.n_elements}")
    # common vertex ids by coordinates; np.unique, like ==, merges -0.0 and 0.0
    xy = np.concatenate([left.vertices, right.vertices])
    vid = _row_ids(np.stack([np.unique(c, return_inverse=True)[1].reshape(-1)
                             for c in xy.T], axis=1))
    tri_l = vid[:left.n_vertices][left.elements]
    tri_r = vid[left.n_vertices:][right.elements]
    tid = _row_ids(np.concatenate([tri_l, tri_r]))
    if np.bincount(tid[m:]).max() > 1:
        raise CorrespondenceError("right mesh has duplicate coordinate triples")
    owner = np.full(2 * m, -1)
    owner[tid[m:]] = np.arange(m)
    s = owner[tid[:m]]
    image = 3 * s[:, None] + np.arange(3)
    free = np.bincount(s[s >= 0], minlength=m) == 0

    p, q, key_l, order_l = _diamonds(left, tri_l, s < 0, "left")
    u, w, key_r, order_r = _diamonds(right, tri_r, free, "right")
    if not np.array_equal(key_l[order_l], key_r[order_r]):
        raise CorrespondenceError("diamond corner sets do not match")
    partner = np.empty_like(order_l)
    partner[order_l] = order_r

    # left halves in sweep order, each with the two right halves of its
    # diamond; a left edge fits if it is one of their outer edges, which
    # appear once (the shared diagonal appears twice)
    def sides(tri, elems):  # sorted vertex-id pairs of the slot edges
        return np.sort(np.take(tri, elems, axis=0)[:, [[0, 1], [1, 2], [2, 0]]], 2)

    t = np.stack([p, q], axis=1).ravel()
    uw = np.stack([u[partner], w[partner]], axis=1).repeat(2, axis=0)
    outer = sides(tri_r, uw.ravel()).reshape(-1, 1, 6, 2)
    hit = (sides(tri_l, t)[:, 1:, None] == outer).all(3)
    c = hit.argmax(2)
    s12 = np.take_along_axis(uw, c // 3, 1)
    fit = (hit.sum(2) == 1).all(1) & (s12[:, 0] != s12[:, 1])
    if not fit.all():
        raise CorrespondenceError(
            f"element {int(t[np.argmin(fit)])} does not fit the diamond template")
    image[t, 1:] = 3 * s12 + c % 3
    image[t, 0] = 3 * s12[:, 1]
    return CorrMap(left=left, right=right, image=image)


def identity_corr(mesh: Mesh) -> CorrMap:
    return CorrMap(mesh, mesh, np.arange(3 * mesh.n_elements).reshape(-1, 3))


def transfer_marking(corr: CorrMap, marking: MarkingInput) -> MarkingInput:
    """Push marked elements and edges through the correspondence.

    Transfers the pair set {(T, E) : T marked, E marked edge of T}; the
    image edges come back as edge ids of ``corr.right``.  The image element
    count is at most twice the marked count.
    """
    t = np.fromiter(marking.elements, np.int64, len(marking.elements))
    src = (3 * t[:, None] + np.arange(3)).ravel()
    hit = np.isin(corr.left.edge_table.element2edges.ravel()[src], marking.edges,
                  kind="table")
    images = corr.image.ravel()[src[hit]]
    return MarkingInput(images // 3,
                        corr.right.edge_table.element2edges.ravel()[images])


@dataclass
class CorrSequence:
    """Red-side meshes, bisection-side meshes, and per-step maps."""

    red: list[Mesh]
    tilde: list[Mesh]
    maps: list[CorrMap]
    tilde_markings: list[MarkingInput] = field(default_factory=list)


def corresponding_sequence(initial: Mesh, markings: list[MarkingInput],
                           policy: PatternPolicy = POLICIES[RED]) -> CorrSequence:
    """Mirror a red-refinement trace by a bisection-only trace.

    Runs ``refineNVBred`` with ``policy`` (default: red) on the given
    markings and, in lockstep, ``refineNVB3`` on the transferred
    markings.  Returns the red-side and bisection-side meshes, the
    per-step correspondence maps and the transferred markings.
    ``refineNVBred`` rejects a trace that applies bisec(5) with
    UnsupportedRefinementError.
    """
    seq = CorrSequence(red=[initial], tilde=[initial],
                       maps=[identity_corr(initial)])
    for marking in markings:
        corr = seq.maps[-1]
        tilde_marking = transfer_marking(corr, marking)
        red_next, _ = refine_step(seq.red[-1], marking, "refineNVBred", policy)
        tilde_next, _ = refine_step(seq.tilde[-1], tilde_marking, "refineNVB3")
        seq.red.append(red_next)
        seq.tilde.append(tilde_next)
        seq.tilde_markings.append(tilde_marking)
        seq.maps.append(build_corr(red_next, tilde_next))
    return seq


# -- verification ---------------------------------------------------------------


@dataclass
class CorrReport:
    violations: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, *witness):
        if len(self.violations) < 50:
            self.violations.append((check, *witness))


def verify_corr(corr: CorrMap) -> CorrReport:
    """Exhaustively check every correspondence property over the pair sets.

    Area comparability uses the fixed band 1/4 <= |T|/|T~| <= 4 (red and
    bisec3 sons of one father differ by at most one extra halving).
    Violations are listed pair by pair, then edge by edge, then element by
    element, as a sweep in that order meets them.
    """
    a, b, image = corr.left, corr.right, corr.image
    report = CorrReport()
    if a.n_elements != b.n_elements:
        report.add("cardinality", image.size, a.n_elements, b.n_elements)
        return report
    inv = np.empty_like(image)
    inv.flat[image.ravel()] = np.arange(image.size)

    def emit(mask, names, witness):
        rows, cols = np.nonzero(mask)
        room = 50 - len(report.violations)
        for r, c in zip(rows[:room].tolist(), cols[:room].tolist()):
            report.add(names[c], *witness(r, c))

    def pair(mesh, p):
        return _pair_list(mesh, np.array([p]))[0]

    # (i) generation equality and area comparability, (iii) reference edges
    # map to reference edges, both directions; per pair
    p, img = np.arange(image.size), image.ravel()
    t, s = p // 3, img // 3
    ga, gb = a.gen[t], b.gen[s]
    ratio = a.areas[t] / b.areas[s]
    emit(np.stack([ga != gb, ~((0.25 <= ratio) & (ratio <= 4.0)),
                   (p % 3 == 0) != (img % 3 == 0)], axis=1),
         ("gen_preserved", "area_band", "ref_edge_preserved"),
         lambda r, c: [(r // 3, int(s[r]), int(ga[r]), int(gb[r])),
                       (r // 3, int(s[r]), float(ratio[r])),
                       (*pair(a, r), *pair(b, img[r]))][c])

    # over shared edges, both directions: (ii) neighbors, (iv) mutual
    # reference neighbors, (v) compatible divisibility, (vi) common-ancestor
    # neighbors are preserved
    for src, dst, im, label in ((a, b, image, "fwd"), (b, a, inv, "bwd")):
        table = src.edge_table
        e, t1, t2, compatible = table.shared_edges()
        p1, p2 = (3 * t + (np.take(table.element2edges, t, axis=0)
                           == e[:, None]).argmax(1) for t in (t1, t2))
        i1, i2 = im.ravel()[p1], im.ravel()[p2]
        s1, s2 = i1 // 3, i2 // 3
        f1, f2 = dst.edge_table.element2edges.ravel()[[i1, i2]]
        inc = np.take(dst.edge_table.edge2elements, f1, axis=0)
        broken = ((s1 == s2) | (f1 != f2) | (np.minimum(s1, s2) != inc[:, 0])
                  | (np.maximum(s1, s2) != inc[:, 1]))
        mutual = (p1 % 3 == 0) & (p2 % 3 == 0)
        on_dst = (i1 % 3 == 0).astype(int) + (i2 % 3 == 0)
        changed = (mutual != (on_dst == 2), compatible != (on_dst != 1),
                   (src.ancestor[t1] == src.ancestor[t2])
                   != (dst.ancestor[s1] == dst.ancestor[s2]))
        emit(np.stack([broken] + [x & ~broken for x in changed], axis=1),
             [f"{n}_{label}" for n in (
                 "neighbors_preserved", "mutual_ref_neighbors",
                 "compatibility_preserved", "ancestor_neighbors")],
             lambda r, c: (int(t1[r]), int(t2[r]),
                           tuple(table.edge2nodes[e[r]].tolist())))

    # (vii): all image elements of T carry the image of T's reference pair
    # as their own reference edge, and conversely
    for src, dst, im, label in ((a, b, image, "fwd"), (b, a, inv, "bwd")):
        d_e2e = dst.edge_table.element2edges
        emit(d_e2e[im // 3, 0] != d_e2e.ravel()[im[:, :1]],
             (f"ref_pair_dominates_{label}",) * 3,
             lambda r, c: (*pair(src, 3 * r + c), int(im[r, c]) // 3))

    # no element spreads its incidence pairs over more than 2 images
    spread = np.sort(image // 3, axis=1)
    emit(((spread[:, 0] != spread[:, 1])
          & (spread[:, 1] != spread[:, 2]))[:, None], ("image_spread",),
         lambda r, c: (r, spread[r].tolist()))
    return report
