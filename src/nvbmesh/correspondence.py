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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .mesh import EdgeKey, Mesh
from .refine import (MarkingInput, PatternPolicy, UnsupportedRefinementError,
                     refine_step)

Pair = tuple[int, EdgeKey]


class CorrespondenceError(ValueError):
    """Raised when two meshes do not admit the diamond-template bijection."""


@dataclass
class CorrMap:
    """Bijection between the incidence pairs of two meshes."""

    left: Mesh
    right: Mesh
    pairs: dict[Pair, Pair]

    def __post_init__(self):
        if len(self.pairs) != 3 * self.left.n_elements:
            raise CorrespondenceError("map does not cover all incidence pairs")
        if len(set(self.pairs.values())) != len(self.pairs):
            raise CorrespondenceError("map is not injective")

    def image_elements(self, t: int) -> set[int]:
        """corr(T): right elements receiving any incidence pair of T."""
        return {self.pairs[(t, e)][0] for e in self.left.edges_of(t)}

    def inverse(self) -> dict[Pair, Pair]:
        return {v: k for k, v in self.pairs.items()}

    def to_json(self) -> str:
        rows = [{"elem": t, "edge": list(e), "image_elem": s, "image_edge": list(f)}
                for (t, e), (s, f) in sorted(self.pairs.items())]
        return json.dumps(rows, indent=1)


def _geom_edge(mesh: Mesh, e: EdgeKey):
    a, b = mesh.point(e[0]), mesh.point(e[1])
    return (a, b) if a <= b else (b, a)


def build_corr(left: Mesh, right: Mesh) -> CorrMap:
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
        for t in sorted(unmatched):
            if t in used:
                continue
            ref = mesh.ref_edge(t)
            inc = mesh.edge_table[ref]
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

    return CorrMap(left=left, right=right, pairs=pairs)


def identity_corr(mesh: Mesh) -> CorrMap:
    pairs = {(t, e): (t, e) for t in range(mesh.n_elements)
             for e in mesh.edges_of(t)}
    return CorrMap(left=mesh, right=mesh, pairs=pairs)


def transfer_marking(corr: CorrMap, marking: MarkingInput) -> MarkingInput:
    """Push marked elements and edges through the correspondence.

    Transfers the pair set {(T, E) : T marked, E marked edge of T}; the
    image element count is at most twice the marked count.
    """
    src = [(t, e) for t in sorted(marking.elements)
           for e in corr.left.edges_of(t) if e in marking.edges]
    images = [corr.pairs[p] for p in src]
    return MarkingInput(frozenset(s for s, _ in images),
                        frozenset(f for _, f in images))


@dataclass
class CorrSequence:
    """Red-side meshes, bisection-side meshes, and per-step maps."""

    red: list[Mesh]
    tilde: list[Mesh]
    maps: list[CorrMap]
    tilde_markings: list[MarkingInput] = field(default_factory=list)


def corresponding_sequence(initial: Mesh, markings: list[MarkingInput],
                           policy: PatternPolicy | None = None) -> CorrSequence:
    """Mirror a red-refinement trace by a bisection-only trace.

    Runs ``refineNVBred`` on the given markings and, in lockstep,
    ``refineNVB3`` on the transferred markings.  Returns the red-side and
    bisection-side meshes, the per-step correspondence maps and the
    transferred markings.  Traces using bisec(5) are rejected.
    """
    if policy is None:
        policy = PatternPolicy.always_red()
    if policy.name == "interior_node":
        raise UnsupportedRefinementError(
            "correspondence is defined for bisec(3)/red traces only")
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


def verify_corr(corr: CorrMap, a: Mesh | None = None,
                b: Mesh | None = None) -> CorrReport:
    """Exhaustively check every correspondence property over the pair sets.

    Area comparability uses the fixed band 1/4 <= |T|/|T~| <= 4 (red and
    bisec3 sons of one father differ by at most one extra halving).
    """
    a = corr.left if a is None else a
    b = corr.right if b is None else b
    report = CorrReport()

    if len(corr.pairs) != 3 * a.n_elements or a.n_elements != b.n_elements:
        report.add("cardinality", len(corr.pairs), a.n_elements, b.n_elements)
        return report
    inv = corr.inverse()

    # (i) generation equality and area comparability, per pair
    for (t, e), (s, f) in corr.pairs.items():
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
        for e, inc in mesh.edge_table.items():
            if len(inc) != 2:
                continue
            t1, t2 = inc
            s1, f1 = mapping[(t1, e)]
            s2, f2 = mapping[(t2, e)]
            if s1 == s2 or f1 != f2 or set(dst.edge_table.get(f1, ())) != {s1, s2}:
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

    shared_relations(a, corr.pairs, a, b, "fwd")
    shared_relations(b, inv, b, a, "bwd")

    # (vii): all image elements of T carry the image of T's reference pair
    # as their own reference edge, and conversely
    for t in range(a.n_elements):
        s_ref, f_ref = corr.pairs[(t, a.ref_edge(t))]
        for e in a.edges_of(t):
            s, f = corr.pairs[(t, e)]
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
        if len(corr.image_elements(t)) > 2:
            report.add("image_spread", t, sorted(corr.image_elements(t)))

    return report
