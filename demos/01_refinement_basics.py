"""
Newest-vertex bisection in five minutes
=======================================

Build a mesh, mark a few elements, watch the closure keep everything
conforming, and inspect the different refinement patterns.
"""

import numpy as np

from nvbmesh import (MarkingInput, PatternPolicy, chain, classify_pair,
                     close_marks, lshape6, refine_step, square2,
                     structure_flags, uniform, validate_mesh)

# Two triangles over the unit square; the diagonal is the reference edge
# of both, so the pair is "compatibly divisible" and the mesh has the
# BDD property.
mesh = square2()
print(mesh)
print("pair relation across the diagonal:", classify_pair(mesh, 0, 1))
print("BDD:", structure_flags(mesh).is_bdd)

# Mark one element. The closure seeds its reference edge and then makes
# sure that whenever any edge of an element is due for refinement, its
# reference edge is too. Here the neighbor shares the diagonal, so both
# elements get split.
# The plan names edges by their ids in the mesh's edge table.
plan = close_marks(mesh, MarkingInput.of([0]), mode="nvb")
closed = mesh.edge_table.edge2nodes[plan.closed_edges]
print("\nclosed edges:", sorted(map(tuple, closed.tolist())))
print("patterns:", tuple(plan.pattern.tolist()))
print("marking {0} bisects exactly its chain:", chain(mesh, 0))

step1, refined = refine_step(mesh, MarkingInput.of([0]), "refineNVB")
print("refined elements:", sorted(refined), "->", step1)
assert validate_mesh(step1).ok

# Fully marked elements can be split by three bisections, by red
# refinement into four similar sons, or by five bisections, which plants
# a node strictly inside the element (the "interior node property").
tri = lshape6()
marking = MarkingInput.all_edges(tri, [0])

for policy, label in [(PatternPolicy.always_bisec3(), "bisec(3)"),
                      (PatternPolicy.always_red(), "red"),
                      (PatternPolicy.interior_node(), "bisec(5)")]:
    dialect = "refine"
    out, _ = refine_step(tri, marking, dialect, policy)
    gens = {g: int(n) for g, n in enumerate(np.bincount(out.gen)) if n}
    print(f"{label:9s}: {tri.n_elements} -> {out.n_elements} elements, "
          f"generation counts {gens}, red sons {int(out.red_son.sum())}")

# Generations track areas exactly: every element's area is its initial
# ancestor's area divided by 2**gen, with no floating-point slack, since
# all coordinates are iterated exact midpoints.
fine = uniform(uniform(square2(), "bisec3"), "bisec1")
expect = np.ldexp(square2().areas()[fine.ancestor], -fine.gen)
exact = bool((fine.areas() == expect).all())
print("\narea identity |T| = |ancestor| * 2^-gen exact on all",
      fine.n_elements, "elements:", exact)
