"""
Red refinements are bisection refinements in disguise
=====================================================

Every red-refined mesh sequence is mirrored by a bisection-only sequence
of exactly the same element count: outside "diamonds" the meshes agree
element by element, and inside each diamond the two meshes cover the same
quadrilateral with two triangles split along different diagonals. The
correspondence maps incidence pairs (element, edge) bijectively and
preserves generations, neighbor relations and reference edges, which is
what lets counting results proved for bisections transfer to red
refinement.
"""

import numpy as np

from nvbmesh import MarkingInput, refine_step, square2, verify_corr
from nvbmesh.correspondence import corresponding_sequence
from nvbmesh.marking import make_policy

initial = square2()
rng = np.random.default_rng(42)
policy = make_policy("red")

markings = []
mesh = initial
for _ in range(6):
    draws = rng.random(mesh.n_elements)
    marked = [t for t in range(mesh.n_elements) if draws[t] < 0.3] or [0]
    markings.append(MarkingInput.all_edges(mesh, marked))
    mesh, _ = refine_step(mesh, markings[-1], "refineNVBred", policy)

seq = corresponding_sequence(initial, markings, policy)

print("step  red mesh  bisec3 twin  diverged diamonds  verified")
for i, corr in enumerate(seq.maps):
    twins = sum(1 for t in range(corr.left.n_elements)
                if len(corr.image_elements(t)) == 2)
    report = verify_corr(corr)
    print(f"{i:4d}  {corr.left.n_elements:8d}  {corr.right.n_elements:11d}  "
          f"{twins // 2:17d}  {report.ok}")

print("\nmarked-element inflation on the bisection side "
      "(never more than 2x):")
for i, (marking, tilde) in enumerate(zip(markings, seq.tilde_markings)):
    print(f"  step {i}: {len(marking.elements):3d} marked -> "
          f"{len(tilde.elements):3d} transferred")

final = seq.maps[-1]
red_sons = [t for t in range(final.left.n_elements) if final.left.red_son[t]]
print(f"\nfinal state: {len(red_sons)} red sons; each spreads its three "
      "incidence pairs over exactly two bisection-side elements:")
for t in red_sons[:4]:
    print(f"  red son {t} -> elements {sorted(final.image_elements(t))}")
