"""
Comparing and combining refinements
===================================

Two independently refined meshes over the same initial mesh have a
coarsest common refinement, the overlay: per initial element it is the
union of the two bisection trees. Its size obeys the counting law
#(a + b) <= #a + #b - #initial. Restriction goes the other way: carve out
the sub-mesh over a subset of initial elements; the result is again a
conforming bisection mesh of the sub-domain.
"""

import numpy as np

from nvbmesh import (MarkingInput, lshape6, overlay, refine_step, restrict,
                     same_mesh, validate_mesh)

initial = lshape6()
rng = np.random.default_rng(0)


def random_refine(mesh, steps, rng):
    for _ in range(steps):
        draws = rng.random(mesh.n_elements)
        marked = [t for t in range(mesh.n_elements) if draws[t] < 0.35] or [0]
        mesh, _ = refine_step(mesh, MarkingInput.of(marked), "refineNVB")
    return mesh


a = random_refine(initial, 4, rng)
b = random_refine(initial, 4, rng)
ab = overlay(a, b)

print(f"a: {a.n_elements} elements, b: {b.n_elements} elements")
print(f"overlay: {ab.n_elements} elements "
      f"<= {a.n_elements} + {b.n_elements} - {initial.n_elements} "
      f"= {a.n_elements + b.n_elements - initial.n_elements}")
print("overlay conforming:", validate_mesh(ab).ok)
print("overlay(a, a) == a:", same_mesh(overlay(a, a), a))
print("overlay refines both inputs:",
      ab.n_elements >= max(a.n_elements, b.n_elements))

# the overlay refines a: every element of a is a union of overlay
# elements, so overlaying a again changes nothing
print("overlay(ab, a) == ab:", same_mesh(overlay(ab, a), ab))

# restrict to the lower-left quadrant of the L-shape (initial elements 0, 1)
sub = restrict(a, [0, 1])
print(f"\nrestriction to 2 initial elements: {sub.n_elements} elements, "
      f"area {sub.total_area()} (one quadrant), conforming: "
      f"{validate_mesh(sub).ok}")
