"""
Comparing and combining refinements
===================================

Two independently refined meshes over the same initial mesh have a
coarsest common refinement, the overlay: per initial element it is the
union of the two bisection trees. Its size obeys the counting law
#(a + b) <= #a + #b - #initial. Restriction goes the other way: carve out
the sub-mesh over a subset of initial elements; the result is again a
conforming bisection mesh of the sub-domain.

Overlay takes any mesh whose elements are nodes of the bisection trees:
bisec(5) refinements included, since bisec(5) is five bisections, but no
mesh that still holds a red son. A mesh holds no link to its initial
mesh, so overlay takes the initial mesh as its third argument; restriction
needs only the ancestor ids that every element carries, so both work on
meshes read back from .nvbm files too.
"""

import tempfile
from pathlib import Path

import numpy as np

from nvbmesh import (MarkingInput, lshape6, overlay, read_mesh, refine_step,
                     restrict, same_mesh, validate_mesh, write_mesh)
from nvbmesh.marking import make_policy

initial = lshape6()
rng = np.random.default_rng(0)


def random_refine(mesh, steps, rng):
    for _ in range(steps):
        draws = rng.random(mesh.n_elements)
        marked = [t for t in range(mesh.n_elements) if draws[t] < 0.35] or [0]
        mesh, _ = refine_step(mesh, MarkingInput(marked), "refineNVB")
    return mesh


a = random_refine(initial, 4, rng)
b = random_refine(initial, 4, rng)
ab = overlay(a, b, initial)

print(f"a: {a.n_elements} elements, b: {b.n_elements} elements")
print(f"overlay: {ab.n_elements} elements "
      f"<= {a.n_elements} + {b.n_elements} - {initial.n_elements} "
      f"= {a.n_elements + b.n_elements - initial.n_elements}")
print("overlay conforming:", validate_mesh(ab).ok)
print("overlay(a, a) == a:", same_mesh(overlay(a, a, initial), a))
print("overlay refines both inputs:",
      ab.n_elements >= max(a.n_elements, b.n_elements))

# the overlay refines a: every element of a is a union of overlay
# elements, so overlaying a again changes nothing
print("overlay(ab, a) == ab:", same_mesh(overlay(ab, a, initial), ab))

# restrict to the lower-left quadrant of the L-shape (initial elements 0, 1)
sub = restrict(a, [0, 1])
print(f"\nrestriction to 2 initial elements: {sub.n_elements} elements, "
      f"area {sub.total_area()} (one quadrant), conforming: "
      f"{validate_mesh(sub).ok}")

# a mesh read back from a file is its arrays alone, and that is all
# overlay and restriction need
with tempfile.TemporaryDirectory() as tmp:
    write_mesh(a, Path(tmp) / "a.nvbm")
    loaded = read_mesh(Path(tmp) / "a.nvbm")
print("read back, same overlay and restriction:",
      same_mesh(overlay(loaded, b, initial), ab)
      and same_mesh(restrict(loaded, [0, 1]), sub))

# a bisec(5) refinement of two initial elements, overlaid with a
c, _ = refine_step(initial, MarkingInput.all_edges(initial, [0, 3]), "refine",
                   make_policy("interior-node"))
ac = overlay(a, c, initial)
refines_both = all(same_mesh(overlay(ac, x, initial), ac) for x in (a, c))
print(f"\nbisec(5) refinement: {c.n_elements} elements; overlay with a: "
      f"{ac.n_elements} elements, conforming: {validate_mesh(ac).ok}, "
      f"refines both inputs: {refines_both}")
