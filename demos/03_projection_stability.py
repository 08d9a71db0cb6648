"""
Why the L2-projection stays H1-stable under local refinement
============================================================

Each node gets a dyadic weight d_j = 2^(e_j/2) built from element-chain
distances and generations. On every mesh the refinement rules can
produce, weights of nodes sharing an element differ by a factor of at
most 2; that bounds the spectrum of the scaled element mass matrices
away from zero, and H1-stability of the L2-projection follows. Here we
check the mechanism numerically and measure the realized stability
constant along an adaptive run.
"""

import numpy as np

from nvbmesh import (check_conditions, compute_weights, measure_h1_stability,
                     run_refinement, uniform)
from nvbmesh.marking import RunConfig

config = RunConfig(initial="lshape6", dialect="refineNVB", strategy="dorfler",
                   theta=0.3, alpha=1.0, corner=(0.0, 0.0), steps=20, seed=0)
result = run_refinement(config)

print("step  elements  max d-ratio  max S_T  min lambda   ||grad Pi|| bound")
for i in range(0, len(result.meshes), 4):
    mesh = result.meshes[i]
    weights = compute_weights(mesh)
    report = check_conditions(mesh, weights)

    # two uniform bisections define the fine space the projection acts on
    fine = uniform(uniform(mesh, "bisec1"), "bisec1")
    constant = measure_h1_stability(mesh, fine)

    print(f"{i:4d}  {mesh.n_elements:8d}  {report.max_ratio:11.4f}  "
          f"{report.max_s_sum:7.3f}  {report.min_lam:10.4f}   {constant:.6f}")

final = result.final
weights = compute_weights(final)
report = check_conditions(final, weights)
exps = weights.exponents
print(f"\nfinal mesh: {final.n_elements} elements, generations "
      f"{int(final.gen.min())}..{int(final.gen.max())}, "
      f"weight exponents {int(exps.min())}..{int(exps.max())}")
print(f"every element passes ratio <= 2, S_T < 25, lambda_min > 0: "
      f"{report.all_pass}")

# The eigenvalue floor is no accident: with ratio <= 2 the pair sum is at
# most 13.5, so lambda_min = 5 - sqrt(S_T) >= 5 - sqrt(13.5) ~ 1.326.
floor = 5.0 - np.sqrt(13.5)
print(f"theoretical eigenvalue floor 5 - sqrt(13.5) = {floor:.4f}; "
      f"realized minimum {report.min_lam:.4f}")
