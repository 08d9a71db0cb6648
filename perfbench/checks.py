"""Output checks of the benchmark and the exact H1 reference computation.

``h1_exact`` computes the top generalized eigenvalues of the projected
stiffness pencil of one nested pair exactly, by a reduction to the coarse
space.  With C = M_c^-1 B the L2-projection (B the cross mass), C1 = C
without column 0 and K1 the fine stiffness pinned at node 0,
A = C^T K_c C has rank at most n_c, so the pencil (A1, K1) has the same
nonzero eigenvalues as L^T K_c L, where L L^T = G = C1 K1^-1 C1^T.  Pinning
node 0 is exact because A and K both annihilate constants.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

DATA = Path(__file__).resolve().parent / "data"

# a measured H1 constant fails when it lies above the exact top by more
# than rounding, or below it by more than this relative amount
H1_ABOVE_RTOL = 1e-9
H1_BELOW_RTOL = 1e-4


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def load_json(name: str) -> dict:
    return json.loads((DATA / name).read_text())


def h1_pair_ok(value: float, exact_top: float) -> bool:
    return (exact_top * (1.0 - H1_BELOW_RTOL) <= value
            <= exact_top * (1.0 + H1_ABOVE_RTOL))


def h1_run_config():
    """The RunConfig of the h1-sequence coarse meshes, as recorded."""
    from nvbmesh.marking import RunConfig

    run = load_json("h1_reference.json")["run"]
    return RunConfig(**dict(run, corner=tuple(run["corner"])))


def h1_exact(coarse, fine, count: int = 2, block: int = 256) -> list[float]:
    """The ``count`` largest H1 constants (square roots of the generalized
    eigenvalues) of the pair, largest first."""
    from nvbmesh.stability import assemble_nested

    system = assemble_nested(coarse, fine)
    b1 = system.cross_mass.tocsr()[:, 1:]
    k1 = spla.splu(system.stiffness[1:, :][:, 1:].tocsc())
    nc = coarse.n_vertices
    h = np.empty((nc, nc))                    # B1 K1^-1 B1^T, in column blocks
    for j in range(0, nc, block):
        rhs = b1[j:j + block].T.toarray()
        h[:, j:j + block] = b1 @ k1.solve(rhs)
    mass_c = system.coarse.mass.toarray()
    g = scipy.linalg.solve(mass_c, scipy.linalg.solve(mass_c, h).T,
                           assume_a="pos")
    l_fac = scipy.linalg.cholesky(0.5 * (g + g.T), lower=True)
    s = l_fac.T @ system.coarse.stiffness.toarray() @ l_fac
    lam = scipy.linalg.eigvalsh(0.5 * (s + s.T),
                                subset_by_index=[nc - count, nc - 1])
    return [math.sqrt(max(float(x), 0.0)) for x in lam[::-1]]
