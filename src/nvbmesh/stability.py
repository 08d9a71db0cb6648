"""Dyadic nodal weights and measured H1-stability of the L2-projection.

For a node z_j the weight is d_j = 2**(e_j / 2) with the integer exponent

    e_j = min over elements T of (2*delta(z_j, T) - gen(T)),

where delta counts the minimal number of elements in a chain of pairwise
intersecting elements linking z_j to a corner of T.  Storing the exponent
instead of the weight turns every ratio and product bound into exact
integer arithmetic.

Chains connect through shared nodes, not only shared edges.  This is what
makes the weight-ratio law provable: for z_j, z_k in a common element T,
any chain realizing delta(z_k, .) extends by prepending T (which meets the
chain's first element at least in z_k), so the deltas differ by at most 1
and d_j / d_k <= 2 on every mesh.  Under edge-only chains that law is
falsifiable: a node touching a deep cluster can be chain-distance 1 from
it while a neighbor inside the same element needs several extra hops
around a boundary fan.

Both chains and connectivity live on the element-node incidence graph:
elements and nodes are its vertices, joined by unit edges, so one hop
element -> node -> element costs 2.  The exponents come from a single
shortest-path pass over that graph from a virtual super-source (see
``compute_weights``); the brute-force evaluation of the definition is a
test oracle in ``tests/oracles.py``.

The factor-2 ratio bound caps the per-element pair sum at 13.5 < 25 and
keeps the smallest eigenvalue of every scaled element mass matrix above
5 - sqrt(13.5) > 1.3, which is the mechanism certifying H1-stability of
the L2-projection onto the P1 space.  This module evaluates those
per-element conditions over all elements at once, one array column per
quantity, and measures the realized stability constant on nested mesh
pairs with a certified sparse eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from . import _geom
from .mesh import Mesh, _frozen, _readonly
from .meshio import _csv


class NumericFailure(RuntimeError):
    """Raised when a result leaves float64 or a solve misses its tolerance."""


# -- nodal weights ---------------------------------------------------------------


@dataclass(frozen=True)
class NodeWeights:
    """Per-node dyadic weights d_j = 2**(exponents_j / 2), read-only int64."""

    exponents: np.ndarray

    def __post_init__(self):
        exps = np.asarray(self.exponents)
        if exps.ndim != 1 or exps.size and not np.issubdtype(exps.dtype, np.integer):
            raise ValueError("weight exponents must be a 1-D integer array, "
                             f"got shape {exps.shape} of {exps.dtype}")
        object.__setattr__(self, "exponents", _frozen(exps, np.int64))

    @property
    def values(self) -> np.ndarray:
        return _geom.pow2_half(self.exponents)


def compute_weights(mesh: Mesh) -> NodeWeights:
    """Evaluate the weight exponents exactly via element potentials.

    With omega(S) = -max{gen(T') : T' touches S}, the minimal exponent
    reachable through a chain of L pairwise touching elements starting at
    S is 2*L + omega(S).  So with seeds beta0(S) = omega(S) + 2 and step
    cost 2 per touching hop, the element potential

        beta(T) = min over S of (beta0(S) + 2 * hops(S, T))

    yields e_j = min over T containing z_j of min(-gen(T), beta(T)).

    beta is one Dijkstra pass on the incidence graph (a hop element ->
    node -> element costs 2) from a virtual super-source with an edge of
    weight beta0(S) - min(beta0) + 1 to each element S; the offset keeps
    every weight positive, since csgraph reads weight 0 as "no edge".  All
    distances are small integers, exact in float64, so the exponents equal
    the brute-force minimum over all elements bit for bit; the tests
    assert this against the oracle in ``tests/oracles.py``.
    """
    elements, gen = mesh.elements, mesh.gen
    m, n = mesh.n_elements, mesh.n_vertices
    if np.bincount(elements.ravel(), minlength=n).min() == 0:
        raise ValueError("compute_weights requires every node to lie in an "
                         "element")
    # maximal generation among elements touching each node
    maxgen_node = np.zeros(n, dtype=np.int64)
    np.maximum.at(maxgen_node, elements.ravel(), np.repeat(gen, 3))
    # beta0 = omega + 2, omega(S) the negated maximal generation in the
    # node neighborhood of S
    beta0 = 2 - maxgen_node[elements].max(axis=1)
    offset = int(beta0.min()) - 1
    # graph vertices: 0..m-1 the elements, m..m+n-1 the nodes, m+n the source
    el, nd = np.repeat(np.arange(m), 3), m + elements.ravel()
    graph = sp.csr_matrix(
        (np.concatenate([np.ones(6 * m), beta0 - offset]),
         (np.concatenate([el, nd, np.full(m, m + n)]),
          np.concatenate([nd, el, np.arange(m)]))), shape=(m + n + 1, m + n + 1))
    # strong components: the super-source has only outgoing edges, so it
    # stays a component of its own and joins nothing
    _, labels = csgraph.connected_components(graph, directed=True,
                                             connection="strong")
    if (labels[:m] != labels[0]).any():
        raise ValueError("mesh is not connected")
    dist = csgraph.dijkstra(graph, directed=True, indices=m + n)
    beta = dist[:m].astype(np.int64) + offset

    exps = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(exps, elements.ravel(), np.repeat(np.minimum(-gen, beta), 3))
    return NodeWeights(exponents=exps)


# -- per-element stability conditions --------------------------------------------


@dataclass(eq=False)
class StabilityReport:
    """Per-element columns (read-only, length m) and realized constants."""

    exponent_spread: np.ndarray          # int64: max_j e_j - min_j e_j
    ratio: np.ndarray                    # 2**(spread/2)
    s_sum: np.ndarray                    # sum over j,k of d_j^2 / d_k^2
    lam_min_closed: np.ndarray           # 5 - sqrt(s_sum)
    passes: np.ndarray                   # bool: all three conditions hold
    weight_size_ratio: float             # max of d_j/h(T) and h(T)/d_j
    scaled_quartic_bound: float          # top eigenvalue of the quartic pencil
    scaled_mass_bound: float             # top eigenvalue of the mass pencil
    measured_h1_constant: float | None = None

    @property
    def max_ratio(self) -> float:  # realized max weight ratio
        return float(self.ratio.max())

    @property
    def relaxed_ratio_value(self) -> float:  # 1 + r^2 + r^-2, r the max ratio
        r = max(self.max_ratio, 1.0)
        return 1.0 + r * r + 1.0 / (r * r)

    @property
    def max_s_sum(self) -> float:
        return float(self.s_sum.max())

    @property
    def min_lam(self) -> float:
        return float(self.lam_min_closed.min())

    @property
    def all_pass(self) -> bool:
        return bool(self.passes.all())

    def to_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "n_elements": self.passes.size,
            "max_ratio": self.max_ratio,
            "weight_size_ratio": self.weight_size_ratio,
            "scaled_quartic_bound": self.scaled_quartic_bound,
            "scaled_mass_bound": self.scaled_mass_bound,
            "relaxed_ratio_value": self.relaxed_ratio_value,
            "max_s_sum": self.max_s_sum,
            "min_lam": self.min_lam,
            "measured_h1_constant": self.measured_h1_constant,
            "failing_elements": np.flatnonzero(~self.passes).tolist(),
        }


_MASS_HAT = np.ones((3, 3)) + np.eye(3)
# mass_hat = L L^T; the pencils (Q, mass_hat) and (S, mass_hat) have the
# eigenvalues of L^-1 Q L^-T and L^-1 S L^-T
_L_INV = np.linalg.inv(np.linalg.cholesky(_MASS_HAT))


def _mass_pencil_eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencils (a, mass_hat) for a stack a of
    symmetric 3x3 matrices."""
    return np.linalg.eigvalsh(_L_INV @ a @ _L_INV.T)


def check_conditions(mesh: Mesh, weights: NodeWeights) -> StabilityReport:
    """Evaluate the sufficient stability conditions on every element.

    Per element: weight-ratio bound (exponent spread <= 2), the pair sum
    S_T < 25, and positivity of the smallest eigenvalue 5 - sqrt(S_T) of
    the scaled mass matrix, in closed form, each a column of the report.
    Realized global constants are reduced from them, including the
    quadratic-form constants of the eigenvalue criterion.  All elements are
    evaluated at once as (m, 3) and (m, 3, 3) arrays.
    """
    e = weights.exponents[mesh.elements]
    spread = e.max(axis=1) - e.min(axis=1)
    # the nine terms 2**(e_a - e_b), summed sequentially in row-major order
    terms = np.ldexp(1.0, e[:, :, None] - e[:, None, :]).reshape(-1, 9)
    s_sum = terms.cumsum(axis=1)[:, -1].copy()
    lam_closed = 5.0 - np.sqrt(s_sum)
    passes = (spread <= 2) & (s_sum < 25.0) & (lam_closed > 0.0)
    columns = _readonly(spread, _geom.pow2_half(spread), s_sum, lam_closed,
                        passes)

    h = _geom.diameters(mesh.vertices, mesh.elements)
    with np.errstate(over="ignore", invalid="ignore"):
        lam2 = h[:, None] * h[:, None] * np.ldexp(1.0, -e)   # (h/d_i)^2
        quartic = lam2[:, :, None] * _MASS_HAT * lam2[:, None, :]
    bad = np.flatnonzero(~np.isfinite(quartic).all(axis=(1, 2)))
    if bad.size:
        raise NumericFailure(f"the scaled quartic matrix of element {bad[0]} "
                             f"(generation {mesh.gen[bad[0]]}) overflows float64")
    quartic_bound = float(_mass_pencil_eigvalsh(quartic)[:, -1].max())
    del quartic   # nine floats per element, not held through the next solve
    val = weights.values[mesh.elements] / h[:, None]
    # the symmetrized pencil is positive definite exactly when the
    # scaled matrix is; skip failing elements
    l2 = lam2[lam_closed > 0.0]
    sym = 0.5 * (l2[:, :, None] * _MASS_HAT + _MASS_HAT * l2[:, None, :])
    # top eigenvalue of (mass_hat, sym) = 1 / lowest of (sym, mass_hat)
    low = _mass_pencil_eigvalsh(sym)[:, 0]
    return StabilityReport(
        *columns,
        weight_size_ratio=max(float(val.max()), float((1.0 / val).max())),
        scaled_quartic_bound=quartic_bound,
        scaled_mass_bound=float((1.0 / low).max(initial=0.0)))


def weights_to_csv(mesh: Mesh, weights: NodeWeights) -> str:
    return _csv("node,x,y,exponent", (
        (j, x, y, e) for j, ((x, y), e) in enumerate(zip(
            mesh.vertices.tolist(), weights.exponents.tolist()))))


# -- assembly ---------------------------------------------------------------------


@dataclass
class SparseSystem:
    """Assembled P1 system; for nested pairs also the coarse system,
    the prolongation P (fine x coarse) and the cross mass B (coarse x fine)."""

    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    coarse: "SparseSystem | None" = None
    prolong: sp.csr_matrix | None = None
    cross_mass: sp.csr_matrix | None = None

    _mass_factor: object = field(default=None, repr=False)

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._mass_factor is None:
            self._mass_factor = spla.factorized(self.mass.tocsc())
        return self._mass_factor(rhs)


def assemble(mesh: Mesh) -> SparseSystem:
    """Assemble global mass and stiffness by element summation."""
    tris, m = mesh.elements, mesh.n_elements
    p0, p1, p2 = np.take(mesh.vertices, tris, axis=0).transpose(1, 0, 2)
    area = mesh.areas()

    rows = np.repeat(tris, 3, axis=1).ravel()          # i index, 9 per element
    cols = np.tile(tris, (1, 3)).ravel()               # j index
    mass_vals = np.outer(area, _MASS_HAT.ravel() / 12.0).ravel()

    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]],
                 axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]],
                 axis=1)
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
        / (4.0 * area)[:, None, None]
    stiff_vals = stiff.reshape(m, 9).ravel()

    n = mesh.n_vertices
    mass = sp.coo_matrix((mass_vals, (rows, cols)), shape=(n, n)).tocsr()
    stiffness = sp.coo_matrix((stiff_vals, (rows, cols)), shape=(n, n)).tocsr()
    return SparseSystem(mass=mass, stiffness=stiffness)


def prolongation(coarse: Mesh, fine: Mesh) -> sp.csr_matrix:
    """P1 prolongation: coarse coefficients to fine coefficients.

    Requires fine to be produced from coarse by refinement: the coarse
    vertices are a prefix of the fine ones and every later vertex records
    the edge it bisected.  Each fine-node row holds the coarse hat-function
    values there (at most three nonzeros).

    P is the fixpoint of P <- W P from [I; 0], W the interpolation step (1
    at each coarse node, 1/2 at both parents of every later node): parents
    precede their children, so it is reached, and dyadic sums are exact.
    """
    nc, nf = coarse.n_vertices, fine.n_vertices
    if nf < nc or not np.array_equal(fine.vertices[:nc], coarse.vertices):
        raise ValueError("meshes are not nested (coarse vertices must be a "
                         "prefix of the fine ones)")
    later = np.arange(nc, nf)
    parents = fine.vertex_parents[nc:]
    bad = ((parents < 0) | (parents >= later[:, None])).any(axis=1)
    if bad.any():
        raise ValueError(f"fine vertex {nc + int(bad.argmax())} has no recorded "
                         "bisection parents; meshes are not a refinement chain")
    w = sp.csr_matrix((np.r_[np.ones(nc), np.full(parents.size, 0.5)],
                       (np.r_[np.arange(nc), np.repeat(later, 2)],
                        np.r_[np.arange(nc), parents.ravel()])), shape=(nf, nf))
    p = sp.eye(nf, nc, format="csr")
    while ((step := w @ p) != p).nnz:
        p = step
    p.sort_indices()
    return p


def assemble_nested(coarse: Mesh, fine: Mesh) -> SparseSystem:
    """Assemble the fine system together with the nested-space operators."""
    system, p = assemble(fine), prolongation(coarse, fine)
    system.coarse, system.prolong = assemble(coarse), p
    system.cross_mass = (p.T @ system.mass).tocsr()
    return system


def project_l2(system: SparseSystem, fine_coefficients: np.ndarray) -> np.ndarray:
    """L2-project a fine-space function onto the coarse space.

    Solves M_coarse c = B u and verifies the discrete orthogonality
    residual to 1e-10 relative.
    """
    if system.coarse is None or system.cross_mass is None:
        raise ValueError("project_l2 requires a system assembled with "
                         "assemble_nested")
    u = np.asarray(fine_coefficients, dtype=np.float64)
    rhs = system.cross_mass @ u
    c = system.coarse.mass_solve(rhs)
    resid = rhs - system.coarse.mass @ c
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    rel = float(np.linalg.norm(resid)) / scale
    if rel > 1e-10:
        raise NumericFailure(f"projection solve residual {rel:.3e} exceeds 1e-10; "
                             f"coarse mass condition may be degenerate")
    return c


# -- measured H1 stability --------------------------------------------------------


def measure_h1_stability(coarse: Mesh, fine: Mesh, seed: int = 0) -> float:
    """Largest gradient amplification of the projection over the fine space.

    Computes sup over nonconstant fine u of |grad Pi u| / |grad u| as the
    square root of the top eigenvalue of (A, K): A = B^T M_c^-1 K_c M_c^-1 B
    (B the cross mass), K the fine stiffness.  Both annihilate constants, so
    pinning node 0 keeps the nonzero spectrum and makes K1 definite.  One
    ARPACK generalized symmetric solve of (A1, K1), started from a vector
    drawn from ``seed``, gives the top Ritz pair (theta, x).  It is certified
    by |lambda - theta| <= ||A1 x - theta K1 x||_{K1^-1} / ||x||_{K1}; a
    bound above 1e-10 * max(theta, 1), or no convergence, raises
    NumericFailure.
    """
    system = assemble_nested(coarse, fine)
    b1 = system.cross_mass[:, 1:]
    b1t = b1.T.tocsr()
    k1 = system.stiffness[1:, 1:].tocsc()
    k1_solve = spla.splu(k1).solve
    n = k1.shape[0]

    def apply_a(x: np.ndarray) -> np.ndarray:
        v = system.coarse.mass_solve(b1 @ x)
        return b1t @ system.coarse.mass_solve(system.coarse.stiffness @ v)

    try:
        thetas, vectors = spla.eigsh(
            spla.LinearOperator((n, n), matvec=apply_a, dtype=np.float64),
            k=min(4, n - 1), M=k1, which="LA", tol=1e-12,
            Minv=spla.LinearOperator((n, n), matvec=k1_solve, dtype=np.float64),
            v0=np.random.default_rng(seed).standard_normal(n))
    except spla.ArpackNoConvergence as exc:
        raise NumericFailure(f"eigensolve did not converge: {exc}") from exc
    theta, x = float(thetas.max()), vectors[:, thetas.argmax()]
    r = apply_a(x) - theta * (k1 @ x)
    bound = math.sqrt(max(float(r @ k1_solve(r)), 0.0) / float(x @ (k1 @ x)))
    if not bound <= 1e-10 * max(theta, 1.0):
        raise NumericFailure(f"top eigenvalue {theta!r} has residual bound "
                             f"{bound:.3e}, above 1e-10 relative")
    return math.sqrt(max(theta, 0.0))

