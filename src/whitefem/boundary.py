"""Measurable boundary operators at the discrete level.

The trace of a V_h function is its restriction to boundary nodes; the weak
conormal derivative is the boundary part of the volume residual
K c + lam M c - b, i.e. the functional phi -> a(u, phi) - <f, phi> tested
against boundary hat functions.  For a Galerkin solution paired with its own
load this functional vanishes identically, which is the per-sample discrete
form of the homogeneous Neumann/Robin boundary condition.

Boundary norms live in a weighted scale space: the boundary is parameterized
by arclength, expanded in real trigonometric modes made orthonormal for the
spectrally weighted H^{-1/2} inner product, and the k-th coefficient enters
with weight k^{-2}.  The basis is mesh independent, so norms can be compared
across refinement levels; norms do depend on this (fixed) basis choice, null
vectors do not.  On an interval the boundary is two points and the weights
degenerate to {1, 1/4}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import FemFunction
from .mesh import Mesh
from .noise import LoadSample
from .sampling import DiscreteSolutionOperator
from .spectral import EigenBasis, TruncatedValue

TRACE = "trace"
FUNCTIONAL = "functional"

_GS_DROP_TOL = 1e-10
# Boundary modes of the 2D scale-space basis.
_SCALE_MODES = 33
# Gauss-Legendre nodes/weights on [0, 1] used for facet integrals of
# piecewise-linear traces against trigonometric modes.
_EDGE_T, _EDGE_W = np.polynomial.legendre.leggauss(8)
_EDGE_T = 0.5 * (_EDGE_T + 1.0)
_EDGE_W = 0.5 * _EDGE_W


@dataclass(frozen=True)
class BoundaryFunction:
    """Values (trace) or dual coefficients (functional) at boundary nodes.

    `node_indices` is the sorted array of boundary node indices; `values`
    aligns with it.
    """

    mesh: Mesh
    node_indices: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in (TRACE, FUNCTIONAL):
            raise ValueError(f"unknown boundary representation {self.kind!r}")
        vals = np.asarray(self.values, dtype=np.float64)
        idx = np.asarray(self.node_indices, dtype=np.int64)
        if vals.shape != idx.shape:
            raise ValueError("values and node_indices differ in length")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "node_indices", idx)


def trace(u: FemFunction) -> BoundaryFunction:
    """Restriction of u to the boundary nodes (exact for V_h functions)."""
    idx = u.mesh.boundary_nodes()
    return BoundaryFunction(u.mesh, idx, u.coefficients[idx], TRACE)


def weak_conormal_derivative(
    u: FemFunction,
    load,
    lam: float,
    *,
    K: sp.sparray,
    M: sp.sparray,
) -> BoundaryFunction:
    """Boundary functional phi_i -> a0(u, phi_i) - <f, phi_i>, i on the boundary.

    This realizes the volume definition of the conormal derivative exactly on
    V_h test functions: d = (K c + lam M c - b) restricted to boundary rows.
    `load` may be a LoadSample or a raw dual vector.  K and M are the mesh's
    stiffness and mass matrices, assembled once by their owner (for example
    `DiscreteSolutionOperator.K` and `.M`).
    """
    mesh = u.mesh
    b = load.b if isinstance(load, LoadSample) else np.asarray(load, dtype=np.float64)
    if b.shape != (mesh.n_nodes,):
        raise ValueError("load vector does not match the mesh of u")
    residual = K @ u.coefficients + lam * (M @ u.coefficients) - b
    idx = mesh.boundary_nodes()
    return BoundaryFunction(mesh, idx, residual[idx], FUNCTIONAL)


def robin_residual(
    u: FemFunction,
    load,
    lam: float,
    beta: float,
    basis: "ScaleSpaceBasis | None" = None,
    *,
    K: sp.sparray,
    M: sp.sparray,
    R: sp.sparray | None = None,
) -> float:
    """Scale-space norm of d + beta R c on boundary test functions.

    beta = 0 degenerates to the Neumann residual, and only then may the
    boundary mass matrix R be omitted.  For a Galerkin solution with its own
    load the value is at solver-residual level.
    """
    d = weak_conormal_derivative(u, load, lam, K=K, M=M)
    if beta != 0.0:
        if R is None:
            raise ValueError("beta != 0 needs the boundary mass matrix R")
        rc = (R @ u.coefficients)[d.node_indices]
        d = BoundaryFunction(u.mesh, d.node_indices, d.values + beta * rc, FUNCTIONAL)
    if basis is None:
        basis = scale_space_basis(u.mesh)
    return scale_space_norm(d, basis).value


# -- scale space --------------------------------------------------------------


@dataclass(frozen=True)
class ScaleSpaceBasis:
    """Ordered boundary basis with H_sc weights k^{-2}.

    2D: arclength trigonometric modes on the closed boundary chain
    (k = 1 constant, then cos/sin pairs of increasing frequency), scaled to
    be orthonormal in the weighted H^{-1/2} inner product.  1D: the two
    endpoint indicators.
    """

    mesh: Mesh
    chain: np.ndarray          # boundary node indices in arclength order
    arclength: np.ndarray      # s-coordinate of each chain node
    perimeter: float
    kappa: np.ndarray          # arclength frequency of mode k
    weights: np.ndarray        # k^{-2}, strictly decreasing

    @property
    def n_modes(self) -> int:
        return self.kappa.size

    def _mode_values(self, s: np.ndarray) -> np.ndarray:
        """L2-orthonormal mode values g_k(s), shape (n_modes, len(s))."""
        P = self.perimeter
        out = np.empty((self.n_modes, s.size))
        out[0] = 1.0 / np.sqrt(P)
        amp = np.sqrt(2.0 / P)
        for k in range(1, self.n_modes):
            j = (k + 1) // 2
            arg = 2.0 * np.pi * j * s / P
            out[k] = amp * (np.cos(arg) if k % 2 == 1 else np.sin(arg))
        return out

    def l2_coefficients(self, g: BoundaryFunction) -> np.ndarray:
        """Coefficients of g against the L2 modes.

        Trace representation: exact facet-wise Gauss integration of the
        piecewise-linear trace.  Functional representation: the duality
        pairing with each mode's nodal interpolant.
        """
        vals = g.values[_chain_positions(g.node_indices, self.chain)]
        if self.mesh.dim == 1:
            return vals
        if g.kind == FUNCTIONAL:
            modes = self._mode_values(self.arclength)
            return modes @ vals
        s0, seg_len, v0, v1 = self._segments(vals)
        # Quadrature points along every facet at once: (n_seg, n_q).
        sq = s0[:, None] + seg_len[:, None] * _EDGE_T[None, :]
        gq = v0[:, None] + (v1 - v0)[:, None] * _EDGE_T[None, :]
        wq = seg_len[:, None] * _EDGE_W[None, :]
        modes = self._mode_values(sq.ravel())
        return modes @ (gq * wq).ravel()

    def _segments(self, vals: np.ndarray):
        """Start arclength, length and end values of each facet, in chain order."""
        s1 = np.append(self.arclength[1:], self.perimeter)
        return self.arclength, s1 - self.arclength, vals, np.append(vals[1:], vals[0])

    def h_minus_half_coefficients(self, g: BoundaryFunction) -> np.ndarray:
        """gamma_k = (g, f_k) in the weighted H^{-1/2} inner product."""
        # kappa is 0 in 1D, where the factor is exactly 1
        return self.l2_coefficients(g) * (1.0 + self.kappa**2) ** -0.25

    def tail_sq_bound(self, g: BoundaryFunction) -> float:
        """Bound on the squared H_sc contribution of modes beyond n_modes."""
        if self.mesh.dim == 1:
            return 0.0
        if g.kind == TRACE:
            # |gamma_k| <= ||g||_{H^{-1/2}} <= ||g||_{L2(boundary)}, whose square
            # is sum over facets of L/3 (v0^2 + v0 v1 + v1^2), the same as v^T R v
            _, seg_len, v0, v1 = self._segments(g.values[_chain_positions(g.node_indices, self.chain)])
            bound_sq = float(np.sum(seg_len / 3.0 * (v0 * v0 + v0 * v1 + v1 * v1)))
        else:
            bound_sq = (2.0 / self.perimeter) * float(np.sum(np.abs(g.values))) ** 2
        return bound_sq / self.n_modes  # sum_{k>K} k^{-2} < 1/K


def _chain_positions(sorted_idx: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """Positions such that sorted_idx[positions] == chain."""
    lookup = {int(v): i for i, v in enumerate(sorted_idx)}
    try:
        return np.array([lookup[int(v)] for v in chain], dtype=np.int64)
    except KeyError as exc:
        raise ValueError("boundary function does not cover the boundary chain") from exc


def boundary_chain(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, float]:
    """Boundary nodes in counterclockwise arclength order.

    Returns (chain node indices, arclength of each chain node, perimeter).
    Requires a single closed boundary loop (simple polygon).
    """
    if mesh.dim == 1:
        idx = mesh.boundary_nodes()
        xs = mesh.nodes[idx, 0]
        order = np.argsort(xs)
        return idx[order], np.array([0.0, 1.0]), 2.0
    neighbors: dict[int, list[int]] = {}
    for i, j in mesh.facet_nodes:
        neighbors.setdefault(int(i), []).append(int(j))
        neighbors.setdefault(int(j), []).append(int(i))
    if any(len(v) != 2 for v in neighbors.values()):
        raise ValueError("boundary is not a single closed loop")
    nodes = np.array(sorted(neighbors))
    coords = mesh.nodes[nodes]
    start = int(nodes[np.lexsort((coords[:, 1], coords[:, 0]))[0]])
    chain = [start]
    prev, cur = None, start
    while True:
        a, b = neighbors[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        chain.append(nxt)
        prev, cur = cur, nxt
        if len(chain) > len(nodes):
            raise ValueError("boundary loop does not close")
    if len(chain) != len(nodes):
        raise ValueError("boundary has more than one loop")
    chain = np.array(chain, dtype=np.int64)
    pts = mesh.nodes[chain]
    # counterclockwise orientation via the shoelace area
    area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
    if area2 < 0:
        chain = np.concatenate([chain[:1], chain[1:][::-1]])
        pts = mesh.nodes[chain]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    return chain, s, float(seg.sum())


def scale_space_basis(mesh: Mesh) -> ScaleSpaceBasis:
    """Construct the fixed H_sc basis for a mesh boundary: _SCALE_MODES modes
    in 2D, the two endpoint indicators in 1D."""
    chain, s, perimeter = boundary_chain(mesh)
    if mesh.dim == 1:
        kappa = np.zeros(2)
        weights = np.array([1.0, 0.25])
        return ScaleSpaceBasis(mesh, chain, s, perimeter, kappa, weights)
    k = np.arange(1, _SCALE_MODES + 1)
    j = k // 2  # frequency index: 0, 1, 1, 2, 2, ...
    kappa = 2.0 * np.pi * j / perimeter
    return ScaleSpaceBasis(mesh, chain, s, perimeter, kappa, (1.0 * k) ** -2.0)


def scale_space_norm(g: BoundaryFunction, basis: ScaleSpaceBasis) -> TruncatedValue:
    """H_sc norm (sum_k k^{-2} gamma_k^2)^{1/2} with a truncation tail bound.

    The reported tail bounds the squared remainder of the mode sum.
    """
    gamma = basis.h_minus_half_coefficients(g)
    value = float(np.sqrt(np.sum(basis.weights * gamma**2)))
    return TruncatedValue(value, basis.tail_sq_bound(g))


# -- discrete Cameron-Martin system -------------------------------------------


class CameronMartinSystem:
    """Energy-orthonormal image of eigenmode loads under the discrete solve.

    Candidates T_h f_k (f_k the nodal interpolants of exact eigenmodes) are
    orthonormalized in the energy inner product a(u, v) = u^T A v, in basis
    order; a candidate is dropped when its energy norm after two classical
    Gram-Schmidt passes against the kept vectors is at most 1e-10 of the exact
    image's, ||T e_k||_a = (mu_k + lam)^-1/2, so the vectors are those of the
    first m independent candidates.  The candidates come in blocks, each as
    many as vectors are still missing, evaluated, loaded and solved at once.
    Against this system a sampled path expands with coefficients read off its
    own load, since a(X_h, e_k) = b^T e_k.
    """

    def __init__(self, op: DiscreteSolutionOperator, basis: EigenBasis, m: int):
        if m < 0 or m > op.n_free:
            raise ValueError(f"truncation {m} outside [0, {op.n_free}]")
        self.op = op
        self.vectors = np.empty((op.n_free, m))
        kept = k = 0
        while kept < m:
            if k >= basis.count:
                raise RuntimeError(
                    f"eigenbasis exhausted after {basis.count} candidates while "
                    f"building {m} energy-orthonormal vectors"
                )
            k1 = min(k + m - kept, basis.count)
            block = op.solve_free((op.M @ basis.evaluate(op.mesh.nodes, k, k1).T)[op.free])
            drop = _GS_DROP_TOL / np.sqrt(basis.mu[k:k1] + op.lam)
            for v, tol in zip(block.T, drop):
                kept_vectors = self.vectors[:, :kept]
                for _ in range(2):  # reorthogonalize to keep the Gram matrix at identity
                    v = v - kept_vectors @ (kept_vectors.T @ (op.A @ v))
                norm = np.sqrt(max(v @ (op.A @ v), 0.0))
                if norm > tol:  # a NaN norm fails: the vector is dropped
                    self.vectors[:, kept] = v / norm
                    kept += 1
            k = k1

    def coefficients(self, load: LoadSample, m: int | None = None) -> np.ndarray:
        """Path coefficients against the first m vectors (all when m is None):
        e_k^T b on the free dofs."""
        return self.vectors[:, :m].T @ load.b[self.op.free]

    def partial_sum(self, load: LoadSample, m: int | None = None) -> FemFunction:
        return FemFunction(self.op.mesh, self.op.extend(self.vectors[:, :m] @ self.coefficients(load, m)))
