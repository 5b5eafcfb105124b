"""Reference P1 operators and solves, written apart from whitefem.

Nothing here imports whitefem.  The benchmark's checks take the program's
mesh arrays (nodes, triangles, boundary edges) as input, rebuild K, M and R
from them with the edge-vector formulas below, and solve with SciPy
directly.  ``self_check`` tests the assembled operators against closed
forms before any of them is used to judge the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


@dataclass(frozen=True)
class Operators:
    """K, M and R on one triangulation, assembled by ``assemble``."""

    nodes: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix
    R: sp.csr_matrix

    def system(self, lam: float, beta: float = 0.0) -> sp.csc_matrix:
        """A = K + lam M + beta R."""
        return (self.K + lam * self.M + beta * self.R).tocsc()


def _sparse(n, rows, cols, vals) -> sp.csr_matrix:
    return sp.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def assemble(nodes, triangles, edges) -> Operators:
    """Exact P1 stiffness, mass and boundary mass, vectorized over elements."""
    nodes = np.asarray(nodes, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    edges = np.asarray(edges, dtype=np.int64)
    n = nodes.shape[0]
    x, y = nodes[triangles, 0], nodes[triangles, 1]  # (m, 3)
    # b_i = y_j - y_k and c_i = x_k - x_j over the cyclic triple (i, j, k);
    # grad(phi_i) = (b_i, c_i) / (2 area).
    b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
    c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    if np.any(area <= 0):
        raise ValueError("reference assembly needs counterclockwise triangles")
    k_local = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) / (4.0 * area[:, None, None])
    m_local = (np.ones((3, 3)) + np.eye(3))[None] * (area / 12.0)[:, None, None]
    rows = np.repeat(triangles[:, :, None], 3, axis=2)
    cols = np.repeat(triangles[:, None, :], 3, axis=1)
    length = np.hypot(*(nodes[edges[:, 1]] - nodes[edges[:, 0]]).T)
    r_local = (np.ones((2, 2)) + np.eye(2))[None] * (length / 6.0)[:, None, None]
    erows = np.repeat(edges[:, :, None], 2, axis=2)
    ecols = np.repeat(edges[:, None, :], 2, axis=1)
    return Operators(
        nodes, triangles, edges,
        _sparse(n, rows, cols, k_local),
        _sparse(n, rows, cols, m_local),
        _sparse(n, erows, ecols, r_local),
    )


def self_check(ops: Operators, area: float, perimeter: float, tol: float = 1e-12) -> list[str]:
    """Closed-form identities of exact P1 operators on a polygon.

    1ᵀM1 is the area, K1 = 0, 1ᵀR1 is the perimeter, and for the coordinate
    function u = x, uᵀKu = ∫|∇x|² is the area again.  Returns the identities
    that fail (empty when all hold).  uᵀKu cancels terms of size 1/h² down
    to the area, so it gets 100 times the tolerance (its rounding error is
    1e-12 relative at 128×128).
    """
    one = np.ones(ops.nodes.shape[0])
    u = ops.nodes[:, 0]
    scale = abs(ops.K).sum(axis=1).max()
    failures = []
    if abs(one @ (ops.M @ one) - area) > tol * area:
        failures.append(f"1ᵀM1 = {one @ (ops.M @ one)!r}, area {area!r}")
    if np.abs(ops.K @ one).max() > tol * scale:
        failures.append(f"|K1|max = {np.abs(ops.K @ one).max():.3e}")
    if abs(one @ (ops.R @ one) - perimeter) > tol * perimeter:
        failures.append(f"1ᵀR1 = {one @ (ops.R @ one)!r}, perimeter {perimeter!r}")
    if abs(u @ (ops.K @ u) - area) > 100 * tol * area:
        failures.append(f"xᵀKx = {u @ (ops.K @ u)!r}, area {area!r}")
    return failures


def point_rows(nodes, triangles, points) -> np.ndarray:
    """Rows p(x) with p_i = phi_i(x), one per point (dense, shape (p, n))."""
    nodes = np.asarray(nodes, dtype=np.float64)
    corners = nodes[np.asarray(triangles)]  # (m, 3, 2)
    out = np.zeros((len(points), nodes.shape[0]))
    for row, point in enumerate(np.asarray(points, dtype=np.float64)):
        d = corners - point[None, None, :]
        # Barycentric weight of vertex i: signed area of the triangle the
        # point makes with the opposite edge, over the element area.
        w = np.stack([d[:, (i + 1) % 3, 0] * d[:, (i + 2) % 3, 1]
                      - d[:, (i + 2) % 3, 0] * d[:, (i + 1) % 3, 1] for i in range(3)], axis=1)
        w /= w.sum(axis=1, keepdims=True)
        inside = np.nonzero((w >= -1e-12).all(axis=1))[0]
        if inside.size == 0:
            raise ValueError(f"point {tuple(point)} lies outside the mesh")
        e = inside[0]
        weights = np.clip(w[e], 0.0, None)
        out[row, triangles[e]] = weights / weights.sum()
    return out


def discrete_covariance(ops: Operators, lam: float, points) -> np.ndarray:
    """Neumann Cov(X_h(x), X_h(y)) = p(x)ᵀ A⁻¹ M A⁻¹ p(y) for all point pairs."""
    P = point_rows(ops.nodes, ops.triangles, points)
    W = splu(ops.system(lam)).solve(P.T.copy())
    return W.T @ (ops.M @ W)


def relative_residuals(ops: Operators, lam: float, beta: float, coeffs, loads) -> np.ndarray:
    """‖A c − b‖ / ‖b‖ for each row pair (c, b)."""
    A = ops.system(lam, beta)
    C = np.asarray(coeffs).T
    B = np.asarray(loads).T
    return np.linalg.norm(A @ C - B, axis=0) / np.linalg.norm(B, axis=0)
