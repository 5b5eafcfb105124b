"""P1 Lagrange assembly and deterministic solves of -Δu + λu = f.

All three boundary conditions are supported: Dirichlet (enforced by symmetric
elimination of boundary rows and columns), Neumann, and Robin with coefficient
beta > 0.  Element integrals of P1 products are exact closed forms, so no
quadrature error enters the assembled operators.  Loads are dual vectors
b_i = <f, phi_i>, which lets function loads (b = M f_nodal) and sampled
white-noise loads share one solve path.  That path factors the system matrix
once, on the first solve, as the symmetric positive definite matrix it is,
under one geometric nested-dissection ordering of the mesh's nodes, and every
backsolve reuses the factor.  The white-noise load factor (noise.LoadSampler)
is the Cholesky factor of M under the same ordering, through the same SuperLU
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .mesh import Mesh

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
ROBIN = "robin"

# Nested-dissection sets of at most this many nodes are not split further.
_ND_LEAF = 8
# Columns per block of a multi-column direct solve.
_SOLVE_CHUNK = 32
_BACKWARD_ERROR_TOL = 1e-10


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary operator tag: one of dirichlet/neumann/robin (+ beta)."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN, ROBIN):
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")
        if self.kind == ROBIN:
            if self.beta is None or not self.beta > 0:
                raise ValueError("Robin condition requires beta > 0")
        elif self.beta is not None:
            raise ValueError(f"beta is only meaningful for Robin, got kind={self.kind!r}")


def dirichlet() -> BoundaryCondition:
    return BoundaryCondition(DIRICHLET)


def neumann() -> BoundaryCondition:
    return BoundaryCondition(NEUMANN)


def robin(beta: float) -> BoundaryCondition:
    return BoundaryCondition(ROBIN, beta)


@dataclass(frozen=True)
class FemFunction:
    """Element of V_h: nodal coefficients over a mesh."""

    mesh: Mesh
    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=np.float64)
        if coeff.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"coefficient length {coeff.shape} does not match node count {self.mesh.n_nodes}"
            )
        object.__setattr__(self, "coefficients", coeff)


# -- assembly ----------------------------------------------------------------


def _check_measures(mesh: Mesh) -> np.ndarray:
    meas = mesh.element_measures
    # written so that NaN fails it, as an overflowed measure (inf) does
    bad = np.flatnonzero(~((meas > 0) & (meas < np.inf)))
    if bad.size:
        raise ValueError(f"degenerate element {bad[0]}: measure {float(meas[bad[0]])}")
    return meas


def _scatter(local: np.ndarray, nodes: np.ndarray, n: int) -> sp.csr_array:
    """Sum local matrices (m, k, k) on the node tuples (m, k) into an n x n CSR.

    Indices are int32, half the bytes of int64 in every matvec and in the
    factorizations' input.
    """
    nodes = nodes.astype(np.int32)
    ii = np.broadcast_to(nodes[:, :, None], local.shape)
    jj = np.broadcast_to(nodes[:, None, :], local.shape)
    return sp.coo_array((local.ravel(), (ii.ravel(), jj.ravel())), shape=(n, n)).tocsr()


def assemble_stiffness(mesh: Mesh) -> sp.csr_array:
    """K_ij = integral of grad(phi_i) . grad(phi_j); exact for P1."""
    meas = _check_measures(mesh)
    if mesh.dim == 1:
        base = np.array([[1.0, -1.0], [-1.0, 1.0]])
        local = base[None, :, :] / meas[:, None, None]
    else:
        G = element_gradients(mesh)
        gx, gy = G[:, :, 0], G[:, :, 1]
        local = (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]) * meas[
            :, None, None
        ]
    return _scatter(local, mesh.elements, mesh.n_nodes)


def assemble_mass(mesh: Mesh) -> sp.csr_array:
    """M_ij = integral of phi_i phi_j; exact degree-2 formulas."""
    meas = _check_measures(mesh)
    if mesh.dim == 1:
        base = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    else:
        base = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = base[None, :, :] * meas[:, None, None]
    return _scatter(local, mesh.elements, mesh.n_nodes)


def assemble_boundary_mass(mesh: Mesh) -> sp.csr_array:
    """R_ij = integral of phi_i phi_j over the boundary.

    In 1D the boundary measure is the counting measure on the two endpoints,
    so R is an indicator diagonal; in 2D each boundary edge of length L
    contributes the 1D mass matrix L/6 [[2,1],[1,2]].
    """
    if mesh.dim == 1:
        local = np.ones((mesh.n_facets, 1, 1))
    else:
        base = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        local = base[None, :, :] * mesh.facet_measures()[:, None, None]
    return _scatter(local, mesh.facet_nodes, mesh.n_nodes)


# -- factorized solves -------------------------------------------------------


def _ordered_splu(A: sp.sparray, order: np.ndarray):
    """SuperLU factor of A[order][:, order], for a symmetric A, with diagonal pivots only.

    The permuted matrix is built without a COO round trip: the CSR row
    gather A[order], its column indices relabelled through the inverse of
    order, and each row's entries sorted.  Those CSR arrays are the CSC
    arrays of A[order][:, order], A being symmetric, and equal the ones a
    COO conversion sorts into, 1.7-2x faster than that conversion at 4,225
    to 66,049 nodes (2-core x86-64 VM).  SuperLU factors that matrix in its
    own (NATURAL) column order.  With diagonal pivoting forced, the factor
    of a symmetric positive definite matrix is its L D L^T factorization.
    Raises ValueError when a pivot leaves the diagonal, which happens only
    on a zero pivot.  The pivots' signs are not read here: reading them
    makes lu keep CSC copies of its L and U factors for as long as lu lives.
    """
    rows = sp.csr_array(A)[order]
    position = np.empty(order.size, dtype=rows.indices.dtype)
    position[order] = np.arange(order.size)
    rows.indices = position[rows.indices]
    rows.has_sorted_indices = False
    rows.sort_indices()
    permuted = sp.csc_array((rows.data, rows.indices, rows.indptr), shape=A.shape)
    lu = splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ValueError("factorization pivoted off the diagonal: matrix is not SPD")
    return lu


def sparse_cholesky(M: sp.sparray, order: np.ndarray) -> sp.csr_array:
    """Sparse square root F of a symmetric positive definite M, F F^T = M.

    F is the Cholesky factor L of M[order][:, order] with its rows relabelled
    to node order: row order[k] of F is row k of L, so F[order] = L is lower
    triangular and column k of F belongs to factor position k.  The ordering
    is the caller's (the nested dissection of :func:`nested_dissection`), so
    F is a deterministic function of M and the mesh.  L is scaled and
    relabelled in place once SuperLU's own storage is released, then
    converted to CSR: rows in node order, each with ascending column
    indices.  F @ z then gathers z along each row instead of scattering into
    the result, in the same summation order, so it has the bits of the CSC
    product.  Raises ValueError when a pivot is not positive.
    """
    lu = _ordered_splu(M, order)
    d = lu.U.diagonal()
    if not (d > 0).all():
        raise ValueError("matrix is not positive definite (nonpositive pivot)")
    F = lu.L
    del lu
    # L D L^T = (L sqrt(D)) (L sqrt(D))^T: scale column k by sqrt(d_k).
    F.data *= np.repeat(np.sqrt(d), np.diff(F.indptr))
    F.indices = order.astype(F.indices.dtype)[F.indices]
    F.has_sorted_indices = False
    return F.tocsr()


def nested_dissection(mesh: Mesh, graph: sp.sparray) -> np.ndarray:
    """Geometric nested-dissection ordering of the mesh's nodes (George 1973).

    Returns order, a permutation of range(mesh.n_nodes).  A node set is split
    at the median of its wider coordinate axis (x on a tie); the separator is
    the lower-half nodes with a neighbour in the upper half.  Both halves are
    ordered recursively, then the separator, until a set has at most _ND_LEAF
    nodes; each leaf and separator is in ascending node order.  On a 2D mesh
    the factor of a matrix with the element graph's pattern then has
    O(n log n) fill (Lipton, Rose and Tarjan 1979).  Leaves hold 8 nodes
    because a leaf is not dissected: a 32-node leaf in ascending order gives
    banded factor columns that do not nest.  At 66,049 nodes 8-node leaves
    take the mass factor from 2,594,659 to 2,509,033 nonzeros and the system
    factor's SuperLU storage from 5,399,668 to 5,034,674 entries, for an
    ordering 13-23 % slower; 4-node leaves save under 0.4 % more.  This
    one ordering serves both factors: the load factor uses it as it is, and
    the system factor drops the Dirichlet nodes from it (FactorizedSystem).

    The neighbours are read from graph, a square matrix over all mesh nodes
    whose pattern is the mesh's element graph, as the mass matrix's is.  The
    recursion runs one tree level at a time, splitting every set of a level
    at once.  Each set is kept in ascending order and sorted along each axis,
    so its median is its middle element; only lower-half nodes within twice
    the longest edge extent of the median are tested for the separator.
    Only coordinates and connectivity enter, so the ordering is
    deterministic.
    """
    n = mesh.n_nodes
    order = np.arange(n)
    if n <= _ND_LEAF:
        return order
    graph = sp.csr_array(graph)
    indptr, indices = graph.indptr, graph.indices
    # A lower-half node further below the median than the longest edge
    # extent on the split axis has no upper-half neighbour; twice that
    # extent covers rounding.  Neighbours share an element, so the extent is
    # the largest spread of an element's corners, the rounded difference of
    # one of its neighbour pairs and at least that of every other.
    reach = np.empty(mesh.dim)
    for d, x in enumerate(mesh.corners()):
        hi, lo = x[:, 0].copy(), x[:, 0].copy()
        for k in range(1, x.shape[1]):
            np.maximum(hi, x[:, k], out=hi)
            np.minimum(lo, x[:, k], out=lo)
        reach[d] = 2.0 * (hi - lo).max(initial=0.0)
    coords = np.ascontiguousarray(mesh.nodes.T)
    # The active nodes, grouped by set in one group order: in ascending
    # order in ids, and sorted along axis d in by_axis[d].
    ids = np.arange(n)
    by_axis = [np.argsort(c, kind="stable") for c in coords]
    size, offset = np.array([n]), np.array([0])  # per set: node count, first position
    # 2 * (serial number of the node's set) + 1 in the upper half
    tag = np.empty(n, dtype=np.int64)
    kind = np.empty(n, dtype=np.int8)  # 0 lower half, 1 upper half, 2 separator
    serial = 0
    while size.size:
        k = size.size
        start = np.cumsum(size) - size
        ranges = [c[g[start + size - 1]] - c[g[start]] for c, g in zip(coords, by_axis)]
        axis = (ranges[-1] > ranges[0]).astype(np.int64)  # x unless y is wider
        med = coords[axis, np.choose(axis, [g[start + size // 2] for g in by_axis])]
        lab = np.repeat(np.arange(k), size)
        c = coords[axis[lab], ids]
        low = c < med[lab]
        n_low = np.add.reduceat(low, start)
        if (n_low == 0).any():
            low |= (n_low == 0)[lab] & (c <= med[lab])
            n_low = np.add.reduceat(low, start)
        tag[ids] = 2 * (serial + lab) + ~low
        serial += k
        # Separator: tested lower-half nodes with an upper-half neighbour in
        # their own set, found by one sweep over the tested nodes' rows.
        tested = np.nonzero(low & (c >= (med - reach[axis])[lab]))[0]
        rows = ids[tested]
        first = indptr[rows]
        deg = indptr[rows + 1] - first
        owner = np.repeat(np.arange(tested.size), deg)
        entry = np.arange(owner.size) + np.repeat(first - (np.cumsum(deg) - deg), deg)
        upper = tag[indices[entry]] == tag[rows][owner] + 1
        kid = (~low).view(np.int8)
        kid[tested[owner[upper]]] = 2
        kind[ids] = kid
        n_sep = np.add.reduceat(kid == 2, start)
        n_high = size - n_low
        # Child groups in kind-major order: every lower half, every upper
        # half, every separator.  Positions are post-order: lower half,
        # upper half, then the separator.
        sizes = np.concatenate([n_low - n_sep, n_high, n_sep])
        offsets = np.concatenate([offset, offset + n_low - n_sep, offset + n_low - n_sep + n_high])
        ids = np.concatenate([ids[kid == j] for j in range(3)])
        by_axis = [np.concatenate([g[kind[g] == j] for j in range(2)]) for g in by_axis]
        finished = sizes <= _ND_LEAF
        finished[2 * k:] = True
        finished[:k] |= n_high == 0  # no split: every coordinate is equal
        done = np.repeat(finished, sizes)
        place = np.repeat(offsets - (np.cumsum(sizes) - sizes), sizes) + np.arange(ids.size)
        order[place[done]] = ids[done]
        ids = ids[~done]
        halves = ~done[: done.size - n_sep.sum()]
        by_axis = [g[halves] for g in by_axis]
        size, offset = sizes[~finished], offsets[~finished]
    return order


class FactorizedSystem:
    """The one solver object of a mesh: A c = b on the free degrees of freedom.

    The single owner of the discrete operators: K, M and (Robin only) R are
    assembled here once, with 32-bit indices, and A is K + lam M (+ beta R) on
    the free degrees of freedom.  For Dirichlet problems the boundary
    rows/columns are eliminated, and `extend` puts a solution back on all
    nodes with exact zeros on the boundary.  A is the one sorted CSR copy of
    the reduced matrix; it serves the residuals and the factorization.
    `order` is the nested-dissection ordering of all nodes (from the
    coordinates and M's pattern), the one the load factor also uses.  A is
    factored once, on the first solve, as the symmetric positive definite
    matrix it is, under that ordering with the Dirichlet nodes dropped and the
    rest renumbered to free positions; with every node free that equals
    `order`.  Every later backsolve reuses that factor.  Because A is not
    factored here, a caller can build M's load factor first, and the transient
    copies of that factorization are freed before A's factor exists.  The
    operators and the ordering do not change after construction.  The sampling
    operator and the mode sums' level context are subclasses, not wrappers.
    """

    def __init__(self, mesh: Mesh, bc: BoundaryCondition, lam: float):
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        self.mesh = mesh
        self.bc = bc
        self.lam = float(lam)
        is_free = np.ones(mesh.n_nodes, dtype=bool)
        if bc.kind == DIRICHLET:
            is_free[mesh.boundary_nodes()] = False
        self.free = np.nonzero(is_free)[0]
        self.n_free = self.free.size
        if self.n_free == 0:
            raise ValueError("no free degrees of freedom (Dirichlet on a boundary-only mesh)")
        self.K = assemble_stiffness(mesh)
        self.M = assemble_mass(mesh)
        self.R = assemble_boundary_mass(mesh) if bc.kind == ROBIN else None
        A = self.K + lam * self.M
        if self.R is not None:
            A = A + bc.beta * self.R
        self.A = self.restrict(A)
        # M's pattern is the element graph.  A = K + lam M (+ beta R) is SPD
        # because lam > 0, beta > 0 and every element measure is positive,
        # all checked before this.
        self.order = nested_dissection(mesh, self.M)
        # A's ordering: each free node in `order`, named by its free position
        self._free_order = (np.cumsum(is_free) - 1)[self.order[is_free[self.order]]]

    @cached_property
    def _lu(self):
        """SuperLU factor of A under `_free_order`, built by the first solve."""
        return _ordered_splu(self.A, self._free_order)

    def restrict(self, S: sp.sparray) -> sp.sparray:
        """S on the free rows and columns; S itself when every node is free."""
        if self.n_free == self.mesh.n_nodes:
            return S
        return S[np.ix_(self.free, self.free)]

    def solve_free(self, b_free: np.ndarray) -> np.ndarray:
        """Solve on free dofs; accepts a vector or a matrix of columns.

        A single column (a vector, or a matrix with one column) is gathered
        into the factor's ordering as a vector, solved and scattered back.
        Each block of _SOLVE_CHUNK columns of a wider matrix is gathered in
        the output's own columns, solved, and scattered back, so no permuted
        copy of a wide b_free is made.

        The permuted A is symmetric, so A^T x = b is the same system, and a
        single column is solved by SuperLU's transposed sweep: it reads U's
        columns as dot products (gathers) where the normal sweep scatters
        updates.  For one column that took 0.65-0.90 of the normal sweep's
        time on meshes of 289 to 66,049 nodes, and agreed with it to 1e-15
        relative.  From two columns on the normal sweep is as fast or faster
        (the transposed one took 0.91-1.03x its time at 2 columns, 1.12x at 6,
        1.2-1.4x at 32 and 256, 2.0x at 32 columns of 66,049 unknowns), so
        wider blocks keep it.
        """
        order = self._free_order
        cols = b_free.reshape(b_free.shape[0], -1)
        if cols.shape[1] == 1:
            x = np.empty(cols.shape[0])
            x[order] = self._lu.solve(cols[order, 0], trans="T")
            return x.reshape(b_free.shape)
        x = np.empty(cols.shape, order="F")
        for start in range(0, cols.shape[1], _SOLVE_CHUNK):
            stop = start + _SOLVE_CHUNK
            block = x[:, start:stop]
            # order is a permutation, so "clip" changes no index; unlike the
            # default mode it lets take write into block without a buffer.
            np.take(cols[:, start:stop], order, axis=0, out=block, mode="clip")
            x[order, start:stop] = self._lu.solve(block)
        return x.reshape(b_free.shape)

    def extend(self, x_free: np.ndarray) -> np.ndarray:
        """Rows on the free nodes (a vector or columns) extended to all nodes
        by zeros on the Dirichlet nodes; x_free itself when every node is free."""
        if self.n_free == self.mesh.n_nodes:
            return x_free
        x = np.zeros((self.mesh.n_nodes, *x_free.shape[1:]))
        x[self.free] = x_free
        return x

    def solve(self, load: np.ndarray) -> np.ndarray:
        """Full-length solution coefficients for a full-length dual load."""
        load = np.asarray(load, dtype=np.float64)
        if load.shape[0] != self.mesh.n_nodes:
            raise ValueError("load vector length does not match node count")
        # extended after the solve, whose working arrays are then freed
        return self.extend(self.solve_free(load if self.n_free == self.mesh.n_nodes else load[self.free]))

    @cached_property
    def _norm_inf(self) -> float:
        """||A||_inf, the largest absolute row sum of the reduced A."""
        return float(abs(self.A).sum(axis=1).max())

    def backward_error(self, c_free: np.ndarray, b_free: np.ndarray) -> float:
        """Normwise backward error ||A c - b|| / (||A|| ||c|| + ||b||) of a solve.

        Vector norms are Euclidean and ||A|| is ||A||_inf, which bounds
        ||A||_2 for the symmetric A.  A backward-stable solve keeps this near
        machine precision at every mesh size, while ||A c - b|| / ||b|| grows
        like 1/h^2 for smooth loads, as ||A|| ||c|| / ||b|| does.
        """
        r = np.linalg.norm(self.A @ c_free - b_free)
        scale = self._norm_inf * np.linalg.norm(c_free) + np.linalg.norm(b_free)
        return float(r / scale) if scale != 0 else 0.0  # a NaN scale gives a NaN error

    def check_backward_error(self, c_free: np.ndarray, b_free: np.ndarray, what: str = "solver") -> None:
        """Raise RuntimeError, naming `what`, when the backward error of a
        solve exceeds 1e-10 or is NaN.  This is the one solve-quality check."""
        err = self.backward_error(c_free, b_free)
        if not err <= _BACKWARD_ERROR_TOL:
            raise RuntimeError(f"{what} backward error {err:.3e} exceeds {_BACKWARD_ERROR_TOL:.0e}")

    def solve_checked(self, load: np.ndarray) -> FemFunction:
        """Ritz-Galerkin solution for a dual-coordinate load vector, with the
        backward error of the reduced solve checked (check_backward_error)."""
        load = np.asarray(load, dtype=np.float64)
        if load.shape != (self.mesh.n_nodes,):
            raise ValueError(f"load vector length {load.shape} != node count {self.mesh.n_nodes}")
        c = self.solve(load)
        self.check_backward_error(c[self.free], load[self.free])
        return FemFunction(self.mesh, c)


# -- pointwise evaluation ----------------------------------------------------


def locate_points(mesh: Mesh, points) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and barycentric weights, (p, dim+1) each, of every point.

    Row k holds the element containing points[k] and its weights there.
    Raises ValueError for the first point that lies outside the closed
    domain.  On a shared face any containing element gives the same
    interpolated value, so the first match is taken.  The per-element data
    are computed once per mesh (Mesh.locator).
    """
    pts = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points]
    for p in pts:
        if p.shape != (mesh.dim,):
            raise ValueError(f"point must have {mesh.dim} coordinates, got {p.shape}")
    found = np.empty(len(pts), dtype=np.int64)
    weights = np.empty((len(pts), mesh.dim + 1))
    if mesh.dim == 1:
        left, right, lo, hi = mesh.locator
        for k, p in enumerate(pts):
            x = p[0]
            idx = np.nonzero((x >= lo) & (x <= hi))[0]
            if idx.size == 0:
                raise ValueError(f"point {x!r} is outside the mesh")
            e = found[k] = idx[0]
            t = (x - left[e]) / (right[e] - left[e])
            t = min(max(t, 0.0), 1.0)
            weights[k] = 1.0 - t, t
        return mesh.elements[found], weights
    ax, ay, bx, by, cx, cy, det, la, lb, lc = mesh.locator
    for k, p in enumerate(pts):
        w1 = ((bx - p[0]) * (cy - p[1]) - (cx - p[0]) * (by - p[1])) / det
        w2 = ((cx - p[0]) * (ay - p[1]) - (ax - p[0]) * (cy - p[1])) / det
        w3 = 1.0 - w1 - w2
        idx = np.nonzero((w1 >= la) & (w2 >= lb) & (w3 >= lc))[0]
        if idx.size == 0:
            raise ValueError(f"point {tuple(p)} is outside the mesh")
        e = found[k] = idx[0]
        w = np.clip(np.array([w1[e], w2[e], w3[e]]), 0.0, None)
        weights[k] = w / w.sum()
    return mesh.elements[found], weights


def point_vectors(mesh: Mesh, points) -> np.ndarray:
    """Dense (n_nodes, p) matrix whose column k is phi_i(points[k]).

    Column k is the delta functional at points[k] on V_h.
    """
    idx, w = locate_points(mesh, points)
    P = np.zeros((mesh.n_nodes, len(idx)))
    P[idx, np.arange(len(idx))[:, None]] = w
    return P


# -- quadrature (shared by error measurement and boundary integrals) ---------

# Dunavant 6-point rule, exact through degree 4 on the triangle; weights are
# relative to the element measure.
_TRI_A1 = 0.445948490915965
_TRI_A2 = 0.091576213509771
_TRI_W1 = 0.223381589678011
_TRI_W2 = 0.109951743655322

# 3-point Gauss-Legendre on [0,1], exact through degree 5.
_SEG_T = 0.5 * np.sqrt(0.6)
_SEG_POINTS = np.array([0.5 - _SEG_T, 0.5, 0.5 + _SEG_T])
_SEG_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def reference_quadrature(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(barycentric coordinates (q, dim+1), weights (q,)) with sum(w) = 1."""
    if dim == 1:
        t = _SEG_POINTS
        bary = np.column_stack([1.0 - t, t])
        return bary, _SEG_WEIGHTS.copy()
    a1, a2 = _TRI_A1, _TRI_A2
    bary = np.array(
        [
            [1 - 2 * a1, a1, a1],
            [a1, 1 - 2 * a1, a1],
            [a1, a1, 1 - 2 * a1],
            [1 - 2 * a2, a2, a2],
            [a2, 1 - 2 * a2, a2],
            [a2, a2, 1 - 2 * a2],
        ]
    )
    w = np.array([_TRI_W1] * 3 + [_TRI_W2] * 3)
    return bary, w


def quadrature_points(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical quadrature data for every element.

    Returns (points, weights, bary) where points has shape
    (n_elements, q, dim), weights (n_elements, q) already includes the
    element measure, and bary is the reference rule shared by all elements.
    """
    bary, w = reference_quadrature(mesh.dim)
    points = np.empty((mesh.n_elements, len(w), mesh.dim))
    for d, x in enumerate(mesh.corners()):
        # the sum over corners k, taken left to right
        points[:, :, d] = x[:, 0, None] * bary[:, 0]
        for k in range(1, mesh.dim + 1):
            points[:, :, d] += x[:, k, None] * bary[:, k]
    weights = np.abs(mesh.element_measures)[:, None] * w[None, :]
    return points, weights, bary


def element_gradients(mesh: Mesh) -> np.ndarray:
    """Gradient operator G with shape (n_elements, dim+1, dim).

    The (constant) gradient of a P1 function on element e is
    sum_i c[elements[e, i]] * G[e, i, :].
    """
    meas = mesh.element_measures
    if mesh.dim == 1:
        h = meas
        G = np.empty((mesh.n_elements, 2, 1))
        G[:, 0, 0] = -1.0 / h
        G[:, 1, 0] = 1.0 / h
        return G
    x, y = mesh.corners()
    inv2A = 1.0 / (2.0 * meas)
    # grad(phi_i) is the opposite edge (from corner i+1 to corner i+2)
    # rotated by +90 degrees, over 2A
    G = np.empty((mesh.n_elements, 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        G[:, i, 0] = -(y[:, k] - y[:, j]) * inv2A
        G[:, i, 1] = (x[:, k] - x[:, j]) * inv2A
    return G
