"""Deterministic evaluation of the stochastic approximation errors.

The mean-square distance between the exact solution field and an
approximation is a sum over an orthonormal family of test modes, so it can be
computed without sampling: each eigenmode load is pushed through both the
exact (diagonal) solve and the finite element solve, and the weighted squared
differences accumulate the error.  Truncation errors of the spectral noise
expansion are fully closed-form.  Rate fitting is ordinary log-log least
squares over refinement levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .fem import (
    BoundaryCondition,
    FactorizedSystem,
    _SOLVE_CHUNK,
    assemble_mass,  # unused here; perfbench/test_checks.py looks the name up in this module
    element_gradients,
    quadrature_points,
    ROBIN,
)
from .mesh import Mesh
from .sampling import DiscreteSolutionOperator, exact_covariances
from .spectral import (
    EigenBasis,
    IntervalEigenBasis,
    ModelDomain,
    RectangleEigenBasis,
    TruncatedValue,
    eigenpairs,
    spectral_tail_bound,
)

# Modes per block of the weighted partial sum and the adaptive checkpoints.
_BLOCK = 256
# Modes per slab of loads solved and reduced together.  A multiple of
# _SOLVE_CHUNK, so every column is solved in the chunk the whole block's
# solve would take.  At 64 x 64 the reduction of 256 modes took 45-54 ms in
# slabs of 256, 54-57 in slabs of 128, 63-75 in slabs of 64 and 90-107 in
# slabs of 32 (medians of 7 interleaved rounds in each of three processes,
# 2-core x86-64 VM); a slab of 128 halves the solution array for that cost.
_SLAB = 128
# Elements per chunk of the quadrature reductions: a chunk's arrays for a
# slab of _SLAB modes (192 points x 128 modes in 2D, 192 KB each) stay in a
# core's L2 cache.  At 64 x 64 a 256-mode reduction in slabs of 128 took
# 45-57 ms in chunks of 32 elements, 44-56 in chunks of 64, 52-66 in chunks
# of 128 and 59-69 in chunks of 16 (same rounds; 2 MB of L2 per core).
_CHUNK = 32
_ADAPT_START = 512
ADAPT_CAP = 20_000
_ADAPT_REL = 0.01
_SERIES_START, _SERIES_CAP, SERIES_REL = 256, 1 << 20, 1e-3  # spectral_series' sizes and tail share


class LevelError(NamedTuple):
    h: float
    error_sq: float
    tail_bound: float


class RateFit(NamedTuple):
    rate: float
    residual: float


@dataclass
class ErrorReport:
    """Per-level squared errors with the fitted log-log rate."""

    bc_kind: str
    lam: float
    beta: float | None
    r: float
    levels: list[LevelError]
    fitted_rate: float
    fit_residual: float
    basis_count: int
    increments: list[float] = field(default_factory=list)


def fit_rate(levels: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares slope of log(error^2) against log(h).

    Returns the slope (the empirical exponent of h in error^2) and the
    maximum absolute fit residual in log space.
    """
    if len(levels) < 3:
        raise ValueError(f"rate fit needs at least 3 levels, got {len(levels)}")
    h = np.array([lv[0] for lv in levels], dtype=np.float64)
    e = np.array([lv[1] for lv in levels], dtype=np.float64)
    # written so that NaN fails it, as inf does
    if not ((h > 0) & (h < np.inf) & (e > 0) & (e < np.inf)).all():
        raise ValueError("rate fit requires finite positive h and finite positive errors")
    X = np.column_stack([np.log(h), np.ones(h.size)])
    coef, *_ = np.linalg.lstsq(X, np.log(e), rcond=None)
    resid = np.log(e) - X @ coef
    return RateFit(float(coef[0]), float(np.abs(resid).max()))


# -- FEM error study -----------------------------------------------------------


def _mode_factors(basis: EigenBasis) -> tuple[tuple[IntervalEigenBasis, np.ndarray], ...]:
    """Every mode as a product of 1D modes: per axis, the 1D basis and each
    mode's index into it."""
    if isinstance(basis, RectangleEigenBasis):
        return ((basis.basis_x, basis.ix), (basis.basis_y, basis.iy))
    return ((basis, np.arange(basis.count)),)


class _LevelContext(FactorizedSystem):
    """A level's factorized system, with the quadrature data reused across
    all mode loads, and every mode array kept in the row order of A's factor.

    A slab of modes is one C-ordered (n_free + 1, modes) array, its solutions
    (for the quadrature rule, first its loads).  Row r holds node free[r],
    row r of A's factor; the last row is zero and stands in for every
    Dirichlet node, and `node_rows` maps each node to its row.  Loads are
    formed in those rows (interpolation loads from M's rows in that order),
    solve_free solves them as they come, and its output is stored as it
    comes, so no solve gathers, scatters or extends; the error reduction
    reads the slab through a per-element map of rows.  Each value is the one
    the node-order route computes, in the same order.

    Quantities at the quadrature points are formed one chunk of `_CHUNK`
    elements at a time, so no (modes x quadrature points) array is built.
    Mode values are gathered from the 1D modes at the distinct quadrature
    coordinates of each axis; they equal `basis.evaluate` at the points,
    which are not kept.  Besides its slab, a slab's arrays span one chunk of
    elements, _SOLVE_CHUNK modes or one axis's distinct coordinates.
    """

    def __init__(self, mesh: Mesh, bc: BoundaryCondition, lam: float):
        super().__init__(mesh, bc, lam)
        self.node_rows = np.full(mesh.n_nodes, self.n_free)
        self.node_rows[self.free] = np.arange(self.n_free)
        self._element_rows = self.node_rows[mesh.elements]
        # A CSR row gather keeps each row's entries in their stored order, so
        # every value of M_rows @ v is summed as the same value of M @ v is.
        self._M_rows = self.M[self.free]
        points, self.qweights, self.bary = quadrature_points(mesh)
        # per axis: distinct quadrature coordinates, and each point's index
        self._coords = []
        for d in range(mesh.dim):
            xs, inverse = np.unique(points[:, :, d], return_inverse=True)
            self._coords.append((xs, inverse.reshape(-1).astype(np.int32)))
        self._scatter = None

    def _mode_columns(self, basis: EigenBasis, k0: int, k1: int, deriv: int | None = None) -> list[np.ndarray]:
        """Per axis, the 1D factors of modes k0..k1 at the distinct
        coordinates, shape (n_distinct, k1 - k0); axis `deriv`, if given,
        takes the factors' derivatives, so the products are that partial
        derivative of the modes."""
        columns = []
        for d, ((b1, idx), (xs, _)) in enumerate(zip(_mode_factors(basis), self._coords)):
            idx = idx[k0:k1]
            lo = idx.min()
            factor = b1.evaluate_deriv if d == deriv else b1.evaluate
            columns.append(np.ascontiguousarray(factor(xs, lo, idx.max() + 1)[idx - lo].T))
        return columns

    def _mode_chunks(self, columns: list[np.ndarray]):
        """Yield (element slice, mode values at its quadrature points with
        shape (chunk elements, q, modes)), from the 1D factors `columns` of
        `_mode_columns`.  The values are gathered into one buffer, allocated
        once and overwritten by the next chunk."""
        m_el, q = self.qweights.shape
        values = np.empty((_CHUNK * q, columns[0].shape[1]))
        factor = np.empty_like(values) if len(columns) > 1 else None
        for c0 in range(0, m_el, _CHUNK):
            c1 = min(c0 + _CHUNK, m_el)
            pts, n = slice(c0 * q, c1 * q), (c1 - c0) * q
            # take writes into out directly with mode="clip"; "raise" fills a copy first
            np.take(columns[0], self._coords[0][1][pts], axis=0, out=values[:n], mode="clip")
            for col, (_, inverse) in zip(columns[1:], self._coords[1:]):
                np.take(col, inverse[pts], axis=0, out=factor[:n], mode="clip")
                values[:n] *= factor[:n]
            yield slice(c0, c1), values[:n].reshape(c1 - c0, q, -1)

    def _error_sums(self, columns: list[np.ndarray], sols: np.ndarray, fem_op: np.ndarray) -> np.ndarray:
        """Per mode, the quadrature sum of (v_k - f_k)^2: v_k the product of
        the 1D factors `columns`, f_k the P1 function whose nodal values are
        the slab column sols[:, k], mapped by fem_op (n_elements, r, dim + 1)
        from each element's nodal values to its r = q point values, or to one
        constant partial derivative (r = 1).

        Per chunk of elements the elements' slab rows are gathered into a
        buffer and fem_op is applied by one matmul, whose (dim + 1)-term sums
        are the same under any BLAS thread count; the weighted reduction over
        the points is an einsum, whose summation order does not depend on it.
        """
        element_rows, width = self._element_rows, sols.shape[1]
        rows = np.empty((_CHUNK, element_rows.shape[1], width))
        fem = np.empty((_CHUNK, fem_op.shape[1], width))
        errors = np.zeros(width)
        for chunk, diff in self._mode_chunks(columns):
            c = chunk.stop - chunk.start
            np.take(sols, element_rows[chunk], axis=0, out=rows[:c], mode="clip")
            diff -= np.matmul(fem_op[chunk], rows[:c], out=fem[:c])
            diff *= diff
            errors += np.einsum("cq,cqB->B", self.qweights[chunk], diff)
        return errors

    def quadrature_loads(self, basis: EigenBasis, k0: int, k1: int) -> np.ndarray:
        """Dual loads b_i = integral of e_k phi_i for modes k0..k1, by element
        quadrature, as a slab: shape (n_free + 1, k1 - k0) in factor rows.
        Each chunk's sums are added straight into its nodes' rows; the
        Dirichlet nodes' land in the last row, which is then zeroed."""
        import scipy.sparse as sp

        m_el, q = self.qweights.shape
        if self._scatter is None:
            # per chunk: its nodes' slab rows, and the map from its quadrature points to them
            self._scatter = []
            for c0 in range(0, m_el, _CHUNK):
                elements = self.mesh.elements[c0:c0 + _CHUNK]
                c, k = elements.shape
                nodes, local = np.unique(elements, return_inverse=True)
                rows = np.broadcast_to(local.reshape(c, 1, k), (c, q, k))
                cols = np.broadcast_to(np.arange(c * q).reshape(c, q, 1), (c, q, k))
                vals = np.broadcast_to(self.bary[None], (c, q, k))
                scatter = sp.csr_array((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(nodes.size, c * q))
                self._scatter.append((self.node_rows[nodes], scatter))
        loads = np.zeros((self.n_free + 1, k1 - k0))
        columns = self._mode_columns(basis, k0, k1)
        for (chunk, values), (rows, scatter) in zip(self._mode_chunks(columns), self._scatter):
            values *= self.qweights[chunk][:, :, None]
            loads[rows] += scatter @ values.reshape(-1, k1 - k0)
        loads[-1] = 0.0
        return loads

    def solutions(self, basis: EigenBasis, k0: int, k1: int, load_rule: str = "interpolation") -> np.ndarray:
        """Discrete solutions for the loads of modes k0..k1, as a slab: shape
        (n_free + 1, k1 - k0) in factor rows, the last row zero.

        load_rule selects how mode loads enter the discrete solve:
        "interpolation" uses M times the nodal interpolant, "quadrature" the
        element-quadrature projection (the genuine Ritz-Galerkin load).

        The slab is the only array of its width: it is filled by one
        solve_free call per _SOLVE_CHUNK columns, each returning SuperLU's
        own array, so a chunk of one column takes the transposed sweep.  An
        interpolation chunk's nodal values are evaluated and multiplied by
        M's rows in factor order; quadrature loads are solved in place.
        """
        width, n = k1 - k0, self.n_free
        if load_rule == "interpolation":
            sols = np.empty((n + 1, width))
            sols[-1] = 0.0
        elif load_rule == "quadrature":
            sols = self.quadrature_loads(basis, k0, k1)
        else:
            raise ValueError(f"unknown load rule {load_rule!r}")
        for c0 in range(0, width, _SOLVE_CHUNK):
            cols = slice(c0, min(c0 + _SOLVE_CHUNK, width))
            if load_rule == "interpolation":
                load = self._M_rows @ basis.evaluate(self.mesh.nodes, k0 + cols.start, k0 + cols.stop).T
            else:
                load = sols[:n, cols]
            sols[:n, cols] = self.solve_free(load)
            del load  # freed before the next chunk's loads are evaluated
        return sols

    def block_errors(self, basis: EigenBasis, lam: float, k0: int, k1: int,
                     load_rule: str = "interpolation") -> np.ndarray:
        """l2_errors of the discrete solutions of modes k0..k1, solved and
        reduced _SLAB modes at a time; a mode's error does not depend on the
        slab it falls in, so the values are those of the whole range at once."""
        errors = np.empty(k1 - k0)
        for s0 in range(k0, k1, _SLAB):
            s1 = min(s0 + _SLAB, k1)
            errors[s0 - k0:s1 - k0] = self.l2_errors(basis, lam, s0, s1, self.solutions(basis, s0, s1, load_rule))
        return errors

    def l2_errors(self, basis: EigenBasis, lam: float, k0: int, k1: int, sols: np.ndarray,
                  deriv: int | None = None) -> np.ndarray:
        """||T e_k - u_k||_L2^2 for modes k0..k1 and P1 functions u_k with
        coefficients in the slab column sols[:, k - k0], by element quadrature
        (_error_sums); with deriv = d, the same for the partial derivatives
        along axis d.
        """
        columns = self._mode_columns(basis, k0, k1, deriv)
        # the exact solve T e_k = e_k / (mu_k + lam), applied to one 1D factor
        columns[0] /= basis.mu[k0:k1] + lam
        if deriv is None:
            # every element's interpolant at its points is bary times its nodal values
            fem_op = np.broadcast_to(self.bary, (self.mesh.n_elements, *self.bary.shape))
        else:
            # a P1 function's partial derivative is constant on each element
            fem_op = element_gradients(self.mesh)[:, None, :, deriv]
        return self._error_sums(columns, sols, fem_op)


def deterministic_fem_error(
    domain: ModelDomain,
    bc: BoundaryCondition,
    lam: float,
    r: float,
    meshes: Sequence[Mesh],
    basis_count: int | None = None,
    load_rule: str = "interpolation",
) -> ErrorReport:
    """Mean-square H^{-r} distance between exact and FEM solution fields.

    Per level, error^2 = sum_k (1 + mu_k)^{-r} ||T e_k - T_h I_h e_k||_L2^2
    over the first `basis_count` eigenmodes, where T_h I_h e_k is the FEM
    solve loaded with the mass matrix times the nodal interpolant of e_k.
    When basis_count is omitted the count doubles until the last doubling
    changed every level's partial sum by under 1%, capped at 20000 modes;
    the realized relative increments are recorded in the report.

    Modes are summed in blocks of 256 (_BLOCK), one weighted dot per level
    and block, and solved and reduced in slabs of 128 (_SLAB).  Per level and
    slab, the only array of that width is the (n_free + 1, 128) solution slab
    of _LevelContext.solutions, in the row order of the level's factor from
    load to error reduction; loads and solves pass through it 32 columns at
    a time.  Each error has the bits of the node-order computation.

    A level's _LevelContext (its factor, K, M, A and quadrature tables) is
    built by its first block.  With a fixed basis_count it is dropped after
    the level's last block, so a one-block sum holds one level at a time;
    an adaptive sum keeps every level, since its stop rule reads them all
    at each checkpoint.  The order of every sum is unchanged.

    The reported per-level tail bound is the coercivity bound
    (2 / lam)^2 * sum_{k > count} (1 + mu_k)^{-r}; it is rigorous but loose,
    and is informational rather than a gate (see the report increments for
    the observed truncation behavior).
    """
    d = domain.dim
    if not r > d / 2.0 - 1.0:
        raise ValueError(f"need r > d/2 - 1 = {d / 2.0 - 1.0}, got r={r}")
    if not meshes:
        raise ValueError("need at least one mesh level")
    meshes = sorted(meshes, key=lambda msh: -msh.h)
    adaptive = basis_count is None
    cap = ADAPT_CAP if adaptive else basis_count
    basis = eigenpairs(domain, bc, cap)
    contexts: list[_LevelContext | None] = [None] * len(meshes)
    weights = (1.0 + basis.mu) ** (-r)

    totals = np.zeros(len(meshes))
    checkpoints: list[tuple[int, np.ndarray]] = []
    next_check = _ADAPT_START
    count = 0
    while count < cap:
        k1 = min(count + _BLOCK, cap)
        for i, mesh in enumerate(meshes):
            ctx = contexts[i] or _LevelContext(mesh, bc, lam)
            totals[i] += float(weights[count:k1] @ ctx.block_errors(basis, lam, count, k1, load_rule))
            contexts[i] = ctx if adaptive or k1 < cap else None
            del ctx  # a dropped level is freed before the next level is built
        count = k1
        if adaptive and count >= next_check:
            checkpoints.append((count, totals.copy()))
            if len(checkpoints) >= 2:
                prev, cur = checkpoints[-2][1], checkpoints[-1][1]
                rel = np.max(np.abs(cur - prev) / np.maximum(cur, 1e-300))
                if rel < _ADAPT_REL:  # a NaN increment fails, so NaN never reads as converged
                    break
            next_check *= 2

    increments = []
    if len(checkpoints) >= 2:
        prev, cur = checkpoints[-2][1], checkpoints[-1][1]
        increments = list(np.abs(cur - prev) / np.maximum(cur, 1e-300))

    tail = (2.0 / lam) ** 2 * spectral_tail_bound(domain, bc, float(basis.mu[count - 1]), r, lam, 0)
    levels = [LevelError(mesh.h, float(err), tail) for mesh, err in zip(meshes, totals)]
    rate = fit_rate([(lv.h, lv.error_sq) for lv in levels]) if len(levels) >= 3 else RateFit(
        float("nan"), float("nan")
    )
    return ErrorReport(
        bc_kind=bc.kind,
        lam=lam,
        beta=bc.beta if bc.kind == ROBIN else None,
        r=r,
        levels=levels,
        fitted_rate=rate.rate,
        fit_residual=rate.residual,
        basis_count=count,
        increments=increments,
    )


# -- closed-form spectral series ------------------------------------------------


def spectral_series(domain: ModelDomain, bc: BoundaryCondition, r: float, lam: float, p: int,
                    start: int = 0) -> tuple[np.ndarray, float]:
    """Terms (1 + mu_k)^-r (mu_k + lam)^-p and the spectral_tail_bound on the
    sum past them.  The basis starts at 256 modes and at least start + 1, and
    doubles until the bound is at most SERIES_REL of sum(terms[start:]) or it
    holds 2^20 modes; only at that cap can the bound be larger.  A bound that
    is not finite returns at once: it is infinite at every size exactly when
    the series diverges (r + p <= dim / 2)."""
    count = max(_SERIES_START, start + 1)
    while True:
        mu = eigenpairs(domain, bc, count).mu
        terms = (1.0 + mu) ** -r * (mu + lam) ** -p
        tail = spectral_tail_bound(domain, bc, float(mu[-1]), r, lam, p)
        # written so that NaN returns, as inf does
        if not tail < np.inf or tail <= SERIES_REL * np.sum(terms[start:]) or count >= _SERIES_CAP:
            return terms, tail
        count = min(2 * count, _SERIES_CAP)


def truncation_error_closed_form(domain: ModelDomain, bc: BoundaryCondition, lam: float, r: float,
                                 m: int) -> TruncatedValue:
    """Mean-square H^{-r} error of the m-term spectral noise truncation.

    In the eigenbasis the projection and the solution operator are diagonal
    together, so the error is exactly sum_{k > m} (1+mu_k)^{-r} (mu_k+lam)^{-2};
    the part beyond spectral_series' basis is covered by the tail bound.
    """
    if m < 0:
        raise ValueError(f"truncation must be nonnegative, got {m}")
    terms, tail = spectral_series(domain, bc, r, lam, 2, start=m)
    return TruncatedValue(float(np.sum(terms[m:])), tail)


def l2_realization_diagnostic(domain: ModelDomain, bc: BoundaryCondition, lam: float) -> tuple[np.ndarray, float]:
    """Partial sums of sum_k (mu_k + lam)^-2 and the tail bound past them.  A
    finite limit is the Hilbert-Schmidt criterion for square-integrable
    realizations of the solution field; partial[-1] + tail brackets it."""
    terms, tail = spectral_series(domain, bc, 0.0, lam, 2)
    return np.cumsum(terms), tail


# -- pointwise regularity diagnostics --------------------------------------------


class HolderFit(NamedTuple):
    alpha: float
    c: float
    max_residual: float


def pair_separations(pairs: Sequence[tuple]) -> np.ndarray:
    """Distances |x - y| of the point pairs a Holder fit can use.

    Refuses fewer than 5 pairs, a point or separation that is not finite, a
    coincident pair, and separations spanning less than a decade.  Each test
    is written so that NaN fails it.
    """
    if len(pairs) < 5:
        raise ValueError(f"need at least 5 point pairs, got {len(pairs)}")
    seps = []
    for x, y in pairs:
        ax, ay = (np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in (x, y))
        if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
            raise ValueError(f"pair {tuple(ax.tolist())}, {tuple(ay.tolist())} has a non-finite coordinate")
        dist = float(np.linalg.norm(ax - ay))
        if not dist > 0.0:
            raise ValueError(f"coincident pair {tuple(ax.tolist())}")
        if not dist < np.inf:
            raise ValueError(f"pair {tuple(ax.tolist())}, {tuple(ay.tolist())} has an overflowing separation")
        seps.append(dist)
    seps = np.array(seps)
    if not seps.max() / seps.min() >= 10.0:
        raise ValueError("pairs must span at least a decade of separations")
    return seps


def holder_modulus(op: DiscreteSolutionOperator, pairs: Sequence[tuple]) -> HolderFit:
    """Fit E|X_h(x) - X_h(y)|^2 ~ C |x-y|^(2 alpha) over point pairs.

    The second moments are exact (one covariance matrix over all pair
    points, from one probe solve), so the only fitting noise is deviation
    from the power law itself.
    """
    seps = pair_separations(pairs)
    points = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for pair in pairs for p in pair]
    C = exact_covariances(op, points)
    x, y = np.arange(0, len(points), 2), np.arange(1, len(points), 2)
    moments = np.maximum(C[x, x] - 2.0 * C[x, y] + C[y, y], 1e-300)
    X = np.column_stack([np.log(seps), np.ones(seps.size)])
    coef, *_ = np.linalg.lstsq(X, np.log(moments), rcond=None)
    resid = np.log(moments) - X @ coef
    return HolderFit(float(coef[0] / 2.0), float(np.exp(coef[1])), float(np.abs(resid).max()))


# -- upper-bound ingredients ------------------------------------------------------


def hs_embedding_bound(domain: ModelDomain, bc: BoundaryCondition, r: float) -> TruncatedValue:
    """sum_k (1 + mu_k)^-(r+1), the squared Hilbert-Schmidt embedding factor."""
    terms, tail = spectral_series(domain, bc, r + 1.0, 1.0, 0)
    return TruncatedValue(float(np.sum(terms)), tail)


def h1_error_sup_estimate(
    domain: ModelDomain,
    bc: BoundaryCondition,
    lam: float,
    mesh: Mesh,
    n_loads: int = 200,
) -> float:
    """max over the first n_loads eigenmode loads of ||u^f - u^f_h||_H1^2.

    A lower estimate of the operator-norm factor in the error upper bound.
    Loads are projected by element quadrature (b_i = integral of e phi_i), so
    every u^f_h is the genuine Ritz-Galerkin image of a unit-norm load and
    the estimate stabilizes as n_loads grows; nodal interpolation would let
    aliased high modes masquerade as O(1) loads and inflate the max without
    bound.  The gradient part is summed one partial derivative and one chunk
    of elements at a time, like the value part.
    """
    basis = eigenpairs(domain, bc, n_loads)
    ctx = _LevelContext(mesh, bc, lam)
    sols = ctx.solutions(basis, 0, n_loads, load_rule="quadrature")  # (n_free + 1, B) slab
    # ||u^f - u^f_h||_H1^2 per load: the L2 part, then each partial derivative's
    errors = ctx.l2_errors(basis, lam, 0, n_loads, sols)
    for d in range(mesh.dim):
        errors += ctx.l2_errors(basis, lam, 0, n_loads, sols, deriv=d)
    return float(np.max(errors))
