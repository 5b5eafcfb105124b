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
    sobolev_resolvent_weight,
    spectral_tail_bound,
)

_BLOCK = 256
# Elements per chunk of the quadrature reductions: a chunk's arrays for a
# block of _BLOCK modes (192 points x 256 modes in 2D, 384 KB each) stay in a
# core's L2 cache.  At 64 x 64 one block's reduction took about 75 ms in
# chunks of 32 elements and about 95 ms in chunks of 128 (2-core x86-64 VM
# with 2 MB of L2 per core).
_CHUNK = 32
_ADAPT_START = 512
_ADAPT_CAP = 20_000
_ADAPT_REL = 0.01


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
    if np.any(e <= 0) or np.any(h <= 0):
        raise ValueError("rate fit requires positive h and positive errors")
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


class _LevelContext:
    """Factorization and quadrature data reused across all mode loads.

    Quantities at the quadrature points are formed one chunk of `_CHUNK`
    elements at a time, so no (modes x quadrature points) array is built.
    Mode values are gathered from the 1D modes at the distinct quadrature
    coordinates of each axis; they equal `basis.evaluate` at the points.
    """

    def __init__(self, mesh: Mesh, bc: BoundaryCondition, lam: float):
        self.mesh = mesh
        self.system = FactorizedSystem(mesh, bc, lam)
        self.M = self.system.M
        self.qpoints, self.qweights, self.bary = quadrature_points(mesh)
        self.flat_points = self.qpoints.reshape(-1, mesh.dim)
        # per axis: distinct quadrature coordinates, and each point's index
        self._coords = [np.unique(self.flat_points[:, d], return_inverse=True) for d in range(mesh.dim)]
        self._scatter = None

    def _mode_columns(self, basis: EigenBasis, k0: int, k1: int) -> list[np.ndarray]:
        """Per axis, the 1D factors of modes k0..k1 at the distinct
        coordinates, shape (n_distinct, k1 - k0)."""
        columns = []
        for (b1, idx), (xs, _) in zip(_mode_factors(basis), self._coords):
            idx = idx[k0:k1]
            lo = idx.min()
            columns.append(np.ascontiguousarray(b1.evaluate(xs, lo, idx.max() + 1)[idx - lo].T))
        return columns

    def _mode_chunks(self, columns: list[np.ndarray]):
        """Yield (element slice, mode values at its quadrature points with
        shape (chunk elements, q, modes)), from the 1D factors `columns` of
        `_mode_columns`."""
        m_el, q = self.qweights.shape
        for c0 in range(0, m_el, _CHUNK):
            c1 = min(c0 + _CHUNK, m_el)
            pts = slice(c0 * q, c1 * q)
            values = columns[0][self._coords[0][1][pts]]
            for col, (_, inverse) in zip(columns[1:], self._coords[1:]):
                values *= col[inverse[pts]]
            yield slice(c0, c1), values.reshape(c1 - c0, q, -1)

    def quadrature_loads(self, basis: EigenBasis, k0: int, k1: int) -> np.ndarray:
        """Dual loads b_i = integral of e_k phi_i for modes k0..k1, by element
        quadrature; shape (n_nodes, k1 - k0)."""
        import scipy.sparse as sp

        m_el, q = self.qweights.shape
        if self._scatter is None:
            # per chunk: its nodes, and the map from its quadrature points to them
            self._scatter = []
            for c0 in range(0, m_el, _CHUNK):
                elements = self.mesh.elements[c0:c0 + _CHUNK]
                c, k = elements.shape
                nodes, local = np.unique(elements, return_inverse=True)
                rows = np.broadcast_to(local.reshape(c, 1, k), (c, q, k))
                cols = np.broadcast_to(np.arange(c * q).reshape(c, q, 1), (c, q, k))
                vals = np.broadcast_to(self.bary[None], (c, q, k))
                scatter = sp.csr_array((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(nodes.size, c * q))
                self._scatter.append((nodes, scatter))
        loads = np.zeros((self.mesh.n_nodes, k1 - k0))
        columns = self._mode_columns(basis, k0, k1)
        for (chunk, values), (nodes, scatter) in zip(self._mode_chunks(columns), self._scatter):
            values *= self.qweights[chunk][:, :, None]
            loads[nodes] += scatter @ values.reshape(-1, k1 - k0)
        return loads

    def solutions(self, basis: EigenBasis, k0: int, k1: int, load_rule: str = "interpolation",
                  fem_apply=None) -> np.ndarray:
        """Discrete solutions for the loads of modes k0..k1, shape (n_nodes, k1 - k0).

        load_rule selects how mode loads enter the discrete solve:
        "interpolation" uses M times the nodal interpolant, "quadrature" the
        element-quadrature projection (the genuine Ritz-Galerkin load).
        `fem_apply` overrides the discrete solve (given nodal mode values,
        return full solution coefficients); tests use it to degenerate T_h
        into the exact operator.
        """
        pts = self.mesh.nodes[:, 0] if self.mesh.dim == 1 else self.mesh.nodes
        if fem_apply is not None:
            sols = fem_apply(basis.evaluate(pts, k0, k1).T)
        elif load_rule == "interpolation":
            nodal = basis.evaluate(pts, k0, k1)  # (B, n_nodes)
            sols = self.system.solve(self.M @ nodal.T)
        elif load_rule == "quadrature":
            sols = self.system.solve(self.quadrature_loads(basis, k0, k1))
        else:
            raise ValueError(f"unknown load rule {load_rule!r}")
        return np.ascontiguousarray(sols)

    def l2_errors(self, basis: EigenBasis, lam: float, k0: int, k1: int, sols: np.ndarray) -> np.ndarray:
        """||T e_k - u_k||_L2^2 for modes k0..k1 and P1 functions u_k with
        coefficients sols[:, k - k0], by element quadrature.

        The sums run in a fixed order (einsum, not BLAS), so they do not
        depend on the thread count.
        """
        columns = self._mode_columns(basis, k0, k1)
        # the exact solve T e_k = e_k / (mu_k + lam), applied to one 1D factor
        columns[0] /= basis.mu[k0:k1] + lam
        errors = np.zeros(k1 - k0)
        for chunk, diff in self._mode_chunks(columns):
            diff -= np.einsum("qk,ckB->cqB", self.bary, sols[self.mesh.elements[chunk]])
            diff *= diff
            errors += np.einsum("cq,cqB->B", self.qweights[chunk], diff)
        return errors

    def mode_errors_l2(self, basis: EigenBasis, lam: float, k0: int, k1: int,
                       fem_apply=None, load_rule: str = "interpolation") -> np.ndarray:
        """||T e_k - T_h e_k||_L2^2 for modes k0..k1 (see `solutions`)."""
        return self.l2_errors(basis, lam, k0, k1, self.solutions(basis, k0, k1, load_rule, fem_apply))


def deterministic_fem_error(
    domain: ModelDomain,
    bc: BoundaryCondition,
    lam: float,
    r: float,
    meshes: Sequence[Mesh],
    basis_count: int | None = None,
    block: int = _BLOCK,
    load_rule: str = "interpolation",
) -> ErrorReport:
    """Mean-square H^{-r} distance between exact and FEM solution fields.

    Per level, error^2 = sum_k (1 + mu_k)^{-r} ||T e_k - T_h I_h e_k||_L2^2
    over the first `basis_count` eigenmodes, where T_h I_h e_k is the FEM
    solve loaded with the mass matrix times the nodal interpolant of e_k.
    When basis_count is omitted the count doubles until the last doubling
    changed every level's partial sum by under 1%, capped at 20000 modes;
    the realized relative increments are recorded in the report.

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
    cap = _ADAPT_CAP if adaptive else basis_count
    basis = eigenpairs(domain, bc, cap)
    contexts = [_LevelContext(mesh, bc, lam) for mesh in meshes]
    weights = (1.0 + basis.mu) ** (-r)

    totals = np.zeros(len(meshes))
    checkpoints: list[tuple[int, np.ndarray]] = []
    next_check = _ADAPT_START
    count = 0
    while count < cap:
        k1 = min(count + block, cap)
        for i, ctx in enumerate(contexts):
            errs = ctx.mode_errors_l2(basis, lam, count, k1, load_rule=load_rule)
            totals[i] += float(weights[count:k1] @ errs)
        count = k1
        if adaptive and count >= next_check:
            checkpoints.append((count, totals.copy()))
            if len(checkpoints) >= 2:
                prev, cur = checkpoints[-2][1], checkpoints[-1][1]
                rel = np.max(np.abs(cur - prev) / np.maximum(cur, 1e-300))
                if rel < _ADAPT_REL:
                    break
            next_check *= 2

    increments = []
    if len(checkpoints) >= 2:
        prev, cur = checkpoints[-2][1], checkpoints[-1][1]
        increments = list(np.abs(cur - prev) / np.maximum(cur, 1e-300))

    tail_weight = sobolev_resolvent_weight(r, lam, p=0)
    tail = (2.0 / lam) ** 2 * spectral_tail_bound(domain, bc, float(basis.mu[count - 1]), tail_weight)
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


# -- closed-form truncation error ----------------------------------------------


def truncation_error_closed_form(basis: EigenBasis, lam: float, r: float, m: int) -> TruncatedValue:
    """Mean-square H^{-r} error of the m-term spectral noise truncation.

    In the eigenbasis the projection and the solution operator are diagonal
    together, so the error is exactly sum_{k > m} (1+mu_k)^{-r} (mu_k+lam)^{-2};
    the part beyond the prepared basis is covered by the reported tail bound.
    """
    if m < 0:
        raise ValueError(f"truncation must be nonnegative, got {m}")
    if m > basis.count:
        raise ValueError(f"truncation {m} exceeds basis size {basis.count}")
    w = (1.0 + basis.mu[m:]) ** (-r) * (basis.mu[m:] + lam) ** -2.0
    tail = spectral_tail_bound(
        basis.domain, basis.bc, float(basis.mu[-1]), sobolev_resolvent_weight(r, lam, p=2)
    )
    return TruncatedValue(float(np.sum(w)), float(tail))


def l2_realization_diagnostic(basis: EigenBasis, lam: float) -> tuple[np.ndarray, float]:
    """Partial sums of sum_k (mu_k + lam)^-2 and an integral tail bound.

    A finite limit is the Hilbert-Schmidt criterion for square-integrable
    realizations of the solution field; the returned cumulative sums let the
    caller inspect the convergence, and partial_sums[-1] + tail brackets the
    full series.
    """
    terms = (basis.mu + lam) ** -2.0
    partial = np.cumsum(terms)
    tail = spectral_tail_bound(
        basis.domain, basis.bc, float(basis.mu[-1]), sobolev_resolvent_weight(0.0, lam, p=2)
    )
    return partial, float(tail)


# -- pointwise regularity diagnostics --------------------------------------------


class HolderFit(NamedTuple):
    alpha: float
    c: float
    max_residual: float


def holder_modulus(op: DiscreteSolutionOperator, pairs: Sequence[tuple]) -> HolderFit:
    """Fit E|X_h(x) - X_h(y)|^2 ~ C |x-y|^(2 alpha) over point pairs.

    The second moments are exact (one covariance matrix over all pair
    points, from one probe solve), so the only fitting noise is deviation
    from the power law itself.
    """
    if len(pairs) < 5:
        raise ValueError(f"need at least 5 point pairs, got {len(pairs)}")
    points, seps = [], []
    for x, y in pairs:
        ax = np.atleast_1d(np.asarray(x, dtype=np.float64))
        ay = np.atleast_1d(np.asarray(y, dtype=np.float64))
        dist = float(np.linalg.norm(ax - ay))
        if dist == 0.0:
            raise ValueError(f"coincident pair {tuple(ax)}")
        points += [ax, ay]
        seps.append(dist)
    C = exact_covariances(op, points)
    x, y = np.arange(0, len(points), 2), np.arange(1, len(points), 2)
    moments = np.maximum(C[x, x] - 2.0 * C[x, y] + C[y, y], 1e-300)
    seps = np.array(seps)
    if seps.max() / seps.min() < 10.0:
        raise ValueError("pairs must span at least a decade of separations")
    X = np.column_stack([np.log(seps), np.ones(seps.size)])
    coef, *_ = np.linalg.lstsq(X, np.log(moments), rcond=None)
    resid = np.log(moments) - X @ coef
    return HolderFit(float(coef[0] / 2.0), float(np.exp(coef[1])), float(np.abs(resid).max()))


# -- upper-bound ingredients ------------------------------------------------------


def hs_embedding_bound(domain: ModelDomain, bc: BoundaryCondition, r: float,
                       count: int = 4000) -> TruncatedValue:
    """sum_k (1 + mu_k)^-(r+1), the squared Hilbert-Schmidt embedding factor."""
    basis = eigenpairs(domain, bc, count)
    value = float(np.sum((1.0 + basis.mu) ** (-(r + 1.0))))
    tail = spectral_tail_bound(
        domain, bc, float(basis.mu[-1]), sobolev_resolvent_weight(r + 1.0, 1.0, p=0)
    )
    return TruncatedValue(value, float(tail))


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
    bound.
    """
    basis = eigenpairs(domain, bc, n_loads)
    ctx = _LevelContext(mesh, bc, lam)
    G = element_gradients(mesh)
    sols = ctx.solutions(basis, 0, n_loads, load_rule="quadrature")  # (n_nodes, B)
    val_part = ctx.l2_errors(basis, lam, 0, n_loads, sols)

    local = sols[mesh.elements]  # (m, k, B)
    fem_grad = np.einsum("mkd,mkB->mdB", G, local)  # constant per element
    exact_grad = basis.evaluate_grad(ctx.flat_points, 0, n_loads) / (
        basis.mu[:, None, None] + lam
    )  # (B, m*q, dim)
    m_el, q = ctx.qweights.shape
    exact_grad = exact_grad.reshape(n_loads, m_el, q, mesh.dim)
    gdiff = np.moveaxis(exact_grad, 0, -1) - fem_grad[:, None, :, :]  # (m, q, d, B)
    grad_part = np.einsum("mq,mqdB->B", ctx.qweights, gdiff * gdiff)
    return float(np.max(val_part + grad_part))
