"""Path sampling of the discrete solution field and its exact second moments.

A sampled path is X_h = A^{-1} b with b = F z the white-noise load: on V_h
the measurable-extension series collapses to exact finite linear algebra, so
no mode truncation enters a path.  Second moments also have closed discrete
forms (two backsolves against the shared factorization per covariance entry);
Monte Carlo is kept alongside as an independent check, never as the primary
route where the formula exists.

A path's value at a point x is a fixed linear functional of its normals,
X_h(x) = p(x)^T A^{-1} F z = g_x^T z with g_x = F^T A^{-1} p(x).  Monte Carlo
at probe points therefore solves once for the functionals g_x and then costs
one contraction per path, with no load vector and no solve.  The functionals
use the load factor F, never M, so the check against the closed form
p^T A^{-1} M A^{-1} p still tests F F^T = M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    BoundaryCondition,
    FactorizedSystem,
    FemFunction,
    point_vectors,
)
from .mesh import Mesh
from .noise import GaussianStream, LoadSample, LoadSampler

_PROBE_TOL = 1e-10
# Paths per generation batch.  Fixed (never derived from worker counts) so
# that moment reductions group identically in every run.
_BATCH = 256


class DiscreteSolutionOperator:
    """Factorized discrete solve plus the load sampler that feeds it."""

    def __init__(self, mesh: Mesh, bc: BoundaryCondition, lam: float):
        self.mesh = mesh
        self.bc = bc
        self.lam = float(lam)
        self.system = FactorizedSystem(mesh, bc, lam)
        self.K, self.M, self.R = self.system.K, self.system.M, self.system.R
        self.sampler = LoadSampler(mesh, self.M)
        self.M_free = self.system.restrict(self.M).tocsr()
        self._probe()

    def _probe(self):
        probe = GaussianStream(0, 0).normals(self.system.n_free)
        sol = self.system.solve_free(probe)
        res = self.system.residual(sol, probe)
        if res > _PROBE_TOL:
            raise RuntimeError(f"factorization probe residual {res:.3e} exceeds {_PROBE_TOL:.0e}")

    @property
    def free(self) -> np.ndarray:
        return self.system.free

    def point_functionals(self, points) -> np.ndarray:
        """G (n_nodes, p) with X_h(x_k) = z @ G[:, k] for the path of normals z.

        G = F^T W, where W = A^{-1} P^T on the free nodes and 0 on Dirichlet
        rows: one solve of p columns against the shared factorization.  G is
        column-major, so each point's functional is one contiguous run.
        """
        P = point_vectors(self.mesh, points)[self.free]
        W = np.zeros((self.mesh.n_nodes, P.shape[1]))
        W[self.free] = self.system.solve_free(P)
        return np.asfortranarray(self.sampler.chol.T @ W)

    def path_from_load(self, load: LoadSample) -> FemFunction:
        return FemFunction(self.mesh, self.system.solve(load.b))

    def path_from_normals(self, z: np.ndarray) -> FemFunction:
        """Path for injected noise coordinates (exactly linear in z)."""
        load = self.sampler.from_normals(z, GaussianStream(0, 0))
        return self.path_from_load(load)


def sample_path(op: DiscreteSolutionOperator, stream: GaussianStream) -> FemFunction:
    """One realization X_h = A^{-1} b; advances the stream by node count."""
    return op.path_from_load(op.sampler.sample(stream))


def sample_path_with_load(op: DiscreteSolutionOperator, stream: GaussianStream):
    """(X_h, b) drawn jointly, for checks that pair a path with its own load."""
    load = op.sampler.sample(stream)
    return op.path_from_load(load), load


def point_values(Z: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Values (paths, p) at G's points of the paths whose normals are Z's rows.

    einsum's own loops, unlike a BLAS matmul, sum in an order that does not
    depend on the BLAS thread count, so outputs are byte-stable.
    """
    return np.einsum("pn,kn->pk", Z, G.T)


def exact_discrete_covariance(op: DiscreteSolutionOperator, x, y) -> float:
    """Cov(X_h(x), X_h(y)) = p(x)^T A^{-1} M A^{-1} p(y), exactly.

    Dirichlet boundary points evaluate to 0 because their basis support is
    entirely on eliminated rows.
    """
    px, py = point_vectors(op.mesh, [x, y])[op.free].T
    wx = op.system.solve_free(px)
    wy = wx if np.array_equal(px, py) else op.system.solve_free(py)
    # einsum, not a BLAS dot, so the sum order does not depend on the thread count
    return float(np.einsum("i,i->", wx, op.M_free @ wy))


def pointwise_variance_field(op: DiscreteSolutionOperator, chunk: int = 512) -> FemFunction:
    """Nodal variances diag(A^{-1} M A^{-1}), by column-block backsolves."""
    n = op.system.n_free
    var_free = np.empty(n)
    eye_block = np.zeros((n, min(chunk, n)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        width = stop - start
        block = eye_block[:, :width]
        block[:] = 0.0
        block[np.arange(start, stop), np.arange(width)] = 1.0
        W = op.system.solve_free(block)
        var_free[start:stop] = np.einsum("ij,ij->j", W, op.M_free @ W)
    values = np.zeros(op.mesh.n_nodes)
    values[op.free] = var_free
    return FemFunction(op.mesh, values)


@dataclass(frozen=True)
class MomentReport:
    """Unbiased sample mean/covariance at probe points, with standard errors."""

    points: np.ndarray
    n: int
    mean: np.ndarray
    covariance: np.ndarray
    se_mean: np.ndarray
    se_covariance: np.ndarray
    seed: int
    stream_id: int


def monte_carlo_moments(
    op: DiscreteSolutionOperator, points, n: int, stream: GaussianStream
) -> MomentReport:
    """Sample moments of X_h at evaluation points over n independent paths.

    Path k takes the k-th run of n_nodes normals of the stream, drawn in
    fixed-size batches, and its values are its normals contracted with the
    point functionals.  All reductions run over the stored path-major array,
    so results do not depend on scheduling.  Standard errors use the Gaussian
    moment formulas.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    pts = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points]
    G = op.point_functionals(pts)
    n_nodes = op.mesh.n_nodes
    values = np.empty((n, len(pts)))
    done = 0
    while done < n:
        count = min(_BATCH, n - done)
        Z = stream.normals(count * n_nodes).reshape(count, n_nodes)
        values[done : done + count] = point_values(Z, G)
        done += count
    mean = values.sum(axis=0) / n
    centered = values - mean
    p = len(pts)
    cov = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            cov[i, j] = cov[j, i] = np.sum(centered[:, i] * centered[:, j]) / (n - 1)
    var = np.diag(cov)
    se_mean = np.sqrt(var / n)
    se_cov = np.sqrt((np.outer(var, var) + cov**2) / n)
    return MomentReport(
        points=np.stack(pts),
        n=n,
        mean=mean,
        covariance=cov,
        se_mean=se_mean,
        se_covariance=se_cov,
        seed=stream.seed,
        stream_id=stream.stream_id,
    )
