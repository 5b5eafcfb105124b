"""Path sampling of the discrete solution field and its exact second moments.

A sampled path is X_h = A^{-1} b with b = F z the white-noise load: on V_h
the measurable-extension series collapses to exact finite linear algebra, so
no mode truncation enters a path.  Second moments also have closed discrete
forms: with W = A^{-1} P^T for the point vectors P, the covariances at all
probe points are W^T M W.  Monte Carlo is kept alongside as an independent
check, never as the primary route where the formula exists.

A path's value at a point x is a fixed linear functional of its normals,
X_h(x) = p(x)^T A^{-1} F z = g_x^T z with g_x = F^T A^{-1} p(x).  Monte Carlo
at probe points therefore uses the functionals G = F^T W and then costs one
contraction per path, with no load vector and no solve.  The functionals use
the load factor F, never M, so the check against the closed form W^T M W
still tests F F^T = M.  Both come from one probe of the point set
(DiscreteSolutionOperator.probe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# Paths per generation batch: small enough that a batch's normals are still
# in cache when they are contracted.  Each path's values do not depend on the
# batch size, and the reductions run over all paths at once.
_BATCH = 16


class Probe(NamedTuple):
    """Solved point functionals of one point set, both read-only.

    W (n_free, p) is A^{-1} P^T on the free nodes; G (n_nodes, p) is F^T W
    with W extended by zeros on the Dirichlet nodes, column-major so that
    each point's functional is one contiguous run.
    """

    W: np.ndarray
    G: np.ndarray


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
        self._last_probe = None
        self._check_factorization()

    def _check_factorization(self):
        probe = GaussianStream(0, 0).normals(self.system.n_free)
        sol = self.system.solve_free(probe)
        res = self.system.residual(sol, probe)
        if res > _PROBE_TOL:
            raise RuntimeError(f"factorization probe residual {res:.3e} exceeds {_PROBE_TOL:.0e}")

    @property
    def free(self) -> np.ndarray:
        return self.system.free

    def probe(self, points) -> Probe:
        """W = A^{-1} P^T and G = F^T W for a point set, from one block solve.

        The points are located once and the p columns are solved together.
        The last point set's result is kept, keyed by the shape and bytes of
        the stacked points; the operator is immutable, so the entry never goes
        stale, and a repeated call returns the same read-only arrays.
        """
        pts = np.stack([np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points])
        key = (pts.shape, pts.tobytes())
        last = self._last_probe
        if last is not None and last[0] == key:
            return last[1]
        P = point_vectors(self.mesh, pts)[self.free]
        W_free = self.system.solve_free(P)
        W = np.zeros((self.mesh.n_nodes, P.shape[1]))
        W[self.free] = W_free
        G = np.asfortranarray(self.sampler.chol.T @ W)
        W_free.setflags(write=False)
        G.setflags(write=False)
        result = Probe(W_free, G)
        self._last_probe = (key, result)
        return result

    def point_functionals(self, points) -> np.ndarray:
        """G (n_nodes, p) with X_h(x_k) = z @ G[:, k] for the path of normals z."""
        return self.probe(points).G

    def path_from_load(self, load: LoadSample) -> FemFunction:
        return FemFunction(self.mesh, self.system.solve(load.b))

    def path_from_normals(self, z: np.ndarray) -> FemFunction:
        """Path for injected noise coordinates (exactly linear in z)."""
        load = self.sampler.from_normals(z, GaussianStream(0, 0))
        return self.path_from_load(load)


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


def exact_covariances(op: DiscreteSolutionOperator, points) -> np.ndarray:
    """Cov(X_h(x_i), X_h(x_j)) = (W^T M W)_ij for W = A^{-1} P^T, exactly.

    Entry (i, j) is W[:, i] . (M W)[:, j], summed by einsum's own loops, not
    a BLAS product, so the sum order does not depend on the thread count.
    Dirichlet boundary points give 0 rows and columns because their basis
    support is entirely on eliminated rows.
    """
    W = op.probe(points).W
    return np.einsum("ni,nj->ij", W, op.M_free @ W)


def exact_discrete_covariance(op: DiscreteSolutionOperator, x, y) -> float:
    """Cov(X_h(x), X_h(y)): the two-point case of exact_covariances."""
    return float(exact_covariances(op, [x, y])[0, 1])


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

    Path k takes the k-th run of n_nodes normals of the stream.  Normals are
    drawn _BATCH paths at a time and contracted with the point functionals
    while they are still in cache.  All reductions run over the stored
    path-major array, so results do not depend on scheduling.  Standard
    errors use the Gaussian moment formulas.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    pts = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points]
    G = op.point_functionals(pts)
    n_nodes = op.mesh.n_nodes
    values = np.empty((n, len(pts)))
    for start in range(0, n, _BATCH):
        count = min(_BATCH, n - start)
        Z = stream.normals(count * n_nodes).reshape(count, n_nodes)
        values[start : start + count] = point_values(Z, G)
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
