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
(DiscreteSolutionOperator.probe); G is formed only when asked for.  Path i
of a run is always the i-th run of n_nodes normals of one stream.
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

# Paths per generation batch: small enough that a batch's normals are still
# in cache when they are contracted.  Each path's values do not depend on the
# batch size, and the reductions run over all paths at once.
_BATCH = 16


class DiscreteSolutionOperator(FactorizedSystem):
    """The mesh's factorized solve (FactorizedSystem) plus the load sampler
    that feeds it and the probe solves of point sets."""

    def __init__(self, mesh: Mesh, bc: BoundaryCondition, lam: float):
        super().__init__(mesh, bc, lam)
        # The system factors A on its first solve, the probe check below.  M
        # is factored before that, so the transient copies of M's
        # factorization are freed before A's factor takes its memory.
        self.sampler = LoadSampler(mesh, self.M, self.order)
        self.M_free = self.restrict(self.M).tocsr()
        self._last_probe = None  # [key, W, G or None] of the last point set
        self._check_factorization()

    def _check_factorization(self):
        """Solve one random load and bound its backward error, which, unlike
        ||A c - b|| / ||b||, does not grow as lambda or h gets small."""
        probe = GaussianStream(0, 0).normals(self.n_free)
        self.check_backward_error(self.solve_free(probe), probe, what="factorization probe")

    def probe(self, points) -> np.ndarray:
        """W = A^{-1} P^T (n_free, p) for a point set, from one block solve.

        The points are located once and the p columns are solved together.
        The last point set's result is kept, keyed by the shape and bytes of
        the stacked points; the operator is immutable, so the entry never goes
        stale, and a repeated call returns the same read-only array.
        """
        pts = np.stack([np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points])
        key = (pts.shape, pts.tobytes())
        last = self._last_probe
        if last is not None and last[0] == key:
            return last[1]
        P = point_vectors(self.mesh, pts)[self.free]
        W = self.solve_free(P)
        W.setflags(write=False)
        self._last_probe = [key, W, None]
        return W

    def point_functionals(self, points) -> np.ndarray:
        """G (n_nodes, p) with X_h(x_k) = z @ G[:, k] for the path of normals z.

        G = F^T W with W extended by zeros on the Dirichlet nodes, column-major
        so that each point's functional is one contiguous run.  It is formed
        on the first call for a point set and kept, read-only, with its W.
        """
        W_free = self.probe(points)
        last = self._last_probe
        if last[2] is None:
            G = np.asfortranarray(self.sampler.chol.T @ self.extend(W_free))
            G.setflags(write=False)
            last[2] = G
        return last[2]

    def path_from_load(self, load: LoadSample) -> FemFunction:
        return FemFunction(self.mesh, self.solve(load.b))


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


def path_point_values(G: np.ndarray, n: int, stream: GaussianStream) -> np.ndarray:
    """Values (n, p) at G's points of n paths drawn from stream.

    Path i takes the i-th run of n_nodes normals of the stream.  Normals are
    drawn _BATCH paths at a time into one buffer and contracted with G while
    they are still in cache; a path's values do not depend on the batch it
    falls in.
    """
    n_nodes = G.shape[0]
    values = np.empty((n, G.shape[1]))
    Z = np.empty((min(_BATCH, n), n_nodes))
    for start in range(0, n, _BATCH):
        count = min(_BATCH, n - start)
        stream.normals(count * n_nodes, out=Z[:count])
        values[start : start + count] = point_values(Z[:count], G)
    return values


def exact_covariances(op: DiscreteSolutionOperator, points) -> np.ndarray:
    """Cov(X_h(x_i), X_h(x_j)) = (W^T M W)_ij for W = A^{-1} P^T, exactly.

    Entry (i, j) is W[:, i] . (M W)[:, j], summed by einsum's own loops, not
    a BLAS product, so the sum order does not depend on the thread count.
    Dirichlet boundary points give 0 rows and columns because their basis
    support is entirely on eliminated rows.
    """
    W = op.probe(points)
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


def covariance_standard_error(C: np.ndarray, n: int) -> np.ndarray:
    """Standard errors of the unbiased n-path sample covariance of Gaussians.

    For centred Gaussian values with covariance C, that estimator's entry
    (i, j) has variance (C_ii C_jj + C_ij^2) / (n - 1).
    """
    var = np.diag(C)
    return np.sqrt((np.outer(var, var) + C**2) / (n - 1))


def monte_carlo_moments(
    op: DiscreteSolutionOperator, points, n: int, stream: GaussianStream
) -> MomentReport:
    """Sample moments of X_h at evaluation points over n independent paths.

    The paths are those of :func:`path_point_values`.  All reductions run
    over the stored path-major array, so results do not depend on
    scheduling.  Standard errors use the Gaussian moment formulas, with the
    sample covariance in place of the unknown one.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    pts = [np.atleast_1d(np.asarray(p, dtype=np.float64)) for p in points]
    values = path_point_values(op.point_functionals(pts), n, stream)
    mean = values.sum(axis=0) / n
    centered = values - mean
    p = len(pts)
    cov = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            cov[i, j] = cov[j, i] = np.sum(centered[:, i] * centered[:, j]) / (n - 1)
    se_mean = np.sqrt(np.diag(cov) / n)
    return MomentReport(
        points=np.stack(pts),
        n=n,
        mean=mean,
        covariance=cov,
        se_mean=se_mean,
        se_covariance=covariance_standard_error(cov, n),
        seed=stream.seed,
        stream_id=stream.stream_id,
    )
