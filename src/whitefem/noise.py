"""Reproducible white-noise sampling.

Normals come from the inverse normal CDF applied to a counter-based Philox
generator, so a stream is a pure function of (seed, stream_id, counter): a
counter offset selects any run of a stream without drawing what comes before
it, and sequences are stable across platforms and runs.  This generation
scheme is frozen; golden tests pin exact output values.  Normal k of a stream
is ndtri((m + 1/2) 2^-53) for m the top 53 bits of its k-th 64-bit Philox
word.  NumPy's Generator.random turns the same words into m 2^-53, and
adding 2^-54 to that rounds exactly as (m + 1/2) 2^-53 does, so each draw is
written straight into its float64 destination and converted there.  ndtri
is SciPy's (scipy.special), imported on the first draw, not with the module.

Load vectors b_i = W(phi_i) are sampled as b = F z with F F^T = M exactly, M
the consistent mass matrix (no mass lumping: lumping would perturb the load
covariance by O(h^2) and contaminate measured convergence rates).  F is the
sparse Cholesky factor of M under the geometric nested-dissection ordering
of all nodes (fem.nested_dissection), with its rows put back in node order
and stored row by row (CSR).  That ordering is the system factor's own
array, for every boundary condition.  Any exact square root of M gives the
same load law, and this one has a fraction of the natural-order factor's
fill.  A load consumes one normal per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import nested_dissection, sparse_cholesky
from .mesh import Mesh

_MASK64 = (1 << 64) - 1
_OUTPUTS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _normals_from_uniform(u: np.ndarray) -> np.ndarray:
    """Standard normals, in place, from the uniforms u = m 2^-53 of 53-bit m.

    u becomes ndtri((m + 1/2) 2^-53): adding 2^-54 to m 2^-53 rounds exactly
    as (m + 1/2) 2^-53 does, because the scale is a power of two.  That value
    rounds to 1.0 for m = 2^53 - 1 alone and is clamped to the largest double
    below 1, so ndtri stays finite.  No other value changes.
    """
    from scipy.special import ndtri  # here, not at module level: scipy.special adds ~4 MiB RSS

    u += 2.0**-54
    np.minimum(u, _BELOW_ONE, out=u)
    return ndtri(u, out=u)


@dataclass
class GaussianStream:
    """Seeded, stream-indexed source of i.i.d. standard normals.

    (seed, stream_id) select an independent stream; `counter` is the number
    of normals already drawn, so equal states reproduce equal output bit for
    bit.  Instances are cheap value objects.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Draw n standard normals and advance the counter by n.

        With out, a C-contiguous float64 array of n elements, the normals are
        written there and out is returned; otherwise a new array is.
        """
        if n < 0:
            raise ValueError(f"cannot draw {n} normals")
        if out is None:
            out = np.empty(n)
        elif out.size != n:
            raise ValueError(f"out holds {out.size} values, not {n}")
        if n == 0:
            return out
        block, offset = divmod(self.counter, _OUTPUTS_PER_BLOCK)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        ctr = np.array([block, 0, 0, 0], dtype=np.uint64)
        bits = np.random.Philox(key=key, counter=ctr)
        bits.random_raw(offset)  # the words of this block drawn before
        np.random.Generator(bits).random(out=out)
        self.counter += n
        return _normals_from_uniform(out)


@dataclass(frozen=True)
class LoadSample:
    """Dual-coordinate white-noise load b_i = W(phi_i) with provenance."""

    mesh: Mesh
    b: np.ndarray
    seed: int
    stream_id: int

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != (self.mesh.n_nodes,):
            raise ValueError("load length does not match node count")
        object.__setattr__(self, "b", b)


class LoadSampler:
    """Factor the mass matrix once, then draw many load vectors against it.

    `chol` is the sparse square root F of M (F F^T = M, one column per
    normal) from `sparse_cholesky` under `order`, the nested-dissection
    ordering of all nodes.  It is a CSR matrix with its rows in node order
    and ascending columns in each row, so a load F z is one gather per node.
    DiscreteSolutionOperator passes its system's `order`; a standalone
    sampler computes the same array here from the mesh and M's pattern.
    """

    def __init__(self, mesh: Mesh, M: sp.sparray, order: np.ndarray | None = None):
        self.mesh = mesh
        self.M = M
        if order is None:
            order = nested_dissection(mesh, M)
        self.chol = sparse_cholesky(M, order)

    def sample(self, stream: GaussianStream) -> LoadSample:
        z = stream.normals(self.mesh.n_nodes)
        return LoadSample(self.mesh, self.chol @ z, stream.seed, stream.stream_id)

    def sample_batch(self, stream: GaussianStream, n: int) -> np.ndarray:
        """n load vectors as columns, consuming normals in path order."""
        z = stream.normals(n * self.mesh.n_nodes).reshape(n, self.mesh.n_nodes).T
        return self.chol @ z
