"""Reproducible white-noise sampling.

Normals come from the inverse normal CDF applied to a counter-based Philox
generator, so a stream is a pure function of (seed, stream_id, counter):
substreams are splittable for parallel Monte Carlo and sequences are stable
across platforms and runs.  This generation scheme is frozen; golden tests
pin exact output values.

Load vectors b_i = W(phi_i) are sampled as b = F z with F F^T = M exactly, M
the consistent mass matrix (no mass lumping: lumping would perturb the load
covariance by O(h^2) and contaminate measured convergence rates).  F is the
sparse Cholesky factor of M under a fill-reducing node ordering, with its
rows put back in node order; any exact square root of M gives the same load
law, and this one has a fraction of the natural-order factor's fill.  A load
consumes one normal per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import ndtri

from .fem import sparse_cholesky
from .mesh import Mesh
from .spectral import EigenBasis, SpectralField

_MASK64 = (1 << 64) - 1
_OUTPUTS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick


def _normals_from_raw(raw: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit words, by ndtri of their top 53 bits.

    The word's top 53 bits m map to u = (m + 1/2) 2^-53, which rounds to
    exactly 1.0 for m = 2^53 - 1 alone; that u is clamped to the largest
    double below 1 so ndtri stays finite.  No other value changes.  Every
    step after the shift works in place on one float array; raw is consumed.
    """
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return ndtri(u, out=u)


@dataclass
class GaussianStream:
    """Seeded, substream-indexed source of i.i.d. standard normals.

    (seed, stream_id) select an independent substream; `counter` is the
    number of normals already drawn, so equal states reproduce equal output
    bit for bit.  Instances are cheap value objects; parallel workers should
    each get a distinct stream_id.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0

    def normals(self, n: int) -> np.ndarray:
        """Draw n standard normals and advance the counter by n."""
        if n < 0:
            raise ValueError(f"cannot draw {n} normals")
        if n == 0:
            return np.empty(0)
        block, offset = divmod(self.counter, _OUTPUTS_PER_BLOCK)
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        ctr = np.array([block, 0, 0, 0], dtype=np.uint64)
        raw = np.random.Philox(key=key, counter=ctr).random_raw(offset + n)[offset:]
        self.counter += n
        return _normals_from_raw(raw)

    def substream(self, offset: int) -> "GaussianStream":
        """Fresh stream with stream_id shifted by offset (counter reset)."""
        return GaussianStream(self.seed, (self.stream_id + offset) & _MASK64, 0)


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
    normal): the permuted Cholesky factor L of `sparse_cholesky`, whose row
    k belongs to node order[k], with its rows put back in node order.
    """

    def __init__(self, mesh: Mesh, M: sp.sparray):
        self.mesh = mesh
        self.M = M
        L, order = sparse_cholesky(M)
        self.chol = L[np.argsort(order)]

    def sample(self, stream: GaussianStream) -> LoadSample:
        z = stream.normals(self.mesh.n_nodes)
        return LoadSample(self.mesh, self.chol @ z, stream.seed, stream.stream_id)

    def sample_batch(self, stream: GaussianStream, n: int) -> np.ndarray:
        """n load vectors as columns, consuming normals in path order."""
        z = stream.normals(n * self.mesh.n_nodes).reshape(n, self.mesh.n_nodes).T
        return self.chol @ z

    def from_normals(self, z: np.ndarray, stream: GaussianStream) -> LoadSample:
        """Load with injected coordinates (testing hook for zero/scaled noise)."""
        return LoadSample(self.mesh, self.chol @ np.asarray(z, dtype=np.float64),
                          stream.seed, stream.stream_id)


def sample_spectral_truncation(basis: EigenBasis, m: int, stream: GaussianStream) -> SpectralField:
    """Truncated white noise in the eigenbasis: m i.i.d. N(0,1) coefficients.

    The eigenbasis is L2-orthonormal, so the coordinates of white noise in it
    are independent standard normals.
    """
    if m < 0 or m > basis.count:
        raise ValueError(f"truncation {m} outside [0, {basis.count}]")
    return SpectralField(basis, stream.normals(m))


def white_noise_functional(phi, sample) -> float:
    """Evaluate W(phi) for a stored noise sample.

    For a FEM test function v in V_h this is v^T b, which equals W(Q_h v)
    identically because Q_h v = v on V_h (the projection identity is
    structural, not approximated).  For spectral representations it is the
    coefficient pairing over phi's truncation.
    """
    from .fem import FemFunction  # local import to avoid cycle at module load

    if isinstance(phi, FemFunction) and isinstance(sample, LoadSample):
        if phi.mesh is not sample.mesh and not np.array_equal(phi.mesh.nodes, sample.mesh.nodes):
            raise ValueError("test function and load sample live on different meshes")
        return float(phi.coefficients @ sample.b)
    if isinstance(phi, SpectralField) and isinstance(sample, SpectralField):
        if phi.basis is not sample.basis:
            raise ValueError("spectral representations use different bases")
        m = phi.truncation
        if m > sample.truncation:
            raise ValueError("noise sample truncated below the test function")
        return float(phi.coefficients @ sample.coefficients[:m])
    raise ValueError(
        f"incompatible representations: {type(phi).__name__} vs {type(sample).__name__}"
    )
