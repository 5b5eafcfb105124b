"""Reference kernels: fixed NumPy/SciPy computations that gauge the machine.

The speed of a small shared VM drifts by 20–40 % over minutes, and a run of
the benchmark cannot wait that out.  So every main call into whitefem is
timed right after a reference kernel that does the same kinds of work with
NumPy and SciPy directly, on fixed inputs of a fixed size, and the
benchmark's rate metric is the ratio of the two times.  A slower machine
stretches both; a faster program shortens only the second.

Nothing here imports whitefem, and nothing depends on the seed.  The kernel
runs in a helper process of its own (``KernelProcess``), one request at a
time while the workload process waits, so that neither its matrices nor its
arrays count towards the workload's peak RSS.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class SparseKernel:
    """Normals, a sparse matvec and a sparse LU solve on an n×n grid.

    The same operations as a sampled path: draw N(0, 1) numbers, apply a
    sparse factor to them, solve with a factorized P1-like system.  A is the
    5-point Laplacian on (n+1)² nodes plus the identity, factorized once.
    """

    def __init__(self, n: int, columns: int):
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n + 1, n + 1))
        eye = sp.identity(n + 1)
        self.A = (sp.kron(lap, eye) + sp.kron(eye, lap) + sp.identity((n + 1) ** 2)).tocsc()
        self.lu = splu(self.A)
        self.columns = columns

    def __call__(self) -> float:
        start = time.perf_counter()
        z = np.random.default_rng(0).standard_normal((self.A.shape[0], self.columns))
        x = self.lu.solve(self.A @ z)
        np.dot(x[::97].T, x[::97])
        return time.perf_counter() - start


class DenseKernel:
    """Mode values on quadrature points and their weighted squared error.

    The same operations as the mode-sum study: fresh (modes × points) arrays
    of cosines and sines, elementwise arithmetic, an einsum reduction.  The
    arrays are larger than 32 MiB, as the study's are, so that the C library
    maps fresh pages for each of them instead of reusing its heap: the cost
    of those page faults drifts with the host too.
    """

    def __init__(self, modes: int, elements: int, per_element: int = 6):
        self.omega = np.arange(1, modes + 1, dtype=np.float64)
        self.x = np.linspace(0.0, np.pi, elements * per_element)
        self.weights = np.full((elements, per_element), np.pi / (elements * per_element))

    def __call__(self) -> float:
        start = time.perf_counter()
        arg = self.omega[:, None] * self.x[None, :]
        values = 0.6 * np.cos(arg) + 0.8 * np.sin(arg)
        diff = values - values.mean(axis=1, keepdims=True)
        m, q = self.weights.shape
        np.einsum("mq,Bmq->B", self.weights, (diff * diff).reshape(-1, m, q))
        return time.perf_counter() - start


def _serve(make_kernel, conn, other_end) -> None:
    """Helper process: run the kernel once per request, until the pipe closes."""
    other_end.close()
    kernel = make_kernel()
    try:
        while conn.recv():
            conn.send(kernel())
    except (EOFError, OSError):  # the workload process has gone
        pass


class KernelProcess:
    """A reference kernel in a helper process; calling it runs it once.

    Use as a context manager: the helper is started on entry, and on exit it
    is told to stop and waited for.  If the workload process dies first, the
    helper reads the end of its pipe and stops by itself.
    """

    def __init__(self, make_kernel):
        self._make_kernel = make_kernel

    def __enter__(self) -> "KernelProcess":
        # The workload process and the helper share one CPU, which the helper
        # inherits, so that both run on the same core of the host.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(self._make_kernel, child_end, self._conn),
                                 daemon=True)
        self._proc.start()
        child_end.close()
        return self

    def __call__(self) -> float:
        """Seconds the kernel took, measured inside the helper."""
        self._conn.send(True)
        return self._conn.recv()

    def __exit__(self, *exc) -> None:
        try:
            self._conn.send(False)
        except OSError:
            pass
        self._conn.close()
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
