"""Checks of the program's outputs against the benchmark's own computations.

Every check is one operation.  ``check`` takes a workload's parameters, its
inputs and its first round's outputs and returns a list of ``Op``; later
rounds ran the same calls on the same inputs, so ``run.py`` requires their
output digests to equal the first round's and lets them inherit its results.
An ``Op`` with ``known_fault`` set names a fault of the program that fails on
every run; it counts as failed without making the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import reference

PI = np.pi
LAM = 1.0
AREA = PI * PI
PERIMETER = 4.0 * PI
EXACT_RTOL = 1e-10
N_SE = 4.0
PATH_RTOL = 1e-10
ROBIN_TOL = 1e-9
RATE_BAND = (1.7, 2.1)
# Lattice spacing, in mesh steps, of the load-covariance test patches.  A
# patch is a node and its neighbours, so a vector's support reaches two steps
# from its centre; six steps leave at least one element between supports.
PATCH_SPACING = 6


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""
    known_fault: bool = False


def _mesh_op(nodes, elements, facets, n: int) -> tuple[Op, reference.Operators]:
    """Reference assembly on the program's mesh, with its closed-form checks."""
    ops = reference.assemble(nodes, elements, facets)
    failures = reference.self_check(ops, AREA, PERIMETER)
    if nodes.shape[0] != (n + 1) ** 2 or elements.shape[0] != 2 * n * n:
        failures.append(f"{nodes.shape[0]} nodes, {elements.shape[0]} triangles for {n}×{n}")
    return Op(f"mesh {n}×{n}", not failures, "; ".join(failures)), ops


def check_mc_moments(spec: dict, inputs: dict, out: dict) -> list[Op]:
    """Exact covariances per pair; Monte Carlo moments pooled over the calls.

    The calls draw disjoint streams, so the pooled mean is the mean of all
    calls' paths, and the average of the calls' unbiased covariances has
    variance (C_ii C_jj + C_ij²) / Σ(n_k − 1) for Gaussian values.
    """
    mesh_op, ops = _mesh_op(out["nodes"], out["elements"], out["facets"], spec["n"])
    result = [mesh_op]
    C = reference.discrete_covariance(ops, LAM, inputs["points"])
    n_calls = out["n"]
    mean = (n_calls[:, None] * out["mean"]).sum(axis=0) / n_calls.sum()
    cov = ((n_calls - 1)[:, None, None] * out["covariance"]).sum(axis=0) / (n_calls - 1).sum()
    var = np.diag(C)
    pairs = [(i, j) for i in range(len(var)) for j in range(i, len(var))]
    for i, j in pairs:
        got, want = out["exact"][i, j], C[i, j]
        result.append(Op(f"exact_cov[{i},{j}]", abs(got - want) <= EXACT_RTOL * abs(want),
                         f"{got!r} vs reference {want!r}"))
    for i, j in pairs:
        se = np.sqrt((var[i] * var[j] + C[i, j] ** 2) / (n_calls - 1).sum())
        got = cov[i, j]
        result.append(Op(f"mc_cov[{i},{j}]", abs(got - C[i, j]) <= N_SE * se,
                         f"{got!r} vs {C[i, j]!r}, {abs(got - C[i, j]) / se:.2f} SE"))
    for i in range(len(var)):
        se = np.sqrt(var[i] / n_calls.sum())
        got = mean[i]
        result.append(Op(f"mc_mean[{i}]", abs(got) <= N_SE * se, f"{got!r}, {abs(got) / se:.2f} SE"))
    return result


def check_mode_sum(spec: dict, inputs: dict, out: dict) -> list[Op]:
    result = []
    sizes = [spec["base"] * 2**k for k in range(spec["refinements"] + 1)]
    meshes_ok = []
    for k, n in enumerate(sizes):
        op, _ = _mesh_op(out[f"level{k}_nodes"], out[f"level{k}_elements"], out[f"level{k}_facets"], n)
        meshes_ok.append(op)
    result.append(Op("meshes", all(op.ok for op in meshes_ok),
                     "; ".join(op.detail for op in meshes_ok if not op.ok)))
    h, err = out["h"], out["error_sq"]
    for k, n in enumerate(sizes):
        h_want = np.sqrt(2.0) * PI / n
        ok = (np.isfinite(err[k]) and err[k] > 0 and abs(h[k] - h_want) <= 1e-12 * h_want
              and (k == 0 or err[k] < err[k - 1]))
        result.append(Op(f"level {n}", bool(ok), f"h={h[k]!r}, error_sq={err[k]!r}"))
    rate = float(out["fitted_rate"])
    if np.all(err > 0) and np.all(np.isfinite(err)):
        slope = np.polyfit(np.log(h), np.log(err), 1)[0]
        result.append(Op("rate_fit", abs(rate - slope) <= 1e-9 * max(1.0, abs(slope)),
                         f"reported {rate!r}, refit {slope!r}"))
    else:
        result.append(Op("rate_fit", False, "errors not positive and finite"))
    # Known fault: with load_rule="interpolation" the statistic grows with
    # the mode budget, so the fitted slope misses the band at any budget the
    # benchmark can afford (ROADMAP direction 2).
    result.append(Op("rate_band", RATE_BAND[0] <= rate <= RATE_BAND[1],
                     f"slope {rate!r} outside {list(RATE_BAND)}", known_fault=True))
    return result


def patch_vectors(ops: reference.Operators, n: int, seed: int):
    """Random test vectors on node patches with supports a lattice apart.

    Returns a sparse matrix V whose rows are the vectors, after checking that
    no element touches two supports.
    """
    rng = np.random.default_rng([seed, 4])
    step = PI / n
    lattice = np.rint(ops.nodes / step).astype(np.int64)
    offset = rng.integers(0, PATCH_SPACING, size=2)
    centres = np.nonzero(((lattice - offset) % PATCH_SPACING == 0).all(axis=1))[0]
    adjacency = (ops.M != 0).astype(np.float64).tocsr()
    patches = sp.csr_matrix(
        (np.ones(centres.size), (np.arange(centres.size), centres)), shape=(centres.size, ops.nodes.shape[0])
    ) @ adjacency
    patches.sort_indices()
    patches.data = rng.standard_normal(patches.data.size)
    support = (abs(patches) @ adjacency).astype(bool).astype(np.float64)
    touching = (support @ adjacency @ support.T).tocoo()
    if np.any(touching.row != touching.col):
        raise RuntimeError("test-vector supports are not separated by an element")
    return patches.tocsr()


def check_robin_fine_mesh(spec: dict, inputs: dict, out: dict, seed: int) -> list[Op]:
    n = spec["base"] * 2**spec["refinements"]
    mesh_op, ops = _mesh_op(out["nodes"], out["elements"], out["facets"], n)
    result = [mesh_op]
    rel = reference.relative_residuals(ops, LAM, spec["beta"], out["coefficients"], out["loads"])
    for k, (r, rr) in enumerate(zip(rel, out["robin_residual"])):
        result.append(Op(f"path {k}", bool(r <= PATH_RTOL and rr <= ROBIN_TOL),
                         f"‖Ac−b‖/‖b‖ = {r:.3e}, robin_residual = {rr:.3e}"))
    V = patch_vectors(ops, n, seed)
    scale = np.sqrt(np.asarray((V.multiply(V @ ops.M)).sum(axis=1)).ravel())
    z = (V @ out["loads"].T) / scale[:, None]  # standardized vᵀb, (vectors, paths)
    z = z.ravel()
    var = z.var(ddof=1)
    se = np.sqrt(2.0 / (z.size - 1))
    result.append(Op("load_cov", abs(var - 1.0) <= N_SE * se,
                     f"variance {var:.5f} of {z.size} standardized vᵀb, {abs(var - 1) / se:.2f} SE"))
    return result


def check(name: str, spec: dict, inputs: dict, out: dict, seed: int) -> list[Op]:
    """All operations of one round of workload `name`."""
    if name == "mc-moments":
        return check_mc_moments(spec, inputs, out)
    if name == "mode-sum-convergence":
        return check_mode_sum(spec, inputs, out)
    return check_robin_fine_mesh(spec, inputs, out, seed)
