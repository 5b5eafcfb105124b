"""The benchmark's three workloads, run in a process of their own.

Usage (``run.py`` starts this; it is not meant to be called by hand):

    python3 perfbench/workloads.py --workload NAME --seed N --trace 0|1 --out DIR

The process imports whitefem from ``src/`` of the checkout, makes the
workload's inputs from the seed, and runs whole rounds of the same calls on
the same inputs.  Every round sets up from scratch (mesh, operators) and then
does the workload's main calls; only calls into whitefem are timed.  Right
before each main call, the workload's reference kernel runs once in a helper
process on the same CPU (``refkernel.py``), and its time is recorded beside
the call's; kernel time is left out of a round's ``wall_s``.  Rounds
go on while the next one is expected to end within ``RUN_SECONDS`` (set in
``run.py``), with at least two, so every round of every run attempts the same operations.  With
``--trace 1`` the odd-numbered rounds run under the tracer, so one process
yields both traced and untraced wall times.  The first round's outputs go to
``DIR/arrays.npz`` as soon as it ends, and are not held through the later
rounds; timings, layer totals and a digest of every round's outputs go to
``DIR/rounds.json``.  Checking is left to ``run.py``, so no reference
computation runs in this process or enters its peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import whitefem as wf
from refkernel import DenseKernel, KernelProcess, SparseKernel
from run import RUN_SECONDS
from tracer import Tracer

PI = np.pi
LAM = 1.0
MIN_ROUNDS = 2


def _mesh_arrays(mesh, prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}nodes": mesh.nodes, f"{prefix}elements": mesh.elements,
            f"{prefix}facets": mesh.facet_nodes}


@dataclass(frozen=True)
class McMoments:
    """Neumann Monte Carlo moments at six probe points, then the exact ones.

    The paths come from `calls` calls of `paths_per_call` paths, call k on
    stream k, so the run holds many short timed calls; ``checks.py`` pools
    the calls' moments.
    """

    n: int = 128
    calls: int = 8
    paths_per_call: int = 256
    n_points: int = 6

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 1])
        return {"points": rng.uniform(0.1 * PI, 0.9 * PI, size=(self.n_points, 2)),
                "stream_seed": int(rng.integers(2**63))}

    def reference_kernel(self):
        return SparseKernel(128, 32)

    def round(self, inp: dict, count, ref) -> tuple[dict, dict]:
        points = [tuple(p) for p in inp["points"]]
        t0 = time.perf_counter()
        mesh = wf.build_rectangle_mesh(PI, PI, self.n, self.n)
        op = wf.DiscreteSolutionOperator(mesh, wf.neumann(), LAM)
        t1 = time.perf_counter()
        reports, call_s, ref_s = [], [], []
        for k in range(self.calls):
            ref_s.append(ref())
            start = time.perf_counter()
            reports.append(wf.monte_carlo_moments(op, points, self.paths_per_call,
                                                  wf.GaussianStream(inp["stream_seed"], k)))
            call_s.append(time.perf_counter() - start)
        exact = np.empty((self.n_points, self.n_points))
        for i in range(self.n_points):
            for j in range(i, self.n_points):
                exact[i, j] = exact[j, i] = wf.exact_discrete_covariance(op, points[i], points[j])
        t2 = time.perf_counter()
        count("mesh.nodes", mesh.n_nodes)
        times = {"wall_s": t2 - t0 - sum(ref_s), "setup_s": t1 - t0, "call_s": call_s,
                 "ref_s": ref_s, "work_per_call": self.paths_per_call}
        outputs = {"mean": np.stack([r.mean for r in reports]),
                   "covariance": np.stack([r.covariance for r in reports]),
                   "n": np.array([r.n for r in reports]), "exact": exact, **_mesh_arrays(mesh, "")}
        return times, outputs


@dataclass(frozen=True)
class ModeSumConvergence:
    """deterministic_fem_error, Neumann, r = 0.1, dyadic levels 8 to 64."""

    base: int = 8
    refinements: int = 3
    budget: int = 256
    r: float = 0.1

    def inputs(self, seed: int) -> dict:
        # The mode-sum study has no random input: every seed runs the same
        # computation.
        return {}

    def reference_kernel(self):
        return DenseKernel(128, 6144)

    def round(self, inp: dict, count, ref) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        mesh = wf.build_rectangle_mesh(PI, PI, self.base, self.base)
        meshes = [mesh]
        for _ in range(self.refinements):
            mesh = wf.refine_uniform(mesh)
            meshes.append(mesh)
        t1 = time.perf_counter()
        ref_s = [ref()]
        start = time.perf_counter()
        rep = wf.deterministic_fem_error(wf.Rectangle(PI, PI), wf.neumann(), LAM, self.r, meshes,
                                         basis_count=self.budget)
        t2 = time.perf_counter()
        for m in meshes:
            count("mesh.nodes", m.n_nodes)
        times = {"wall_s": t2 - t0 - sum(ref_s), "setup_s": t1 - t0, "call_s": [t2 - start],
                 "ref_s": ref_s, "work_per_call": self.budget * len(meshes)}
        outputs = {"h": np.array([lv.h for lv in rep.levels]),
                   "error_sq": np.array([lv.error_sq for lv in rep.levels]),
                   "fitted_rate": np.array(rep.fitted_rate),
                   "basis_count": np.array(rep.basis_count)}
        for i, m in enumerate(meshes):
            outputs.update(_mesh_arrays(m, f"level{i}_"))
        return times, outputs


@dataclass(frozen=True)
class RobinFineMesh:
    """Robin paths with their loads on a twice-refined 64×64 mesh."""

    base: int = 64
    refinements: int = 2
    paths: int = 32
    beta: float = 0.8

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 3])
        return {"stream_seed": int(rng.integers(2**63))}

    def reference_kernel(self):
        return SparseKernel(128, 1)

    def round(self, inp: dict, count, ref) -> tuple[dict, dict]:
        t0 = time.perf_counter()
        mesh = wf.build_rectangle_mesh(PI, PI, self.base, self.base)
        for _ in range(self.refinements):
            mesh = wf.refine_uniform(mesh)
        op = wf.DiscreteSolutionOperator(mesh, wf.robin(self.beta), LAM)
        basis = wf.scale_space_basis(mesh)
        t1 = time.perf_counter()
        stream = wf.GaussianStream(inp["stream_seed"], 0)
        coeffs = np.empty((self.paths, mesh.n_nodes))
        loads = np.empty((self.paths, mesh.n_nodes))
        residuals = np.empty(self.paths)
        call_s, ref_s = [], []
        for k in range(self.paths):
            ref_s.append(ref())
            start = time.perf_counter()
            path, load = wf.sample_path_with_load(op, stream)
            call_s.append(time.perf_counter() - start)
            residuals[k] = wf.robin_residual(path, load, LAM, self.beta, basis=basis,
                                             K=op.K, M=op.M, R=op.R)
            coeffs[k] = path.coefficients
            loads[k] = load.b
        t2 = time.perf_counter()
        count("mesh.nodes", mesh.n_nodes)
        times = {"wall_s": t2 - t0 - sum(ref_s), "setup_s": t1 - t0, "call_s": call_s,
                 "ref_s": ref_s, "work_per_call": 1}
        outputs = {"coefficients": coeffs, "loads": loads, "robin_residual": residuals,
                   **_mesh_arrays(mesh, "")}
        return times, outputs


WORKLOADS = {
    "mc-moments": McMoments(),
    "mode-sum-convergence": ModeSumConvergence(),
    "robin-fine-mesh": RobinFineMesh(),
}


def digest(outputs: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        a = np.ascontiguousarray(outputs[key])
        h.update(key.encode())
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _no_count(name: str, value: int) -> None:
    pass


def run_rounds(workload, seed: int, trace: bool, out: Path) -> list[dict]:
    """Run the rounds; returns per-round records and saves the first round's outputs."""
    inp = workload.inputs(seed)
    records, longest = [], 0.0
    with KernelProcess(workload.reference_kernel) as ref:
        start = time.perf_counter()
        while len(records) < MIN_ROUNDS or time.perf_counter() - start + longest <= RUN_SECONDS:
            round_start = time.perf_counter()
            record = {"traced": trace and len(records) % 2 == 1}
            if record["traced"]:
                with Tracer() as tracer:
                    times, outputs = workload.round(inp, tracer.count, ref)
                record.update(layers=tracer.self_s, counts=tracer.counts,
                              top_level_s=tracer.top_level_s(), spans=tracer.spans)
            else:
                times, outputs = workload.round(inp, _no_count, ref)
            record.update(times, digest=digest(outputs))
            if not records:
                np.savez(out / "arrays.npz", **outputs)
            records.append(record)
            del outputs
            longest = max(longest, time.perf_counter() - round_start)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    records = run_rounds(workload, args.seed, bool(args.trace), args.out)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload = {"workload": args.workload, "seed": args.seed, "spec": asdict(workload),
               "peak_rss_mib": peak_rss_mib,
               "inputs": {k: np.asarray(v).tolist() for k, v in workload.inputs(args.seed).items()},
               "rounds": records}
    (args.out / "rounds.json").write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
