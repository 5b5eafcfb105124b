"""Tests of the benchmark's own checks, reference code and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each workload runs one round at a small size; its checks must pass on the
program's outputs and fail on deliberately corrupted copies of them.
"""

from __future__ import annotations

import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from refkernel import KernelProcess  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5


def no_ref() -> float:
    return 0.0


def one_round(workload, trace=False):
    inputs = workload.inputs(SEED)
    if trace:
        with Tracer() as tracer:
            times, out = workload.round(inputs, tracer.count, no_ref)
        return asdict(workload), inputs, out, times, tracer
    times, out = workload.round(inputs, workloads._no_count, no_ref)
    return asdict(workload), inputs, out, times, None


def failed(ops):
    return {op.name for op in ops if not op.ok}


def corrupted(out, **changes):
    """Copy of `out` with each named array replaced by change(copy of it)."""
    bad = dict(out)
    for key, change in changes.items():
        bad[key] = change(np.array(out[key], copy=True))
    return bad


def at(index, fn):
    """A change that replaces the entry at `index` by fn(entry)."""
    def change(a):
        a[index] = fn(a[index])
        return a
    return change


@pytest.fixture(scope="module")
def mc():
    return one_round(workloads.McMoments(n=16, calls=2, paths_per_call=256))


@pytest.fixture(scope="module")
def robin():
    return one_round(workloads.RobinFineMesh(base=16, refinements=1, paths=32))


@pytest.fixture(scope="module")
def modes():
    return one_round(workloads.ModeSumConvergence(base=4, refinements=3, budget=256), trace=True)


def test_reference_closed_forms(robin):
    spec, inputs, out, _, _ = robin
    ops = reference.assemble(out["nodes"], out["elements"], out["facets"])
    assert reference.self_check(ops, checks.AREA, checks.PERIMETER) == []
    scaled = reference.Operators(ops.nodes, ops.triangles, ops.edges, ops.K, 1.01 * ops.M, ops.R)
    assert len(reference.self_check(scaled, checks.AREA, checks.PERIMETER)) == 1


def test_mc_checks_pass_and_catch_corruption(mc):
    spec, inputs, out, _, _ = mc
    assert failed(checks.check_mc_moments(spec, inputs, out)) == set()
    scaled = corrupted(out, covariance=lambda c: 1.5 * c)
    assert any(name.startswith("mc_cov") for name in failed(checks.check_mc_moments(spec, inputs, scaled)))
    nudged = corrupted(out, exact=at((0, 1), lambda v: v * (1 + 1e-8)))
    assert failed(checks.check_mc_moments(spec, inputs, nudged)) == {"exact_cov[0,1]"}
    shifted = corrupted(out, mean=lambda m: m + 1.0)
    assert {f"mc_mean[{i}]" for i in range(6)} <= failed(checks.check_mc_moments(spec, inputs, shifted))
    holed = dict(out, elements=out["elements"][:-1])
    assert "mesh 16×16" in failed(checks.check_mc_moments(spec, inputs, holed))


def test_robin_checks_pass_and_catch_corruption(robin):
    spec, inputs, out, _, _ = robin
    assert failed(checks.check_robin_fine_mesh(spec, inputs, out, SEED)) == set()
    perturbed = corrupted(out, coefficients=at((3, 10), lambda v: v + 1e-6))
    assert failed(checks.check_robin_fine_mesh(spec, inputs, perturbed, SEED)) == {"path 3"}
    residual = corrupted(out, robin_residual=at(2, lambda v: 1e-6))
    assert failed(checks.check_robin_fine_mesh(spec, inputs, residual, SEED)) == {"path 2"}
    # Scaling loads and paths together keeps every path exact but gives the
    # loads covariance 1.5² M.
    loud = corrupted(out, loads=lambda b: 1.5 * b, coefficients=lambda c: 1.5 * c)
    assert failed(checks.check_robin_fine_mesh(spec, inputs, loud, SEED)) == {"load_cov"}


def test_mode_sum_checks_catch_corruption(modes):
    spec, inputs, out, _, _ = modes
    base = failed(checks.check_mode_sum(spec, inputs, out)) - {"rate_band"}
    assert base == set()
    flat = corrupted(out, error_sq=lambda e: np.r_[e[:2], 1.01 * e[1], e[3:]])
    assert "level 16" in failed(checks.check_mode_sum(spec, inputs, flat))
    nan = corrupted(out, error_sq=at(0, lambda v: np.nan))
    assert {"level 4", "rate_fit"} <= failed(checks.check_mode_sum(spec, inputs, nan))
    refit = corrupted(out, fitted_rate=lambda r: r + 0.1)
    assert "rate_fit" in failed(checks.check_mode_sum(spec, inputs, refit))
    (band,) = [op for op in checks.check_mode_sum(spec, inputs, out) if op.name == "rate_band"]
    assert band.known_fault


def test_rounds_with_different_outputs_are_incorrect(mc):
    spec, inputs, out, _, _ = mc
    payload = {"spec": spec, "inputs": inputs, "rounds": [{"digest": "a"}, {"digest": "a"}]}
    correct, attempted, n_failed, _ = run.evaluate("mc-moments", SEED, payload, out)
    assert (correct, n_failed) == (True, 0) and attempted == 2 * 49
    payload["rounds"][1]["digest"] = "b"
    correct, attempted, n_failed, _ = run.evaluate("mc-moments", SEED, payload, out)
    assert (correct, n_failed) == (False, 49)


def test_tracer_covers_the_round_and_restores(modes):
    import whitefem.convergence
    import whitefem.fem

    _, _, _, times, tracer = modes
    assert whitefem.fem.assemble_mass is whitefem.convergence.assemble_mass
    assert not hasattr(whitefem.fem.assemble_mass, "__wrapped__")
    # At least K and M on each of the four levels; how often a matrix is
    # assembled again is the program's to choose, not the tracer's.
    assert tracer.counts["fem.assemble_calls"] >= 2 * 4
    assert tracer.counts["spectral.evaluate_calls"] > 0
    assert 0.0 <= times["wall_s"] - tracer.top_level_s() < 0.05 * times["wall_s"]
    assert all(v >= 0.0 for v in tracer.self_s.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_kernel_runs_in_a_helper_that_stops(name):
    with KernelProcess(workloads.WORKLOADS[name].reference_kernel) as kernel:
        times = [kernel() for _ in range(2)]
    assert all(0.0 < t < 5.0 for t in times)
    assert not kernel._proc.is_alive()
