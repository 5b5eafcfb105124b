"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from whitefem.boundary import CameronMartinSystem, robin_residual, scale_space_basis, trace
from whitefem.cli import main as cli_main
from whitefem.convergence import (
    deterministic_fem_error,
    h1_error_sup_estimate,
    holder_modulus,
    hs_embedding_bound,
    truncation_error_closed_form,
)
from whitefem.fem import dirichlet, neumann, robin
from whitefem.mesh import build_interval_mesh, build_rectangle_mesh, refine_uniform
from whitefem.noise import GaussianStream, LoadSampler
from whitefem.sampling import (
    DiscreteSolutionOperator,
    exact_covariances,
    exact_discrete_covariance,
    monte_carlo_moments,
    sample_path_with_load,
)
from whitefem.spectral import (
    Interval,
    Rectangle,
    covariance_function,
    eigenpairs,
    greens_function_1d,
)

PI = np.pi


def verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def dyadic_rectangle_meshes(n0: int, levels: int):
    meshes = []
    mesh = build_rectangle_mesh(PI, PI, n0, n0)
    for _ in range(levels):
        meshes.append(mesh)
        mesh = refine_uniform(mesh)
    return meshes


def test_criterion_01_load_covariance_identity():
    n_draws = 100_000
    fractions = []
    for mesh in (build_interval_mesh(0.0, 1.0, 8), build_rectangle_mesh(1.0, 1.0, 4, 4)):
        sampler = LoadSampler(mesh, __import__("whitefem.fem", fromlist=["assemble_mass"]).assemble_mass(mesh))
        B = sampler.sample_batch(GaussianStream(101, 0), n_draws)
        M = sampler.M.toarray()
        C = (B @ B.T) / n_draws
        se = 4.0 * np.sqrt((np.outer(M.diagonal(), M.diagonal()) + M**2) / n_draws)
        fractions.append(float(np.mean(np.abs(C - M) <= se)))
    ok = all(f >= 0.95 for f in fractions)
    verdict(1, ok, f"load covariance matches mass matrix: pass fractions {fractions}")


def test_criterion_02_discrete_covariance_vs_monte_carlo():
    mesh = build_rectangle_mesh(PI, PI, 16, 16)  # h = sqrt(2) pi / 16 cellwise
    op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
    points = [(0.5, 0.5), (PI / 2, PI / 2), (2.2, 1.0), (1.0, 2.4), (2.8, 2.8), (0.9, 1.7)]
    pairs = [(0, 1), (1, 1), (2, 3), (0, 4), (3, 5)]
    rep = monte_carlo_moments(op, points, 10_000, GaussianStream(202, 0))
    deviations = []
    ok = True
    for i, j in pairs:
        exact = exact_discrete_covariance(op, points[i], points[j])
        dev = abs(rep.covariance[i, j] - exact) / rep.se_covariance[i, j]
        deviations.append(round(dev, 2))
        ok &= dev <= 4.0
    verdict(2, ok, f"MC covariance within 4 SE at 5 pairs; |dev|/SE = {deviations}")


def test_criterion_03_continuum_covariance_convergence():
    mesh = build_rectangle_mesh(PI, PI, 64, 64)  # grid spacing pi / 64
    op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
    center = (PI / 2, PI / 2)
    fem_var = float(exact_covariances(op, [center])[0, 0])

    count = 5_500_000
    oracle = None
    for _ in range(2):
        basis = eigenpairs(Rectangle(PI, PI), neumann(), count)
        oracle = covariance_function(center, center, 1.0, basis)
        if oracle.tail_bound < 1e-6 * oracle.value:
            break
        count *= 2
    tail_ok = oracle.tail_bound < 1e-6 * oracle.value
    rel = abs(fem_var - oracle.value) / oracle.value
    ok = tail_ok and rel <= 0.05
    verdict(3, ok, f"center variance: fem {fem_var:.6f} vs oracle {oracle.value:.6f} "
                   f"(rel {rel:.3%}, oracle tail {oracle.tail_bound:.2e})")


def test_criterion_04_greens_function_cross_check():
    mesh = build_interval_mesh(0.0, 1.0, 1024)  # h = 2^-10
    op = DiscreteSolutionOperator(mesh, dirichlet(), 1.0)
    fem_var = exact_discrete_covariance(op, (0.5,), (0.5,))
    target, quad_err = quad(
        lambda y: greens_function_1d(0.5, y, 1.0, dirichlet()) ** 2, 0.0, 1.0,
        points=[0.5], epsabs=1e-13,
    )
    rel = abs(fem_var - target) / target
    ok = rel <= 0.01 and quad_err < 1e-10
    verdict(4, ok, f"1D Dirichlet variance at 1/2: fem {fem_var:.8f} vs kernel {target:.8f} "
                   f"(rel {rel:.4%})")


@pytest.fixture(scope="module")
def rate_meshes():
    return dyadic_rectangle_meshes(8, 4)


def test_criterion_05_fem_rate(rate_meshes):
    # Slope of the mean-square error against the spectral solution over four
    # dyadic levels.  Run at the 2D default smoothness index r = 0.1, where
    # the h^2 theory applies; fixed mode budget at the documented cap.
    rates = {}
    ok = True
    for bc in (neumann(), dirichlet()):
        rep = deterministic_fem_error(
            Rectangle(PI, PI), bc, 1.0, 0.1, rate_meshes, basis_count=20_000
        )
        rates[bc.kind] = round(rep.fitted_rate, 3)
        ok &= 1.7 <= rep.fitted_rate <= 2.1
    verdict(5, ok, f"fitted error^2 slopes in [1.7, 2.1]: {rates}")


def test_criterion_06_truncation_convergence():
    basis = eigenpairs(Rectangle(PI, PI), neumann(), 4000)
    r, lam = 1.1, 1.0
    ms = (10, 40, 160)
    closed = [truncation_error_closed_form(Rectangle(PI, PI), neumann(), lam, r, m) for m in (0, *ms)]
    decreasing = all(a.value > b.value for a, b in zip(closed, closed[1:]))

    # Monte Carlo proxy: reference truncation M stands in for the full field
    M = 3200
    w_all = (1.0 + basis.mu[:M]) ** -r * (basis.mu[:M] + lam) ** -2.0
    n = 10_000
    stream = GaussianStream(606, 0)
    sums = {m: [] for m in ms}
    chunk = 500
    done = 0
    while done < n:
        take = min(chunk, n - done)
        draws = stream.normals(take * M).reshape(take, M)
        sq = draws**2
        for m in ms:
            sums[m].append(sq[:, m:] @ w_all[m:])
        done += take
    ok = decreasing
    devs = {}
    for m in ms:
        vals = np.concatenate(sums[m])
        expected = float(np.sum(w_all[m:]))
        se = vals.std(ddof=1) / np.sqrt(n)
        dev = abs(vals.mean() - expected) / se
        devs[m] = round(float(dev), 2)
        ok &= dev <= 4.0
    verdict(6, ok, f"closed form strictly decreasing ({decreasing}), MC proxy |dev|/SE {devs}")


def test_criterion_07_boundary_conditions_per_sample():
    worst = 0.0
    for nx in (8, 16):
        mesh = build_rectangle_mesh(PI, PI, nx, nx)
        sc_basis = scale_space_basis(mesh)
        for bc, beta in ((neumann(), 0.0), (robin(0.8), 0.8)):
            op = DiscreteSolutionOperator(mesh, bc, 1.0)
            stream = GaussianStream(707, nx)
            for _ in range(100):
                path, load = sample_path_with_load(op, stream)
                res = robin_residual(path, load, 1.0, beta, basis=sc_basis,
                                     K=op.K, M=op.M, R=op.R)
                worst = max(worst, res)
    ok = worst <= 1e-9
    verdict(7, ok, f"measurable Neumann/Robin condition per sample: worst residual {worst:.2e}")


def test_criterion_08_trace_series_identity():
    mesh = build_rectangle_mesh(PI, PI, 8, 8)  # 81 nodes
    op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
    n_free = op.n_free
    basis = eigenpairs(Rectangle(PI, PI), neumann(), n_free + 60)
    system = CameronMartinSystem(op, basis, n_free)
    worst = 0.0
    stream = GaussianStream(808, 0)
    for _ in range(10):
        load = op.sampler.sample(stream)
        path = op.path_from_load(load)
        series = system.partial_sum(load, n_free)
        diff = np.abs(trace(series).values - trace(path).values).max()
        worst = max(worst, diff)
    ok = worst <= 1e-9
    verdict(8, ok, f"full-truncation series trace equals nodal trace: worst gap {worst:.2e}")


def test_criterion_09_error_upper_bound(rate_meshes):
    # The mean-square error bound: error^2 <= HS-embedding factor times the
    # squared worst H1 solve error over unit loads.  Checked on the true
    # Galerkin (projected-load) discretization at r = 1.1, every level.
    lam, r = 1.0, 1.1
    ok = True
    margins = {}
    for bc in (neumann(), dirichlet()):
        hs = hs_embedding_bound(Rectangle(PI, PI), bc, r)
        rep = deterministic_fem_error(
            Rectangle(PI, PI), bc, lam, r, rate_meshes, basis_count=4000, load_rule="quadrature"
        )
        level_margins = []
        for mesh, lv in zip(rate_meshes, rep.levels):
            sup = h1_error_sup_estimate(Rectangle(PI, PI), bc, lam, mesh, n_loads=200)
            rhs = (hs.value + hs.tail_bound) * sup
            level_margins.append(round(rhs / lv.error_sq, 1))
            ok &= lv.error_sq <= rhs
        margins[bc.kind] = level_margins
    verdict(9, ok, f"upper bound holds at every level; rhs/lhs margins {margins}")


def test_criterion_10_holder_stability():
    x0 = np.array([0.4, 0.5])
    direction = np.array([0.8, 0.6])
    seps = np.geomspace(0.05, 1.6, 9)
    pairs = [(tuple(x0), tuple(x0 + s * direction)) for s in seps]
    fits = []
    for nx in (32, 64):
        mesh = build_rectangle_mesh(PI, PI, nx, nx)
        op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
        fits.append(holder_modulus(op, pairs))
    a_gap = abs(fits[0].alpha - fits[1].alpha)
    c_gap = abs(fits[0].c - fits[1].c) / fits[1].c
    ok = a_gap <= 0.05 and c_gap <= 0.25
    verdict(10, ok, f"alpha {fits[0].alpha:.3f} vs {fits[1].alpha:.3f} (gap {a_gap:.3f}), "
                    f"C gap {c_gap:.1%}")


def test_criterion_11_determinism(tmp_path):
    config = (
        "domain = rectangle\nlx = 3.141592653589793\nly = 3.141592653589793\n"
        "bc = neumann\nlambda = 1.0\nlevels = 8\nsamples = 2000\nseed = 99\n"
        "points = 1.0,1.0; 1.5707963267948966,1.5707963267948966\n"
    )
    cfg = tmp_path / "config.txt"
    cfg.write_text(config)

    def run(outdir):
        code = cli_main(["covariance", "--config", str(cfg), "--outdir", str(outdir)])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(outdir.glob("covariance/*/*"))}

    first = run(tmp_path / "a")
    second = run(tmp_path / "a")   # rerun into the same tree
    third = run(tmp_path / "b")    # fresh output tree
    ok = first == second == third
    verdict(11, ok, "rerun and fresh-tree outputs byte-identical")
