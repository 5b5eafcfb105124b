import numpy as np
import pytest

from whitefem.fem import dirichlet, evaluate, neumann, point_vectors, robin
from whitefem.mesh import build_interval_mesh, build_rectangle_mesh, refine_uniform
from whitefem.noise import GaussianStream
from whitefem.sampling import (
    DiscreteSolutionOperator,
    exact_discrete_covariance,
    monte_carlo_moments,
    pointwise_variance_field,
    sample_path,
    sample_path_with_load,
)
from whitefem.spectral import Rectangle, covariance_function, eigenpairs


@pytest.fixture(scope="module")
def neumann_op():
    mesh = build_rectangle_mesh(np.pi, np.pi, 8, 8)
    return DiscreteSolutionOperator(mesh, neumann(), 1.0)


class TestSamplePath:
    def test_zero_noise_gives_zero_path(self, neumann_op):
        path = neumann_op.path_from_normals(np.zeros(neumann_op.mesh.n_nodes))
        assert np.array_equal(path.coefficients, np.zeros(neumann_op.mesh.n_nodes))

    def test_fixed_seed_reproducible(self, neumann_op):
        a = sample_path(neumann_op, GaussianStream(42, 0))
        b = sample_path(neumann_op, GaussianStream(42, 0))
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_linear_in_noise(self, neumann_op):
        z = GaussianStream(3, 0).normals(neumann_op.mesh.n_nodes)
        one = neumann_op.path_from_normals(z)
        two = neumann_op.path_from_normals(2.0 * z)
        assert np.array_equal(two.coefficients, 2.0 * one.coefficients)

    def test_operators_come_from_the_system(self):
        mesh = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(mesh, robin(2.0), 1.0)
        assert op.K is op.system.K
        assert op.M is op.system.M
        assert op.R is op.system.R

    def test_path_satisfies_discrete_equation(self, neumann_op):
        path, load = sample_path_with_load(neumann_op, GaussianStream(9, 4))
        residual = neumann_op.system.A_full @ path.coefficients - load.b
        assert np.abs(residual).max() < 1e-9 * np.abs(load.b).max()

    def test_zero_mean_at_probe_points(self, neumann_op):
        points = [(0.5, 0.5), (np.pi / 2, np.pi / 2), (2.0, 1.0), (3.0, 3.0), (1.0, 2.5)]
        rep = monte_carlo_moments(neumann_op, points, 10_000, GaussianStream(100, 0))
        assert (np.abs(rep.mean) <= 4.0 * rep.se_mean).all()


class TestExactCovariance:
    def test_symmetry(self, neumann_op):
        x, y = (0.7, 1.1), (2.2, 0.4)
        assert exact_discrete_covariance(neumann_op, x, y) == pytest.approx(
            exact_discrete_covariance(neumann_op, y, x), abs=1e-12
        )

    def test_dirichlet_boundary_point_vanishes(self):
        mesh = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(mesh, dirichlet(), 1.0)
        assert exact_discrete_covariance(op, (0.0, 0.5), (0.5, 0.5)) == 0.0

    def test_monte_carlo_agreement(self, neumann_op):
        pairs = [((0.5, 0.5), (1.0, 1.0)), ((np.pi / 2, np.pi / 2), (np.pi / 2, np.pi / 2))]
        points = [(0.5, 0.5), (1.0, 1.0), (np.pi / 2, np.pi / 2)]
        rep = monte_carlo_moments(neumann_op, points, 10_000, GaussianStream(55, 0))
        idx = {(0.5, 0.5): 0, (1.0, 1.0): 1, (np.pi / 2, np.pi / 2): 2}
        for x, y in pairs:
            exact = exact_discrete_covariance(neumann_op, x, y)
            i, j = idx[x], idx[y]
            assert abs(rep.covariance[i, j] - exact) <= 4.0 * rep.se_covariance[i, j]


class TestMonteCarloMoments:
    def test_minimal_sample_count_runs(self, neumann_op):
        rep = monte_carlo_moments(neumann_op, [(1.0, 1.0)], 2, GaussianStream(0, 0))
        assert rep.n == 2
        assert rep.se_covariance[0, 0] > rep.covariance[0, 0] / 2.0

    def test_rejects_single_sample(self, neumann_op):
        with pytest.raises(ValueError):
            monte_carlo_moments(neumann_op, [(1.0, 1.0)], 1, GaussianStream(0, 0))

    def test_se_shrinks_like_sqrt_n(self, neumann_op):
        p = [(1.5, 1.5)]
        se_small = monte_carlo_moments(neumann_op, p, 4000, GaussianStream(77, 0)).se_covariance[0, 0]
        se_big = monte_carlo_moments(neumann_op, p, 8000, GaussianStream(77, 5000)).se_covariance[0, 0]
        assert se_small / se_big == pytest.approx(np.sqrt(2.0), rel=0.2)

    def test_reports_provenance(self, neumann_op):
        rep = monte_carlo_moments(neumann_op, [(1.0, 1.0)], 16, GaussianStream(42, 7))
        assert rep.seed == 42
        assert rep.stream_id == 7

    @pytest.mark.parametrize(
        "mesh, bc, points",
        [
            (build_rectangle_mesh(np.pi, np.pi, 6, 5), neumann(),
             [(0.4, 0.9), (1.7, 2.2), (3.0, 0.1)]),
            (build_rectangle_mesh(1.0, 1.0, 5, 6), dirichlet(),
             [(0.3, 0.4), (0.75, 0.6), (0.0, 0.5)]),
            (build_rectangle_mesh(2.0, 1.0, 6, 4), robin(0.8),
             [(0.2, 0.3), (1.1, 0.9), (1.9, 0.05)]),
            (build_interval_mesh(0.0, np.pi, 23), dirichlet(), [(0.3,), (1.7,), (2.9,)]),
        ],
        ids=["neumann", "dirichlet", "robin", "interval-dirichlet"],
    )
    def test_functional_route_matches_load_and_solve(self, mesh, bc, points):
        # the same paths through the load b = L z and a solve per path
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        n = 300
        stream = GaussianStream(19, 2)
        rep = monte_carlo_moments(op, points, n, stream)
        assert stream.counter == n * mesh.n_nodes

        B = op.sampler.sample_batch(GaussianStream(19, 2), n)
        C = op.system.solve_free(B[op.free])
        P = point_vectors(mesh, points)[op.free].T
        values = (P @ C).T
        mean = values.mean(axis=0)
        cov = np.cov(values, rowvar=False)
        scale = np.diag(cov).max()
        np.testing.assert_allclose(rep.mean, mean, rtol=1e-12, atol=1e-12 * np.sqrt(scale))
        np.testing.assert_allclose(rep.covariance, cov, rtol=1e-12, atol=1e-12 * scale)


class TestVarianceField:
    def test_dirichlet_boundary_zero_and_nonnegative(self):
        mesh = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(mesh, dirichlet(), 1.0)
        vf = pointwise_variance_field(op)
        assert np.array_equal(vf.coefficients[mesh.boundary_nodes()], np.zeros(16))
        assert (vf.coefficients >= 0).all()

    def test_matches_exact_covariance_at_nodes(self, neumann_op):
        vf = pointwise_variance_field(neumann_op)
        node = 4 * 9 + 4  # interior grid node
        x = neumann_op.mesh.nodes[node]
        assert vf.coefficients[node] == pytest.approx(
            exact_discrete_covariance(neumann_op, x, x), rel=1e-10
        )

    def test_converges_to_spectral_variance(self):
        # center-point variance against the exact spectral sum, mid resolution
        mesh = build_rectangle_mesh(np.pi, np.pi, 32, 32)
        op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
        vf = pointwise_variance_field(op)
        center = (np.pi / 2.0, np.pi / 2.0)
        basis = eigenpairs(Rectangle(np.pi, np.pi), neumann(), 400_000)
        oracle = covariance_function(center, center, 1.0, basis)
        assert oracle.tail_bound < 1e-4 * oracle.value
        got = evaluate(vf, center)
        assert got == pytest.approx(oracle.value, rel=0.02)


class TestGalerkinIdentities:
    @pytest.mark.parametrize("bc", [neumann(), robin(0.7)], ids=["neumann", "robin"])
    def test_energy_inner_product_identity(self, bc):
        # a(T_h f, T_h g) = (f, T_h g)_L2 for discrete loads
        mesh = refine_uniform(build_rectangle_mesh(1.0, 1.0, 3, 3))
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        rng = np.random.default_rng(15)
        f = rng.standard_normal(mesh.n_nodes)
        g = rng.standard_normal(mesh.n_nodes)
        Tf = op.system.solve(op.M @ f)
        Tg = op.system.solve(op.M @ g)
        lhs = Tf @ (op.system.A_full @ Tg)
        rhs = f @ (op.M @ Tg)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    def test_kolmogorov_moment_bound(self):
        # E|X(x) - X(y)|^2 <= C |x-y|^(2 alpha) with alpha >= 0.4, C stable
        fits = []
        mesh = build_rectangle_mesh(np.pi, np.pi, 16, 16)
        for _ in range(2):
            op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
            x0 = np.array([np.pi / 2, np.pi / 2])
            direction = np.array([1.0, 0.3]) / np.hypot(1.0, 0.3)
            seps = np.geomspace(0.02, 1.0, 8)
            logm, logs = [], []
            for s in seps:
                y = x0 + s * direction
                m2 = (
                    exact_discrete_covariance(op, x0, x0)
                    - 2.0 * exact_discrete_covariance(op, x0, y)
                    + exact_discrete_covariance(op, y, y)
                )
                logm.append(np.log(m2))
                logs.append(np.log(s))
            slope, intercept = np.polyfit(logs, logm, 1)
            fits.append((slope / 2.0, np.exp(intercept)))
            mesh = refine_uniform(mesh)
        (a1, c1), (a2, c2) = fits
        assert a1 >= 0.4 and a2 >= 0.4
        assert abs(a1 - a2) <= 0.05
        assert abs(c1 - c2) / c2 <= 0.25


def test_dirichlet_operator_reduces_to_interior():
    mesh = build_interval_mesh(0, 1, 4)
    op = DiscreteSolutionOperator(mesh, dirichlet(), 1.0)
    assert op.system.n_free == 3
    op_full = DiscreteSolutionOperator(mesh, neumann(), 1.0)
    assert op_full.system.n_free == 5
