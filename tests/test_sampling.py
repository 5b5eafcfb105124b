import numpy as np
import pytest

from whitefem.convergence import holder_modulus
from whitefem.fem import dirichlet, neumann, point_vectors, robin
from whitefem.mesh import build_interval_mesh, build_rectangle_mesh, refine_uniform
import whitefem.fem as fem
import whitefem.sampling as sampling
from whitefem.noise import GaussianStream, LoadSample, LoadSampler
from whitefem.sampling import (
    DiscreteSolutionOperator,
    exact_covariances,
    exact_discrete_covariance,
    monte_carlo_moments,
    path_point_values,
    point_values,
    sample_path_with_load,
)


CASES = [
    (build_rectangle_mesh(np.pi, np.pi, 6, 5), neumann(), [(0.4, 0.9), (1.7, 2.2), (3.0, 0.1)]),
    (build_rectangle_mesh(1.0, 1.0, 5, 6), dirichlet(), [(0.3, 0.4), (0.75, 0.6), (0.0, 0.5)]),
    (build_rectangle_mesh(2.0, 1.0, 6, 4), robin(0.8), [(0.2, 0.3), (1.1, 0.9), (1.9, 0.05)]),
    (build_interval_mesh(0.0, np.pi, 23), dirichlet(), [(0.3,), (1.7,), (2.9,)]),
]
CASE_IDS = ["neumann", "dirichlet", "robin", "interval-dirichlet"]


@pytest.fixture(scope="module")
def neumann_op():
    mesh = build_rectangle_mesh(np.pi, np.pi, 8, 8)
    return DiscreteSolutionOperator(mesh, neumann(), 1.0)


class TestSamplePath:
    def test_zero_noise_gives_zero_path(self, neumann_op):
        z = np.zeros(neumann_op.mesh.n_nodes)
        path = neumann_op.path_from_load(LoadSample(neumann_op.mesh, neumann_op.sampler.chol @ z, 0, 0))
        assert np.array_equal(path.coefficients, np.zeros(neumann_op.mesh.n_nodes))

    def test_fixed_seed_reproducible(self, neumann_op):
        mesh, M = neumann_op.mesh, neumann_op.M
        a = neumann_op.path_from_load(LoadSampler(mesh, M).sample(GaussianStream(42, 0)))
        b = neumann_op.path_from_load(LoadSampler(mesh, M).sample(GaussianStream(42, 0)))
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_linear_in_noise(self, neumann_op):
        z = GaussianStream(3, 0).normals(neumann_op.mesh.n_nodes)
        one, two = (neumann_op.path_from_load(LoadSample(neumann_op.mesh, neumann_op.sampler.chol @ w, 0, 0))
                    for w in (z, 2.0 * z))
        assert np.array_equal(two.coefficients, 2.0 * one.coefficients)

    def test_operators_come_from_the_system(self):
        # the operator is the mesh's one FactorizedSystem, not a wrapper of one
        mesh = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(mesh, robin(2.0), 1.0)
        assert isinstance(op, fem.FactorizedSystem)
        assert not hasattr(op, "system")
        assert op.sampler.M is op.M
        assert (op.A != op.K + 1.0 * op.M + 2.0 * op.R).nnz == 0

    def test_path_satisfies_discrete_equation(self, neumann_op):
        path, load = sample_path_with_load(neumann_op, GaussianStream(9, 4))
        residual = (neumann_op.K + neumann_op.M) @ path.coefficients - load.b
        assert np.abs(residual).max() < 1e-9 * np.abs(load.b).max()

    def test_zero_mean_at_probe_points(self, neumann_op):
        points = [(0.5, 0.5), (np.pi / 2, np.pi / 2), (2.0, 1.0), (3.0, 3.0), (1.0, 2.5)]
        rep = monte_carlo_moments(neumann_op, points, 10_000, GaussianStream(100, 0))
        assert (np.abs(rep.mean) <= 4.0 * rep.se_mean).all()


class TestFactorOrder:
    @pytest.mark.parametrize("bc", [neumann(), robin(0.8), dirichlet()], ids=["neumann", "robin", "dirichlet"])
    def test_mass_is_factored_before_the_system(self, bc, monkeypatch):
        # sparse_cholesky looks _ordered_splu up in fem, so this sees both factors
        factored = []
        inner = fem._ordered_splu
        monkeypatch.setattr(fem, "_ordered_splu", lambda A, order: factored.append(A) or inner(A, order))
        op = DiscreteSolutionOperator(build_rectangle_mesh(2.0, 1.0, 6, 4), bc, 0.9)
        assert len(factored) == 2
        assert factored[0] is op.M
        assert factored[1] is op.A
        sample_path_with_load(op, GaussianStream(3, 1))
        op.probe([(0.5, 0.5), (1.5, 0.2)])
        assert len(factored) == 2


class TestFactorizationProbe:
    def test_small_lambda_operator_builds(self):
        # Neumann, lambda = 1e-4, on the 64 x 64 unit square: the probe's
        # ||A c - b|| / ||b|| grows like eps ||A|| ||c|| / ||b|| and exceeds
        # 1e-10, while its backward error stays at rounding level.
        mesh = build_rectangle_mesh(1.0, 1.0, 64, 64)
        op = DiscreteSolutionOperator(mesh, neumann(), 1e-4)
        probe = GaussianStream(0, 0).normals(op.n_free)
        c = op.solve_free(probe)
        assert np.linalg.norm(op.A @ c - probe) / np.linalg.norm(probe) > 1e-10
        assert op.backward_error(c, probe) < 1e-15

    @pytest.mark.parametrize("bc", [neumann(), robin(0.8), dirichlet()], ids=["neumann", "robin", "dirichlet"])
    def test_factor_of_another_matrix_is_refused(self, bc, monkeypatch):
        def wrong_factor(system):
            return fem._ordered_splu(2.0 * system.A, system._free_order)

        monkeypatch.setattr(fem.FactorizedSystem, "_lu", property(wrong_factor))
        with pytest.raises(RuntimeError, match="factorization probe backward error .* exceeds 1e-10"):
            DiscreteSolutionOperator(build_rectangle_mesh(2.0, 1.0, 6, 4), bc, 0.9)


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

    @pytest.mark.parametrize("mesh, bc, points", CASES, ids=CASE_IDS)
    def test_functional_route_matches_load_and_solve(self, mesh, bc, points):
        # the same paths through the load b = L z and a solve per path
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        n = 300
        stream = GaussianStream(19, 2)
        rep = monte_carlo_moments(op, points, n, stream)
        assert stream.counter == n * mesh.n_nodes

        B = op.sampler.sample_batch(GaussianStream(19, 2), n)
        C = op.solve_free(B[op.free])
        P = point_vectors(mesh, points)[op.free].T
        values = (P @ C).T
        mean = values.mean(axis=0)
        cov = np.cov(values, rowvar=False)
        scale = np.diag(cov).max()
        np.testing.assert_allclose(rep.mean, mean, rtol=1e-12, atol=1e-12 * np.sqrt(scale))
        np.testing.assert_allclose(rep.covariance, cov, rtol=1e-12, atol=1e-12 * scale)


class TestGalerkinIdentities:
    @pytest.mark.parametrize("bc", [neumann(), robin(0.7)], ids=["neumann", "robin"])
    def test_energy_inner_product_identity(self, bc):
        # a(T_h f, T_h g) = (f, T_h g)_L2 for discrete loads
        mesh = refine_uniform(build_rectangle_mesh(1.0, 1.0, 3, 3))
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        rng = np.random.default_rng(15)
        f = rng.standard_normal(mesh.n_nodes)
        g = rng.standard_normal(mesh.n_nodes)
        Tf = op.solve(op.M @ f)
        Tg = op.solve(op.M @ g)
        A = op.K + 1.3 * op.M
        if bc.kind == "robin":
            A = A + bc.beta * op.R
        lhs = Tf @ (A @ Tg)
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
    assert op.n_free == 3
    op_full = DiscreteSolutionOperator(mesh, neumann(), 1.0)
    assert op_full.n_free == 5


def one_batch_moments(op, points, n, stream):
    # all n paths' normals drawn at once and contracted in one einsum
    G = op.point_functionals(points)
    Z = stream.normals(n * op.mesh.n_nodes).reshape(n, op.mesh.n_nodes)
    values = point_values(Z, G)
    mean = values.sum(axis=0) / n
    centered = values - mean
    p = len(points)
    cov = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            cov[i, j] = cov[j, i] = np.sum(centered[:, i] * centered[:, j]) / (n - 1)
    return mean, cov


def written_out_covariances(op, points):
    # p(x)^T A^{-1} M A^{-1} p(y) with dense matrices on the free nodes
    P = point_vectors(op.mesh, points)[op.free]
    A = op.A.toarray()
    M = op.restrict(op.M).toarray()
    W = np.linalg.solve(A, P)
    return W.T @ M @ W


class TestProbe:
    @pytest.mark.parametrize("mesh, bc, points", CASES, ids=CASE_IDS)
    def test_batched_moments_are_bitwise_one_batch(self, mesh, bc, points):
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        for n, seed in [(2, 1), (16, 2), (17, 3), (300, 4)]:
            rep = monte_carlo_moments(op, points, n, GaussianStream(seed, 5))
            mean, cov = one_batch_moments(op, points, n, GaussianStream(seed, 5))
            assert np.array_equal(rep.mean, mean)
            assert np.array_equal(rep.covariance, cov)

    @pytest.mark.parametrize("mesh, bc, points", CASES, ids=CASE_IDS)
    def test_path_values_do_not_depend_on_the_batch_size(self, mesh, bc, points, monkeypatch):
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        G = op.point_functionals(points)
        runs = []
        for batch in (1, 7, 16, 64):
            monkeypatch.setattr(sampling, "_BATCH", batch)
            stream = GaussianStream(8, 2)
            runs.append(path_point_values(G, 100, stream))
            assert stream.counter == 100 * mesh.n_nodes
        for values in runs[1:]:
            assert values.tobytes() == runs[0].tobytes()

    def test_repeated_point_set_returns_the_same_read_only_arrays(self, neumann_op):
        points = [(0.5, 0.5), (1.2, 2.9)]
        first = neumann_op.probe(points)
        G = neumann_op.point_functionals(points)
        again = neumann_op.probe([np.array(p) for p in points])
        assert again is first
        assert neumann_op.point_functionals(points) is G
        for a in (first, G):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_other_point_set_gives_its_own_arrays(self, neumann_op):
        a_points, b_points = [(0.5, 0.5), (1.2, 2.9)], [(0.5, 0.5), (2.0, 0.7), (1.2, 2.9)]
        a_W, a_G = neumann_op.probe(a_points), neumann_op.point_functionals(a_points)
        a_G_copy = a_G.copy()
        b_W, b_G = neumann_op.probe(b_points), neumann_op.point_functionals(b_points)
        assert b_G.shape == (neumann_op.mesh.n_nodes, 3)
        assert not np.shares_memory(a_G, b_G) and not np.shares_memory(a_W, b_W)
        assert np.array_equal(a_G, a_G_copy)
        # the same set of points in another order is another key
        swapped = neumann_op.point_functionals(a_points[::-1])
        assert swapped is not a_G
        again = neumann_op.point_functionals(a_points)
        assert again is not a_G and np.array_equal(again, a_G_copy)

    @pytest.mark.parametrize("mesh, bc, points", CASES, ids=CASE_IDS)
    def test_exact_covariances_never_read_the_load_factor(self, mesh, bc, points):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"load factor read: .{name}")

        want = exact_covariances(DiscreteSolutionOperator(mesh, bc, 1.3), points)
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        op.sampler.chol = Untouchable()
        assert np.array_equal(exact_covariances(op, points), want)
        assert exact_discrete_covariance(op, points[0], points[1]) == want[0, 1]

    def test_value_does_not_depend_on_earlier_calls(self, neumann_op):
        points = [(0.7, 1.1), (2.2, 0.4), (1.5, 1.5)]
        fresh = DiscreteSolutionOperator(neumann_op.mesh, neumann(), 1.0)
        neumann_op.probe([(0.1, 0.2)])
        assert np.array_equal(exact_covariances(neumann_op, points), exact_covariances(fresh, points))
        first = exact_discrete_covariance(fresh, points[0], points[1])
        exact_covariances(fresh, points)
        assert exact_discrete_covariance(fresh, points[0], points[1]) == first

    @pytest.mark.parametrize("mesh, bc, points", CASES, ids=CASE_IDS)
    def test_exact_covariances_match_the_written_out_formula(self, mesh, bc, points):
        op = DiscreteSolutionOperator(mesh, bc, 1.3)
        got = exact_covariances(op, points)
        want = written_out_covariances(op, points)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        x, y = points[0], points[1]
        assert exact_discrete_covariance(op, x, y) == pytest.approx(want[0, 1], rel=1e-12)

    def test_holder_matches_three_solves_per_pair(self, neumann_op):
        # the fit as computed with single-pair covariances, written out here
        x0 = np.array([1.5, 1.4])
        seps = np.geomspace(0.03, 1.0, 7)
        pairs = [(tuple(x0), tuple(x0 + s * np.array([0.8, 0.6]))) for s in seps]
        moments = []
        for x, y in pairs:
            c = written_out_covariances(neumann_op, [x, y])
            moments.append(c[0, 0] - 2.0 * c[0, 1] + c[1, 1])
        X = np.column_stack([np.log(seps), np.ones(seps.size)])
        coef, *_ = np.linalg.lstsq(X, np.log(moments), rcond=None)
        fit = holder_modulus(neumann_op, pairs)
        assert fit.alpha == pytest.approx(coef[0] / 2.0, rel=1e-10)
        assert fit.c == pytest.approx(np.exp(coef[1]), rel=1e-10)
