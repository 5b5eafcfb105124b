import numpy as np
import pytest
from scipy.integrate import quad

from whitefem.fem import dirichlet, neumann, robin
from whitefem.spectral import (
    Interval,
    Rectangle,
    covariance_function,
    eigenpairs,
    greens_function_1d,
    spectral_tail_bound,
)

# truncated double sum (4/pi^2) sum_{m,n odd} (m^2+n^2+1)^-2, frozen from an
# independent lattice summation with remainder < 1e-8
DIRICHLET_CENTER_COVARIANCE = 0.0565001242


def gauss_grid(a, b, panels, order=6):
    """Composite Gauss-Legendre rule on [a, b] (for orthonormality checks)."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return pts, wts


class TestEigenpairs:
    def test_dirichlet_interval_eigenvalues(self):
        basis = eigenpairs(Interval(0.0, np.pi), dirichlet(), 3)
        assert np.allclose(basis.mu, [1.0, 4.0, 9.0])

    def test_neumann_starts_with_constant_mode(self):
        basis = eigenpairs(Interval(0.0, 2.0), neumann(), 3)
        assert basis.mu[0] == 0.0
        assert np.allclose(basis.evaluate([0.3, 1.7], 0, 1), 1.0 / np.sqrt(2.0))

    def test_rectangle_first_mode(self):
        basis = eigenpairs(Rectangle(np.pi, np.pi), dirichlet(), 1)
        assert basis.mu[0] == pytest.approx(2.0)
        center = basis.evaluate([[np.pi / 2, np.pi / 2]], 0, 1)[0, 0]
        assert center == pytest.approx(2.0 / np.pi, rel=1e-12)

    def test_eigenvalues_sorted(self):
        basis = eigenpairs(Rectangle(1.0, 2.0), neumann(), 200)
        assert (np.diff(basis.mu) >= 0).all()

    def test_robin_smallest_root_residual(self):
        basis = eigenpairs(Interval(0.0, 1.0), robin(1.0), 1)
        w = np.sqrt(basis.mu[0])
        assert 0.0 < w < np.pi
        assert abs(np.tan(w) - 2.0 * w / (w * w - 1.0)) < 1e-10

    def test_robin_eigen_residuals_first_20(self):
        beta = 0.7
        basis = eigenpairs(Interval(0.0, 1.0), robin(beta), 20)
        # modes A cos(wx) + B sin(wx) solve the ODE identically; residuals of
        # the two boundary conditions measure root and normalization accuracy
        for k in range(20):
            w = basis.omega[k]
            A, B = basis.amp_cos[k], basis.amp_sin[k]
            left = -(B * w) + beta * A
            right = (-A * w * np.sin(w) + B * w * np.cos(w)) + beta * (
                A * np.cos(w) + B * np.sin(w)
            )
            scale = np.hypot(A, B) * max(w, 1.0)
            assert abs(left) / scale < 1e-8
            assert abs(right) / scale < 1e-8

    @pytest.mark.parametrize(
        "bc", [dirichlet(), neumann(), robin(1.3)], ids=["dirichlet", "neumann", "robin"]
    )
    def test_orthonormality_on_quadrature_grid(self, bc):
        L = 1.7
        basis = eigenpairs(Interval(0.0, L), bc, 10)
        pts, wts = gauss_grid(0.0, L, 400)
        E = basis.evaluate(pts)
        gram = (E * wts) @ E.T
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    def test_rectangle_orthonormality(self):
        basis = eigenpairs(Rectangle(1.0, 1.5), neumann(), 10)
        px, wx = gauss_grid(0.0, 1.0, 60)
        py, wy = gauss_grid(0.0, 1.5, 60)
        X, Y = np.meshgrid(px, py, indexing="ij")
        W = np.outer(wx, wy).ravel()
        E = basis.evaluate(np.column_stack([X.ravel(), Y.ravel()]))
        gram = (E * W) @ E.T
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    @pytest.mark.parametrize(
        "bc", [dirichlet(), neumann(), robin(0.8)], ids=["dirichlet", "neumann", "robin"]
    )
    def test_rectangle_table_route_is_bitwise_the_product(self, bc):
        # evaluate() takes the 1D modes at the distinct coordinates only; the
        # values must be exactly those of the 1D modes at every point.
        basis = eigenpairs(Rectangle(np.pi, 2.0), bc, 600)
        gx, gy = np.meshgrid(np.linspace(0, np.pi, 41), np.linspace(0, 2.0, 23), indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        scattered = np.random.default_rng(3).uniform(0.0, 1.0, (700, 2)) * [np.pi, 2.0]
        for pts in (grid, scattered):
            ex = basis.basis_x.evaluate(pts[:, 0])
            ey = basis.basis_y.evaluate(pts[:, 1])
            for start, stop in ((0, None), (37, 411)):
                sl = slice(start, stop)
                got = basis.evaluate(pts, start, stop)
                assert got.tobytes() == (ex[basis.ix[sl]] * ey[basis.iy[sl]]).tobytes()

    @pytest.mark.parametrize(
        "bc", [dirichlet(), neumann(), robin(0.8)], ids=["dirichlet", "neumann", "robin"]
    )
    def test_rectangle_mode_range_is_bitwise_rows_of_the_full_evaluation(self, bc):
        # evaluate(points, k0, k1) takes on each axis only the 1D modes from
        # the lowest to the highest index that modes k0..k1 use.
        basis = eigenpairs(Rectangle(np.pi, 2.0), bc, 600)
        pts = np.random.default_rng(5).uniform(0.0, 1.0, (300, 2)) * [np.pi, 2.0]
        full = basis.evaluate(pts)
        for k0, k1 in ((5, 9), (37, 69), (100, 101), (411, 600), (7, 7)):
            for idx in (basis.ix[k0:k1], basis.iy[k0:k1]):
                if k1 - k0 > 1:
                    # the 1D indices are not one run lo, lo + 1, ...
                    assert not np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size))
            assert basis.evaluate(pts, k0, k1).tobytes() == full[k0:k1].tobytes()

    @pytest.mark.parametrize("bc", [dirichlet(), neumann()], ids=["dirichlet", "neumann"])
    def test_zero_half_skip_is_bitwise_the_full_formula(self, bc):
        basis = eigenpairs(Interval(0.3, 2.0), bc, 200)
        x = np.concatenate([np.linspace(0.3, 2.0, 51), np.random.default_rng(4).uniform(0.3, 2.0, 300)])
        arg = basis.omega[:, None] * (x - 0.3)[None, :]
        full = basis.amp_cos[:, None] * np.cos(arg) + basis.amp_sin[:, None] * np.sin(arg)
        assert basis.evaluate(x).tobytes() == full.tobytes()

    def test_robin_modes_satisfy_boundary_condition_analytically(self):
        beta = 2.0
        basis = eigenpairs(Interval(0.0, 1.0), robin(beta), 5)
        x = np.array([0.0, 1.0])
        vals = basis.evaluate(x)
        derivs = basis.evaluate_deriv(x)
        # outward normal: -d/dx at 0, +d/dx at 1
        assert np.abs(-derivs[:, 0] + beta * vals[:, 0]).max() < 1e-7
        assert np.abs(derivs[:, 1] + beta * vals[:, 1]).max() < 1e-7

    def test_count_validation(self):
        with pytest.raises(ValueError):
            eigenpairs(Interval(0, 1), dirichlet(), 0)


class TestCovariance:
    def test_symmetry(self):
        basis = eigenpairs(Rectangle(np.pi, np.pi), neumann(), 500)
        a = covariance_function((0.3, 1.2), (2.0, 0.4), 1.0, basis)
        b = covariance_function((2.0, 0.4), (0.3, 1.2), 1.0, basis)
        assert a.value == b.value

    def test_dirichlet_vanishes_on_boundary(self):
        basis = eigenpairs(Rectangle(np.pi, np.pi), dirichlet(), 100)
        v = covariance_function((0.0, 1.0), (1.0, 1.0), 1.0, basis)
        assert v.value == 0.0

    def test_center_value_against_frozen_constant(self):
        basis = eigenpairs(Rectangle(np.pi, np.pi), dirichlet(), 40000)
        center = (np.pi / 2, np.pi / 2)
        got = covariance_function(center, center, 1.0, basis)
        assert abs(got.value - DIRICHLET_CENTER_COVARIANCE) <= got.tail_bound
        assert got.tail_bound < 1e-3 * got.value

    def test_frozen_constant_matches_independent_lattice_sum(self):
        m = np.arange(1.0, 4001.0, 2.0)
        M2, N2 = np.meshgrid(m * m, m * m, indexing="ij")
        oracle = (4.0 / np.pi**2) * np.sum((M2 + N2 + 1.0) ** -2)
        assert oracle == pytest.approx(DIRICHLET_CENTER_COVARIANCE, abs=1e-8)

    def test_tail_bound_dominates_actual_remainder(self):
        basis_small = eigenpairs(Rectangle(np.pi, np.pi), neumann(), 200)
        basis_big = eigenpairs(Rectangle(np.pi, np.pi), neumann(), 20000)
        x = (1.0, 1.3)
        small = covariance_function(x, x, 1.0, basis_small)
        big = covariance_function(x, x, 1.0, basis_big)
        assert abs(big.value - small.value) <= small.tail_bound
        assert big.tail_bound < small.tail_bound


class TestTailBounds:
    def test_interval_tail_dominates_direct_sum(self):
        basis = eigenpairs(Interval(0, np.pi), dirichlet(), 50000)
        lam = 1.0
        for cut in (10, 100, 1000):
            actual = np.sum((basis.mu[cut:] + lam) ** -2.0)
            bound = spectral_tail_bound(Interval(0, np.pi), dirichlet(), float(basis.mu[cut - 1]), 0.0, lam, 2)
            assert actual <= bound
            assert bound < 20.0 * actual + 1e-12

    def test_rectangle_tail_dominates_direct_sum(self):
        dom = Rectangle(np.pi, np.pi)
        basis = eigenpairs(dom, neumann(), 200000)
        lam = 1.0
        for cut in (100, 2000):
            actual = np.sum((basis.mu[cut:] + lam) ** -2.0)
            bound = spectral_tail_bound(dom, neumann(), float(basis.mu[cut - 1]), 0.0, lam, 2)
            assert actual <= bound

    def test_1d_tail_scales_like_inverse_cube(self):
        dom = Interval(0.0, 1.0)
        bounds = [spectral_tail_bound(dom, dirichlet(), (k * np.pi) ** 2, 0.0, 1.0, 2) for k in (64, 128, 256)]
        for b1, b2 in zip(bounds, bounds[1:]):
            assert b1 / b2 == pytest.approx(8.0, rel=0.15)

    def test_divergent_weight_reports_infinity(self):
        assert spectral_tail_bound(Rectangle(1, 1), neumann(), 100.0, 0.1, 1.0, 0) == np.inf

    def test_hilbert_schmidt_partial_sums_cauchy_2d(self):
        basis = eigenpairs(Rectangle(np.pi, np.pi), neumann(), 50000)
        terms = (basis.mu + 1.0) ** -2.0
        partial = np.cumsum(terms)
        assert partial[-1] - partial[20000] < 1e-3
        tail = spectral_tail_bound(Rectangle(np.pi, np.pi), neumann(), float(basis.mu[-1]), 0.0, 1.0, 2)
        assert np.isfinite(tail)


class TestGreens1D:
    def test_symmetry(self):
        for bc in (dirichlet(), neumann(), robin(1.5)):
            assert greens_function_1d(0.3, 0.8, 2.0, bc) == greens_function_1d(0.8, 0.3, 2.0, bc)

    def test_dirichlet_vanishes_at_endpoint(self):
        for y in (0.2, 0.5, 0.9):
            assert greens_function_1d(0.0, y, 1.0, dirichlet()) == 0.0

    @pytest.mark.parametrize(
        "bc", [dirichlet(), neumann(), robin(2.0)], ids=["dirichlet", "neumann", "robin"]
    )
    def test_ode_residual_off_diagonal(self, bc):
        lam, y, eps = 1.0, 0.6, 1e-4
        for x in (0.15, 0.35, 0.8):
            gm = greens_function_1d(x - eps, y, lam, bc)
            g0 = greens_function_1d(x, y, lam, bc)
            gp = greens_function_1d(x + eps, y, lam, bc)
            second = (gp - 2 * g0 + gm) / eps**2
            assert abs(-second + lam * g0) < 1e-6

    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.9)])
    def test_greens_reproduces_spectral_action(self, bc):
        # integral of G(x, .) e_k = e_k(x) / (mu_k + lam) for the first modes
        lam, x = 1.0, 0.37
        basis = eigenpairs(Interval(0.0, 1.0), bc, 5)
        for k in range(5):
            val, _ = quad(
                lambda y: greens_function_1d(x, y, lam, bc) * basis.evaluate([y], k, k + 1)[0, 0],
                0.0,
                1.0,
                points=[x],
                limit=200,
                epsabs=1e-12,
            )
            expected = basis.evaluate([x], k, k + 1)[0, 0] / (basis.mu[k] + lam)
            assert val == pytest.approx(expected, abs=1e-8)

    def test_neumann_kernel_integrates_to_inverse_lambda(self):
        # load f = 1 with Neumann data: u = 1/lam
        lam = 3.0
        val, _ = quad(lambda y: greens_function_1d(0.43, y, lam, neumann()), 0, 1, points=[0.43])
        assert val == pytest.approx(1.0 / lam, rel=1e-9)

    def test_robin_boundary_condition_residual(self):
        beta, lam, y, eps = 1.4, 2.0, 0.5, 1e-5
        # -G'(0) + beta G(0) = 0 and G'(1) + beta G(1) = 0
        d0 = (greens_function_1d(eps, y, lam, robin(beta)) - greens_function_1d(0.0, y, lam, robin(beta))) / eps
        g0 = greens_function_1d(0.0, y, lam, robin(beta))
        assert abs(-d0 + beta * g0) < 1e-4 * max(abs(g0), 1.0)
        d1 = (greens_function_1d(1.0, y, lam, robin(beta)) - greens_function_1d(1.0 - eps, y, lam, robin(beta))) / eps
        g1 = greens_function_1d(1.0, y, lam, robin(beta))
        assert abs(d1 + beta * g1) < 1e-4 * max(abs(g1), 1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            greens_function_1d(1.2, 0.5, 1.0, dirichlet())
