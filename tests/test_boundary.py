import numpy as np
import pytest

from whitefem.boundary import (
    BoundaryFunction,
    CameronMartinSystem,
    boundary_chain,
    robin_residual,
    scale_space_basis,
    scale_space_norm,
    trace,
    weak_conormal_derivative,
)
from whitefem.fem import (
    FactorizedSystem,
    FemFunction,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    dirichlet,
    neumann,
    robin,
)
from whitefem.mesh import Mesh, build_interval_mesh, build_rectangle_mesh, refine_uniform
from whitefem.noise import GaussianStream
from whitefem.sampling import DiscreteSolutionOperator, sample_path_with_load
from whitefem.spectral import Rectangle, eigenpairs


class TestTrace:
    def test_constant(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        t = trace(FemFunction(m, np.full(m.n_nodes, 2.5)))
        assert np.array_equal(t.values, np.full(t.values.size, 2.5))

    def test_dirichlet_solution_has_zero_trace(self):
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        load = assemble_mass(m) @ np.ones(m.n_nodes)
        u = FactorizedSystem(m, dirichlet(), 1.0).solve_checked(load)
        assert np.array_equal(trace(u).values, np.zeros(16))

    def test_linearity(self):
        m = build_interval_mesh(0, 1, 5)
        rng = np.random.default_rng(1)
        u = FemFunction(m, rng.standard_normal(6))
        v = FemFunction(m, rng.standard_normal(6))
        lhs = trace(FemFunction(m, u.coefficients + v.coefficients))
        assert np.array_equal(lhs.values, trace(u).values + trace(v).values)


class TestWeakConormalDerivative:
    def test_constant_neumann_solution_annihilates(self):
        m = build_rectangle_mesh(np.pi, np.pi, 6, 6)
        lam = 2.0
        load = assemble_mass(m) @ np.ones(m.n_nodes)
        u = FemFunction(m, np.full(m.n_nodes, 1.0 / lam))
        d = weak_conormal_derivative(u, load, lam, K=assemble_stiffness(m), M=assemble_mass(m))
        assert np.abs(d.values).max() < 1e-10

    def test_neumann_path_residual_is_solver_level(self):
        m = refine_uniform(build_rectangle_mesh(np.pi, np.pi, 4, 4))
        op = DiscreteSolutionOperator(m, neumann(), 1.0)
        path, load = sample_path_with_load(op, GaussianStream(12, 0))
        d = weak_conormal_derivative(path, load, 1.0, K=op.K, M=op.M)
        assert np.abs(d.values).max() <= 1e-9

    def test_joint_linearity(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        rng = np.random.default_rng(7)
        u = FemFunction(m, rng.standard_normal(m.n_nodes))
        b = rng.standard_normal(m.n_nodes)
        K, M = assemble_stiffness(m), assemble_mass(m)
        d1 = weak_conormal_derivative(u, b, 1.5, K=K, M=M)
        d2 = weak_conormal_derivative(FemFunction(m, 2.0 * u.coefficients), 2.0 * b, 1.5, K=K, M=M)
        assert np.allclose(d2.values, 2.0 * d1.values, atol=1e-15)


class TestRobinResidual:
    def test_galerkin_solution_residual_small(self):
        m = refine_uniform(build_rectangle_mesh(np.pi, np.pi, 4, 4))
        beta = 0.8
        op = DiscreteSolutionOperator(m, robin(beta), 1.0)
        path, load = sample_path_with_load(op, GaussianStream(2, 0))
        res = robin_residual(path, load, 1.0, beta, K=op.K, M=op.M, R=op.R)
        assert res <= 1e-9

    def test_perturbation_grows_linearly(self):
        m = build_rectangle_mesh(np.pi, np.pi, 4, 4)
        beta = 0.5
        op = DiscreteSolutionOperator(m, robin(beta), 1.0)
        path, load = sample_path_with_load(op, GaussianStream(3, 0))
        bnode = m.boundary_nodes()[2]
        basis = scale_space_basis(m)
        vals = []
        for eps in (1e-3, 2e-3, 4e-3):
            bumped = path.coefficients.copy()
            bumped[bnode] += eps
            res = robin_residual(FemFunction(m, bumped), load, 1.0, beta,
                                 basis=basis, K=op.K, M=op.M, R=op.R)
            vals.append(res)
        assert vals[1] == pytest.approx(2.0 * vals[0], rel=1e-3)
        assert vals[2] == pytest.approx(4.0 * vals[0], rel=1e-3)

    def test_beta_zero_is_neumann_residual(self):
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(m, neumann(), 1.0)
        path, load = sample_path_with_load(op, GaussianStream(4, 0))
        basis = scale_space_basis(m)
        neu = robin_residual(path, load, 1.0, 0.0, basis=basis, K=op.K, M=op.M)
        d = weak_conormal_derivative(path, load, 1.0, K=op.K, M=op.M)
        assert neu == scale_space_norm(d, basis).value

    def test_nonzero_beta_needs_boundary_mass(self):
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(m, robin(0.5), 1.0)
        path, load = sample_path_with_load(op, GaussianStream(5, 0))
        with pytest.raises(ValueError, match="boundary mass"):
            robin_residual(path, load, 1.0, 0.5, K=op.K, M=op.M)


class TestScaleSpace:
    def test_chain_is_closed_ccw_loop(self):
        m = build_rectangle_mesh(2.0, 1.0, 4, 2)
        chain, s, perimeter = boundary_chain(m)
        assert perimeter == pytest.approx(6.0, rel=1e-12)
        assert chain.size == m.boundary_nodes().size
        assert s[0] == 0.0
        assert (np.diff(s) > 0).all()
        pts = m.nodes[chain]
        area2 = np.sum(pts[:, 0] * np.roll(pts[:, 1], -1) - np.roll(pts[:, 0], -1) * pts[:, 1])
        assert area2 > 0

    def test_clockwise_facets_give_the_counterclockwise_chain(self):
        # the walk leaves the corner (0, 0) toward its first listed neighbour:
        # along the bottom side, counterclockwise, as the facets come; up the
        # left side, clockwise, once their list is reversed
        m = build_rectangle_mesh(2.0, 1.0, 4, 2)
        flipped = Mesh(2, m.nodes, m.elements, m.facet_nodes[::-1], m.facet_sides[::-1])
        # node 0 is the corner; the other end of the first facet at it (the sum)
        first = [next(int(f.sum()) for f in mesh.facet_nodes if 0 in f) for mesh in (m, flipped)]
        assert [tuple(m.nodes[n]) for n in first] == [(0.5, 0.0), (0.0, 0.5)]
        (chain, s, perimeter), want = boundary_chain(flipped), boundary_chain(m)
        assert np.array_equal(chain, want[0]) and np.array_equal(s, want[1]) and perimeter == want[2]
        vals = np.random.default_rng(3).standard_normal(m.boundary_nodes().size)
        norms = [scale_space_norm(BoundaryFunction(mesh, mesh.boundary_nodes(), vals, "trace"),
                                  scale_space_basis(mesh)) for mesh in (m, flipped)]
        assert norms[0] == norms[1]

    def test_zero_function(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        basis = scale_space_basis(m)
        g = BoundaryFunction(m, m.boundary_nodes(), np.zeros(12), "trace")
        assert scale_space_norm(g, basis).value == 0.0

    def test_first_basis_element_has_unit_norm(self):
        # f_1 is the constant H^{-1/2}-normalized mode: trace = 1/sqrt(P)
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        basis = scale_space_basis(m)
        val = np.full(16, 1.0 / np.sqrt(4.0))
        g = BoundaryFunction(m, m.boundary_nodes(), val, "trace")
        assert scale_space_norm(g, basis).value == pytest.approx(1.0, rel=1e-12)

    def test_trace_tail_is_boundary_l2_norm(self):
        # the facet sum over the boundary chain equals v^T R v with R assembled
        m = refine_uniform(build_rectangle_mesh(2.0, 1.0, 3, 2))
        basis = scale_space_basis(m)
        v = np.zeros(m.n_nodes)
        v[m.boundary_nodes()] = np.random.default_rng(9).standard_normal(m.boundary_nodes().size)
        g = BoundaryFunction(m, m.boundary_nodes(), v[m.boundary_nodes()], "trace")
        want = v @ (assemble_boundary_mass(m) @ v) / basis.n_modes
        assert basis.tail_sq_bound(g) == pytest.approx(want, rel=1e-13)

    def test_homogeneity(self):
        m = build_rectangle_mesh(1.0, 2.0, 3, 2)
        basis = scale_space_basis(m)
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(m.boundary_nodes().size)
        n1 = scale_space_norm(BoundaryFunction(m, m.boundary_nodes(), vals, "trace"), basis).value
        n2 = scale_space_norm(BoundaryFunction(m, m.boundary_nodes(), -3.5 * vals, "trace"), basis).value
        assert n2 == pytest.approx(3.5 * n1, rel=1e-12)

    def test_1d_weights(self):
        m = build_interval_mesh(0.0, 1.0, 6)
        basis = scale_space_basis(m)
        assert np.array_equal(basis.weights, [1.0, 0.25])
        left_right = np.array([2.0, 4.0])
        g = BoundaryFunction(m, m.boundary_nodes(), left_right, "trace")
        # node order is sorted; chain sorts by coordinate: left node first
        expected = np.sqrt(1.0 * 2.0**2 + 0.25 * 4.0**2)
        assert scale_space_norm(g, basis).value == pytest.approx(expected)

    def test_annulus_is_refused(self):
        # a square annulus, outer square 0..3 and hole 1..2, in 8 triangles:
        # a valid mesh whose boundary is two loops
        nodes = [[0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [2, 1], [2, 2], [1, 2]]
        elements = [[0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5], [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7]]
        facets = [[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [5, 6], [6, 7], [7, 4]]
        m = Mesh(2, nodes, elements, facets, [0] * 8)
        assert m.element_measures.sum() == 8.0
        with pytest.raises(ValueError, match="^boundary has more than one loop$"):
            scale_space_basis(m)

    def test_weights_strictly_decreasing(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        basis = scale_space_basis(m)
        assert (np.diff(basis.weights) < 0).all()


@pytest.fixture(scope="module")
def setup():
    mesh = build_rectangle_mesh(np.pi, np.pi, 6, 6)  # 49 nodes
    op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
    basis = eigenpairs(Rectangle(np.pi, np.pi), neumann(), op.n_free + 40)
    system = CameronMartinSystem(op, basis, op.n_free)
    return mesh, op, basis, system


class TestMeasurableTraceSeries:
    def test_zero_truncation(self, setup):
        mesh, op, basis, system = setup
        g = trace(system.partial_sum(op.sampler.sample(GaussianStream(1, 0)), 0))
        assert np.array_equal(g.values, np.zeros(g.values.size))

    def test_full_truncation_reproduces_nodal_trace(self, setup):
        mesh, op, basis, system = setup
        n_free = op.n_free
        for sid in range(5):
            load = op.sampler.sample(GaussianStream(42, sid))
            path = op.path_from_load(load)
            series = system.partial_sum(load, n_free)
            scale = np.abs(path.coefficients).max()
            assert np.abs(series.coefficients - path.coefficients).max() <= 1e-9 * scale
            st = trace(series)
            nt = trace(path)
            assert np.abs(st.values - nt.values).max() <= 1e-9 * scale

    def test_partial_sums_decrease_in_energy_distance(self, setup):
        # Pythagoras in the energy geometry that defines the expansion
        mesh, op, basis, system = setup
        load = op.sampler.sample(GaussianStream(5, 0))
        path = op.path_from_load(load)
        A = op.K + op.M
        dists = []
        for m in range(0, op.n_free + 1, 6):
            part = system.partial_sum(load, m)
            diff = path.coefficients - part.coefficients
            dists.append(diff @ (A @ diff))
        assert (np.diff(dists) <= 1e-12).all()

    def test_gram_matrix_is_identity(self, setup):
        mesh, op, basis, system = setup
        E = system.vectors
        A = op.A
        gram = E.T @ (A @ E)
        assert np.abs(gram - np.eye(E.shape[1])).max() < 1e-10

    def test_truncation_beyond_dimension_rejected(self, setup):
        mesh, op, basis, system = setup
        with pytest.raises(ValueError):
            CameronMartinSystem(op, basis, op.n_free + 1)

    def test_exhausted_eigenbasis_is_refused(self, setup):
        mesh, op, basis, system = setup
        with pytest.raises(RuntimeError, match=r"^eigenbasis exhausted after 3 candidates while "
                                               r"building 5 energy-orthonormal vectors$"):
            CameronMartinSystem(op, eigenpairs(Rectangle(np.pi, np.pi), neumann(), 3), 5)

    def test_dirichlet_series_trace_is_zero(self):
        mesh = build_rectangle_mesh(1.0, 1.0, 4, 4)
        op = DiscreteSolutionOperator(mesh, dirichlet(), 1.0)
        basis = eigenpairs(Rectangle(1.0, 1.0), dirichlet(), op.n_free + 30)
        system = CameronMartinSystem(op, basis, 4)
        g = trace(system.partial_sum(op.sampler.sample(GaussianStream(0, 0)), 4))
        assert np.array_equal(g.values, np.zeros(g.values.size))


def _one_candidate_at_a_time(op, basis, m):
    """Reference construction: each candidate solved on its own, then two
    passes of modified Gram-Schmidt against the kept vectors one at a time;
    kept when its energy norm is over 1e-10 of the exact image's,
    (mu_k + lam)^-1/2.  Returns the vectors and the kept candidates' indices."""
    vectors, kept = [], []
    for k in range(basis.count):
        if len(vectors) == m:
            break
        v = op.solve_free((op.M @ basis.evaluate(op.mesh.nodes, k, k + 1)[0])[op.free])
        for _ in range(2):
            for e in vectors:
                v = v - (e @ (op.A @ v)) * e
        norm = np.sqrt(max(v @ (op.A @ v), 0.0))
        if norm > 1e-10 / np.sqrt(basis.mu[k] + op.lam):
            vectors.append(v / norm)
            kept.append(k)
    return np.column_stack(vectors), kept


@pytest.mark.parametrize("bc, modes", [
    (neumann(), neumann()), (dirichlet(), neumann()), (dirichlet(), dirichlet()), (robin(0.7), robin(0.7)),
], ids=["neumann", "dirichlet", "dirichlet-own-modes", "robin"])
def test_block_system_keeps_the_first_independent_candidates(bc, modes):
    # On 7 nodes per axis the modes past index 6 along an axis interpolate to
    # combinations of lower ones.  The Dirichlet operator also takes cosine
    # modes: 6 of them per axis on its 5 interior nodes, so some are dropped
    # before the system is full.  Its own sine modes with a sin(6 pi x) or
    # sin(6 pi y) factor vanish at the nodes, and are dropped too.
    mesh = build_rectangle_mesh(1.0, 1.0, 6, 6)
    op = DiscreteSolutionOperator(mesh, bc, 1.0)
    basis = eigenpairs(Rectangle(1.0, 1.0), modes, op.n_free + 40)
    want, kept = _one_candidate_at_a_time(op, basis, op.n_free)
    assert kept[-1] >= op.n_free  # candidates were dropped
    widths, solve_free = [], op.solve_free
    op.solve_free = lambda b: widths.append(b.shape[1]) or solve_free(b)
    got = CameronMartinSystem(op, basis, op.n_free).vectors
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12
    # each block is as wide as the count of vectors still missing
    blocks = [op.n_free]
    while sum(blocks) <= kept[-1]:
        blocks.append(op.n_free - sum(k < sum(blocks) for k in kept))
    assert widths == blocks


class TestConsistencyAndExports:
    def test_norm_positivity_separates_traces(self):
        # zero scale-space norm at full mode truncation forces a zero trace
        m = build_rectangle_mesh(np.pi, np.pi, 4, 4)
        basis = scale_space_basis(m)
        load = assemble_mass(m) @ np.ones(m.n_nodes)
        u_neu = FactorizedSystem(m, neumann(), 1.0).solve_checked(load)
        assert scale_space_norm(trace(u_neu), basis).value > 1e-3
        u_dir = FactorizedSystem(m, dirichlet(), 1.0).solve_checked(load)
        assert scale_space_norm(trace(u_dir), basis).value == 0.0

    def test_conormal_derivative_vanishes_for_smooth_neumann_load(self):
        # u = T_h f for a smooth f: the weak conormal functional is an exact
        # algebraic identity, zero at solver precision, not merely small
        m = build_rectangle_mesh(np.pi, np.pi, 8, 8)
        op = DiscreteSolutionOperator(m, neumann(), 1.0)
        f = np.cos(m.nodes[:, 0]) * np.cos(2.0 * m.nodes[:, 1])
        load = op.M @ f
        u = FemFunction(m, op.solve(load))
        d = weak_conormal_derivative(u, load, 1.0, K=op.K, M=op.M)
        assert np.abs(d.values).max() < 1e-12
