from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from whitefem.fem import (
    BoundaryCondition,
    FactorizedSystem,
    assemble_boundary_mass,
    assemble_mass,
    assemble_stiffness,
    dirichlet,
    locate_points,
    nested_dissection,
    neumann,
    point_vectors,
    robin,
    sparse_cholesky,
)
import whitefem.fem as fem
from whitefem.mesh import Mesh, build_interval_mesh, build_rectangle_mesh, read_mesh, refine_uniform

UNIT_TRIANGLE = Mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 1, 2])

# An L-shaped polygon: three unit squares, each split along one diagonal.
_L_SHAPE = """2 8 6 8
0 0
1 0
2 0
0 1
1 1
2 1
0 2
1 2
0 1 4
0 4 3
1 2 5
1 5 4
3 4 7
3 7 6
0 1 0
1 2 0
2 5 1
5 4 2
4 7 2
7 6 2
6 3 3
3 0 3
"""


def _l_shape(tmp_path):
    path = tmp_path / "l_shape.txt"
    path.write_text(_L_SHAPE)
    return refine_uniform(refine_uniform(read_mesh(path)))


# Reference ordering: one recursive call per set, edges taken from the elements.
def _recursive_nested_dissection(mesh: Mesh, free: np.ndarray) -> np.ndarray:
    """The recursive nested dissection the level-synchronous one must equal.

    Kept verbatim from the recursive implementation, as the reference.

    Returns order, a permutation of range(free.size) in free-node numbering.
    A node set is split at the median of its wider coordinate axis; the
    separator is the lower-half nodes with an element neighbour in the upper
    half.  Both halves are ordered recursively, then the separator, until a
    set has at most fem._ND_LEAF nodes.  On a 2D mesh the factor of a matrix with
    the element graph's pattern then has O(n log n) fill (Lipton, Rose and
    Tarjan 1979).  Only coordinates and connectivity enter, so the ordering
    is deterministic.
    """
    n = free.size
    local = np.full(mesh.n_nodes, -1, dtype=np.int64)
    local[free] = np.arange(n)
    el = local[mesh.elements]
    k = el.shape[1]
    pairs = np.sort(np.concatenate([el[:, [i, j]] for i in range(k) for j in range(i + 1, k)]), axis=1)
    pairs = pairs[pairs[:, 0] >= 0]
    # Each edge once, as (u, v) with u < v; int32 halves the traffic of the
    # per-level gathers.
    edges = np.sort(pairs[:, 0] * n + pairs[:, 1])
    edges = edges[np.r_[True, edges[1:] != edges[:-1]]]
    u, v = (edges // n).astype(np.int32), (edges % n).astype(np.int32)
    axes = [np.ascontiguousarray(mesh.nodes[free, d]) for d in range(mesh.dim)]
    side = np.zeros(n, dtype=np.int8)  # 0 lower half, 1 upper half, 2 separator
    parts: list[np.ndarray] = []

    def dissect(idx, u, v):
        if idx.size <= fem._ND_LEAF:
            parts.append(idx)
            return
        c = max((a[idx] for a in axes), key=lambda a: a.max() - a.min())
        med = np.partition(c, c.size // 2)[c.size // 2]
        low = c < med
        if not low.any():
            low = c <= med
        side[idx] = ~low
        su, sv = side[u], side[v]
        side[u[(su == 0) & (sv == 1)]] = 2
        side[v[(sv == 0) & (su == 1)]] = 2
        su, sv, s = side[u], side[v], side[idx]
        halves = [(idx[s == h], (su == h) & (sv == h)) for h in (0, 1)]
        for half, inside in halves:
            dissect(half, u[inside], v[inside])
        parts.append(idx[s == 2])

    dissect(np.arange(n), u, v)
    return np.concatenate(parts)


class TestAssembly:
    def test_1d_interior_stiffness_row(self):
        m = build_interval_mesh(0.0, 1.0, 4)
        K = assemble_stiffness(m).toarray()
        h = 0.25
        assert np.allclose(K[2], [0.0, -1 / h, 2 / h, -1 / h, 0.0])

    def test_1d_interior_mass_row(self):
        m = build_interval_mesh(0.0, 1.0, 4)
        M = assemble_mass(m).toarray()
        h = 0.25
        assert np.allclose(M[2], [0.0, h / 6, 2 * h / 3, h / 6, 0.0])

    def test_stiffness_kernel_contains_constants(self):
        for mesh in (build_interval_mesh(0, 2, 9), refine_uniform(build_rectangle_mesh(1.0, 2.0, 3, 4))):
            K = assemble_stiffness(mesh)
            assert np.abs(K @ np.ones(mesh.n_nodes)).max() < 1e-10

    def test_unit_triangle_stiffness_against_symbolic_integration(self):
        # independent oracle: integrate grad(phi_i).grad(phi_j) symbolically
        import sympy as sym

        x, y = sym.symbols("x y")
        basis = [1 - x - y, x, y]
        expected = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                gi = (sym.diff(basis[i], x), sym.diff(basis[i], y))
                gj = (sym.diff(basis[j], x), sym.diff(basis[j], y))
                integrand = gi[0] * gj[0] + gi[1] * gj[1]
                expected[i, j] = float(
                    sym.integrate(sym.integrate(integrand, (y, 0, 1 - x)), (x, 0, 1))
                )
        K = assemble_stiffness(UNIT_TRIANGLE).toarray()
        assert np.allclose(K, expected, atol=1e-14)
        assert np.allclose(expected, [[1, -0.5, -0.5], [-0.5, 0.5, 0], [-0.5, 0, 0.5]])

    def test_triangle_mass_closed_form(self):
        area = 0.5
        M = assemble_mass(UNIT_TRIANGLE).toarray()
        assert np.allclose(M, area / 12.0 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]))

    def test_mass_total_is_domain_measure(self):
        m = build_rectangle_mesh(np.pi, np.pi, 6, 6)
        assert assemble_mass(m).sum() == pytest.approx(np.pi**2, rel=1e-12)

    def test_boundary_mass_1d_is_endpoint_indicator(self):
        m = build_interval_mesh(0.0, 1.0, 5)
        R = assemble_boundary_mass(m).toarray()
        expected = np.zeros((6, 6))
        expected[0, 0] = expected[5, 5] = 1.0
        assert np.array_equal(R, expected)

    def test_boundary_mass_edge_local_matrix(self):
        m = build_rectangle_mesh(2.0, 1.0, 1, 1)
        R = assemble_boundary_mass(m).toarray()
        # bottom edge (nodes 0-1) has length 2: diagonal gets 2*L/6 per edge end
        L = 2.0
        assert R[0, 1] == pytest.approx(L / 6.0)

    def test_boundary_mass_total_is_perimeter(self):
        m = refine_uniform(build_rectangle_mesh(2.0, 3.0, 4, 3))
        assert assemble_boundary_mass(m).sum() == pytest.approx(10.0, rel=1e-12)

    def test_matrices_symmetric(self):
        m = refine_uniform(build_rectangle_mesh(1.0, 1.5, 3, 2))
        for A in (assemble_stiffness(m), assemble_mass(m), assemble_boundary_mass(m)):
            assert np.abs((A - A.T).toarray()).max() < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -0.5, np.nan, np.inf])
    def test_assembly_refuses_a_measure_that_is_not_positive_and_finite(self, bad):
        # Mesh refuses such elements itself; this is assembly's own bound,
        # given a stand-in mesh that only carries measures.
        stand_in = SimpleNamespace(element_measures=np.array([0.5, bad]))
        with pytest.raises(ValueError, match=rf"^degenerate element 1: measure {bad}$"):
            fem._check_measures(stand_in)


class TestSolve:
    def test_zero_load_gives_zero(self):
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        u = FactorizedSystem(m, robin(0.5), 1.0).solve_checked(np.zeros(m.n_nodes))
        assert np.array_equal(u.coefficients, np.zeros(m.n_nodes))

    def test_neumann_constant_solution(self):
        m = build_rectangle_mesh(np.pi, np.pi, 5, 5)
        lam = 3.0
        load = assemble_mass(m) @ np.ones(m.n_nodes)
        u = FactorizedSystem(m, neumann(), lam).solve_checked(load)
        assert np.abs(u.coefficients - 1.0 / lam).max() < 1e-12

    def test_dirichlet_boundary_values_pinned(self):
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        load = assemble_mass(m) @ np.ones(m.n_nodes)
        u = FactorizedSystem(m, dirichlet(), 1.0).solve_checked(load)
        assert np.array_equal(u.coefficients[m.boundary_nodes()], np.zeros(16))
        interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary_nodes())
        assert (u.coefficients[interior] > 0).all()

    def test_1d_dirichlet_sine_rate(self):
        # u = sin(pi x) / (pi^2 + 1) solves -u'' + u = sin(pi x), u(0)=u(1)=0
        errors, hs = [], []
        mesh = build_interval_mesh(0.0, 1.0, 8)
        for _ in range(4):
            M = assemble_mass(mesh)
            f = np.sin(np.pi * mesh.nodes[:, 0])
            u = FactorizedSystem(mesh, dirichlet(), 1.0).solve_checked(M @ f)
            exact = f / (np.pi**2 + 1.0)
            diff = u.coefficients - exact
            errors.append(np.sqrt(diff @ (M @ diff)))
            hs.append(mesh.h)
            mesh = refine_uniform(mesh)
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert 1.9 < slope < 2.1

    def test_residual_contract(self):
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 6, 6))
        rng = np.random.default_rng(3)
        load = rng.standard_normal(m.n_nodes)
        sysm = FactorizedSystem(m, robin(2.0), 0.7)
        c = sysm.solve_free(load[sysm.free])
        assert sysm.backward_error(c, load[sysm.free]) <= 1e-10

    def test_galerkin_orthogonality(self):
        m = build_rectangle_mesh(1.0, 1.0, 5, 5)
        lam = 1.3
        sysm = FactorizedSystem(m, neumann(), lam)
        rng = np.random.default_rng(11)
        b = rng.standard_normal(m.n_nodes)
        u = sysm.solve_checked(b)
        assert np.abs((sysm.K + lam * sysm.M) @ u.coefficients - b).max() <= 1e-9 * np.abs(b).max()

    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.8)])
    def test_system_matrix_is_built_from_owned_operators(self, bc):
        m = refine_uniform(build_rectangle_mesh(2.0, 1.0, 4, 3))
        lam = 0.7
        sysm = FactorizedSystem(m, bc, lam)
        expected = sysm.K + lam * sysm.M
        if bc.kind == "robin":
            expected = expected + bc.beta * sysm.R
        else:
            assert sysm.R is None
        assert np.array_equal(sysm.A.toarray(), expected[np.ix_(sysm.free, sysm.free)].toarray())

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            FactorizedSystem(build_interval_mesh(0.0, 1.0, 4), neumann(), 0.0)

    def test_fine_neumann_square_passes_the_residual_check(self):
        # 263,169 nodes: the direct factor serves every size, and its solve
        # passes the 1e-10 backward-error check that solve_checked applies.
        m = build_rectangle_mesh(np.pi, np.pi, 512, 512)
        assert m.n_nodes == 263_169
        u = FactorizedSystem(m, neumann(), 1.0).solve_checked(assemble_mass(m) @ np.ones(m.n_nodes))
        assert np.abs(u.coefficients - 1.0).max() < 1e-9

    def test_small_square_smooth_load_passes_the_backward_error_check(self):
        # h = 1/512: ||A c - b|| / ||b|| is about 2e-10 here, above the bound,
        # while the backward error is about 1e-16 and the solve is accurate.
        m = build_rectangle_mesh(0.125, 0.125, 64, 64)
        sysm = FactorizedSystem(m, neumann(), 1.0)
        b = assemble_mass(m) @ np.ones(m.n_nodes)
        u = sysm.solve_checked(b)
        assert np.linalg.norm(sysm.A @ u.coefficients - b) / np.linalg.norm(b) > 1e-10
        assert sysm.backward_error(u.coefficients, b) < 1e-15
        assert np.abs(u.coefficients - 1.0).max() < 1e-9

    def test_perturbed_solution_is_refused(self, monkeypatch):
        m = build_rectangle_mesh(0.125, 0.125, 64, 64)
        sysm = FactorizedSystem(m, neumann(), 1.0)
        b = assemble_mass(m) @ np.ones(m.n_nodes)
        c = sysm.solve(b)
        wrong = c.copy()
        wrong[m.n_nodes // 2] += 1e-6
        assert sysm.backward_error(wrong, b) > 1e-10
        monkeypatch.setattr(sysm, "solve", lambda load: wrong)
        with pytest.raises(RuntimeError, match="backward error .* exceeds 1e-10"):
            sysm.solve_checked(b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_solution_is_refused(self, monkeypatch, bad):
        # NaN > 1e-10 is false, so the check must be one that NaN fails
        m = build_rectangle_mesh(1.0, 1.0, 8, 8)
        sysm = FactorizedSystem(m, neumann(), 1.0)
        monkeypatch.setattr(sysm, "solve", lambda load: np.full(m.n_nodes, bad))
        with pytest.raises(RuntimeError, match="backward error nan exceeds 1e-10"):
            sysm.solve_checked(assemble_mass(m) @ np.ones(m.n_nodes))

    @pytest.mark.parametrize("case", ["neumann", "robin", "dirichlet", "interval"])
    def test_one_column_matches_the_normal_sweep(self, case):
        rect = refine_uniform(build_rectangle_mesh(np.pi, 2.0, 9, 6))
        mesh, bc = {
            "neumann": (rect, neumann()),
            "robin": (rect, robin(0.8)),
            "dirichlet": (rect, dirichlet()),
            "interval": (build_interval_mesh(0.0, 2.0, 150), robin(1.5)),
        }[case]
        sysm = FactorizedSystem(mesh, bc, 0.9)
        b = np.random.default_rng(13).standard_normal(sysm.n_free)
        # two columns take the normal sweep, one the transposed sweep
        normal = sysm.solve_free(np.column_stack([b, b]))
        one = sysm.solve_free(b)
        assert np.abs(one - normal[:, 0]).max() <= 1e-13 * np.abs(normal[:, 0]).max()
        order = sysm._free_order
        direct = np.empty(sysm.n_free)
        direct[order] = sysm._lu.solve(b[order], trans="T")
        assert one.shape == b.shape
        assert np.array_equal(one, direct)
        # a one-column matrix takes the same path and keeps its shape
        col = sysm.solve_free(b[:, None])
        assert col.shape == (sysm.n_free, 1)
        assert np.array_equal(col[:, 0], one)

    @pytest.mark.parametrize("bc", [neumann(), robin(0.8)])
    def test_all_free_solve_skips_the_copy(self, bc):
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 4, 3))
        sysm = FactorizedSystem(m, bc, 0.7)
        full = sysm.K + 0.7 * sysm.M
        if bc.kind == "robin":
            full = full + bc.beta * sysm.R
        assert sysm.restrict(sysm.M) is sysm.M
        restricted = full[np.ix_(sysm.free, sysm.free)].tocsc()
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(sysm.A, attr), getattr(restricted, attr))
        rng = np.random.default_rng(9)
        for b in (rng.standard_normal(m.n_nodes), rng.standard_normal((m.n_nodes, 3))):
            assert np.array_equal(sysm.solve(b), sysm.solve_free(b))
            copied = np.zeros(b.shape)
            copied[sysm.free] = sysm.solve_free(b[sysm.free])
            assert np.array_equal(sysm.solve(b), copied)

    @pytest.mark.parametrize("case", ["neumann", "robin", "dirichlet", "interval"])
    def test_operators_hold_int32_indices(self, case):
        rect = refine_uniform(build_rectangle_mesh(1.0, 1.0, 4, 3))
        m, bc = {
            "neumann": (rect, neumann()),
            "robin": (rect, robin(0.8)),
            "dirichlet": (rect, dirichlet()),
            "interval": (build_interval_mesh(0.0, 2.0, 15), robin(1.5)),
        }[case]
        sysm = FactorizedSystem(m, bc, 0.7)
        operators = [sysm.K, sysm.M, sysm.A] + ([sysm.R] if sysm.R is not None else [])
        for S in operators:
            assert S.format == "csr" and S.has_sorted_indices
            assert S.indices.dtype == np.int32 and S.indptr.dtype == np.int32
        # A is symmetric, so its CSR arrays are the arrays of its CSC form
        csc = sysm.A.tocsc()
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(sysm.A, attr), getattr(csc, attr))

    def test_dirichlet_without_interior_node_is_refused(self):
        # the four nodes of one cell all lie on the boundary
        with pytest.raises(ValueError, match=r"^no free degrees of freedom \(Dirichlet on a boundary-only mesh\)$"):
            FactorizedSystem(build_rectangle_mesh(1.0, 1.0, 1, 1), dirichlet(), 1.0)

    def test_dirichlet_solve_reembeds_exact_zeros(self):
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 4, 3))
        sysm = FactorizedSystem(m, dirichlet(), 0.7)
        assert sysm.n_free < m.n_nodes
        rng = np.random.default_rng(10)
        for b in (rng.standard_normal(m.n_nodes), rng.standard_normal((m.n_nodes, 3))):
            c = sysm.solve(b)
            assert c.shape == b.shape
            assert np.array_equal(c[m.boundary_nodes()], np.zeros_like(c[m.boundary_nodes()]))
            assert np.array_equal(c[sysm.free], sysm.solve_free(b[sysm.free]))

    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.8)])
    def test_system_positive_definite(self, bc):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        sysm = FactorizedSystem(m, bc, 0.5)
        eigvals = np.linalg.eigvalsh(sysm.A.toarray())
        assert eigvals.min() > 0

    def test_cea_monotonicity_under_refinement(self):
        mesh = build_rectangle_mesh(np.pi, np.pi, 4, 4)
        prev = None
        for _ in range(3):
            M = assemble_mass(mesh)
            K = assemble_stiffness(mesh)
            f = np.cos(mesh.nodes[:, 0]) * np.cos(mesh.nodes[:, 1])
            u = FactorizedSystem(mesh, neumann(), 1.0).solve_checked(M @ f)
            exact = f / 3.0  # eigenmode load: mu = 2
            diff = u.coefficients - exact
            err = np.sqrt(diff @ (K @ diff) + diff @ (M @ diff))
            if prev is not None:
                assert err <= prev * 1.01
            prev = err
            mesh = refine_uniform(mesh)


class TestNestedDissectionFactor:
    @pytest.mark.parametrize("bc", [dirichlet(), neumann()])
    def test_ordering_is_a_deterministic_permutation(self, bc):
        m = refine_uniform(build_rectangle_mesh(2.0, 1.0, 12, 7))
        sysm = FactorizedSystem(m, bc, 1.0)
        order = nested_dissection(m, sysm.M)
        assert np.array_equal(np.sort(order), np.arange(m.n_nodes))
        assert np.array_equal(order, sysm.order)
        assert np.array_equal(order, nested_dissection(m, sysm.M.copy()))

    @pytest.mark.parametrize("case", ["rectangle", "polygon"])
    def test_dirichlet_factor_drops_the_boundary_from_the_ordering(self, case, tmp_path):
        mesh = {
            "rectangle": lambda: refine_uniform(build_rectangle_mesh(2.0, 1.0, 12, 7)),
            "polygon": lambda: _l_shape(tmp_path),
        }[case]()
        sysm = FactorizedSystem(mesh, dirichlet(), 1.0)
        assert np.array_equal(sysm.order, nested_dissection(mesh, sysm.M))
        # the all-node ordering with the boundary nodes dropped, each free
        # node named by its position in sysm.free
        free = sysm.free.tolist()
        boundary = set(mesh.boundary_nodes().tolist())
        want = np.array([free.index(i) for i in sysm.order.tolist() if i not in boundary])
        assert np.array_equal(sysm._free_order, want)
        direct = fem._ordered_splu(sysm.A, want)
        b = np.random.default_rng(8).standard_normal(sysm.n_free)
        x = np.empty(sysm.n_free)
        x[want] = direct.solve(b[want], trans="T")
        assert np.array_equal(sysm.solve_free(b), x)

    @pytest.mark.parametrize("case", ["rectangle-neumann", "rectangle-dirichlet", "rectangle-robin",
                                      "interval", "polygon", "small", "fine"])
    def test_equals_the_recursive_ordering(self, case, tmp_path):
        rect = refine_uniform(build_rectangle_mesh(2.0, 1.0, 12, 7))
        mesh, bc = {
            "rectangle-neumann": lambda: (rect, neumann()),
            "rectangle-dirichlet": lambda: (rect, dirichlet()),
            "rectangle-robin": lambda: (rect, robin(0.8)),
            "interval": lambda: (build_interval_mesh(0.0, 2.0, 150), robin(1.5)),
            "polygon": lambda: (_l_shape(tmp_path), dirichlet()),
            "small": lambda: (build_rectangle_mesh(1.0, 1.0, 3, 1), neumann()),
            "fine": lambda: (refine_uniform(refine_uniform(
                build_rectangle_mesh(np.pi, np.pi, 32, 32))), robin(0.8)),
        }[case]()
        sysm = FactorizedSystem(mesh, bc, 1.0)
        if case == "small":
            assert mesh.n_nodes <= fem._ND_LEAF
        if case == "fine":
            assert mesh.n_nodes == 16_641
        ref = _recursive_nested_dissection(mesh, np.arange(mesh.n_nodes))
        assert np.array_equal(sysm.order, ref)
        assert np.array_equal(nested_dissection(mesh, sysm.M), ref)

    @pytest.mark.parametrize("case", ["neumann", "dirichlet", "robin", "interval", "polygon"])
    def test_solves_match_colamd_lu(self, case, tmp_path):
        rect = refine_uniform(build_rectangle_mesh(np.pi, 2.0, 9, 6))
        mesh, bc = {
            "neumann": (rect, neumann()),
            "dirichlet": (rect, dirichlet()),
            "robin": (rect, robin(0.8)),
            "interval": (build_interval_mesh(0.0, 2.0, 150), robin(1.5)),
            "polygon": (_l_shape(tmp_path), dirichlet()),
        }[case]
        sysm = FactorizedSystem(mesh, bc, 0.9)
        colamd = splu(sp.csc_matrix(sysm.A), permc_spec="COLAMD")
        rng = np.random.default_rng(12)
        for b in (rng.standard_normal(sysm.n_free), rng.standard_normal((sysm.n_free, 40))):
            x, ref = sysm.solve_free(b), colamd.solve(b)
            assert x.shape == ref.shape
            assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.8)], ids=["dirichlet", "neumann", "robin"])
    @pytest.mark.parametrize("kind", ["rectangle", "interval"])
    def test_factor_input_equals_the_coo_route(self, kind, bc):
        # The permuted matrix built through COO triples, as its own
        # reference: SuperLU's factors of it have the bytes of the factors
        # _ordered_splu makes of its row-gathered input.
        mesh = {"rectangle": refine_uniform(build_rectangle_mesh(np.pi, 2.0, 9, 6)),
                "interval": build_interval_mesh(0.0, 2.0, 150)}[kind]
        sysm = FactorizedSystem(mesh, bc, 0.9)
        for A, order in ((sysm.A, sysm._free_order), (sysm.M, sysm.order)):
            position = np.empty(order.size, dtype=np.int64)
            position[order] = np.arange(order.size)
            coo = A.tocoo()
            permuted = sp.csc_matrix((coo.data, (position[coo.row], position[coo.col])), shape=A.shape)
            want = splu(permuted, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
            got = fem._ordered_splu(A, order)
            for g, w in ((got.L, want.L), (got.U, want.U)):
                for name in ("data", "indices", "indptr"):
                    assert getattr(g, name).tobytes() == getattr(w, name).tobytes()
            assert got.perm_r.tobytes() == want.perm_r.tobytes()
            assert got.perm_c.tobytes() == want.perm_c.tobytes()

    def test_rejects_off_diagonal_pivot(self):
        A = sp.csc_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="not SPD"):
            fem._ordered_splu(A, np.arange(2))

    def test_fill_below_colamd(self):
        m = refine_uniform(refine_uniform(build_rectangle_mesh(np.pi, np.pi, 32, 32)))
        assert m.n_nodes == 16_641
        sysm = FactorizedSystem(m, robin(0.8), 1.0)
        colamd = splu(sp.csc_matrix(sysm.A), permc_spec="COLAMD")
        nnz = sysm._lu.L.nnz + sysm._lu.U.nnz
        assert nnz < 0.8 * (colamd.L.nnz + colamd.U.nnz)

    def test_system_factor_storage_with_small_leaves(self):
        # SuperLU's own storage of A's factor at 16,641 nodes: 1,135,816
        # entries with 32-node leaves, 1,029,590 with 8-node ones.
        m = refine_uniform(refine_uniform(build_rectangle_mesh(np.pi, np.pi, 32, 32)))
        assert m.n_nodes == 16_641
        sysm = FactorizedSystem(m, robin(0.8), 1.0)
        assert sysm._lu.nnz < 1_100_000

    @pytest.mark.parametrize("width", [2, 32, 33, 64, 65, 100])
    def test_chunked_solve_is_bitwise_one_block_solve(self, width):
        # Below 128 columns the blocked solve has the bits of one solve over
        # all columns; wider solves are blocked differently inside the BLAS
        # that SuperLU calls, and their last bits move.
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 12, 12))
        sysm = FactorizedSystem(m, dirichlet(), 0.7)
        B = np.random.default_rng(width).standard_normal((sysm.n_free, width))
        whole = np.empty(B.shape)
        whole[sysm._free_order] = sysm._lu.solve(B[sysm._free_order])
        X = sysm.solve_free(B)
        assert np.array_equal(X, whole)
        assert np.array_equal(sysm.solve_free(B[:, 0]), sysm.solve_free(B[:, :1])[:, 0])


class TestFactorOnFirstSolve:
    def test_factors_once_on_the_first_solve(self, monkeypatch):
        factored = []
        inner = fem._ordered_splu
        monkeypatch.setattr(fem, "_ordered_splu", lambda A, order: factored.append(A) or inner(A, order))
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 6, 5))
        sysm = FactorizedSystem(m, robin(0.8), 0.7)
        assert len(factored) == 0
        rng = np.random.default_rng(14)
        sysm.solve_free(rng.standard_normal(sysm.n_free))
        sysm.solve(rng.standard_normal((m.n_nodes, 3)))
        assert len(factored) == 1
        assert factored[0] is sysm.A

    @pytest.mark.parametrize("bc", [neumann(), robin(0.8), dirichlet()], ids=["neumann", "robin", "dirichlet"])
    def test_solves_bitwise_as_an_eager_factor(self, bc):
        m = refine_uniform(build_rectangle_mesh(np.pi, 2.0, 9, 6))
        sysm = FactorizedSystem(m, bc, 0.9)
        eager = fem._ordered_splu(sysm.A, sysm._free_order)
        order = sysm._free_order
        B = np.random.default_rng(15).standard_normal((sysm.n_free, 32))
        one = np.empty(sysm.n_free)
        one[order] = eager.solve(B[order, 0], trans="T")
        wide = np.empty(B.shape)
        wide[order] = eager.solve(B[order])
        assert np.array_equal(sysm.solve_free(B[:, 0]), one)
        assert np.array_equal(sysm.solve_free(B), wide)


def _interpolate(mesh, coefficients, point):
    """Barycentric interpolation at one point, from locate_points."""
    idx, w = locate_points(mesh, [point])
    return float(coefficients[idx[0]] @ w[0])


class TestEvaluate:
    def test_nodal_value_exact(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        rng = np.random.default_rng(0)
        c = rng.standard_normal(m.n_nodes)
        for i in (0, 5, 10, 15):
            assert _interpolate(m, c, m.nodes[i]) == pytest.approx(c[i], abs=1e-13)

    def test_constant_everywhere(self):
        m = refine_uniform(build_rectangle_mesh(2.0, 1.0, 2, 2))
        P = point_vectors(m, [(0.1, 0.9), (1.99, 0.01), (1.0, 0.5)])
        assert np.allclose(np.full(m.n_nodes, 4.25) @ P, 4.25, rtol=0, atol=1e-13)

    def test_1d_midpoint_average(self):
        m = build_interval_mesh(0.0, 1.0, 4)
        assert _interpolate(m, np.array([0.0, 2.0, 6.0, 0.0, 0.0]), 0.375) == pytest.approx(4.0)

    def test_outside_domain_raises(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError, match="outside"):
            point_vectors(m, [(1.5, 0.5)])

    def test_point_vector_partition_of_unity(self):
        m = build_rectangle_mesh(1.0, 1.0, 4, 4)
        p = point_vectors(m, [(0.33, 0.71)])[:, 0]
        assert p.sum() == pytest.approx(1.0)
        assert (p >= 0).all()


def _point_evaluation_loop(mesh, point):
    """Reference: locate one point by scanning every element from scratch."""
    p = np.atleast_1d(np.asarray(point, dtype=np.float64))
    tol = 1e-12 * max(mesh.h, 1.0)
    pts = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        x = p[0]
        left, right = pts[:, 0, 0], pts[:, 1, 0]
        e = np.nonzero((x >= left - tol) & (x <= right + tol))[0][0]
        t = min(max((x - left[e]) / (right[e] - left[e]), 0.0), 1.0)
        return mesh.elements[e], np.array([1.0 - t, t])
    a, b, c = pts[:, 0], pts[:, 1], pts[:, 2]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    w1 = ((b[:, 0] - p[0]) * (c[:, 1] - p[1]) - (c[:, 0] - p[0]) * (b[:, 1] - p[1])) / det
    w2 = ((c[:, 0] - p[0]) * (a[:, 1] - p[1]) - (a[:, 0] - p[0]) * (c[:, 1] - p[1])) / det
    w3 = 1.0 - w1 - w2
    # each corner's tolerance: tol times the opposite edge's length, over |det|
    ta, tb, tc = (tol * (np.hypot(*(q - r).T) / np.abs(det)) for q, r in ((c, b), (a, c), (b, a)))
    e = np.nonzero((w1 >= -ta) & (w2 >= -tb) & (w3 >= -tc))[0][0]
    w = np.clip(np.array([w1[e], w2[e], w3[e]]), 0.0, None)
    return mesh.elements[e], w / w.sum()


class TestLocatePoints:
    @pytest.mark.parametrize("mesh", ["rectangle", "interval", "polygon"])
    def test_batch_is_bitwise_the_one_point_scan(self, mesh, tmp_path):
        mesh = {
            "rectangle": lambda: refine_uniform(build_rectangle_mesh(np.pi, 2.0, 7, 5)),
            "interval": lambda: build_interval_mesh(-1.0, 2.0, 13),
            "polygon": lambda: _l_shape(tmp_path),
        }[mesh]()
        rng = np.random.default_rng(4)
        e0 = mesh.nodes[mesh.elements[0]]
        points = (
            [mesh.nodes[i] for i in (0, 1, mesh.n_nodes // 2, mesh.n_nodes - 1)]  # vertices
            + [0.5 * (e0[0] + e0[1]), 0.3 * e0[0] + 0.7 * e0[-1]]  # on element edges
            + [mesh.nodes[mesh.facet_nodes[k]].mean(axis=0) for k in (0, -1)]  # boundary
            + [mesh.nodes[mesh.elements[k]].mean(axis=0) for k in rng.integers(mesh.n_elements, size=5)]
        )
        idx, w = locate_points(mesh, points)
        assert idx.shape == w.shape == (len(points), mesh.dim + 1)
        for k, p in enumerate(points):
            ref_idx, ref_w = _point_evaluation_loop(mesh, p)
            (one_idx,), (one_w,) = locate_points(mesh, [p])
            assert np.array_equal(idx[k], ref_idx) and np.array_equal(one_idx, ref_idx)
            assert w[k].tobytes() == ref_w.tobytes() == one_w.tobytes()

    @pytest.mark.parametrize("mesh", ["rectangle", "interval"])
    def test_element_setup_is_cached_once_and_read_only(self, mesh):
        mesh = {
            "rectangle": lambda: refine_uniform(build_rectangle_mesh(np.pi, 2.0, 7, 5)),
            "interval": lambda: build_interval_mesh(-1.0, 2.0, 13),
        }[mesh]()
        points = [mesh.nodes[mesh.elements[k]].mean(axis=0) for k in (0, 3, -1)] + [mesh.nodes[4]]
        assert "locator" not in mesh.__dict__
        idx, w = locate_points(mesh, points)
        setup = mesh.__dict__["locator"]
        for _ in range(2):
            again_idx, again_w = locate_points(mesh, points)
            assert np.array_equal(again_idx, idx) and again_w.tobytes() == w.tobytes()
        assert mesh.locator is setup
        arrays = [a for a in setup if isinstance(a, np.ndarray)]
        assert len(arrays) == (4 if mesh.dim == 1 else 10)
        for a in arrays:
            assert a.shape == (mesh.n_elements,) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_first_outside_point_is_reported(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)
        with pytest.raises(ValueError, match=r"point \(.*1\.5.*\) is outside the mesh"):
            locate_points(m, [(0.5, 0.5), (1.5, 0.5), (2.5, 0.5)])
        with pytest.raises(ValueError, match="outside the mesh"):
            locate_points(build_interval_mesh(0.0, 1.0, 3), [0.5, 1.5])

    def test_point_vectors_scatter_the_weights(self):
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 3, 3))
        points = [(0.1, 0.2), (0.5, 0.5), (1.0, 0.0)]
        P = point_vectors(m, points)
        for k, p in enumerate(points):
            idx, w = locate_points(m, [p])
            expected = np.zeros(m.n_nodes)
            expected[idx[0]] = w[0]
            assert np.array_equal(P[:, k], expected)


class TestNorms:
    def test_l2_inner_constant(self):
        # (1, 1) in L2 is the area: 1^T M 1 on the 2 x 3 rectangle
        m = build_rectangle_mesh(2.0, 3.0, 4, 4)
        one = np.ones(m.n_nodes)
        assert one @ (assemble_mass(m) @ one) == pytest.approx(6.0, rel=1e-12)

    def test_nodal_basis_l2_norm_1d(self):
        # ||phi_2||^2 = 2h/3 for an interior hat function with h = 1/4
        m = build_interval_mesh(0.0, 1.0, 4)
        assert assemble_mass(m)[2, 2] == pytest.approx(2 * 0.25 / 3.0)


class TestSparseCholesky:
    def test_reconstructs_mass_matrix(self):
        m = refine_uniform(build_rectangle_mesh(1.0, 1.0, 4, 4))
        M = assemble_mass(m)
        order = nested_dissection(m, M)
        F = sparse_cholesky(M, order)
        assert np.array_equal(np.sort(order), np.arange(m.n_nodes))
        assert np.abs((F @ F.T).toarray() - M.toarray()).max() < 1e-14
        assert sp.triu(F[order], k=1).nnz == 0

    def test_matches_dense_cholesky(self):
        m = build_interval_mesh(0.0, 1.0, 6)
        M = assemble_mass(m)
        order = np.random.default_rng(4).permutation(m.n_nodes)
        F = sparse_cholesky(M, order)
        Mp = M.toarray()[np.ix_(order, order)]
        assert np.allclose(F[order].toarray(), np.linalg.cholesky(Mp), atol=1e-14)

    def test_row_storage_is_bitwise_the_column_product(self):
        m = refine_uniform(refine_uniform(build_rectangle_mesh(np.pi, np.pi, 32, 32)))
        assert m.n_nodes == 16_641
        M = assemble_mass(m)
        F = sparse_cholesky(M, nested_dissection(m, M))
        assert F.format == "csr"
        row = np.repeat(np.arange(m.n_nodes), np.diff(F.indptr))
        # every step within a row ascends
        assert (np.diff(F.indices) > 0)[row[1:] == row[:-1]].all()
        rng = np.random.default_rng(16)
        for z in (rng.standard_normal(m.n_nodes), rng.standard_normal((m.n_nodes, 1)),
                  rng.standard_normal((m.n_nodes, 7))):
            assert np.array_equal(F @ z, F.tocsc() @ z)

    def test_fill_below_half_of_natural_order(self):
        m = refine_uniform(refine_uniform(build_rectangle_mesh(1.0, 1.0, 16, 16)))
        M = assemble_mass(m)
        F = sparse_cholesky(M, nested_dissection(m, M))
        natural = splu(sp.csc_matrix(M), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True)).L
        assert F.nnz < 0.5 * natural.nnz

    def test_fill_below_minimum_degree(self):
        m = refine_uniform(refine_uniform(build_rectangle_mesh(np.pi, np.pi, 32, 32)))
        assert m.n_nodes == 16_641
        M = assemble_mass(m)
        F = sparse_cholesky(M, nested_dissection(m, M))
        mmd = splu(sp.csc_matrix(M), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True)).L
        assert F.nnz < mmd.nnz

    def test_rejects_indefinite(self):
        A = sp.csc_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            sparse_cholesky(A, np.arange(2))


def test_boundary_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition("robin")
    with pytest.raises(ValueError):
        BoundaryCondition("robin", -1.0)
    with pytest.raises(ValueError):
        BoundaryCondition("neumann", 1.0)
    with pytest.raises(ValueError):
        BoundaryCondition("periodic")

