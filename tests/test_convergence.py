import tracemalloc
import weakref

import numpy as np
import pytest

from whitefem.convergence import (
    _LevelContext,
    deterministic_fem_error,
    fit_rate,
    h1_error_sup_estimate,
    holder_modulus,
    hs_embedding_bound,
    l2_realization_diagnostic,
    pair_separations,
    spectral_series,
    truncation_error_closed_form,
)
import whitefem.convergence as convergence
from whitefem.fem import _SOLVE_CHUNK, FactorizedSystem, dirichlet, element_gradients, neumann, quadrature_points, robin
from whitefem.mesh import build_interval_mesh, build_rectangle_mesh, refine_uniform
from whitefem.noise import GaussianStream
from whitefem.sampling import DiscreteSolutionOperator
from whitefem.spectral import Interval, Rectangle, TruncatedValue, eigenpairs


class TestFitRate:
    def test_exact_square_law(self):
        hs = [0.4, 0.2, 0.1, 0.05]
        fit = fit_rate([(h, 3.7 * h**2) for h in hs])
        assert fit.rate == pytest.approx(2.0, abs=1e-10)
        assert fit.residual < 1e-12

    def test_constant_errors_give_zero_slope(self):
        fit = fit_rate([(h, 0.8) for h in (0.4, 0.2, 0.1)])
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_noisy_cubic_law(self):
        rng = np.random.default_rng(123)
        hs = np.geomspace(0.4, 0.0125, 6)
        levels = [(h, 2.0 * h**3 * (1.0 + 0.01 * rng.standard_normal())) for h in hs]
        fit = fit_rate(levels)
        assert 2.9 < fit.rate < 3.1

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.2, 1.0), (0.1, 0.5)])

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([(0.4, 1.0), (0.2, 0.0), (0.1, 0.1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["h", "error"])
    def test_non_finite_level_rejected(self, where, bad):
        levels = [(0.4, 1.0), (0.2, 0.3), (0.1, 0.1)]
        levels[1] = (bad, 0.3) if where == "h" else (0.2, bad)
        with pytest.raises(ValueError, match="^rate fit requires finite positive h and finite positive errors$"):
            fit_rate(levels)


class TestDeterministicFemError:
    def test_exact_inclusion_degenerates_to_zero(self):
        # replacing T_h by the exact operator kills every term
        mesh = build_rectangle_mesh(np.pi, np.pi, 4, 4)
        dom = Rectangle(np.pi, np.pi)
        basis = eigenpairs(dom, neumann(), 64)
        ctx = _LevelContext(mesh, neumann(), 1.0)
        # the exact solve at the nodes, in place of the FEM solve, in the slab's factor rows
        exact = basis.evaluate(mesh.nodes, 0, 64).T / (basis.mu[None, :64] + 1.0)
        errs = ctx.l2_errors(basis, 1.0, 0, 64, _slab(ctx, exact))
        # remaining error is only P1 interpolation of the exact solution
        raw = ctx.l2_errors(basis, 1.0, 0, 64, ctx.solutions(basis, 0, 64))
        assert (errs <= raw + 1e-15).all()

    def test_mass_comes_from_the_system(self):
        # a level's context is its mesh's one FactorizedSystem, not a wrapper of one
        ctx = _LevelContext(build_rectangle_mesh(1.0, 1.0, 4, 4), neumann(), 1.0)
        assert isinstance(ctx, FactorizedSystem)
        assert not hasattr(ctx, "system")

    def test_exact_values_at_quadrature_give_zero(self):
        # degenerate check bypassing the P1 representation entirely
        mesh = build_rectangle_mesh(np.pi, np.pi, 4, 4)
        dom = Rectangle(np.pi, np.pi)
        basis = eigenpairs(dom, neumann(), 16)
        ctx = _LevelContext(mesh, neumann(), 1.0)
        exact = basis.evaluate(_flat_points(mesh), 0, 16) / (basis.mu[:16, None] + 1.0)
        exact_q = np.moveaxis(exact.reshape(16, *ctx.qweights.shape), 0, -1)
        diff = exact_q - exact_q
        errs = np.einsum("mq,mqB->B", ctx.qweights, diff * diff)
        assert np.array_equal(errs, np.zeros(16))

    def test_error_decreases_under_refinement(self):
        dom = Rectangle(np.pi, np.pi)
        meshes = []
        mesh = build_rectangle_mesh(np.pi, np.pi, 4, 4)
        for _ in range(3):
            meshes.append(mesh)
            mesh = refine_uniform(mesh)
        rep = deterministic_fem_error(dom, neumann(), 1.0, 1.1, meshes, basis_count=512)
        errs = [lv.error_sq for lv in rep.levels]
        assert errs[0] > errs[1] > errs[2] > 0

    def test_levels_sorted_by_decreasing_h(self):
        dom = Interval(0.0, 1.0)
        meshes = [build_interval_mesh(0, 1, n) for n in (32, 8, 16)]
        rep = deterministic_fem_error(dom, dirichlet(), 1.0, 0.6, meshes, basis_count=256)
        hs = [lv.h for lv in rep.levels]
        assert hs == sorted(hs, reverse=True)

    def test_1d_dirichlet_study_runs_with_defaults(self):
        dom = Interval(0.0, 1.0)
        meshes = [build_interval_mesh(0, 1, n) for n in (8, 16, 32)]
        rep = deterministic_fem_error(dom, dirichlet(), 1.0, 0.6, meshes, basis_count=400)
        assert rep.basis_count == 400
        assert np.isfinite(rep.fitted_rate)
        assert rep.levels[0].tail_bound > 0

    def test_inadmissible_r_rejected(self):
        dom = Rectangle(1.0, 1.0)
        with pytest.raises(ValueError, match="r"):
            deterministic_fem_error(dom, neumann(), 1.0, -0.1, [build_rectangle_mesh(1, 1, 2, 2)])


def _flat_points(mesh):
    """The quadrature points of every element, one row each."""
    return quadrature_points(mesh)[0].reshape(-1, mesh.dim)


def _slab(ctx, x):
    """Node-order rows x as a slab of ctx: row r holds node ctx.rows[r], and
    the last row, which every Dirichlet node reads, is zero."""
    slab = np.zeros((ctx.n_free + 1, *x.shape[1:]))
    slab[:-1] = x[ctx.rows]
    return slab


def _unchunked_errors(ctx, basis, lam, k0, k1, load_rule=None, sols=None):
    """The error kernel as one formula over all quadrature points at once.

    load_rule selects the FEM solve; without one, the coefficients sols are
    measured as given.
    """
    m_el, q = ctx.qweights.shape
    exact = basis.evaluate(_flat_points(ctx.mesh), k0, k1).reshape(k1 - k0, m_el, q)
    pts = ctx.mesh.nodes[:, 0] if ctx.mesh.dim == 1 else ctx.mesh.nodes
    if load_rule == "interpolation":
        sols = ctx.solve(ctx.M @ basis.evaluate(pts, k0, k1).T)
    elif load_rule == "quadrature":
        loads = np.zeros((ctx.mesh.n_nodes, k1 - k0))
        local = np.einsum("qk,mq,Bmq->mkB", ctx.bary, ctx.qweights, exact)
        np.add.at(loads, ctx.mesh.elements, local)
        sols = ctx.solve(loads)
    fem_q = np.einsum("qk,mkB->mqB", ctx.bary, sols[ctx.mesh.elements])
    exact_q = np.moveaxis(exact / (basis.mu[k0:k1, None, None] + lam), 0, -1)
    diff = exact_q - fem_q
    return np.einsum("mq,mqB->B", ctx.qweights, diff * diff)


# Element counts that are not multiples of the chunk size: 13 x 9 x 2 = 234
# triangles and 300 intervals.
KERNEL_CASES = {
    "neumann": (Rectangle(np.pi, 2.0), neumann(), lambda: build_rectangle_mesh(np.pi, 2.0, 13, 9)),
    "dirichlet": (Rectangle(np.pi, 2.0), dirichlet(), lambda: build_rectangle_mesh(np.pi, 2.0, 13, 9)),
    "robin": (Rectangle(np.pi, 2.0), robin(0.6), lambda: build_rectangle_mesh(np.pi, 2.0, 13, 9)),
    "interval-robin": (Interval(0.0, 2.0), robin(1.5), lambda: build_interval_mesh(0.0, 2.0, 300)),
}


class TestChunkedErrorKernel:
    @pytest.mark.parametrize("load_rule", ["interpolation", "quadrature", "fem_apply"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_unchunked_formula(self, case, load_rule):
        domain, bc, make_mesh = KERNEL_CASES[case]
        mesh = make_mesh()
        assert mesh.n_elements % convergence._CHUNK != 0 and mesh.n_elements > convergence._CHUNK
        lam, k0, k1 = 1.3, 20, 140
        basis = eigenpairs(domain, bc, 160)
        ctx = _LevelContext(mesh, bc, lam)
        if load_rule == "fem_apply":
            # the exact solve at the nodes, in place of the FEM solve; the
            # slab holds it in factor rows, and node order reads it back
            pts = mesh.nodes[:, 0] if mesh.dim == 1 else mesh.nodes
            sols = _slab(ctx, basis.evaluate(pts, k0, k1).T / (basis.mu[None, k0:k1] + lam))
            got = ctx.l2_errors(basis, lam, k0, k1, sols)
            want = _unchunked_errors(ctx, basis, lam, k0, k1, sols=sols[ctx.node_rows])
        else:
            sols = ctx.solutions(basis, k0, k1, load_rule)
            got = ctx.l2_errors(basis, lam, k0, k1, sols)
            want = _unchunked_errors(ctx, basis, lam, k0, k1, load_rule)
        if case == "dirichlet":
            assert (ctx.node_rows[mesh.boundary_nodes()] == ctx.n_free).all()
            assert (sols[-1] == 0.0).all()
        assert np.all(want > 0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["robin", "interval-robin"])
    def test_chunk_values_are_the_mode_values(self, case):
        domain, bc, make_mesh = KERNEL_CASES[case]
        basis = eigenpairs(domain, bc, 160)
        ctx = _LevelContext(make_mesh(), bc, 1.0)
        for k0, k1 in ((0, 100), (100, 160)):
            # each chunk is copied: the next one overwrites its buffer
            chunks = [values.copy() for _, values in ctx._mode_chunks(ctx._mode_columns(basis, k0, k1))]
            got = np.concatenate(chunks).reshape(-1, k1 - k0)
            want = basis.evaluate(_flat_points(ctx.mesh), k0, k1).T
            assert got.tobytes() == want.tobytes()


class TestStreamedSolutions:
    @pytest.mark.parametrize("load_rule", ["interpolation", "quadrature"])
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_equal_the_whole_block_solve(self, case, load_rule):
        domain, bc, make_mesh = KERNEL_CASES[case]
        mesh = make_mesh()
        basis = eigenpairs(domain, bc, 150)
        ctx = _LevelContext(mesh, bc, 1.3)
        pts = mesh.nodes[:, 0] if mesh.dim == 1 else mesh.nodes
        # widths 70 and 86: neither is a multiple of the 32-column chunk;
        # width 1: one column, which both solve by the transposed sweep
        for k0, k1 in ((0, 70), (64, 150), (100, 101)):
            if load_rule == "interpolation":
                loads = ctx.M @ basis.evaluate(pts, k0, k1).T
            else:
                # the slab of loads, read back in node order
                loads = ctx.quadrature_loads(basis, k0, k1)[ctx.node_rows]
            got = ctx.solutions(basis, k0, k1, load_rule)
            want = ctx.solve(loads)
            assert got.flags.c_contiguous and got.shape == (ctx.n_free + 1, k1 - k0)
            assert got[ctx.node_rows].tobytes() == np.ascontiguousarray(want).tobytes()
            if case == "dirichlet":
                assert (got[-1] == 0.0).all()


@pytest.mark.parametrize("load_rule", ["interpolation", "quadrature"])
@pytest.mark.parametrize("bc", [neumann(), dirichlet()], ids=["neumann", "dirichlet"])
def test_one_mode_block_holds_under_two_solution_arrays(bc, load_rule):
    mesh = build_rectangle_mesh(np.pi, np.pi, 64, 64)
    basis = eigenpairs(Rectangle(np.pi, np.pi), bc, 256)
    ctx = _LevelContext(mesh, bc, 1.0)
    # factors A (and builds the quadrature scatter), which then stay out of the peak
    ctx.solutions(basis, 0, 1, load_rule)
    tracemalloc.start()
    try:
        ctx.l2_errors(basis, 1.0, 0, 256, ctx.solutions(basis, 0, 256, load_rule))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n_nodes, 256) solution array, plus working chunks
    assert peak < 2 * mesh.n_nodes * 256 * 8


@pytest.mark.parametrize("load_rule", ["interpolation", "quadrature"])
@pytest.mark.parametrize("bc", [neumann(), dirichlet()], ids=["neumann", "dirichlet"])
def test_one_mode_block_in_slabs_holds_under_two_slab_arrays(bc, load_rule):
    mesh = build_rectangle_mesh(np.pi, np.pi, 64, 64)
    basis = eigenpairs(Rectangle(np.pi, np.pi), bc, 256)
    ctx = _LevelContext(mesh, bc, 1.0)
    # factors A (and builds the quadrature scatter), which then stay out of the peak
    ctx.solutions(basis, 0, 1, load_rule)
    tracemalloc.start()
    try:
        ctx.block_errors(basis, 1.0, 0, 256, load_rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (n_nodes, 128) solution array at a time, plus working chunks
    assert peak < 2 * mesh.n_nodes * convergence._SLAB * 8


@pytest.mark.parametrize("load_rule", ["interpolation", "quadrature"])
@pytest.mark.parametrize("bc", [neumann(), dirichlet(), robin(0.6)], ids=["neumann", "dirichlet", "robin"])
def test_slab_errors_equal_the_whole_block_errors(bc, load_rule):
    # a 300-mode budget: the last block, 256..300, is partial and not a
    # multiple of the 128-mode slab
    assert convergence._SLAB % _SOLVE_CHUNK == 0
    basis = eigenpairs(Rectangle(np.pi, np.pi), bc, 300)
    mesh = build_rectangle_mesh(np.pi, np.pi, 8, 8)
    for _ in range(3):
        ctx = _LevelContext(mesh, bc, 1.0)
        for k0 in range(0, 300, convergence._BLOCK):
            k1 = min(k0 + convergence._BLOCK, 300)
            want = ctx.l2_errors(basis, 1.0, k0, k1, ctx.solutions(basis, k0, k1, load_rule))
            assert np.array_equal(ctx.block_errors(basis, 1.0, k0, k1, load_rule), want)
        mesh = refine_uniform(mesh)


def _hierarchy(domain, coarsest, levels=3):
    mesh = (build_interval_mesh(domain.a, domain.b, coarsest) if isinstance(domain, Interval)
            else build_rectangle_mesh(domain.lx, domain.ly, coarsest, coarsest))
    meshes = [mesh]
    for _ in range(levels - 1):
        mesh = refine_uniform(mesh)
        meshes.append(mesh)
    return meshes


HIERARCHY_CASES = {
    "neumann": (Rectangle(np.pi, 2.0), neumann(), 4),
    "dirichlet": (Rectangle(np.pi, 2.0), dirichlet(), 4),
    "robin": (Rectangle(np.pi, 2.0), robin(0.6), 4),
    "interval-robin": (Interval(0.0, 2.0), robin(1.5), 8),
}


@pytest.mark.parametrize("load_rule", ["interpolation", "quadrature"])
@pytest.mark.parametrize("budget", [256, 768])
@pytest.mark.parametrize("case", sorted(HIERARCHY_CASES))
def test_fixed_budget_sum_equals_per_level_totals(case, budget, load_rule):
    # contexts made up front and summed block by block, level by level: the
    # sum that builds each level on demand and drops it keeps every bit
    domain, bc, coarsest = HIERARCHY_CASES[case]
    lam, r = 1.3, 0.6
    meshes = _hierarchy(domain, coarsest)
    rep = deterministic_fem_error(domain, bc, lam, r, meshes[::-1], basis_count=budget, load_rule=load_rule)
    basis = eigenpairs(domain, bc, budget)
    weights = (1.0 + basis.mu) ** (-r)
    contexts = [_LevelContext(mesh, bc, lam) for mesh in meshes]
    want = np.zeros(len(meshes))
    for k0 in range(0, budget, convergence._BLOCK):
        k1 = min(k0 + convergence._BLOCK, budget)
        for i, ctx in enumerate(contexts):
            want[i] += float(weights[k0:k1] @ ctx.block_errors(basis, lam, k0, k1, load_rule))
    assert rep.basis_count == budget
    assert [lv.h for lv in rep.levels] == [mesh.h for mesh in meshes]
    assert np.array([lv.error_sq for lv in rep.levels]).tobytes() == want.tobytes()


def _count_live_contexts(monkeypatch):
    """Patch _LevelContext so that building one records ("built", the
    contexts alive) and each block_errors call (k0, the contexts alive);
    returns that list of records and the set of live contexts."""
    live, seen = weakref.WeakSet(), []
    init, block_errors = _LevelContext.__init__, _LevelContext.block_errors

    def counted_init(self, *args):
        init(self, *args)
        live.add(self)
        seen.append(("built", len(live)))

    def counted_block_errors(self, basis, lam, k0, k1, load_rule="interpolation"):
        seen.append((k0, len(live)))
        return block_errors(self, basis, lam, k0, k1, load_rule)

    monkeypatch.setattr(_LevelContext, "__init__", counted_init)
    monkeypatch.setattr(_LevelContext, "block_errors", counted_block_errors)
    return seen, live


def test_a_one_block_sum_holds_one_level_at_a_time(monkeypatch):
    # the benchmark's study: four levels, 8 x 8 to 64 x 64, one 256-mode block
    seen, live = _count_live_contexts(monkeypatch)
    deterministic_fem_error(Rectangle(np.pi, np.pi), neumann(), 1.0, 0.1,
                            _hierarchy(Rectangle(np.pi, np.pi), 8, 4), basis_count=256)
    assert seen == [("built", 1), (0, 1)] * 4
    # freed as they were dropped, without a garbage collection
    assert len(live) == 0


def test_a_fixed_budget_drops_each_level_after_its_last_block(monkeypatch):
    seen, live = _count_live_contexts(monkeypatch)
    deterministic_fem_error(Rectangle(np.pi, 2.0), dirichlet(), 1.3, 0.6,
                            _hierarchy(Rectangle(np.pi, 2.0), 4), basis_count=768)
    # built by the first block, kept by the second, dropped level by level in the third
    assert seen == [("built", 1), (0, 1), ("built", 2), (0, 2), ("built", 3), (0, 3),
                    (256, 3), (256, 3), (256, 3), (512, 3), (512, 2), (512, 1)]
    assert len(live) == 0


def test_an_adaptive_sum_keeps_every_level(monkeypatch):
    # the config of the CLI's adaptive test at r = 1.1, which meets the 1 %
    # rule at 2,048 modes, as it did when every level was built up front
    seen, live = _count_live_contexts(monkeypatch)
    rep = deterministic_fem_error(Interval(0.0, 1.0), neumann(), 1.0, 1.1,
                                  [build_interval_mesh(0.0, 1.0, n) for n in (4, 8, 16)])
    assert rep.basis_count == 2048
    first = [("built", 1), (0, 1), ("built", 2), (0, 2), ("built", 3), (0, 3)]
    assert seen == first + [(k0, 3) for k0 in range(256, 2048, 256) for _ in range(3)]
    assert len(live) == 0


SQUARE = Rectangle(np.pi, np.pi)


class TestTruncationError:
    def test_zero_truncation_is_total_variance(self):
        r, lam = 1.1, 1.0
        total = truncation_error_closed_form(SQUARE, neumann(), lam, r, 0)
        # the sum over the basis that spectral_series sized
        mu = eigenpairs(SQUARE, neumann(), spectral_series(SQUARE, neumann(), r, lam, 2)[0].size).mu
        expected = np.sum((1.0 + mu) ** -r * (mu + lam) ** -2.0)
        assert total.value == pytest.approx(expected)

    def test_strictly_decreasing_in_m(self):
        vals = [truncation_error_closed_form(SQUARE, neumann(), 1.0, 1.1, m).value for m in (0, 10, 40, 160, 640)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_proxy_agreement(self):
        # || X^(M) - X^(m) ||^2 over draws vs closed form of the band (m, M]
        r, lam = 1.1, 1.0
        m, M = 40, 1600
        mu = eigenpairs(SQUARE, neumann(), M).mu
        w = (1.0 + mu[m:M]) ** -r * (mu[m:M] + lam) ** -2.0
        expected = float(np.sum(w))
        n = 10_000
        draws = GaussianStream(99, 0).normals(n * (M - m)).reshape(n, M - m)
        vals = (draws**2) @ w
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) <= 4.0 * se
        # each truncation is summed over its own basis, so the band is
        # bracketed by their difference and the two tail bounds
        low, high = (truncation_error_closed_form(SQUARE, neumann(), lam, r, k) for k in (m, M))
        closed = low.value - high.value
        assert closed - high.tail_bound <= expected * (1 + 1e-12)
        assert expected <= (closed + low.tail_bound) * (1 + 1e-12)

    def test_tail_bound_dominates_remainder(self):
        mu = eigenpairs(SQUARE, neumann(), 100_000).mu
        big = np.sum((1.0 + mu) ** -1.1 * (mu + 1.0) ** -2.0)
        small_val = truncation_error_closed_form(SQUARE, neumann(), 1.0, 1.1, 0)
        assert big - small_val.value <= small_val.tail_bound

    def test_invalid_m_rejected(self):
        with pytest.raises(ValueError):
            truncation_error_closed_form(SQUARE, neumann(), 1.0, 1.1, -1)


class TestL2Diagnostic:
    def test_interval_matches_closed_form(self):
        # sum_k (k^2 + 1)^-2 = (pi/4)(coth pi + pi / sinh^2 pi) - 1/2
        partial, tail = l2_realization_diagnostic(Interval(0.0, np.pi), dirichlet(), 1.0)
        closed = (np.pi / 4.0) * (1.0 / np.tanh(np.pi) + np.pi / np.sinh(np.pi) ** 2) - 0.5
        # remainder is covered by the tail bound, up to cumsum rounding
        assert -1e-12 <= closed - partial[-1] <= tail + 1e-12
        assert tail <= 1e-3 * partial[-1]

    def test_increasing_lambda_decreases_terms(self):
        p1, _ = l2_realization_diagnostic(Interval(0.0, np.pi), dirichlet(), 1.0)
        p2, _ = l2_realization_diagnostic(Interval(0.0, np.pi), dirichlet(), 2.0)
        n = min(p1.size, p2.size)
        assert (np.diff(p2[:n]) < np.diff(p1[:n])).all()

    def test_2d_certifies_finiteness(self):
        partial, tail = l2_realization_diagnostic(SQUARE, neumann(), 1.0)
        assert np.isfinite(tail)
        assert tail < 0.01 * partial[-1]

    def test_matches_monte_carlo_l2_mass(self):
        # E ||X_h||_L2^2 on a fine mesh vs the spectral series, within 5%
        partial, tail = l2_realization_diagnostic(SQUARE, neumann(), 1.0)
        series = partial[-1]
        mesh = build_rectangle_mesh(np.pi, np.pi, 32, 32)
        op = DiscreteSolutionOperator(mesh, neumann(), 1.0)
        n = 2000
        B = op.sampler.sample_batch(GaussianStream(7, 0), n)
        C = op.solve_free(B[op.free])
        vals = np.einsum("ij,ij->j", C, op.M_free @ C)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - series) <= 0.05 * series + 4.0 * se


def _l2_total(domain, bc):
    partial, tail = l2_realization_diagnostic(domain, bc, 1.0)
    return TruncatedValue(float(partial[-1]), tail)


# name: (value and tail bound of a domain and condition, r, lam, p, start) of each series spectral_series sizes
SERIES = {
    "truncation": (lambda domain, bc: truncation_error_closed_form(domain, bc, 1.0, 0.6, 160), 0.6, 1.0, 2, 160),
    "l2": (_l2_total, 0.0, 1.0, 2, 0),
    "hs-embedding": (lambda domain, bc: hs_embedding_bound(domain, bc, 1.1), 2.1, 1.0, 0, 0),
}


@pytest.mark.parametrize("bc", [neumann(), dirichlet(), robin(0.5)], ids=["neumann", "dirichlet", "robin"])
@pytest.mark.parametrize("series", sorted(SERIES))
def test_bracket_contains_a_larger_basis_sum(series, bc):
    call, r, lam, p, start = SERIES[series]
    got = call(SQUARE, bc)
    mu = eigenpairs(SQUARE, bc, 1 << 17).mu[start:]
    big = float(np.sum((1.0 + mu) ** -r * (mu + lam) ** -p))
    assert got.tail_bound <= 1e-3 * got.value
    assert got.value * (1 - 1e-12) <= big <= (got.value + got.tail_bound) * (1 + 1e-12)


def test_series_basis_doubles_from_256_until_the_tail_is_small(monkeypatch):
    sizes = []
    monkeypatch.setattr(convergence, "eigenpairs", lambda d, bc, n: sizes.append(n) or eigenpairs(d, bc, n))
    terms, tail = spectral_series(SQUARE, dirichlet(), 0.0, 1.0, 2)
    assert sizes == [256, 512, 1024, 2048, 4096] and terms.size == 4096
    assert tail <= 1e-3 * np.sum(terms)
    sizes.clear()
    terms, _ = spectral_series(SQUARE, dirichlet(), 0.6, 1.0, 2, start=300)
    assert sizes[0] == 301 and [b / a for a, b in zip(sizes, sizes[1:])] == [2] * (len(sizes) - 1)
    sizes.clear()
    monkeypatch.setattr(convergence, "_SERIES_CAP", 1000)
    terms, tail = spectral_series(SQUARE, dirichlet(), 0.0, 1.0, 2)
    assert sizes == [256, 512, 1000] and tail > 1e-3 * np.sum(terms)


def test_divergent_series_returns_its_first_basis(monkeypatch):
    # r + p = 1 = dim / 2: the tail bound is infinite at every basis size
    terms, tail = spectral_series(SQUARE, neumann(), 1.0, 1.0, 0)
    assert terms.size == 256 and tail == np.inf
    assert hs_embedding_bound(SQUARE, neumann(), 0.0).tail_bound == np.inf
    # a NaN bound returns too
    monkeypatch.setattr(convergence, "spectral_tail_bound", lambda *args: float("nan"))
    terms, tail = spectral_series(SQUARE, neumann(), 2.1, 1.0, 0)
    assert terms.size == 256 and np.isnan(tail)


@pytest.fixture(scope="module")
def op():
    return DiscreteSolutionOperator(build_rectangle_mesh(np.pi, np.pi, 16, 16), neumann(), 1.0)


class TestHolder:
    def test_coincident_pair_rejected(self, op):
        pairs = [((1.0, 1.0), (1.0, 1.0))] * 5
        with pytest.raises(ValueError, match="coincident"):
            holder_modulus(op, pairs)

    def test_needs_decade_span(self, op):
        x0 = np.array([1.5, 1.5])
        pairs = [(tuple(x0), tuple(x0 + [s, 0])) for s in np.linspace(0.2, 0.4, 6)]
        with pytest.raises(ValueError, match="decade"):
            holder_modulus(op, pairs)

    def test_swap_invariance(self, op):
        x0 = np.array([1.5, 1.5])
        seps = np.geomspace(0.05, 1.0, 6)
        pairs = [(tuple(x0), tuple(x0 + [s, 0])) for s in seps]
        swapped = [(b, a) for a, b in pairs]
        f1 = holder_modulus(op, pairs)
        f2 = holder_modulus(op, swapped)
        assert f1.alpha == pytest.approx(f2.alpha, abs=1e-11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_point_rejected(self, side, bad):
        x0 = np.array([1.5, 1.5])
        pairs = [[tuple(x0), tuple(x0 + [s, 0])] for s in np.geomspace(0.05, 1.0, 6)]
        pairs[2][side] = (1.5, bad)
        with pytest.raises(ValueError, match="non-finite coordinate"):
            pair_separations(pairs)

    def test_overflowing_separation_rejected(self):
        pairs = [((0.0, 0.0), (s, 0.0)) for s in np.geomspace(0.05, 1.0, 6)] + [((-1e308, 0.0), (1e308, 0.0))]
        with pytest.raises(ValueError, match="overflowing separation"), np.errstate(over="ignore"):
            pair_separations(pairs)

    def test_needs_five_pairs(self, op):
        with pytest.raises(ValueError):
            holder_modulus(op, [((0.5, 0.5), (1.0, 1.0))] * 4)


class TestUpperBound:
    def test_hs_embedding_bound_converged(self):
        dom = Rectangle(np.pi, np.pi)
        hs = hs_embedding_bound(dom, neumann(), 1.1)
        big = float(np.sum((1.0 + eigenpairs(dom, neumann(), 8000).mu) ** -2.1))
        assert big - hs.value <= hs.tail_bound
        assert big >= hs.value

    def test_sup_estimate_decreases_under_refinement(self):
        dom = Rectangle(np.pi, np.pi)
        m1 = build_rectangle_mesh(np.pi, np.pi, 8, 8)
        m2 = refine_uniform(m1)
        s1 = h1_error_sup_estimate(dom, neumann(), 1.0, m1)
        s2 = h1_error_sup_estimate(dom, neumann(), 1.0, m2)
        assert s2 < s1

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_sup_estimate_matches_all_at_once_formula(self, case):
        domain, bc, make_mesh = KERNEL_CASES[case]
        mesh = make_mesh()
        got = h1_error_sup_estimate(domain, bc, 1.3, mesh, n_loads=90)
        want = _all_at_once_h1_sup(domain, bc, 1.3, mesh, 90)
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def _all_at_once_h1_sup(domain, bc, lam, mesh, n_loads):
    """h1_error_sup_estimate as one formula over all quadrature points, with
    every mode's gradient evaluated at every point."""
    basis = eigenpairs(domain, bc, n_loads)
    ctx = _LevelContext(mesh, bc, lam)
    sols = ctx.solutions(basis, 0, n_loads, load_rule="quadrature")
    val_part = ctx.l2_errors(basis, lam, 0, n_loads, sols)
    pts = _flat_points(mesh)
    if mesh.dim == 1:
        grad = basis.evaluate_deriv(pts[:, 0])[:, :, None]
    else:
        bx, by = basis.basis_x, basis.basis_y
        ex, ey = bx.evaluate(pts[:, 0])[basis.ix], by.evaluate(pts[:, 1])[basis.iy]
        dex, dey = bx.evaluate_deriv(pts[:, 0])[basis.ix], by.evaluate_deriv(pts[:, 1])[basis.iy]
        grad = np.stack([dex * ey, ex * dey], axis=-1)
    m_el, q = ctx.qweights.shape
    exact_grad = (grad / (basis.mu[:, None, None] + lam)).reshape(n_loads, m_el, q, mesh.dim)
    fem_grad = np.einsum("mkd,mkB->mdB", element_gradients(mesh), sols[ctx.node_rows][mesh.elements])
    gdiff = np.moveaxis(exact_grad, 0, -1) - fem_grad[:, None, :, :]  # (m, q, d, B)
    grad_part = np.einsum("mq,mqdB->B", ctx.qweights, gdiff * gdiff)
    return float(np.max(val_part + grad_part))


class TestMcDeterministicAgreement:
    def test_sampled_moments_match_closed_formula(self):
        # E || X^(M) - X_h^(M) ||^2 in the J-mode truncated H^{-r} seminorm:
        # the sampled mean against the same seminorm evaluated by backsolves.
        # Matching the seminorm on both sides makes the identity exact in
        # expectation, so 4 standard errors is the whole tolerance.
        r, lam = 1.1, 1.0
        M, J, n = 96, 512, 600
        mesh = build_rectangle_mesh(np.pi, np.pi, 16, 16)
        dom = Rectangle(np.pi, np.pi)
        bc = neumann()
        basis = eigenpairs(dom, bc, J)
        ctx = _LevelContext(mesh, bc, lam)

        modes_q = basis.evaluate(_flat_points(mesh), 0, J)  # (J, nq)
        loads = ctx.quadrature_loads(basis, 0, J)[ctx.node_rows]  # (n_nodes, J), from the slab
        w_q = ctx.qweights.ravel()
        weights = (1.0 + basis.mu) ** -r

        # deterministic: c[j, k] = delta_jk/(mu_k+lam) - <T_h e_k, e_j>
        sols = ctx.solve(loads[:, :M])  # (n_nodes, M)
        fem_q = np.einsum("qk,mkB->mqB", ctx.bary, sols[mesh.elements]).reshape(-1, M)
        pair = modes_q @ (w_q[:, None] * fem_q)  # (J, M)
        c = -pair
        c[np.arange(M), np.arange(M)] += 1.0 / (basis.mu[:M] + lam)
        det = float(weights @ np.sum(c * c, axis=1))

        stream = GaussianStream(2024, 0)
        vals = np.empty(n)
        for i in range(n):
            xi = stream.normals(M)
            X = ctx.solve(loads[:, :M] @ xi)
            xq = np.einsum("qk,mk->mq", ctx.bary, X[mesh.elements]).ravel()
            coeff = modes_q @ (w_q * xq)  # <X_h, e_j> for j < J
            delta = -coeff
            delta[:M] += xi / (basis.mu[:M] + lam)
            vals[i] = weights @ delta**2
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - det) <= 4.0 * se
