import numpy as np
import pytest
from scipy.special import ndtri

from whitefem.fem import FemFunction, assemble_mass
from whitefem.mesh import build_interval_mesh, build_rectangle_mesh, read_mesh, refine_uniform
from whitefem.noise import (
    GaussianStream,
    _normals_from_raw,
    LoadSampler,
    sample_spectral_truncation,
    white_noise_functional,
)
from whitefem.fem import dirichlet, neumann
from whitefem.spectral import Interval, Rectangle, SpectralField, eigenpairs, sobolev_norm

# first three normals of stream (seed=42, stream_id=0); the Philox +
# inverse-CDF generation scheme is frozen, so these values are permanent
GOLDEN_NORMALS_42_0 = [0.9161204856345226, -0.8806796243156723, 1.1154015859369766]


class TestGaussianStream:
    def test_reproducible_bit_for_bit(self):
        a = GaussianStream(7, 3).normals(64)
        b = GaussianStream(7, 3).normals(64)
        assert np.array_equal(a, b)

    def test_golden_values(self):
        got = GaussianStream(42, 0).normals(3)
        assert np.array_equal(got, np.array(GOLDEN_NORMALS_42_0))

    def test_counter_state_resumes(self):
        s = GaussianStream(5, 1)
        whole = s.normals(10)
        s2 = GaussianStream(5, 1, counter=4)
        assert np.array_equal(whole[4:], s2.normals(6))

    def test_split_draws_concatenate(self):
        s = GaussianStream(9, 2)
        parts = np.concatenate([s.normals(3), s.normals(1), s.normals(5)])
        assert np.array_equal(parts, GaussianStream(9, 2).normals(9))

    def test_distinct_streams_differ(self):
        a = GaussianStream(7, 0).normals(1000)
        b = GaussianStream(7, 1).normals(1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.12

    def test_substream(self):
        s = GaussianStream(3, 10, counter=99)
        sub = s.substream(5)
        assert (sub.seed, sub.stream_id, sub.counter) == (3, 15, 0)

    def test_moments_reasonable(self):
        z = GaussianStream(123, 0).normals(200_000)
        assert abs(z.mean()) < 4.0 / np.sqrt(200_000)
        assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / 200_000)

    def test_top_raw_word_gives_a_finite_normal(self):
        # top 53 bits all ones: (m + 1/2) 2^-53 rounds to 1.0, clamped below 1
        raw = np.array([2**64 - 1, 2**64 - 2**11 - 1], dtype=np.uint64)
        z = _normals_from_raw(raw)
        assert np.isfinite(z).all()
        assert z[0] == ndtri(np.nextafter(1.0, 0.0))
        assert z[1] == pytest.approx(8.126, abs=1e-3)
        assert z[0] > z[1]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            GaussianStream(0, 0).normals(-1)


class TestLoadSampling:
    def test_determinism_contract(self):
        m = build_rectangle_mesh(1.0, 1.0, 3, 3)
        M = assemble_mass(m)
        s1 = LoadSampler(m, M).sample(GaussianStream(42, 0))
        s2 = LoadSampler(m, M).sample(GaussianStream(42, 0))
        assert np.array_equal(s1.b, s2.b)
        assert (s1.seed, s1.stream_id) == (42, 0)

    def test_determinism_of_the_factor(self):
        m = refine_uniform(build_rectangle_mesh(1.0, 2.0, 5, 3))
        M = assemble_mass(m)
        a, b = LoadSampler(m, M), LoadSampler(m, assemble_mass(m))
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(a.chol, attr), getattr(b.chol, attr))
        assert np.array_equal(a.sample(GaussianStream(5, 2)).b, b.sample(GaussianStream(5, 2)).b)
        assert np.array_equal(a.sample_batch(GaussianStream(6, 1), 4),
                              b.sample_batch(GaussianStream(6, 1), 4))

    def test_stream_advances_by_node_count(self):
        m = build_interval_mesh(0, 1, 8)
        stream = GaussianStream(1, 0)
        LoadSampler(m, assemble_mass(m)).sample(stream)
        assert stream.counter == 9

    def test_zero_mean(self):
        m = build_interval_mesh(0.0, 1.0, 8)
        M = assemble_mass(m)
        sampler = LoadSampler(m, M)
        n = 100_000
        B = sampler.sample_batch(GaussianStream(11, 0), n)
        se = 4.0 * np.sqrt(M.diagonal() / n)
        assert (np.abs(B.mean(axis=1)) <= se).all()

    def test_endpoint_variance_single_element(self):
        m = build_interval_mesh(0.0, 1.0, 1)   # M = (1/6)[[2,1],[1,2]]
        sampler = LoadSampler(m, assemble_mass(m))
        n = 200_000
        B = sampler.sample_batch(GaussianStream(4, 0), n)
        var = (B**2).mean(axis=1)
        se = 4.0 * np.sqrt(2.0 / n) * (1.0 / 3.0)
        assert np.abs(var - 1.0 / 3.0).max() <= se

    def test_covariance_matches_mass_matrix(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)  # 9 nodes
        M = assemble_mass(m).toarray()
        sampler = LoadSampler(m, assemble_mass(m))
        n = 100_000
        B = sampler.sample_batch(GaussianStream(21, 0), n)
        C = (B @ B.T) / n
        se = 4.0 * np.sqrt((np.outer(M.diagonal(), M.diagonal()) + M**2) / n)
        frac = np.mean(np.abs(C - M) <= se)
        assert frac >= 0.95

    def test_batch_equals_sequential(self):
        m = build_interval_mesh(0, 1, 5)
        M = assemble_mass(m)
        sampler = LoadSampler(m, M)
        batch = sampler.sample_batch(GaussianStream(8, 0), 3)
        seq_stream = GaussianStream(8, 0)
        for j in range(3):
            s = sampler.sample(seq_stream)
            assert np.array_equal(batch[:, j], s.b)


# Hexagon around a centre node: six counterclockwise triangles and six facets.
_HEXAGON = """2 7 6 6
0 0
1 0
0.5 0.8660254037844386
-0.5 0.8660254037844386
-1 0
-0.5 -0.8660254037844386
0.5 -0.8660254037844386
0 1 2
0 2 3
0 3 4
0 4 5
0 5 6
0 6 1
1 2 0
2 3 0
3 4 0
4 5 0
5 6 0
6 1 0
"""


def _hexagon(tmp_path):
    path = tmp_path / "hexagon.txt"
    path.write_text(_HEXAGON)
    return refine_uniform(refine_uniform(read_mesh(path)))


class TestLoadFactor:
    @pytest.mark.parametrize("mesh", ["interval", "rectangle", "refined", "polygon"])
    def test_square_root_of_mass_matrix(self, mesh, tmp_path):
        m = {
            "interval": lambda: build_interval_mesh(0.0, 2.0, 37),
            "rectangle": lambda: build_rectangle_mesh(np.pi, 1.0, 9, 4),
            "refined": lambda: refine_uniform(refine_uniform(build_rectangle_mesh(1.0, 1.0, 6, 5))),
            "polygon": lambda: _hexagon(tmp_path),
        }[mesh]()
        M = assemble_mass(m)
        F = LoadSampler(m, M).chol
        assert F.shape == (m.n_nodes, m.n_nodes)
        assert np.abs((F @ F.T - M).toarray()).max() <= 1e-14 * np.abs(M).max()


class TestSpectralTruncation:
    def test_zero_truncation(self):
        basis = eigenpairs(Interval(0, 1), dirichlet(), 10)
        f = sample_spectral_truncation(basis, 0, GaussianStream(0, 0))
        assert f.truncation == 0

    def test_exceeding_basis_rejected(self):
        basis = eigenpairs(Interval(0, 1), dirichlet(), 4)
        with pytest.raises(ValueError):
            sample_spectral_truncation(basis, 5, GaussianStream(0, 0))

    def test_coefficients_are_iid_standard_normal(self):
        basis = eigenpairs(Rectangle(1, 1), neumann(), 5)
        n = 100_000
        stream = GaussianStream(31, 0)
        draws = stream.normals(5 * n).reshape(n, 5)
        C = draws.T @ draws / n
        se = 4.0 * np.sqrt((np.eye(5) + 1.0) / n)
        assert (np.abs(C - np.eye(5)) <= se).all()

    def test_sobolev_norm_expectation(self):
        basis = eigenpairs(Interval(0, np.pi), dirichlet(), 30)
        expected = np.sum((1.0 + basis.mu) ** -2.0)
        n = 20_000
        stream = GaussianStream(17, 0)
        vals = np.empty(n)
        draws = stream.normals(30 * n).reshape(n, 30)
        w = (1.0 + basis.mu) ** -2.0
        vals = (draws**2) @ w
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) <= 4.0 * se
        # spot check that the vectorized statistic matches sobolev_norm
        f = SpectralField(basis, draws[0])
        assert sobolev_norm(f, -2.0) ** 2 == pytest.approx(vals[0])


class TestWhiteNoiseFunctional:
    def test_zero_test_function(self):
        m = build_interval_mesh(0, 1, 4)
        sample = LoadSampler(m, assemble_mass(m)).sample(GaussianStream(0, 0))
        phi = FemFunction(m, np.zeros(5))
        assert white_noise_functional(phi, sample) == 0.0

    def test_variance_is_l2_norm_squared(self):
        m = build_rectangle_mesh(1.0, 1.0, 2, 2)
        M = assemble_mass(m)
        sampler = LoadSampler(m, M)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(m.n_nodes)
        target = v @ (M @ v)
        n = 100_000
        B = sampler.sample_batch(GaussianStream(13, 0), n)
        vals = v @ B
        se = np.sqrt(2.0 / n) * target
        assert abs((vals**2).mean() - target) <= 4.0 * se

    def test_bilinearity_exact_per_sample(self):
        m = build_interval_mesh(0, 2, 6)
        sample = LoadSampler(m, assemble_mass(m)).sample(GaussianStream(5, 0))
        rng = np.random.default_rng(0)
        u = FemFunction(m, rng.standard_normal(7))
        v = FemFunction(m, rng.standard_normal(7))
        lhs = white_noise_functional(u + v, sample)
        rhs = white_noise_functional(u, sample) + white_noise_functional(v, sample)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_spectral_pairing(self):
        basis = eigenpairs(Interval(0, 1), neumann(), 8)
        noise = sample_spectral_truncation(basis, 8, GaussianStream(6, 0))
        phi = SpectralField(basis, np.arange(1.0, 6.0))
        val = white_noise_functional(phi, noise)
        assert val == pytest.approx(float(phi.coefficients @ noise.coefficients[:5]))

    def test_representation_mismatch_rejected(self):
        m = build_interval_mesh(0, 1, 4)
        basis = eigenpairs(Interval(0, 1), dirichlet(), 4)
        noise = sample_spectral_truncation(basis, 4, GaussianStream(0, 0))
        phi = FemFunction(m, np.zeros(5))
        with pytest.raises(ValueError, match="incompatible"):
            white_noise_functional(phi, noise)

    def test_truncation_shorter_than_test_function_rejected(self):
        basis = eigenpairs(Interval(0, 1), dirichlet(), 8)
        noise = sample_spectral_truncation(basis, 3, GaussianStream(0, 0))
        phi = SpectralField(basis, np.ones(5))
        with pytest.raises(ValueError, match="truncated"):
            white_noise_functional(phi, noise)
