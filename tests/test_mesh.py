import numpy as np
import pytest

from whitefem.mesh import (
    Mesh,
    build_interval_mesh,
    build_rectangle_mesh,
    read_mesh,
    refine_uniform,
    write_mesh,
)


def test_interval_equispacing():
    m = build_interval_mesh(0.0, 1.0, 4)
    assert np.allclose(m.nodes.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert m.h == pytest.approx(0.25)
    assert m.n_elements == 4
    assert m.n_facets == 2


def test_interval_minimal_mesh():
    m = build_interval_mesh(0.0, 1.0, 1)
    assert m.n_nodes == 2
    assert m.n_elements == 1
    assert m.n_facets == 2


def test_interval_rejects_bad_input():
    with pytest.raises(ValueError):
        build_interval_mesh(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        build_interval_mesh(0.0, 1.0, 0)


def test_rectangle_counts():
    m = build_rectangle_mesh(np.pi, np.pi, 2, 2)
    assert m.n_nodes == 9
    assert m.n_elements == 8
    assert m.n_facets == 8


def test_rectangle_unit_square_area():
    m = build_rectangle_mesh(1.0, 1.0, 1, 1)
    assert m.n_nodes == 4
    assert m.n_elements == 2
    assert m.element_measures().sum() == pytest.approx(1.0, abs=1e-15)


def test_rectangle_partition_of_domain():
    m = build_rectangle_mesh(np.pi, np.pi, 8, 8)
    assert m.element_measures().sum() == pytest.approx(np.pi**2, rel=1e-12)


def test_rectangle_rejects_bad_input():
    with pytest.raises(ValueError):
        build_rectangle_mesh(-1.0, 1.0, 2, 2)
    with pytest.raises(ValueError):
        build_rectangle_mesh(1.0, 1.0, 0, 2)


def test_refine_interval():
    m = build_interval_mesh(0.0, 1.0, 4)
    fine = refine_uniform(m)
    assert fine.n_elements == 8
    assert fine.h == pytest.approx(m.h / 2.0, rel=1e-14)


def test_refine_rectangle_counts_and_h():
    m = build_rectangle_mesh(np.pi, np.pi, 2, 2)
    fine = refine_uniform(m)
    assert fine.n_elements == 32
    assert fine.h == pytest.approx(m.h / 2.0, rel=1e-14)
    finer = refine_uniform(fine)
    assert finer.n_elements == 128


@pytest.mark.parametrize(
    "mesh",
    [refine_uniform(build_rectangle_mesh(np.pi, 2.0, 3, 5)),
     refine_uniform(build_interval_mesh(-1.0, 2.5, 7))],
    ids=["refined-rectangle", "interval"],
)
def test_h_is_cached_and_equals_the_max_element_diameter(mesh):
    pts = mesh.nodes[mesh.elements]
    edges = [pts[:, (i + 1) % (mesh.dim + 1)] - pts[:, i] for i in range(mesh.dim + 1)]
    expected = max(float(np.linalg.norm(e, axis=1).max()) for e in edges)
    assert mesh.h == expected
    assert mesh.__dict__["h"] == expected
    assert mesh.h is mesh.h


def test_refine_preserves_area():
    m = build_rectangle_mesh(np.pi, np.pi, 4, 4)
    for _ in range(2):
        m = refine_uniform(m)
        assert m.element_measures().sum() == pytest.approx(np.pi**2, rel=1e-12)


@pytest.mark.parametrize("levels", [0, 1, 2])
def test_boundary_nodes_lie_on_boundary(levels):
    m = build_rectangle_mesh(2.0, 3.0, 3, 2)
    for _ in range(levels):
        m = refine_uniform(m)
    pts = m.nodes[m.boundary_nodes()]
    on_edge = (
        (np.abs(pts[:, 0]) < 1e-12)
        | (np.abs(pts[:, 0] - 2.0) < 1e-12)
        | (np.abs(pts[:, 1]) < 1e-12)
        | (np.abs(pts[:, 1] - 3.0) < 1e-12)
    )
    assert on_edge.all()


def test_triangles_positive_area_everywhere():
    m = refine_uniform(build_rectangle_mesh(1.0, 2.0, 3, 5))
    assert (m.element_measures() > 0).all()


def test_mesh_validation_rejects_bad_indices():
    with pytest.raises(ValueError, match="out of range"):
        Mesh(1, [[0.0], [1.0]], [[0, 2]], [[0], [1]], [0, 1])


def test_mesh_validation_rejects_clockwise_triangle():
    with pytest.raises(ValueError, match=r"^element 0 has nonpositive measure -0\.5$"):
        Mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0])


def test_mesh_validation_rejects_wrong_boundary():
    # interior edge declared as boundary
    nodes = [[0, 0], [1, 0], [1, 1], [0, 1]]
    elements = [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(ValueError, match="boundary"):
        Mesh(2, nodes, elements, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]], [0, 1, 2, 3, 0])


def test_mesh_validation_rejects_facet_shared_by_three_elements():
    # segments (0,1), (0,2), (0,3) all end at node 0
    with pytest.raises(ValueError, match="^a facet is shared by more than two elements$"):
        Mesh(1, [[0.0], [1.0], [2.0], [3.0]], [[0, 1], [0, 2], [0, 3]], [[1], [2], [3]], [0, 0, 0])
    # edge (0, 1) lies on three counterclockwise triangles
    nodes = [[0, 0], [1, 0], [0, 1], [0.5, 1], [0.5, -1]]
    elements = [[0, 1, 2], [0, 1, 3], [1, 0, 4]]
    facets = [[1, 2], [2, 0], [1, 3], [3, 0], [0, 4], [4, 1]]
    with pytest.raises(ValueError, match="^a facet is shared by more than two elements$"):
        Mesh(2, nodes, elements, facets, [0] * 6)


@pytest.mark.parametrize(
    "dim, facets, counts",
    [
        (1, [[0]], "1 declared vs 2 actual"),
        (1, [[0], [3], [1]], "3 declared vs 2 actual"),
        (2, [[0, 1], [1, 2], [2, 3]], "3 declared vs 4 actual"),
        (2, [[0, 1], [1, 2], [2, 3], [3, 0], [2, 0]], "5 declared vs 4 actual"),
    ],
)
def test_mesh_validation_rejects_missing_or_extra_facet(dim, facets, counts):
    if dim == 1:
        nodes, elements = [[0.0], [1.0], [2.0], [3.0]], [[0, 1], [1, 2], [2, 3]]
    else:
        nodes, elements = [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    message = "^declared boundary facets do not cover the topological boundary: " + counts + "$"
    with pytest.raises(ValueError, match=message):
        Mesh(dim, nodes, elements, facets, [0] * len(facets))


def test_mesh_validation_accepts_facets_in_any_node_order():
    nodes, elements = [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    m = Mesh(2, nodes, elements, [[1, 0], [2, 1], [3, 2], [0, 3]], [0, 1, 2, 3])
    assert m.n_facets == 4


def test_mesh_file_roundtrip_bit_identical(tmp_path):
    m = refine_uniform(build_rectangle_mesh(np.pi, np.e, 3, 2))
    p1 = tmp_path / "mesh.txt"
    write_mesh(m, p1)
    back = read_mesh(p1)
    assert np.array_equal(back.nodes, m.nodes)
    assert np.array_equal(back.elements, m.elements)
    assert np.array_equal(back.facet_nodes, m.facet_nodes)
    assert np.array_equal(back.facet_sides, m.facet_sides)
    p2 = tmp_path / "again.txt"
    write_mesh(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_file_roundtrip_1d(tmp_path):
    m = build_interval_mesh(-1.5, 2.5, 7)
    path = tmp_path / "line.txt"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.nodes, m.nodes)
    assert back.dim == 1


def test_read_mesh_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 0\n")
    with pytest.raises(ValueError):
        read_mesh(path)


# -- loop references for the vectorized generators ---------------------------


def _rectangle_loop(lx, ly, nx, ny):
    xs, ys = np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    elements = []
    for iy in range(ny):
        for ix in range(nx):
            ll, lr, ul, ur = nid(ix, iy), nid(ix + 1, iy), nid(ix, iy + 1), nid(ix + 1, iy + 1)
            elements += [(ll, lr, ur), (ll, ur, ul)]
    facets = [(nid(ix, 0), nid(ix + 1, 0)) for ix in range(nx)]
    facets += [(nid(nx, iy), nid(nx, iy + 1)) for iy in range(ny)]
    facets += [(nid(ix, ny), nid(ix - 1, ny)) for ix in range(nx, 0, -1)]
    facets += [(nid(0, iy), nid(0, iy - 1)) for iy in range(ny, 0, -1)]
    sides = [0] * nx + [1] * ny + [2] * nx + [3] * ny
    return Mesh(2, nodes, np.array(elements), np.array(facets), np.array(sides))


def _refine_loop(mesh):
    n0 = mesh.n_nodes
    if mesh.dim == 1:
        mids = 0.5 * (mesh.nodes[mesh.elements[:, 0]] + mesh.nodes[mesh.elements[:, 1]])
        elements = []
        for e, (i, j) in enumerate(mesh.elements):
            elements += [(i, n0 + e), (n0 + e, j)]
        return Mesh(1, np.vstack([mesh.nodes, mids]), np.array(elements), mesh.facet_nodes,
                    mesh.facet_sides)
    midpoint, coords = {}, []

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = n0 + len(coords)
            coords.append(0.5 * (mesh.nodes[i] + mesh.nodes[j]))
        return midpoint[key]

    elements = []
    for a, b, c in mesh.elements.tolist():
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        elements += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
    facets, sides = [], []
    for (i, j), s in zip(mesh.facet_nodes.tolist(), mesh.facet_sides.tolist()):
        m = mid(i, j)
        facets += [(i, m), (m, j)]
        sides += [s, s]
    return Mesh(2, np.vstack([mesh.nodes, coords]), np.array(elements), np.array(facets),
                np.array(sides))


def _assert_same_mesh(a, b):
    for name in ("nodes", "elements", "facet_nodes", "facet_sides"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), name


_PENTAGON = """2 6 5 5
0 0
1 0
1.5 0.8
0.5 1.4
-0.5 0.8
0.4 0.6
0 1 5
1 2 5
2 3 5
3 4 5
4 0 5
0 1 0
1 2 1
2 3 2
3 4 3
4 0 4
"""


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 2), (8, 8)])
def test_rectangle_matches_loop_reference(nx, ny):
    _assert_same_mesh(build_rectangle_mesh(np.pi, np.e, nx, ny), _rectangle_loop(np.pi, np.e, nx, ny))


@pytest.mark.parametrize("mesh", ["rectangle", "interval", "polygon"])
def test_refinement_matches_loop_reference(mesh, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(_PENTAGON)
    mesh = {
        "rectangle": lambda: build_rectangle_mesh(np.pi, 2.0, 5, 3),
        "interval": lambda: build_interval_mesh(-1.0, np.e, 5),
        "polygon": lambda: read_mesh(path),
    }[mesh]()
    fast = slow = mesh
    for _ in range(3):
        fast, slow = refine_uniform(fast), _refine_loop(slow)
        _assert_same_mesh(fast, slow)
