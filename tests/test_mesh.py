import dataclasses
import re

import numpy as np
import pytest

from whitefem.fem import element_gradients, locate_points, quadrature_points, reference_quadrature
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
    assert m.element_measures.sum() == pytest.approx(1.0, abs=1e-15)


def test_rectangle_partition_of_domain():
    m = build_rectangle_mesh(np.pi, np.pi, 8, 8)
    assert m.element_measures.sum() == pytest.approx(np.pi**2, rel=1e-12)


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
        assert m.element_measures.sum() == pytest.approx(np.pi**2, rel=1e-12)


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
    assert (m.element_measures > 0).all()


@pytest.mark.parametrize("mesh", [refine_uniform(build_rectangle_mesh(1.5, 2.0, 3, 5)),
                                  build_interval_mesh(-1.0, 2.0, 7)], ids=["rectangle", "interval"])
def test_element_measures_computed_once_and_read_only(mesh):
    meas = mesh.element_measures
    assert mesh.element_measures is meas
    assert not meas.flags.writeable
    with pytest.raises(ValueError):
        meas[0] = 1.0
    pts = mesh.nodes[mesh.elements]
    if mesh.dim == 1:
        want = pts[:, 1, 0] - pts[:, 0, 0]
    else:
        (ax, ay), (bx, by), (cx, cy) = (pts[:, i].T for i in range(3))
        want = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
    assert np.array_equal(meas, want)


def test_mesh_validation_rejects_bad_indices():
    with pytest.raises(ValueError, match="out of range"):
        Mesh(1, [[0.0], [1.0]], [[0, 2]], [[0], [1]], [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_validation_rejects_non_finite_nodes(bad):
    with pytest.raises(ValueError, match="^node coordinates must be finite$"):
        Mesh(2, [[0, 0], [1, 0], [0, bad]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0])
    # an infinite side left nested dissection looping, once the mesh was built
    with pytest.raises(ValueError, match="^node coordinates must be finite$"), np.errstate(invalid="ignore"):
        build_rectangle_mesh(abs(bad), 1.0, 4, 4)


def test_mesh_validation_rejects_clockwise_triangle():
    with pytest.raises(ValueError, match=r"^element 0 has nonpositive measure -0\.5$"):
        Mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 2, 1]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0])


@pytest.mark.parametrize("corners, measure", [
    # 1e200 * 2e200 and 1e200 * 1e200 both overflow: inf - inf is NaN
    ([[0, 0], [1e200, 1e200], [1e200, 2e200]], "nan"),
    ([[0, 0], [1e200, 0], [0, 1e200]], "inf"),
])
def test_mesh_validation_rejects_an_overflowing_measure(corners, measure):
    with pytest.raises(ValueError, match=rf"^element 0 has non-finite measure {measure}$"), \
            np.errstate(over="ignore", invalid="ignore"):
        Mesh(2, corners, [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0])


def test_h_and_location_on_a_mesh_whose_squared_edges_overflow():
    # the longest edge is 1e160 long, but its square, 1e320, overflows
    mesh = Mesh(2, [[0, 0], [1e160, 0], [0, 1e-160]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0])
    assert np.isfinite(mesh.h)
    assert mesh.h == pytest.approx(1e160, rel=1e-15)
    idx, weights = locate_points(mesh, [(5e159, 1e-161)])
    assert idx.tolist() == [[0, 1, 2]]
    np.testing.assert_allclose(weights[0], [0.4, 0.5, 0.1], rtol=1e-12)
    # outside by half the longest edge, far beyond the 1e-12 h tolerance
    with pytest.raises(ValueError, match="is outside the mesh"):
        locate_points(mesh, [(-5e159, 0.0)])


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


@pytest.mark.parametrize("dim, facets, message", [
    (2, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 1]], r"facet \[0, 1\] is declared twice, as boundary facets 0 and 4"),
    (2, [[0, 1], [1, 2], [2, 3], [3, 0], [1, 0]], r"facet \[1, 0\] is declared twice, as boundary facets 0 and 4"),
    (2, [[1, 0], [2, 1], [2, 3], [1, 2], [0, 3]], r"facet \[1, 2\] is declared twice, as boundary facets 1 and 3"),
    (1, [[0], [2], [2]], r"facet \[2\] is declared twice, as boundary facets 1 and 2"),
], ids=["2d-same-order", "2d-reversed", "2d-interleaved", "1d"])
def test_mesh_validation_rejects_a_duplicated_facet(dim, facets, message, tmp_path):
    # counted twice, such a facet doubled its share of the boundary mass
    if dim == 1:
        nodes, elements = [[0.0], [1.0], [2.0]], [[0, 1], [1, 2]]
    else:
        nodes, elements = [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]]
    with pytest.raises(ValueError, match=f"^{message}$"):
        Mesh(dim, nodes, elements, facets, [0] * len(facets))
    path = tmp_path / "mesh.txt"
    rows = [f"{dim} {len(nodes)} {len(elements)} {len(facets)}"]
    rows += [" ".join(map(str, row)) for row in (*nodes, *elements)]
    rows += [" ".join(map(str, row)) + " 0" for row in facets]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_mesh(path)


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


def test_mesh_without_elements_is_refused(tmp_path):
    # such a mesh was accepted, and its h then failed inside NumPy
    with pytest.raises(ValueError, match="^mesh has no elements$"):
        Mesh(2, [[0, 0], [1, 0], [0, 1]], np.empty((0, 3), int), np.empty((0, 2), int), [])
    with pytest.raises(ValueError, match="^mesh has no elements$"):
        Mesh(1, [[0.0], [1.0]], np.empty((0, 2), int), [[0], [1]], [0, 1])
    # the file section with no rows used to reach Mesh as a 1-D array
    path = tmp_path / "no_elements.txt"
    path.write_text("2 3 0 0\n0 0\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="^mesh has no elements$"):
        read_mesh(path)


@pytest.mark.parametrize("arrays, message", [
    (([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0]),
     "nodes must have dim coordinates each"),
    (([[0, 0], [1, 0], [0, 1]], [0, 1, 2], [[0, 1], [1, 2], [2, 0]], [0, 0, 0]),
     "elements must have dim + 1 nodes each"),
    (([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [0, 1, 1, 2, 2, 0], [0, 0, 0]),
     "boundary facets must have dim nodes each"),
    (([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 0]),
     "boundary facets must have one side tag each"),
], ids=["node-width", "flat-elements", "flat-facets", "short-sides"])
def test_mesh_validation_rejects_misshapen_arrays(arrays, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Mesh(2, *arrays)


TRIANGLE_FILE = ["2 3 1 3", "0 0", "1 0", "0 1", "0 1 2", "0 1 0", "1 2 1", "2 0 2"]


def _triangle_file(tmp_path, replace: dict[int, str]) -> str:
    """The one-triangle mesh file with the lines numbered in `replace` (from
    1) replaced; returns its path."""
    lines = [replace.get(k, line) for k, line in enumerate(TRIANGLE_FILE, 1)]
    path = tmp_path / "mesh.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("replace, message", [
    # a facet row with one index used to leak NumPy's "inhomogeneous shape"
    ({7: "1 1"}, "line 7: facet row has 2 values, expected 3"),
    # a facet section of one index per row, NumPy's "cannot reshape array"
    ({6: "0 0", 7: "1 1", 8: "2 2"}, "line 6: facet row has 2 values, expected 3"),
    ({3: "1 0 0"}, "line 3: node row has 3 values, expected 2"),
    ({5: "0 1"}, "line 5: element row has 2 values, expected 3"),
    ({5: "0 1 2 0"}, "line 5: element row has 4 values, expected 3"),
    ({4: "0 one"}, "line 4: node row holds a value that is not a number"),
    ({5: "0 1 2.0"}, "line 5: element row holds a value that is not an integer"),
    ({8: "2 0 side"}, "line 8: facet row holds a value that is not an integer"),
    ({1: "2 3 1"}, "line 1: header must be 'dim n_nodes n_elements n_facets'"),
    ({1: "2 3 x 3"}, "line 1: header must be 'dim n_nodes n_elements n_facets'"),
    ({1: "3 3 1 3"}, "line 1: header needs dim 1 or 2 and counts of at least 0"),
    ({1: "2 3 -1 3"}, "line 1: header needs dim 1 or 2 and counts of at least 0"),
], ids=["one-facet-row", "one-column-facets", "wide-node", "narrow-element", "wide-element",
        "node-word", "element-decimal", "side-word", "short-header", "header-word", "dim-3",
        "negative-count"])
def test_read_mesh_names_the_section_and_line(tmp_path, replace, message):
    path = _triangle_file(tmp_path, replace)
    with pytest.raises(ValueError, match=f"^{re.escape(path + ': ' + message)}$"):
        read_mesh(path)


@pytest.mark.parametrize("replace, line", [
    ({5: "0 1 99999999999999999999"}, "line 5: element"),
    ({5: "0 -99999999999999999999 2"}, "line 5: element"),
    ({6: "0 9223372036854775808 0"}, "line 6: facet"),
    ({7: "1 2 -9223372036854775809"}, "line 7: facet"),
], ids=["element", "negative-element", "facet-2^63", "side-below-int64"])
def test_read_mesh_names_the_line_of_an_overflowing_integer(tmp_path, replace, line):
    # np.array raised OverflowError, which the CLI does not treat as a config error
    path = _triangle_file(tmp_path, replace)
    message = f"{path}: {line} row holds an integer outside the 64-bit range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mesh(path)


def test_read_mesh_names_the_line_of_a_byte_that_is_not_ascii(tmp_path):
    # the codec's own text ("'ascii' codec can't decode byte 0xc3 in
    # position 42") named no line
    path = _triangle_file(tmp_path, {8: "2 0 \u00e9"})  # UTF-8 c3 a9
    with pytest.raises(ValueError, match=f"^{re.escape(path)}: line 8: byte 0xc3 is not ASCII$"):
        read_mesh(path)


def test_read_mesh_refuses_a_token_write_mesh_never_writes(tmp_path):
    # Python's int read the side tag "1_0" as 10, and the mesh was accepted
    path = _triangle_file(tmp_path, {8: "2 0 1_0"})
    message = f"{path}: line 8: facet row holds a value that is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mesh(path)


def test_read_mesh_keeps_the_64_bit_extremes(tmp_path):
    # both ends of the range parse; the index is then refused by Mesh, the side is kept
    path = _triangle_file(tmp_path, {5: "0 1 9223372036854775807"})
    with pytest.raises(ValueError, match="^element refers to a node index out of range$"):
        read_mesh(path)
    path = _triangle_file(tmp_path, {8: "2 0 -9223372036854775808"})
    assert read_mesh(path).facet_sides.tolist() == [0, 1, -2**63]


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


@pytest.mark.parametrize("mesh", ["rectangle", "refined", "interval", "polygon"])
def test_facet_keys_equal_the_sorted_pair_keys(mesh, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(_PENTAGON)
    mesh = {
        "rectangle": lambda: build_rectangle_mesh(np.pi, 2.0, 5, 3),
        "refined": lambda: refine_uniform(refine_uniform(build_rectangle_mesh(np.pi, 2.0, 5, 3))),
        "interval": lambda: build_interval_mesh(-1.0, np.e, 5),
        "polygon": lambda: read_mesh(path),
    }[mesh]()
    e = mesh.elements
    edges = [e[:, [i, (i + 1) % e.shape[1]]] for i in range(e.shape[1])] if mesh.dim == 2 else [e[:, :1]]
    for facets in [*edges, mesh.facet_nodes, mesh.facet_nodes[:, ::-1]]:
        keys = mesh._facet_keys(facets)
        if mesh.dim == 1:
            assert np.array_equal(keys, facets[:, 0])
        else:
            lo, hi = np.sort(facets, axis=1).T
            assert np.array_equal(keys, lo * mesh.n_nodes + hi)


def _perturbed_rectangle():
    """A 7 x 5 rectangle whose interior nodes are moved off the dyadic grid."""
    mesh = build_rectangle_mesh(np.pi, np.e, 7, 5)
    nodes = mesh.nodes.copy()
    inner = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes())
    step = np.array([np.pi / 7, np.e / 5])
    nodes[inner] += np.random.default_rng(17).uniform(-0.2, 0.2, (inner.size, 2)) * step
    return Mesh(2, nodes, mesh.elements, mesh.facet_nodes, mesh.facet_sides)


def _geometry_reference(mesh):
    """Every geometry array from the corner array nodes[elements]."""
    pts = mesh.nodes[mesh.elements]  # (m, dim + 1, dim)
    bary, w = reference_quadrature(mesh.dim)
    if mesh.dim == 1:
        meas = pts[:, 1, 0] - pts[:, 0, 0]
        h = float(np.abs(meas).max())
        tol = 1e-12 * max(h, 1.0)
        left, right = pts[:, 0, 0], pts[:, 1, 0]
        locator = (left, right, left - tol, right + tol)
        facets = np.ones(mesh.n_facets)
        G = np.stack([-1.0 / meas, 1.0 / meas], axis=1)[:, :, None]
    else:
        v1, v2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
        meas = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
        edges = pts - pts[:, [1, 2, 0]]
        h = float(np.sqrt((edges[:, :, 0] * edges[:, :, 0] + edges[:, :, 1] * edges[:, :, 1]).max()))
        tol = 1e-12 * max(h, 1.0)
        (ax, ay), (bx, by), (cx, cy) = (pts[:, i].T for i in range(3))
        det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        edges = ((cx - bx, cy - by), (ax - cx, ay - cy), (bx - ax, by - ay))
        locator = (ax, ay, bx, by, cx, cy, det, *(-tol * (np.hypot(dx, dy) / np.abs(det)) for dx, dy in edges))
        p = mesh.nodes[mesh.facet_nodes]
        facets = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
        opposite = pts[:, [2, 0, 1]] - pts[:, [1, 2, 0]]
        G = np.stack([-opposite[:, :, 1], opposite[:, :, 0]], axis=2) * (1.0 / (2.0 * meas))[:, None, None]
    points = np.einsum("qk,mkd->mqd", bary, pts)
    weights = np.abs(meas)[:, None] * w[None, :]
    return {"element_measures": meas, "h": np.float64(h), "locator": locator, "facet_measures": facets,
            "element_gradients": G, "quadrature_points": (points, weights)}


@pytest.mark.parametrize("mesh", ["rectangle", "refined", "perturbed", "polygon", "interval"])
def test_geometry_matches_corner_array_reference(mesh, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(_PENTAGON)
    if mesh == "polygon":
        meshes = [read_mesh(path)]
        for _ in range(3):
            meshes.append(refine_uniform(meshes[-1]))
    else:
        meshes = [{
            "rectangle": lambda: build_rectangle_mesh(np.pi, 2.0, 5, 3),
            "refined": lambda: refine_uniform(refine_uniform(refine_uniform(build_rectangle_mesh(np.pi, 2.0, 5, 3)))),
            "perturbed": _perturbed_rectangle,
            "interval": lambda: build_interval_mesh(-1.0, np.e, 5),
        }[mesh]()]
    for m in meshes:
        ref = _geometry_reference(m)
        points, weights, _ = quadrature_points(m)
        got = {"element_measures": m.element_measures, "h": np.float64(m.h), "locator": m.locator,
               "facet_measures": m.facet_measures(), "element_gradients": element_gradients(m),
               "quadrature_points": (points, weights)}
        for name, want in ref.items():
            pairs = zip(got[name], want) if isinstance(want, tuple) else [(got[name], want)]
            for x, y in pairs:
                x, y = np.asarray(x), np.asarray(y)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name


# -- the boundary cover under refinement -------------------------------------


def _test_mesh(name, tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(_PENTAGON)
    return {
        "square": lambda: build_rectangle_mesh(1.0, 1.0, 1, 1),
        "rectangle": lambda: build_rectangle_mesh(np.pi, 2.0, 5, 3),
        "perturbed": _perturbed_rectangle,
        "polygon": lambda: read_mesh(path),
        "interval": lambda: build_interval_mesh(-1.0, np.e, 5),
    }[name]()


@pytest.mark.parametrize("name", ["square", "rectangle", "perturbed", "polygon", "interval"])
def test_every_refined_mesh_passes_the_full_cover_check(name, tmp_path):
    mesh = _test_mesh(name, tmp_path)
    for _ in range(3):
        mesh = refine_uniform(mesh)
        mesh._check_boundary_cover()


def test_only_2d_refinement_skips_the_child_cover_check(monkeypatch, tmp_path):
    calls = []
    check = Mesh._check_boundary_cover

    def counting(self):
        calls.append(self.n_elements)
        check(self)

    monkeypatch.setattr(Mesh, "_check_boundary_cover", counting)
    builds = {
        "build_rectangle_mesh": lambda: _test_mesh("rectangle", tmp_path),
        "read_mesh": lambda: _test_mesh("polygon", tmp_path),
        "build_interval_mesh": lambda: _test_mesh("interval", tmp_path),
        "Mesh": lambda: Mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], [[0, 1], [1, 2], [2, 0]], [0, 0, 0]),
    }
    # the flag that skips it is an init-only argument, not a field of the mesh
    assert [f.name for f in dataclasses.fields(Mesh)] == ["dim", "nodes", "elements", "facet_nodes", "facet_sides"]
    for name, build in builds.items():
        calls.clear()
        mesh = build()
        assert calls == [mesh.n_elements], name
        calls.clear()
        refine_uniform(mesh)
        assert calls == ([] if mesh.dim == 2 else [2 * mesh.n_elements]), name


@pytest.mark.parametrize("facets", [
    [[0, 1], [1, 2], [2, 3]],
    [[0, 1], [1, 2], [2, 3], [1, 3]],
    [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]],
    [[0, 1], [1, 2], [2, 3], [3, 0], [1, 0]],
    [[0, 1], [1, 2], [2, 3], [3, 0], [1, 3], [3, 1]],
], ids=["missing", "swapped", "interior", "duplicated", "in-no-element"])
def test_refinement_checks_the_parent_cover(monkeypatch, facets):
    # a parent built with its own cover check switched off
    with monkeypatch.context() as patch:
        patch.setattr(Mesh, "_check_boundary_cover", lambda self: None)
        parent = Mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]], facets, [0] * len(facets))
    with pytest.raises(ValueError):
        parent._check_boundary_cover()
    message = "^cannot refine: an edge lies neither in two elements nor in one element and one boundary facet$"
    with pytest.raises(ValueError, match=message):
        refine_uniform(parent)
