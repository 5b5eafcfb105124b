"""Interval meshes and structured triangulations with tagged boundary facets.

Meshes are immutable value objects: nodes, element connectivity and boundary
facets are frozen numpy arrays, so instances can be shared freely across
threads.  Built-in generators cover intervals and axis-aligned rectangles
(fixed lower-left to upper-right diagonal split); general simple polygons are
supported through the plain-text file format of :func:`read_mesh`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Side identifiers used by the built-in generators.
SIDE_LEFT_1D, SIDE_RIGHT_1D = 0, 1
SIDE_BOTTOM, SIDE_RIGHT, SIDE_TOP, SIDE_LEFT = 0, 1, 2, 3


def _frozen(a, dtype):
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Mesh:
    """Simplicial mesh: segments on an interval or triangles in the plane.

    Parameters
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    nodes : array, shape (n_nodes, dim)
        Node coordinates.
    elements : array, shape (n_elements, dim + 1)
        Node indices per element; triangles are counterclockwise.
    facet_nodes : array, shape (n_facets, dim)
        Node indices per boundary facet (single node in 1D, edge in 2D).
    facet_sides : array, shape (n_facets,)
        Integer side tag per boundary facet.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    facet_nodes: np.ndarray
    facet_sides: np.ndarray

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "nodes", _frozen(self.nodes, np.float64))
        object.__setattr__(self, "elements", _frozen(self.elements, np.int64))
        object.__setattr__(self, "facet_nodes", _frozen(self.facet_nodes, np.int64))
        object.__setattr__(self, "facet_sides", _frozen(self.facet_sides, np.int64))
        self._validate()

    # -- basic counts ------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facet_nodes.shape[0]

    @cached_property
    def h(self) -> float:
        """Maximum element diameter, computed once: the coordinates are frozen."""
        pts = self.nodes[self.elements]
        if self.dim == 1:
            return float(np.abs(pts[:, 1, 0] - pts[:, 0, 0]).max())
        # max pairwise edge length per triangle
        d01 = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
        d12 = np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1)
        d20 = np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1)
        return float(np.maximum(np.maximum(d01, d12), d20).max())

    def element_measures(self) -> np.ndarray:
        """Length (1D) or signed area (2D) of each element."""
        pts = self.nodes[self.elements]
        if self.dim == 1:
            return pts[:, 1, 0] - pts[:, 0, 0]
        v1 = pts[:, 1] - pts[:, 0]
        v2 = pts[:, 2] - pts[:, 0]
        return 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])

    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique indices of nodes lying on boundary facets."""
        return np.unique(self.facet_nodes)

    def facet_measures(self) -> np.ndarray:
        """Measure of each boundary facet (1 per point in 1D, length in 2D)."""
        if self.dim == 1:
            return np.ones(self.n_facets)
        p = self.nodes[self.facet_nodes]
        return np.linalg.norm(p[:, 1] - p[:, 0], axis=1)

    # -- validation --------------------------------------------------------

    def _validate(self):
        n = self.n_nodes
        if self.elements.size and (self.elements.min() < 0 or self.elements.max() >= n):
            raise ValueError("element refers to a node index out of range")
        if self.facet_nodes.size and (self.facet_nodes.min() < 0 or self.facet_nodes.max() >= n):
            raise ValueError("boundary facet refers to a node index out of range")
        if self.elements.shape[1] != self.dim + 1:
            raise ValueError("elements must have dim + 1 nodes each")
        meas = self.element_measures()
        bad = np.nonzero(meas <= 0)[0]
        if bad.size:
            raise ValueError(f"element {bad[0]} has nonpositive measure {float(meas[bad[0]])}")
        self._check_boundary_cover()

    def _check_boundary_cover(self):
        # Facets of each element as sorted node pairs (single nodes in 1D),
        # encoded as one integer each; boundary facets appear once.
        if self.dim == 1:
            facets = self.elements.reshape(-1, 1)
        else:
            e = self.elements
            facets = np.concatenate([e[:, [0, 1]], e[:, [1, 2]], e[:, [2, 0]]])
        keys, counts = np.unique(self._facet_keys(facets), return_counts=True)
        boundary = keys[counts == 1]
        if (counts > 2).any():
            raise ValueError("a facet is shared by more than two elements")
        declared = np.unique(self._facet_keys(self.facet_nodes))
        if not np.array_equal(declared, boundary):
            raise ValueError(
                "declared boundary facets do not cover the topological boundary: "
                f"{declared.size} declared vs {boundary.size} actual"
            )

    def _facet_keys(self, facets: np.ndarray) -> np.ndarray:
        """One integer per facet, independent of the order of its nodes."""
        if self.dim == 1:
            return facets[:, 0]
        lo, hi = np.sort(facets, axis=1).T
        return lo * self.n_nodes + hi


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform mesh of (a, b) with n elements and endpoint facets."""
    if not a < b:
        raise ValueError(f"interval requires a < b, got a={a}, b={b}")
    if n < 1:
        raise ValueError(f"need at least one element, got n={n}")
    nodes = np.linspace(a, b, n + 1)[:, None]
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    facet_nodes = np.array([[0], [n]])
    facet_sides = np.array([SIDE_LEFT_1D, SIDE_RIGHT_1D])
    return Mesh(1, nodes, elements, facet_nodes, facet_sides)


def build_rectangle_mesh(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    """Structured triangulation of (0, lx) x (0, ly).

    Each of the nx * ny grid cells is split along its lower-left to
    upper-right diagonal, giving counterclockwise triangles.  Boundary
    facets carry side tags (bottom=0, right=1, top=2, left=3) and are
    ordered counterclockwise around the rectangle.
    """
    if lx <= 0 or ly <= 0:
        raise ValueError(f"rectangle sides must be positive, got lx={lx}, ly={ly}")
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivisions must be positive, got nx={nx}, ny={ny}")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys)  # row iy, column ix
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # nid[iy, ix]

    # Cells in row-major order (iy outer), two triangles per cell.
    ll, lr = nid[:-1, :-1].ravel(), nid[:-1, 1:].ravel()
    ul, ur = nid[1:, :-1].ravel(), nid[1:, 1:].ravel()
    elements = np.stack([np.column_stack([ll, lr, ur]), np.column_stack([ll, ur, ul])], axis=1)

    # Boundary walked counterclockwise: bottom, right, top, left.
    loop = np.concatenate([nid[0, :], nid[1:, nx], nid[ny, nx - 1::-1], nid[ny - 1::-1, 0]])
    facets = np.column_stack([loop[:-1], loop[1:]])
    sides = np.repeat([SIDE_BOTTOM, SIDE_RIGHT, SIDE_TOP, SIDE_LEFT], [nx, ny, nx, ny])

    return Mesh(2, nodes, elements.reshape(-1, 3), facets, sides)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every element (in 2 in 1D, in 4 congruent triangles in 2D)."""
    if mesh.dim == 1:
        return _refine_1d(mesh)
    return _refine_2d(mesh)


def _refine_1d(mesh: Mesh) -> Mesh:
    n0 = mesh.n_nodes
    i, j = mesh.elements.T
    mids = 0.5 * (mesh.nodes[i] + mesh.nodes[j])
    nodes = np.vstack([mesh.nodes, mids])
    m = n0 + np.arange(mesh.n_elements)
    elements = np.stack([np.column_stack([i, m]), np.column_stack([m, j])], axis=1)
    return Mesh(1, nodes, elements.reshape(-1, 2), mesh.facet_nodes, mesh.facet_sides)


def _refine_2d(mesh: Mesh) -> Mesh:
    # Midpoints are numbered in the order the edges are first met: per
    # element ab, bc, ca, then the boundary facets.
    n0 = mesh.n_nodes
    a, b, c = mesh.elements.T
    ends = np.concatenate([np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2), mesh.facet_nodes])
    lo, hi = np.sort(ends, axis=1).T
    _, first, inverse = np.unique(lo * n0 + hi, return_index=True, return_inverse=True)
    met = np.argsort(first)
    number = np.empty(met.size, dtype=np.int64)
    number[met] = n0 + np.arange(met.size)
    mid = number[inverse]
    i, j = lo[first[met]], hi[first[met]]
    nodes = np.vstack([mesh.nodes, 0.5 * (mesh.nodes[i] + mesh.nodes[j])])

    m_el = 3 * mesh.n_elements
    mab, mbc, mca = mid[:m_el].reshape(-1, 3).T
    elements = np.stack([np.column_stack([a, mab, mca]), np.column_stack([b, mbc, mab]),
                         np.column_stack([c, mca, mbc]), np.column_stack([mab, mbc, mca])], axis=1)
    i, j = mesh.facet_nodes.T
    m = mid[m_el:]
    facets = np.stack([np.column_stack([i, m]), np.column_stack([m, j])], axis=1)
    sides = np.repeat(mesh.facet_sides, 2)
    return Mesh(2, nodes, elements.reshape(-1, 3), facets.reshape(-1, 2), sides)


# -- plain-text mesh files --------------------------------------------------
#
# Header "dim n_nodes n_elements n_facets", then one line per node, element
# and facet.  Facet lines end with the integer side tag.  Coordinates are
# printed with 17 significant digits so read(write(mesh)) is bit-identical.


def write_mesh(mesh: Mesh, path) -> None:
    lines = [f"{mesh.dim} {mesh.n_nodes} {mesh.n_elements} {mesh.n_facets}"]
    for row in mesh.nodes:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    for row in mesh.elements:
        lines.append(" ".join(str(int(v)) for v in row))
    for row, s in zip(mesh.facet_nodes, mesh.facet_sides):
        lines.append(" ".join(str(int(v)) for v in row) + f" {int(s)}")
    with open(path, "w", encoding="ascii") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh(path) -> Mesh:
    with open(path, encoding="ascii") as f:
        tokens = [line.split() for line in f if line.strip()]
    if not tokens:
        raise ValueError(f"{path}: empty mesh file")
    header = tokens[0]
    if len(header) != 4:
        raise ValueError(f"{path}: header must be 'dim n_nodes n_elements n_facets'")
    dim, n_nodes, n_elements, n_facets = (int(t) for t in header)
    expected = 1 + n_nodes + n_elements + n_facets
    if len(tokens) != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {len(tokens)}")
    rows = tokens[1:]
    nodes = np.array([[float(t) for t in row] for row in rows[:n_nodes]])
    rows = rows[n_nodes:]
    elements = np.array([[int(t) for t in row] for row in rows[:n_elements]], dtype=np.int64)
    rows = rows[n_elements:]
    facet_nodes = np.array([[int(t) for t in row[:-1]] for row in rows], dtype=np.int64)
    facet_sides = np.array([int(row[-1]) for row in rows], dtype=np.int64)
    if nodes.shape[1] != dim:
        raise ValueError(f"{path}: node coordinates do not match dim={dim}")
    return Mesh(dim, nodes, elements, facet_nodes.reshape(n_facets, dim), facet_sides)
