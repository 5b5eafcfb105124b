"""Interval meshes and structured triangulations with tagged boundary facets.

Meshes are immutable value objects: nodes, element connectivity and boundary
facets are frozen numpy arrays, so instances can be shared freely across
threads.  Built-in generators cover intervals and axis-aligned rectangles
(fixed lower-left to upper-right diagonal split); general simple polygons are
supported through the plain-text file format of :func:`read_mesh`.
"""

from __future__ import annotations

import re
from dataclasses import KW_ONLY, InitVar, dataclass
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

    A mesh refuses arrays of other shapes, no elements, non-finite
    coordinates, an index out of range, an element whose measure is not
    positive and finite, and facets that do not cover its topological
    boundary exactly once (a facet declared twice, in either node order,
    included).  2D refinement skips only that last check.
    """

    dim: int
    nodes: np.ndarray
    elements: np.ndarray
    facet_nodes: np.ndarray
    facet_sides: np.ndarray
    _: KW_ONLY
    # set only by _refine_2d, which has checked the parent's cover
    _cover_proved: InitVar[bool] = False

    def __post_init__(self, _cover_proved):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        object.__setattr__(self, "nodes", _frozen(self.nodes, np.float64))
        object.__setattr__(self, "elements", _frozen(self.elements, np.int64))
        object.__setattr__(self, "facet_nodes", _frozen(self.facet_nodes, np.int64))
        object.__setattr__(self, "facet_sides", _frozen(self.facet_sides, np.int64))
        self._validate()
        if not _cover_proved:
            self._check_boundary_cover()

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

    def corners(self, index: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """Per axis, the coordinates of the nodes in `index` (the elements by
        default), each array of the shape of `index`; recomputed per call."""
        # nodes[index] takes NumPy's general fancy-indexing path, 7-11x
        # slower than np.take of whole node rows (8,192 to 131,072 elements
        # on a 2-core x86-64 VM); the per-axis arrays are views of that one
        # gather.
        rows = np.take(self.nodes, self.elements if index is None else index, axis=0)
        return tuple(rows[..., d] for d in range(self.dim))

    @cached_property
    def h(self) -> float:
        """Maximum element diameter, computed once: the coordinates are frozen."""
        if self.dim == 1:
            (x,) = self.corners()
            return float(np.abs(x[:, 1] - x[:, 0]).max())
        # the longest edge; sqrt is monotone, so one sqrt of the largest
        # squared length gives the same value as the largest length.  The
        # squares are taken of the edges scaled by 2^-e, which brings the
        # largest component into [0.5, 1), so they cannot overflow; scaling
        # by a power of two is exact, so h has the bits of the unscaled sum
        # wherever that neither overflows nor underflows.
        x, y = self.corners()
        dx, dy = x - x[:, [1, 2, 0]], y - y[:, [1, 2, 0]]
        e = np.frexp(max(np.abs(dx).max(), np.abs(dy).max()))[1]
        dx, dy = np.ldexp(dx, -e), np.ldexp(dy, -e)
        return float(np.ldexp(np.sqrt((dx * dx + dy * dy).max()), e))

    @cached_property
    def element_measures(self) -> np.ndarray:
        """Length (1D) or signed area (2D) of each element, read-only, computed once."""
        if self.dim == 1:
            (x,) = self.corners()
            meas = x[:, 1] - x[:, 0]
        else:
            x, y = self.corners()
            v1x, v1y, v2x, v2y = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0], x[:, 2] - x[:, 0], y[:, 2] - y[:, 0]
            meas = 0.5 * (v1x * v2y - v1y * v2x)
        meas.setflags(write=False)
        return meas

    @cached_property
    def locator(self) -> tuple:
        """Per-element set-up of fem.locate_points, read-only, computed once.

        With tol = 1e-12 max(h, 1): in 1D (left, right, lo, hi), the segment
        ends and the same ends widened by tol; in 2D (ax, ay, bx, by, cx, cy,
        det, la, lb, lc), the corner coordinate columns, twice the signed
        areas and each corner's lowest accepted barycentric weight,
        -tol |opposite edge| / |det|: a displacement by tol changes that
        corner's weight by at most tol |opposite edge| / |det|.
        """
        tol = 1e-12 * max(self.h, 1.0)
        if self.dim == 1:
            (x,) = self.corners()
            left, right = x[:, 0].copy(), x[:, 1].copy()
            arrays = (left, right, left - tol, right + tol)
        else:
            (ax, bx, cx), (ay, by, cy) = (c.T.copy() for c in self.corners())
            det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
            edges = ((cx - bx, cy - by), (ax - cx, ay - cy), (bx - ax, by - ay))  # opposite a, b, c
            # hypot, because a squared edge can overflow where the edge does not
            lows = [-tol * (np.hypot(dx, dy) / np.abs(det)) for dx, dy in edges]
            arrays = (ax, ay, bx, by, cx, cy, det, *lows)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique indices of nodes lying on boundary facets."""
        return np.unique(self.facet_nodes)

    def facet_measures(self) -> np.ndarray:
        """Measure of each boundary facet (1 per point in 1D, length in 2D)."""
        if self.dim == 1:
            return np.ones(self.n_facets)
        x, y = self.corners(self.facet_nodes)
        dx, dy = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0]
        return np.sqrt(dx * dx + dy * dy)

    # -- validation --------------------------------------------------------

    def _validate(self):
        n = self.n_nodes
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dim:
            raise ValueError("nodes must have dim coordinates each")
        if self.elements.ndim != 2 or self.elements.shape[1] != self.dim + 1:
            raise ValueError("elements must have dim + 1 nodes each")
        if not self.n_elements:
            raise ValueError("mesh has no elements")
        if self.facet_nodes.ndim != 2 or self.facet_nodes.shape[1] != self.dim:
            raise ValueError("boundary facets must have dim nodes each")
        if self.facet_sides.shape != (self.n_facets,):
            raise ValueError("boundary facets must have one side tag each")
        if not np.isfinite(self.nodes).all():
            raise ValueError("node coordinates must be finite")
        if self.elements.min() < 0 or self.elements.max() >= n:
            raise ValueError("element refers to a node index out of range")
        if self.facet_nodes.size and (self.facet_nodes.min() < 0 or self.facet_nodes.max() >= n):
            raise ValueError("boundary facet refers to a node index out of range")
        meas = self.element_measures
        # written so that NaN fails it, as an overflowed measure (inf) does
        bad = np.flatnonzero(~((meas > 0) & (meas < np.inf)))
        if bad.size:
            i = int(bad[0])
            kind = "nonpositive" if meas[i] <= 0 else "non-finite"
            raise ValueError(f"element {i} has {kind} measure {float(meas[i])}")

    def _check_boundary_cover(self):
        """Every element facet lies in two elements, or in one element and
        one declared boundary facet, and every declared facet is one element
        facet, declared once; ValueError otherwise."""
        # Facets of each element as keys (its nodes in 1D, its edges ab, bc,
        # ca in 2D); boundary facets appear once.
        e = self.elements
        keys = e if self.dim == 1 else _pair_keys(e, e[:, [1, 2, 0]], self.n_nodes)
        keys = np.sort(keys, axis=None)
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        counts = np.diff(np.concatenate((starts, [keys.size])))
        boundary = keys[starts[counts == 1]]
        if (counts > 2).any():
            raise ValueError("a facet is shared by more than two elements")
        facet_keys = self._facet_keys(self.facet_nodes)
        declared = np.sort(facet_keys)
        twice = np.flatnonzero(declared[1:] == declared[:-1])
        if twice.size:
            first, again = np.flatnonzero(facet_keys == declared[twice[0]])[:2]
            raise ValueError(f"facet {self.facet_nodes[again].tolist()} is declared twice, "
                             f"as boundary facets {first} and {again}")
        if not np.array_equal(declared, boundary):
            raise ValueError(
                "declared boundary facets do not cover the topological boundary: "
                f"{declared.size} declared vs {boundary.size} actual"
            )

    def _facet_keys(self, facets: np.ndarray) -> np.ndarray:
        """One integer per facet, independent of the order of its nodes."""
        if self.dim == 1:
            return facets[:, 0]
        return _pair_keys(*facets.T, self.n_nodes)


def _pair_keys(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """min(i, j) * n + max(i, j): one integer per unordered node pair."""
    return np.minimum(i, j) * n + np.maximum(i, j)


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
    elements = np.empty((nx * ny, 6), dtype=np.int64)
    for k, column in enumerate((ll, lr, ur, ll, ur, ul)):
        elements[:, k] = column

    # Boundary walked counterclockwise: bottom, right, top, left.
    loop = np.concatenate([nid[0, :], nid[1:, nx], nid[ny, nx - 1::-1], nid[ny - 1::-1, 0]])
    facets = np.column_stack([loop[:-1], loop[1:]])
    sides = np.repeat([SIDE_BOTTOM, SIDE_RIGHT, SIDE_TOP, SIDE_LEFT], [nx, ny, nx, ny])

    return Mesh(2, nodes, elements.reshape(-1, 3), facets, sides)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every element (in 2 in 1D, in 4 congruent triangles in 2D).

    In 2D the edge sort that numbers the midpoints also checks the parent's
    boundary cover (every edge met twice: by two elements, or by one element
    and one facet), and the child's cover is not checked again: each child
    facet is half of a parent facet, and each new interior edge lies in two
    children.  Its other checks run: midpoints can overflow, and quarter
    measures underflow.
    """
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
    n0, m = mesh.n_nodes, mesh.n_elements
    e, f = mesh.elements, mesh.elements[:, [1, 2, 0]]
    i, j = mesh.facet_nodes.T
    lo = np.concatenate((np.minimum(e, f).ravel(), np.minimum(i, j)))
    hi = np.concatenate((np.maximum(e, f).ravel(), np.maximum(i, j)))
    keys = lo * n0 + hi
    # One stable sort puts equal edges together, each run led by the edge's
    # first meeting; a mark at every first meeting, summed in meeting order,
    # numbers the midpoints.
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    head = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    leaders = order[head]
    # The parent's cover: runs of exactly two, each led by an element edge
    # (two elements, or one element and then one facet).
    if keys.size % 2 or not head[::2].all() or head[1::2].any() or (leaders >= 3 * m).any():
        raise ValueError("cannot refine: an edge lies neither in two elements "
                         "nor in one element and one boundary facet")
    first = np.zeros(keys.size, dtype=bool)
    first[leaders] = True
    number = n0 - 1 + np.cumsum(first)
    mid = np.empty_like(keys)
    mid[order] = number[leaders][np.cumsum(head) - 1]
    halves = 0.5 * (np.take(mesh.nodes, lo[first], axis=0) + np.take(mesh.nodes, hi[first], axis=0))
    nodes = np.concatenate((mesh.nodes, halves))

    a, b, c = e.T
    mab, mbc, mca = mid[:3 * m].reshape(-1, 3).T
    elements = np.empty((m, 12), dtype=np.int64)
    for k, column in enumerate((a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca)):
        elements[:, k] = column
    mf = mid[3 * m:]
    facets = np.empty((mf.size, 4), dtype=np.int64)
    for k, column in enumerate((i, mf, mf, j)):
        facets[:, k] = column
    sides = np.repeat(mesh.facet_sides, 2)
    return Mesh(2, nodes, elements.reshape(-1, 3), facets.reshape(-1, 2), sides, _cover_proved=True)


# -- plain-text mesh files --------------------------------------------------
#
# Header "dim n_nodes n_elements n_facets", then one line per node, element
# and facet.  Facet lines end with the integer side tag.  Coordinates are
# printed with 17 significant digits so read(write(mesh)) is bit-identical.
# The file is ASCII, and its numbers are signed decimals (coordinates with an
# exponent, inf or nan too); int and float alone would take "1_0" as 10.
_TOKEN = {
    int: re.compile(r"[-+]?[0-9]+"),
    float: re.compile(r"[-+]?(([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?|inf|nan)", re.IGNORECASE),
}


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
    """The mesh a file of the format above describes.

    A malformed file raises ValueError naming the path, and the line for a
    bad header or row: a byte that is not ASCII, a row of the wrong width, a
    token that is not a number of the format's forms, an index outside the
    64-bit range.  The mesh itself is then checked by Mesh.
    """
    # a byte outside ASCII is read as one lone surrogate, U+DC80 to U+DCFF
    with open(path, encoding="ascii", errors="surrogateescape") as f:
        lines = list(enumerate(f, 1))
    for number, line in lines:
        if not line.isascii():
            byte = next(ord(c) for c in line if not c.isascii()) - 0xDC00
            raise ValueError(f"{path}: line {number}: byte 0x{byte:02x} is not ASCII")
    rows = [(number, line.split()) for number, line in lines if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty mesh file")
    line, header = rows[0]
    try:  # a token that is not an integer, or not four tokens
        dim, n_nodes, n_elements, n_facets = (_parse(t, int) for t in header)
    except ValueError:
        raise ValueError(f"{path}: line {line}: header must be 'dim n_nodes n_elements n_facets'") from None
    if dim not in (1, 2) or min(n_nodes, n_elements, n_facets) < 0:
        raise ValueError(f"{path}: line {line}: header needs dim 1 or 2 and counts of at least 0")
    expected = 1 + n_nodes + n_elements + n_facets
    if len(rows) != expected:
        raise ValueError(f"{path}: expected {expected} lines, found {len(rows)}")
    body = rows[1:]
    nodes = _read_section(path, "node", body[:n_nodes], dim, float)
    elements = _read_section(path, "element", body[n_nodes:n_nodes + n_elements], dim + 1, int)
    facets = _read_section(path, "facet", body[n_nodes + n_elements:], dim + 1, int)
    return Mesh(dim, nodes, elements, facets[:, :-1], facets[:, -1])


def _read_section(path, name: str, rows: list, width: int, kind) -> np.ndarray:
    """The (line number, tokens) rows of one section as an array of shape
    (len(rows), width), of floats or of 64-bit integers as kind says."""
    values = []
    for line, tokens in rows:
        if len(tokens) != width:
            raise ValueError(f"{path}: line {line}: {name} row has {len(tokens)} values, expected {width}")
        try:
            values.append([_parse(t, kind) for t in tokens])
        except ValueError:
            raise ValueError(f"{path}: line {line}: {name} row holds a value that is not "
                             f"{'a number' if kind is float else 'an integer'}") from None
    try:
        return np.array(values, dtype=np.float64 if kind is float else np.int64).reshape(len(rows), width)
    except OverflowError:
        line = next(line for (line, _), row in zip(rows, values) if not all(-2**63 <= v < 2**63 for v in row))
        raise ValueError(f"{path}: line {line}: {name} row holds an integer outside the 64-bit range") from None


def _parse(token: str, kind):
    """token read by kind, int or float, if it has that kind's form in _TOKEN."""
    if not _TOKEN[kind].fullmatch(token):
        raise ValueError(token)
    return kind(token)
