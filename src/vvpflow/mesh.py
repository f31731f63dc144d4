"""Structured triangular meshes of axis-aligned rectangles.

Each nx-by-ny grid square is split into two triangles along the
lower-left to upper-right diagonal.  Entity numbering is deterministic
(lexicographic vertices, row-major cells, lexicographic edges, which
index arithmetic enumerates without a sort) so that downstream matrix
assembly is reproducible bit for bit.  The same arithmetic names the
edges of each side of the rectangle.  Meshes are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import numpy as np

#: Tags assigned to boundary edges of the rectangle.
BOUNDARY_TAGS = ("bottom", "right", "top", "left")

#: Order in which tagged Dirichlet data is applied; later tags overwrite
#: values at shared corner vertices, so the top (lid) value wins.
TAG_APPLICATION_ORDER = ("bottom", "right", "left", "top")


class Mesh:
    """Triangulation of a rectangle with edge connectivity and its sides.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 3) int array
        Vertex indices, counterclockwise.
    edges : (ne, 2) int array
        Vertex index pairs with ``edges[i, 0] < edges[i, 1]``, in
        lexicographic order.
    cell_edges : (nc, 3) int array
        Global index of local edge k = (cells[c, k], cells[c, (k+1) % 3]).
    edge_normals : (ne, 2) float array
        Unit normal of each edge, fixed by the canonical edge direction
        (low vertex to high vertex, rotated clockwise).  Shared by both
        incident cells.
    sides : dict str -> read-only int64 array
        Ascending edge indices of each side, keyed in ``BOUNDARY_TAGS`` order.
    h : float
        Maximum cell diameter.
    """

    def __init__(self, nx: int, ny: int, rect: tuple[float, float, float, float]):
        for n in (nx, ny):  # a bool is an int, but no count
            if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
                raise ValueError(f"subdivision counts must be integers of at least 1, got {n!r}")
        x0, y0, x1, y1 = rect
        if not np.all(np.isfinite(rect)):
            raise ValueError(f"rectangle corners must be finite, got {rect}")
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate rectangle {rect}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.rect = (float(x0), float(y0), float(x1), float(y1))

        xs = np.linspace(x0, x1, nx + 1)
        ys = np.linspace(y0, y1, ny + 1)
        xx, yy = np.meshgrid(xs, ys)  # vertex (ix, iy) -> iy * (nx + 1) + ix
        self.vertices = np.column_stack([xx.ravel(), yy.ravel()])

        self.cells = self._build_cells(nx, ny)
        self._check_orientation()
        self._build_edges()
        self.h = float(self.edge_lengths.max())  # every cell diameter is one of its edge lengths

    @staticmethod
    def _build_cells(nx: int, ny: int) -> np.ndarray:
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
        ix, iy = ix.ravel(), iy.ravel()
        v00 = iy * (nx + 1) + ix
        v10 = v00 + 1
        v01 = v00 + (nx + 1)
        v11 = v01 + 1
        cells = np.empty((2 * nx * ny, 3), dtype=np.int64)
        cells[0::2] = np.column_stack([v00, v10, v11])  # lower triangle
        cells[1::2] = np.column_stack([v00, v11, v01])  # upper triangle
        return cells

    def _check_orientation(self):
        p = self.vertices[self.cells]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        signed = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if not np.all(signed > 0):  # a NaN area fails too
            raise ValueError("mesh contains non-counterclockwise or degenerate cells")

    def _build_edges(self):
        nx, n1, nv, nc = self.nx, self.nx + 1, len(self.vertices), len(self.cells)
        # vertex v = iy n1 + ix owns its edges right (v, v + 1), up (v, v + n1) and diagonal
        # (v, v + n1 + 1); numbered vertex by vertex in that order, they come out lexicographic
        v = np.arange(nv)
        has_right, has_up = v % n1 < nx, v < self.ny * n1
        owns = np.column_stack([has_right, has_up, has_right & has_up]).ravel()
        self.edges = edges = np.column_stack([np.repeat(v, 3)[owns], (v[:, None] + [1, n1, n1 + 1]).ravel()[owns]])
        ids = np.cumsum(owns) - 1
        ids.setflags(write=False)  # the sides are views of it
        right, up, diag = ids.reshape(nv, 3).T

        # square q with lower-left vertex s holds cells 2q (s, s+1, s+n1+1) and 2q+1 (s, s+n1+1, s+n1)
        s = self.cells[0::2, 0]
        self.cell_edges = np.column_stack([right[s], up[s + 1], diag[s], diag[s], right[s + n1], up[s]]).reshape(nc, 3)
        # bottom and top rows' right edges, right and left columns' up edges
        self.sides = dict(zip(BOUNDARY_TAGS, (right[:nx], up[nx:-n1:n1], right[-n1:-1], up[:-n1:n1])))

        t = self.vertices[edges[:, 1]] - self.vertices[edges[:, 0]]
        self.edge_lengths = length = np.hypot(t[:, 0], t[:, 1])
        self.edge_normals = np.column_stack([t[:, 1], -t[:, 0]]) / length[:, None]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def boundary_edges(self, tag: str | None = None) -> np.ndarray:
        """Ascending, read-only indices of the boundary edges, optionally of one side only."""
        if tag is not None:
            if tag not in BOUNDARY_TAGS:
                raise ValueError(f"unknown boundary tag {tag!r}")
            return self.sides[tag]
        edges = np.sort(np.concatenate(list(self.sides.values())))
        edges.setflags(write=False)
        return edges

    def __repr__(self):
        return (
            f"Mesh({self.nx}x{self.ny} on {self.rect}, "
            f"{self.n_vertices} vertices, {self.n_cells} cells, h={self.h:.4g})"
        )


def build_structured(nx: int, ny: int, rect=(0.0, 0.0, 1.0, 1.0)) -> Mesh:
    """Triangulate ``rect`` into ``2 * nx * ny`` triangles."""
    return Mesh(nx, ny, rect)


def refine_uniform(mesh: Mesh) -> Mesh:
    """One level of uniform refinement; halves the mesh size exactly."""
    return Mesh(2 * mesh.nx, 2 * mesh.ny, mesh.rect)


def cell_geometry(mesh: Mesh, cell: int):
    """Affine map data of one cell.

    Returns the Jacobian of the map from the reference triangle
    {(0,0), (1,0), (0,1)}, its inverse transpose, and the cell area.
    ``cell`` must be an integer in [0, n_cells): a negative one would
    count from the end.
    """
    if not (isinstance(cell, (int, np.integer)) and 0 <= cell < len(mesh.cells)):
        raise ValueError(f"cell {cell!r} is not an integer in [0, {len(mesh.cells)})")
    with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate cell is reported below
        jac, inv, det = _affine_maps(mesh.vertices[mesh.cells[[cell]]])
    if det[0] <= 0 or not np.isfinite(det[0]):
        raise ValueError(f"degenerate cell {cell}: |J| = {det[0]}")
    return jac[0], inv[0].T, 0.5 * det[0]


def geometry_arrays(mesh: Mesh):
    """Batched Jacobians, inverses and determinants for all cells.

    Returns ``(jac, inv, det)`` with shapes (nc, 2, 2), (nc, 2, 2), (nc,);
    ``inv`` is the plain inverse (not transposed).
    """
    return _affine_maps(mesh.vertices[mesh.cells])


def _affine_maps(p: np.ndarray):
    """``(jac, inv, det)`` of the maps onto the triangles with corners ``p``, (n, 3, 2)."""
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return jac, inv, det
