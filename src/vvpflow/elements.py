"""Reference elements on the unit triangle.

Barycentric coordinates: l0 = 1 - x - y, l1 = x, l2 = y.  Local edge k
joins local vertices k and (k+1) % 3.  Vector elements are represented
in separable form, value = shape(point) * direction(cell), which covers
componentwise Lagrange families (fixed directions e_x / e_y) as well as
the Bernardi-Raugel edge bubbles (per-cell edge normal directions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def barycentric(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points)
    return np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])


def _p1_tab(points):
    lam = barycentric(points)
    vals = lam.T.copy()
    grads = np.broadcast_to(GRAD_LAMBDA[:, None, :], (3, len(lam), 2)).copy()
    return vals, grads


def _p2_tab(points):
    lam = barycentric(points)
    n = len(lam)
    vals = np.empty((6, n))
    grads = np.empty((6, n, 2))
    for i in range(3):
        vals[i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
        grads[i] = (4.0 * lam[:, i] - 1.0)[:, None] * GRAD_LAMBDA[i]
    for k in range(3):  # midpoint node of local edge k = (k, k+1)
        i, j = k, (k + 1) % 3
        vals[3 + k] = 4.0 * lam[:, i] * lam[:, j]
        grads[3 + k] = 4.0 * (
            lam[:, i][:, None] * GRAD_LAMBDA[j] + lam[:, j][:, None] * GRAD_LAMBDA[i]
        )
    return vals, grads


def _p1bubble_tab(points):
    lam = barycentric(points)
    pv, pg = _p1_tab(points)
    n = len(lam)
    vals = np.empty((4, n))
    grads = np.empty((4, n, 2))
    vals[:3], grads[:3] = pv, pg
    vals[3] = lam[:, 0] * lam[:, 1] * lam[:, 2]
    grads[3] = (
        (lam[:, 1] * lam[:, 2])[:, None] * GRAD_LAMBDA[0]
        + (lam[:, 0] * lam[:, 2])[:, None] * GRAD_LAMBDA[1]
        + (lam[:, 0] * lam[:, 1])[:, None] * GRAD_LAMBDA[2]
    )
    return vals, grads


def _dg0_tab(points):
    n = len(np.atleast_2d(points))
    return np.ones((1, n)), np.zeros((1, n, 2))


class Layout(NamedTuple):
    """DOFs per vertex, per edge and per cell; ``spaces`` numbers every DOF
    from it, and the table in its module docstring spells it out."""

    vertex: int
    edge: int
    cell: int

    @property
    def n_local(self) -> int:  # three vertices, three edges and the cell
        return 3 * (self.vertex + self.edge) + self.cell


#: Tabulator, degree and layout row of each scalar family.
_SCALAR_TABULATORS = {
    "p1": (_p1_tab, 1, Layout(1, 0, 0)),
    "p2": (_p2_tab, 2, Layout(1, 1, 0)),
    "p1bubble": (_p1bubble_tab, 3, Layout(1, 0, 1)),
    "dg0": (_dg0_tab, 0, Layout(0, 0, 1)),
    "dg1": (_p1_tab, 1, Layout(0, 0, 3)),
}


@dataclass(frozen=True)
class ScalarElement:
    family: str
    degree: int
    layout: Layout
    n_local = property(lambda self: self.layout.n_local)

    def tabulate(self, points):
        """Values (nl, npts) and reference gradients (nl, npts, 2)."""
        return _SCALAR_TABULATORS[self.family][0](points)


@dataclass(frozen=True)
class VectorElement:
    """Two-component element in separable shape x direction form."""

    family: str
    degree: int
    layout: Layout
    scalar: ScalarElement = field(compare=False)  # vector P1 under the Bernardi-Raugel bubbles
    n_local = property(lambda self: self.layout.n_local)

    def tabulate(self, points):
        """Scalar shapes (nl, npts) and their reference gradients."""
        sv, sg = self.scalar.tabulate(points)
        shapes = np.repeat(sv, 2, axis=0)
        dshapes = np.repeat(sg, 2, axis=0)
        if self.family != "bernardi-raugel":
            return shapes, dshapes
        pv, pg = _p2_tab(points)  # the edge bubbles are P2's edge functions over 4, exactly
        return np.concatenate([shapes, pv[3:] / 4.0]), np.concatenate([dshapes, pg[3:] / 4.0])

    def directions(self, mesh, cells=slice(None)) -> np.ndarray:
        """Component direction of every local function on ``cells`` (all by
        default), one row per cell: (len(cells), n_local, 2).  A Lagrange
        family's is a read-only broadcast of one row, e_x and e_y in turn."""
        edges = mesh.cell_edges[cells]
        k = 2 * self.scalar.n_local  # the componentwise functions
        dirs = np.broadcast_to(np.tile(np.eye(2), (k // 2, 1)), (len(edges), k, 2))
        # the Bernardi-Raugel bubbles: one shared normal per global edge keeps them continuous
        return dirs if k == self.n_local else np.concatenate([dirs, mesh.edge_normals[edges]], axis=1)


def scalar_element(family: str) -> ScalarElement:
    if family not in _SCALAR_TABULATORS:
        raise ValueError(f"unknown scalar family {family!r}; choose from {tuple(_SCALAR_TABULATORS)}")
    _, deg, layout = _SCALAR_TABULATORS[family]
    return ScalarElement(family=family, degree=deg, layout=layout)


def vector_element(family: str) -> VectorElement:
    """Vector Lagrange doubles its scalar layout row; Bernardi-Raugel is vector P1 plus edge bubbles."""
    if family == "bernardi-raugel":
        return VectorElement(family=family, degree=2, layout=Layout(2, 1, 0), scalar=scalar_element("p1"))
    if family in ("dg0", "dg1"):
        raise ValueError(f"{family!r} is not supported as a velocity family")
    base = scalar_element(family)
    layout = Layout(*(2 * k for k in base.layout))
    return VectorElement(family=family, degree=base.degree, layout=layout, scalar=base)


def reference_point(point) -> np.ndarray:
    """``point`` as a (1, 2) array, if it lies in the closed reference triangle."""
    pt = np.asarray(point, dtype=float).reshape(1, 2)
    if np.any(barycentric(pt) < -1e-12):
        raise ValueError(f"point {point} lies outside the reference triangle")
    return pt


def reference_basis(family: str, point):
    """Scalar basis values and gradients at one reference point.

    The point must lie in the closed reference triangle.
    """
    vals, grads = scalar_element(family).tabulate(reference_point(point))
    return vals[:, 0].copy(), grads[:, 0, :].copy()
