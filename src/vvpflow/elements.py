"""Reference elements on the unit triangle.

Barycentric coordinates: l0 = 1 - x - y, l1 = x, l2 = y.  Local edge k
joins local vertices k and (k+1) % 3.  Vector elements are represented
in separable form, value = shape(point) * direction(cell), which covers
componentwise Lagrange families (fixed directions e_x / e_y) as well as
the Bernardi-Raugel edge bubbles (per-cell edge normal directions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


_SCALAR_TABULATORS = {
    "p1": (_p1_tab, 3, 1),
    "p2": (_p2_tab, 6, 2),
    "p1bubble": (_p1bubble_tab, 4, 3),
    "dg0": (_dg0_tab, 1, 0),
    "dg1": (_p1_tab, 3, 1),
}


@dataclass(frozen=True)
class ScalarElement:
    family: str
    n_local: int
    degree: int

    def tabulate(self, points):
        """Values (nl, npts) and reference gradients (nl, npts, 2)."""
        return _SCALAR_TABULATORS[self.family][0](points)


@dataclass(frozen=True)
class VectorElement:
    """Two-component element in separable shape x direction form."""

    family: str
    n_local: int
    degree: int
    scalar: ScalarElement | None = field(default=None, compare=False)

    def tabulate(self, points):
        """Scalar shapes (nl, npts) and their reference gradients."""
        if self.family == "bernardi-raugel":
            lam = barycentric(points)
            n = len(lam)
            sv, sg = _p1_tab(points)
            shapes = np.empty((9, n))
            dshapes = np.empty((9, n, 2))
            for k in range(3):
                shapes[2 * k] = shapes[2 * k + 1] = sv[k]
                dshapes[2 * k] = dshapes[2 * k + 1] = sg[k]
            for k in range(3):  # quadratic bubble of local edge k = (k, k+1)
                i, j = k, (k + 1) % 3
                shapes[6 + k] = lam[:, i] * lam[:, j]
                dshapes[6 + k] = (
                    lam[:, i][:, None] * GRAD_LAMBDA[j]
                    + lam[:, j][:, None] * GRAD_LAMBDA[i]
                )
            return shapes, dshapes
        sv, sg = self.scalar.tabulate(points)
        shapes = np.repeat(sv, 2, axis=0)
        dshapes = np.repeat(sg, 2, axis=0)
        return shapes, dshapes

    def directions(self, mesh, cells=slice(None)) -> np.ndarray:
        """Component direction of every local function on ``cells`` (all by
        default), broadcastable to (n_cells, n_local, 2)."""
        if self.family == "bernardi-raugel":
            edges = mesh.cell_edges[cells]
            dirs = np.zeros((len(edges), 9, 2))
            dirs[:, 0:6:2, 0] = 1.0
            dirs[:, 1:6:2, 1] = 1.0
            # one shared normal per global edge keeps the bubble continuous
            dirs[:, 6:9, :] = mesh.edge_normals[edges]
            return dirs
        nl = self.scalar.n_local
        dirs = np.zeros((1, 2 * nl, 2))
        dirs[0, 0::2, 0] = 1.0
        dirs[0, 1::2, 1] = 1.0
        return dirs


def scalar_element(family: str) -> ScalarElement:
    if family not in _SCALAR_TABULATORS:
        raise ValueError(f"unknown scalar family {family!r}; choose from {tuple(_SCALAR_TABULATORS)}")
    _, nl, deg = _SCALAR_TABULATORS[family]
    return ScalarElement(family=family, n_local=nl, degree=deg)


def vector_element(family: str) -> VectorElement:
    if family == "bernardi-raugel":
        return VectorElement(family=family, n_local=9, degree=2)
    if family in ("dg0", "dg1"):
        raise ValueError(f"{family!r} is not supported as a velocity family")
    base = scalar_element(family)
    return VectorElement(family=family, n_local=2 * base.n_local, degree=base.degree, scalar=base)


def reference_basis(family: str, point):
    """Scalar basis values and gradients at one reference point.

    The point must lie in the closed reference triangle.
    """
    pt = np.asarray(point, dtype=float)
    lam = barycentric(pt.reshape(1, 2))[0]
    if np.any(lam < -1e-12):
        raise ValueError(f"point {point} lies outside the reference triangle")
    elem = scalar_element(family)
    vals, grads = elem.tabulate(pt.reshape(1, 2))
    return vals[:, 0].copy(), grads[:, 0, :].copy()
